package core

import (
	"fmt"
	"math/big"
	"math/bits"
	"slices"
	"sort"
	"time"

	"sknn/internal/mpc"
	"sknn/internal/paillier"
	"sknn/internal/smc"
)

// SecureMetrics breaks down one SkNNm run. The paper reports that SMINn
// dominates (≥69.7% of the total at k=5, growing with k); SMINnShare
// lets the harness reproduce that number. Candidates/ClustersProbed/
// SMINCount quantify what the clustered index saves: a full scan has
// Candidates = n and SMINCount = k·(n−1), a pruned query proportionally
// less. The counters aggregate over every shard's scan plus the
// coordinator's merge, and Scatter/Merge split the wall clock between
// the two phases. SkNNb queries report in the same shape: Distance,
// Select (C2's decrypt-and-rank) and Reveal are its three phases.
type SecureMetrics struct {
	Total    time.Duration
	Centroid time.Duration // clustered index only: oblivious cluster ranking
	Distance time.Duration // SSED over the candidate records
	BitDecom time.Duration // always zero: no candidate is decomposed outside SMINn (see candidateDistances)
	SMINn    time.Duration // the selection network (Algorithm 6's step 3): every layer's comparisons, records riding them
	Select   time.Duration // SkNNb only: C2's decrypt-and-rank; zero for SkNNm, whose network selects as it compares
	Extract  time.Duration // rendering rows not yet in the row layout; the network moves the records themselves
	Exclude  time.Duration // always zero: the network disqualifies nothing
	Reveal   time.Duration // masked result delivery
	Comm     mpc.StatsSnapshot

	// SMINCount is the number of SMIN invocations Algorithm 6 spends on
	// this query — the protocol's dominant cost unit — including any
	// cluster-ranking tournaments and, on a sharded system, the
	// coordinator's merge: n−1 per selection round over n candidates, so
	// k·(n−1) per scan or merge. It counts the paper's SMIN-equivalents,
	// not the comparisons this engine ran: one selection network
	// (topKNetwork) replaces the k rounds. bench/ gates secure_scan on
	// SMINCount == k·(n−1) and cannot change in the same PR as the
	// engine; the field becomes the comparisons run when it can.
	SMINCount int
	// Candidates is how many records the per-record loop scanned: n for
	// a full scan, the candidate-pool size for a pruned query, the sum
	// over shards for a scatter-gather query.
	Candidates int
	// ClustersProbed is how many clusters contributed candidates (0 for
	// a full scan).
	ClustersProbed int

	// Set by the coordinator on every query: the wall time of the scatter
	// phase (bounded by the slowest shard scan) and of what followed it —
	// the secure merge over the gathered s·k candidates, when there is
	// more than one shard, and the reveal; the two make up Total. Shards
	// is how many partitions the query scattered across, and 0 — not 1 —
	// when one worker holds the table whole: bench/ reads 0 as "the
	// per-record phases above partition this query's wall clock", its
	// tests pin that reading, and bench/ cannot change in the same PR as
	// the engine. It becomes the plain shard count when that benchmark
	// learns that every query has a Scatter and a Merge.
	Shards  int
	Scatter time.Duration
	Merge   time.Duration

	// Failovers counts shard scans this query requeued onto a sibling
	// replica after a worker died mid-protocol (replicated deployments
	// only; see ReplicaSet).
	Failovers int
}

// SMINnShare is SMINn's fraction of total wall-clock time.
func (m *SecureMetrics) SMINnShare() float64 {
	if m.Total <= 0 {
		return 0
	}
	return float64(m.SMINn) / float64(m.Total)
}

// add folds another scan's counters into m (used by the sharded
// coordinator to aggregate per-shard metrics).
func (m *SecureMetrics) add(o *SecureMetrics) {
	m.Centroid += o.Centroid
	m.Distance += o.Distance
	m.BitDecom += o.BitDecom
	m.SMINn += o.SMINn
	m.Select += o.Select
	m.Extract += o.Extract
	m.Exclude += o.Exclude
	m.Comm = m.Comm.Add(o.Comm)
	m.SMINCount += o.SMINCount
	m.Candidates += o.Candidates
	m.ClustersProbed += o.ClustersProbed
	m.Failovers += o.Failovers
}

// prunedCandidates is the query-time index phase of a pruned scan: rank
// the encrypted centroids obliviously with the same SSED + SMINn
// machinery the records get, select nearest clusters until their
// members hold at least max(k, target) records, and pool those
// clusters' live members.
func (s *QuerySession) prunedCandidates(q EncryptedQuery, k, target int, metrics *SecureMetrics) ([]int, error) {
	if target < k {
		target = k
	}
	phase := time.Now()
	clusters, err := s.rankClusters(q, target, metrics)
	if err != nil {
		return nil, err
	}
	metrics.Centroid = time.Since(phase)

	var idx []int
	for _, j := range clusters {
		idx = append(idx, s.tbl.liveMembers(j)...)
	}
	// Sort so the candidate order carries no information about the
	// cluster ranking into later phases (they permute freshly anyway).
	sort.Ints(idx)
	metrics.Candidates = len(idx)
	metrics.ClustersProbed = len(clusters)
	return idx, nil
}

// NearestCluster obliviously routes a point to its closest cluster:
// the same SSED and centroid ranking a pruned query runs, stopped after
// the first winner. It is the secure half of a clustered Insert — the
// data owner encrypts the new record's feature vector like a query, C1
// and C2 rank the encrypted centroids, and only the winning cluster id
// surfaces (to C1). That id is exactly the clustered index's documented
// leakage class: C1 learns which cluster the new record joins, never its
// attribute values. The plaintext alternative — the owner retains the
// centroids and assigns locally — leaks nothing at insert time but
// requires owner-side state; see docs/PROTOCOLS.md.
func (s *QuerySession) NearestCluster(q EncryptedQuery) (int, error) {
	if !s.tbl.Clustered() {
		return 0, ErrNotClustered
	}
	if err := s.checkQuery(q); err != nil {
		return 0, err
	}
	if err := CheckDomainBits(s.pk, s.l); err != nil {
		return 0, err
	}
	// The nearest centroid is the answer even when deletes have hollowed
	// its cluster out: one ranking round, whatever its winner still holds.
	r, err := s.rankingOf(q, &SecureMetrics{})
	if err != nil {
		return 0, err
	}
	return r.next()
}

// rankClusters is the clustered index's query-time phase: the nearest
// centroids, in rank order, until the chosen clusters hold at least
// target live records or every cluster is chosen.
func (s *QuerySession) rankClusters(q EncryptedQuery, target int, metrics *SecureMetrics) ([]int, error) {
	r, err := s.rankingOf(q, metrics)
	if err != nil {
		return nil, err
	}
	var chosen []int
	for pool := 0; pool < target && len(r.live) > 0; {
		winner, err := r.next()
		if err != nil {
			return nil, err
		}
		chosen = append(chosen, winner)
		// Only live members fill the candidate pool: a cluster hollowed
		// out by deletes contributes what it actually still holds.
		pool += len(s.tbl.liveMembers(winner))
	}
	return chosen, nil
}

// clusterRanking is an oblivious ranking of the encrypted centroids, one
// winner a round. Every centroid is a wire of the selection network
// carrying (E(dⱼ), E(j)): its SSED distance and its cluster id, a
// one-chunk record. A round runs topKNetwork(·, 1) — a tournament — so
// the winner's id rides to wire 0, and C1 learns it through the reveal:
// masked by a fresh full-range value, it decrypts at C2 to a uniform one.
// The id is the index's documented leakage; C2 sees coin-masked bits and
// that one uniform value, no distance difference and no tie count.
//
// The first round's first layer — leaf 2p against 2p+1 — is kept as the
// units, and every round compares over the units' wires,
// topKNetwork(len(units), 1): on the first this is exactly
// topKNetwork(c, 1)'s remaining layers, and since each winner is public
// to C1, its unit is updated in plaintext (withoutLeaf), so later rounds
// run one layer fewer for no new frame. A gate hands a tie to its upper
// wire (smc.SMINValuePairsBatch returns B's record where a ≥ b), so of
// centroids at equal distance the larger id ranks first.
type clusterRanking struct {
	s       *QuerySession
	idBits  int         // every id is below 2^idBits: the record width
	leaves  []Candidate // (E(dⱼ), E(j)) for every centroid j
	live    []int       // the clusters not yet chosen
	units   []unit      // nil until the first round compares
	metrics *SecureMetrics
}

// rankingOf starts a ranking of the session's centroids against q: their
// packed SSED distances, and their ids encrypted by C1.
func (s *QuerySession) rankingOf(q EncryptedQuery, metrics *SecureMetrics) (*clusterRanking, error) {
	packed, err := s.tbl.packedCentroids()
	if err != nil {
		return nil, err
	}
	ds, err := s.distancesOf(q, s.tbl.centroids2D(), packed)
	if err != nil {
		return nil, fmt.Errorf("core: centroid SSED: %w", err)
	}
	c := len(ds)
	ids := make([]*big.Int, c)
	live := make([]int, c)
	for j := range ids {
		ids[j], live[j] = big.NewInt(int64(j)), j
	}
	encIDs, err := s.pk.EncryptMany(s.primary().Rand(), ids)
	if err != nil {
		return nil, fmt.Errorf("core: encrypting cluster ids: %w", err)
	}
	leaves := make([]Candidate, c)
	for j := range leaves {
		leaves[j] = Candidate{Dist: ds[j], Rec: EncryptedRecord{encIDs[j]}}
	}
	idBits := max(1, bits.Len(uint(c-1)))
	return &clusterRanking{s: s, idBits: idBits, leaves: leaves, live: live, metrics: metrics}, nil
}

// next runs one ranking round and returns its winner, the nearest
// centroid not yet chosen. A lone live centroid wins without a round.
func (r *clusterRanking) next() (int, error) {
	s := r.s
	if err := s.ctxErr(); err != nil {
		return 0, err
	}
	if len(r.live) == 1 {
		winner := r.live[0]
		r.live = nil
		return winner, nil
	}
	round := len(r.leaves) - len(r.live) + 1
	if r.units == nil {
		wires := append([]Candidate(nil), r.leaves...)
		first := topKNetwork(len(wires), 1)[0]
		if err := s.runNetwork(wires, [][]comparator{first}, r.idBits); err != nil {
			return 0, fmt.Errorf("core: centroid ranking (round 1): %w", err)
		}
		for _, g := range first {
			r.units = append(r.units, unit{a: g.i, b: g.j, min: wires[g.i]})
		}
		// An odd last leaf has no partner and stands alone.
		if last := len(wires) - 1; last%2 == 0 {
			r.units = append(r.units, unit{a: last, b: -1, min: wires[last]})
		}
	}
	wires := make([]Candidate, len(r.units))
	for i, u := range r.units {
		wires[i] = u.min
	}
	if err := s.runNetwork(wires, topKNetwork(len(wires), 1), r.idBits); err != nil {
		return 0, fmt.Errorf("core: centroid ranking (round %d): %w", round, err)
	}
	r.metrics.SMINCount += len(r.live) - 1

	masks, revealed, err := s.maskedDecrypt(wires[0].Rec)
	if err != nil {
		return 0, fmt.Errorf("core: centroid ranking (round %d): %w", round, err)
	}
	id := new(big.Int).Sub(revealed[0], masks[0])
	id.Mod(id, s.pk.N)
	at := -1
	if id.Cmp(big.NewInt(int64(len(r.leaves)))) < 0 {
		at = slices.Index(r.live, int(id.Int64()))
	}
	if at < 0 {
		return 0, fmt.Errorf("%w: round %d revealed no live cluster of %d", ErrBadFrame, round, len(r.leaves))
	}
	winner := r.live[at]
	r.live = slices.Delete(r.live, at, at+1)
	r.units = withoutLeaf(r.units, winner, r.leaves)
	return winner, nil
}

// scanTopK is the body of Algorithm 6 over the candidate records idx — a
// full scan passes every live record, the pruned path the probed
// clusters' members: SSED (candidateDistances), the records in the
// session's row layout, and the selection network (selectTopK).
func (s *QuerySession) scanTopK(q EncryptedQuery, k int, idx []int, metrics *SecureMetrics) ([]Candidate, error) {
	ds, err := s.candidateDistances(q, idx, metrics)
	if err != nil {
		return nil, err
	}
	// Rows not yet rendered in the layout (the first query after they
	// were stored) are packed here, on extraction's account.
	phase := time.Now()
	records, err := s.tbl.recordRows(idx)
	if err != nil {
		return nil, err
	}
	metrics.Extract += time.Since(phase)
	return s.selectTopK(records, ds, k, metrics)
}

// candidateRecords lists the candidates' records.
func candidateRecords(cands []Candidate) []EncryptedRecord {
	rows := make([]EncryptedRecord, len(cands))
	for i, c := range cands {
		rows[i] = c.Rec
	}
	return rows
}

// candidateDistances is Stage 1 of Algorithm 6 over the candidate
// records idx: SSED (step 2a) for every candidate, chunked across the
// session's workers. This — not the selection — is the data-parallel
// bulk a sharded deployment scatters. The paper's step 2b (SBD of every
// distance) has no counterpart here: the network compares composed
// values, so no candidate is ever bit-decomposed outside a comparison.
func (s *QuerySession) candidateDistances(q EncryptedQuery, idx []int, metrics *SecureMetrics) ([]*paillier.Ciphertext, error) {
	// Stage boundary: a canceled query stops before SSED rather than
	// paying for a scan nobody will read.
	if err := s.ctxErr(); err != nil {
		return nil, err
	}
	phase := time.Now()
	packed, err := s.tbl.packedFeatureRows(idx)
	if err != nil {
		return nil, err
	}
	ds, err := s.distancesOf(q, s.tbl.featureRows(idx), packed)
	if err != nil {
		return nil, err
	}
	metrics.Distance = time.Since(phase)
	if err := s.ctxErr(); err != nil {
		return nil, err
	}
	return ds, nil
}

// selectTopK is step 3 of Algorithm 6 over pre-computed candidate
// distances, reshaped: where the paper runs SMINn, then extracts and
// disqualifies the winner, k times in sequence, one data-independent
// selection network (topKNetwork) leaves the k nearest on its first
// wires. A gate is one value-domain comparison (smc.SMINValuePairsBatch)
// whose output round also carries the two records' chunks, so the
// minimum's record moves with its distance in the same round trips, and
// a gate that keeps both outputs takes the maximum as a + b − min, and
// its record likewise, for free. Every gate of a layer shares one peel,
// l + 1 round trips, spread across the session's streams. It is
// deliberately table-agnostic — candidates are (distance, record) pairs,
// each record in the session's row layout (rowLayoutFor: ⌈m/c⌉ chunks of c
// slot-packed columns, or the m attribute ciphertexts when c = 1) — so
// the same network selects from a shard's scanned records and, at the
// coordinator, from the candidates the shards return.
//
// The k candidates come back as a set, in no order, each carrying its
// composed E(d) — what lets a shard ship encrypted candidates upward
// without ever decrypting a distance, and the coordinator merge them with
// one more network. dists is E(dᵢ) for every candidate (SSED's output, or
// a gathered Candidate.Dist). With n ≤ k no gate runs, and the records
// are re-randomized instead, so that none reaches the reveal as stored.
func (s *QuerySession) selectTopK(records [][]*paillier.Ciphertext, dists []*paillier.Ciphertext, k int, metrics *SecureMetrics) ([]Candidate, error) {
	n := len(records)
	if len(dists) != n {
		return nil, fmt.Errorf("core: %d candidate distances, %d records", len(dists), n)
	}
	if err := validateK(k, n); err != nil {
		return nil, err
	}
	phase := time.Now()
	wires := make([]Candidate, n)
	for i := range wires {
		wires[i] = Candidate{Dist: dists[i], Rec: records[i]}
	}
	layers := topKNetwork(n, k)
	if len(layers) == 0 {
		for i := range wires {
			rec, err := s.rerandomized(wires[i].Rec)
			if err != nil {
				return nil, err
			}
			wires[i].Rec = rec
		}
	}
	// Every chunk is below 2^(Cols·Bits).
	if err := s.runNetwork(wires, layers, s.layout.Cols*s.layout.Bits); err != nil {
		return nil, err
	}
	metrics.SMINn += time.Since(phase)
	metrics.SMINCount += k * (n - 1)
	return wires[:k], nil
}

// runNetwork runs the selection network's layers over wires in place,
// every wire's record recBits-wide chunks — the one loop through which
// the engine compares anything: the scan's and merge's top-k and the
// cluster ranking's tournaments.
func (s *QuerySession) runNetwork(wires []Candidate, layers [][]comparator, recBits int) error {
	for d, layer := range layers {
		// Layer boundary: a canceled query abandons the rest of the network
		// (the transport also enforces this mid-layer, frame by frame).
		if err := s.ctxErr(); err != nil {
			return err
		}
		if err := s.compareLayer(wires, layer, recBits); err != nil {
			return fmt.Errorf("core: selection layer %d of %d: %w", d+1, len(layers), err)
		}
	}
	return nil
}

// compareLayer runs one layer of the selection network on wires in
// place: every gate one value-domain comparison
// (smc.SMINValuePairsBatch, l+1 round trips however many), spread across
// the session's streams, its minimum, record and all, onto its wire i,
// and the maximum onto j where the gate keeps both. The session's l must
// satisfy CheckDomainBits; every SkNNm entry point checks it.
func (s *QuerySession) compareLayer(wires []Candidate, layer []comparator, recBits int) error {
	pairs := make([]smc.SMINValuePair, len(layer))
	for p, g := range layer {
		a, b := wires[g.i], wires[g.j]
		pairs[p] = smc.SMINValuePair{A: a.Dist, B: b.Dist, RecA: a.Rec, RecB: b.Rec}
	}
	mins := make([]*paillier.Ciphertext, len(pairs))
	recs := make([][]*paillier.Ciphertext, len(pairs))
	err := s.parallelOverRecords(len(pairs), func(rq *smc.Requester, lo, hi int) error {
		m, r, err := rq.SMINValuePairsBatch(pairs[lo:hi], s.l, recBits)
		if err != nil {
			return err
		}
		copy(mins[lo:hi], m)
		copy(recs[lo:hi], r)
		return nil
	})
	if err != nil {
		return err
	}
	// The maxima a + b − min, record chunk by chunk, of every gate that
	// keeps both: one batch inversion for the layer.
	pk := s.pk
	var negs []*paillier.Ciphertext
	for p, g := range layer {
		if g.both {
			negs = append(append(negs, mins[p]), recs[p]...)
		}
	}
	negs = pk.InvMany(negs)
	for p, g := range layer {
		pr := pairs[p]
		if g.both {
			maxRec := make(EncryptedRecord, len(recs[p]))
			for c := range maxRec {
				maxRec[c] = pk.Add(pk.Add(pr.RecA[c], pr.RecB[c]), negs[1+c])
			}
			wires[g.j] = Candidate{Dist: pk.Add(pk.Add(pr.A, pr.B), negs[0]), Rec: maxRec}
			negs = negs[1+len(recs[p]):]
		}
		wires[g.i] = Candidate{Dist: mins[p], Rec: recs[p]}
	}
	return nil
}

// rerandomized returns fresh encryptions of rec's chunks.
func (s *QuerySession) rerandomized(rec EncryptedRecord) (EncryptedRecord, error) {
	out := make(EncryptedRecord, len(rec))
	for c, ct := range rec {
		var err error
		if out[c], err = s.pk.Rerandomize(s.primary().Rand(), ct); err != nil {
			return nil, fmt.Errorf("core: re-randomizing a record: %w", err)
		}
	}
	return out, nil
}

// TopK is the worker's half of a query: the scan — pruned when the
// session's table carries a cluster index and target > 0, full
// otherwise — stopped before the masked reveal, which the coordinator
// performs, returning the top-k candidates still encrypted (for SkNNm
// an unordered set of E(d) and the record the network moved with it;
// for SkNNb E(d) plus the record, nearest first). k is clamped to the shard's
// live record count: a shard smaller than k contributes everything it
// has, and an empty shard contributes nothing.
func (s *QuerySession) TopK(q EncryptedQuery, k, target int, secure bool) ([]Candidate, *SecureMetrics, error) {
	if err := s.checkQuery(q); err != nil {
		return nil, nil, err
	}
	if k > s.tbl.N() {
		k = s.tbl.N()
	}
	if k == 0 {
		return nil, &SecureMetrics{}, nil
	}
	if !secure {
		return s.basicTopK(q, k)
	}
	if err := CheckDomainBits(s.pk, s.l); err != nil {
		return nil, nil, err
	}
	metrics := &SecureMetrics{}
	comm0 := s.CommStats()
	start := time.Now()

	var idx []int
	var err error
	if s.tbl.Clustered() && target > 0 {
		idx, err = s.prunedCandidates(q, k, target, metrics)
		if err != nil {
			return nil, nil, err
		}
	} else {
		idx = s.tbl.liveIdx
		metrics.Candidates = len(idx)
	}
	// Shard-local candidates ship their composed E(d) to the coordinator's
	// merge — every gate of the network produces it for free.
	cands, err := s.scanTopK(q, k, idx, metrics)
	if err != nil {
		return nil, nil, err
	}
	metrics.Total = time.Since(start)
	metrics.Comm = s.CommStats().Sub(comm0)
	return cands, metrics, nil
}

// mergeCandidates is the coordinator's secure merge: selectTopK — the
// identical network the shards ran — over the concatenation of the
// shards' candidate sets, whose composed distances feed the gates
// directly, so no bit decomposition happens at the merge boundary at all.
// Nothing is assumed about the order within a set. k is clamped to the
// candidates the lists hold.
func (s *QuerySession) mergeCandidates(lists [][]Candidate, k int, metrics *SecureMetrics) ([]Candidate, error) {
	chunks := s.layout.Chunks(s.shape.M)
	var records [][]*paillier.Ciphertext
	var ds []*paillier.Ciphertext
	for _, list := range lists {
		for _, cand := range list {
			i := len(ds)
			if cand.Dist == nil {
				return nil, fmt.Errorf("%w: merge candidate %d has no distance", ErrBadFrame, i)
			}
			// A remote shard's frame is outside input: a record in another row
			// layout than this table shape, key and attribute width produce cannot
			// be merged — reject it here rather than read its chunks as
			// differently packed columns.
			if len(cand.Rec) != chunks {
				return nil, fmt.Errorf("%w: merge candidate %d has %d record ciphertexts, want %d",
					ErrBadFrame, i, len(cand.Rec), chunks)
			}
			records = append(records, cand.Rec)
			ds = append(ds, cand.Dist)
		}
	}
	return s.selectTopK(records, ds, min(k, len(ds)), metrics)
}

// unit is one gate of the cluster ranking's kept first layer: leaves a
// and b (b < 0 for a lone leaf) and min, the wire it left — E(min) of
// their current distances and the E(id) riding it.
type unit struct {
	a, b int
	min  Candidate
}

// withoutLeaf drops leaf i, a winner C1 knows in the clear, from its
// unit: a pair becomes its partner alone, whose wire is its own leaf —
// E(d) as SSED produced it and its E(id) — and a lone leaf's unit goes.
func withoutLeaf(units []unit, i int, leaves []Candidate) []unit {
	for j, u := range units {
		switch i {
		case u.a, u.b:
			if u.b < 0 {
				return append(units[:j], units[j+1:]...)
			}
			partner := u.a + u.b - i
			units[j] = unit{a: partner, b: -1, min: leaves[partner]}
			return units
		}
	}
	return units
}
