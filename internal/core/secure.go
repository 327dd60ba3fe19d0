package core

import (
	"fmt"
	"math/big"
	"sort"
	"sync"
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
	SMINn    time.Duration // sum over the k SMINn invocations
	Select   time.Duration // τ/β blinding + C2 one-hot (step 3(b)-(c))
	Extract  time.Duration // oblivious record extraction (step 3(d))
	Exclude  time.Duration // SBOR disqualification (step 3(e))
	Reveal   time.Duration // masked result delivery
	Comm     mpc.StatsSnapshot

	// SMINCount is the number of SMIN invocations this query spent —
	// the protocol's dominant cost unit — including any cluster-ranking
	// tournaments and, on a sharded system, the coordinator's merge.
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
func (s *QuerySession) prunedCandidates(q EncryptedQuery, k, domainBits, target int, metrics *SecureMetrics) ([]int, error) {
	if target < k {
		target = k
	}
	phase := time.Now()
	clusters, err := s.rankClusters(q, domainBits, target, metrics)
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
// the same SSED + SBD + SMINn centroid ranking a pruned query runs,
// stopped after the first winner. It is the secure half of a clustered
// Insert — the data owner encrypts the new record's feature vector like
// a query, C1 and C2 rank the encrypted centroids, and only the winning
// cluster id surfaces (to C1). That id is exactly the clustered index's
// documented leakage class: C1 learns which cluster the new record
// joins, never its attribute values. The plaintext alternative — the
// owner retains the centroids and assigns locally — leaks nothing at
// insert time but requires owner-side state; see docs/PROTOCOLS.md.
func (s *QuerySession) NearestCluster(q EncryptedQuery, domainBits int) (int, error) {
	if !s.tbl.Clustered() {
		return 0, ErrNotClustered
	}
	if err := s.checkQuery(q); err != nil {
		return 0, err
	}
	if err := CheckDomainBits(s.pk, domainBits); err != nil {
		return 0, err
	}
	// target=1 stops after the first cluster able to hold a record; the
	// rank order makes chosen[0] the nearest centroid even when earlier
	// winners were hollowed out by deletes.
	chosen, err := s.rankClusters(q, domainBits, 1, &SecureMetrics{})
	if err != nil {
		return 0, err
	}
	if len(chosen) == 0 {
		return 0, fmt.Errorf("core: cluster ranking chose nothing")
	}
	return chosen[0], nil
}

// attrPackBits is the slot payload width for packed SSED and for
// row-packed records: half the squared-distance domain, which always
// covers one attribute value and its query difference (l ≥ 2b by
// dataset.DomainBits).
func attrPackBits(domainBits int) int {
	if b := domainBits / 2; b > 1 {
		return b
	}
	return 1
}

// rankClusters is the clustered index's query-time phase: an oblivious
// top-p selection over the encrypted centroids. Each round runs the
// value-domain SMINn over the still-live centroid distances, blinds and
// permutes the differences exactly like step 3(b)-(c), and asks C2 for
// the argmin *position* (OpMinIndex) instead of a one-hot vector; C1
// inverse-permutes the position into a cluster id — the index's
// documented leakage — removes that cluster from the live set in
// plaintext (no disqualification needed once the winner is known), and
// repeats until the chosen clusters hold at least target records.
func (s *QuerySession) rankClusters(q EncryptedQuery, domainBits, target int, metrics *SecureMetrics) ([]int, error) {
	packed, err := s.tbl.packedCentroids(attrPackBits(domainBits))
	if err != nil {
		return nil, err
	}
	ds, err := s.distancesOf(q, s.tbl.centroids2D(), packed)
	if err != nil {
		return nil, fmt.Errorf("core: centroid SSED: %w", err)
	}

	live := make([]int, len(ds))
	for i := range live {
		live[i] = i
	}
	var chosen []int
	pool := 0
	for pool < target && len(live) > 0 {
		if err := s.ctxErr(); err != nil {
			return nil, err
		}
		var winner int
		if len(live) == 1 {
			winner = live[0]
		} else {
			liveDs := make([]*paillier.Ciphertext, len(live))
			for i, j := range live {
				liveDs[i] = ds[j]
			}
			encMin, err := s.sminnValue(liveDs, domainBits)
			if err != nil {
				return nil, fmt.Errorf("core: centroid SMINn (round %d): %w", len(chosen)+1, err)
			}
			metrics.SMINCount += len(live) - 1

			perm, err := smc.NewPermutation(s.primary().Rand(), len(live))
			if err != nil {
				return nil, fmt.Errorf("core: centroid permutation: %w", err)
			}
			permuted := make([]*paillier.Ciphertext, len(live))
			for i := range live {
				permuted[i] = ds[live[perm[i]]]
			}
			tauP, err := s.blindDiffs(encMin, permuted)
			if err != nil {
				return nil, fmt.Errorf("core: centroid blind: %w", err)
			}
			resp, err := mpc.RoundTrip(s.primary().Conn(), &mpc.Message{Op: OpMinIndex, Ints: tauP})
			if err != nil {
				return nil, fmt.Errorf("core: centroid min-index: %w", err)
			}
			if len(resp.Ints) != 1 || !resp.Ints[0].IsInt64() {
				return nil, fmt.Errorf("%w: min-index reply", ErrBadFrame)
			}
			pos := int(resp.Ints[0].Int64())
			if pos < 0 || pos >= len(live) {
				return nil, fmt.Errorf("%w: min-index position %d of %d", ErrBadFrame, pos, len(live))
			}
			winner = live[perm[pos]]
		}
		chosen = append(chosen, winner)
		// Only live members fill the candidate pool: a cluster hollowed
		// out by deletes contributes what it actually still holds.
		pool += len(s.tbl.liveMembers(winner))
		for i, j := range live {
			if j == winner {
				live = append(live[:i], live[i+1:]...)
				break
			}
		}
	}
	return chosen, nil
}

// scanTopK is the body of Algorithm 6 over the candidate records idx — a
// full scan passes every live record, the pruned path the probed
// clusters' members: SSED (candidateDistances), the records in the
// session's row layout, and the k selection rounds (selectTopK).
func (s *QuerySession) scanTopK(q EncryptedQuery, k, domainBits int, idx []int, metrics *SecureMetrics) ([]Candidate, error) {
	ds, err := s.candidateDistances(q, domainBits, idx, metrics)
	if err != nil {
		return nil, err
	}
	// Rows not yet rendered in the layout (the first query after they
	// were stored) are packed here, on extraction's account.
	phase := time.Now()
	records, err := s.tbl.recordRows(s.rowLayout(domainBits), idx)
	if err != nil {
		return nil, err
	}
	metrics.Extract += time.Since(phase)
	return s.selectTopK(records, ds, k, domainBits, metrics)
}

// candidateRecords lists the candidates' records in rank order.
func candidateRecords(cands []Candidate) []EncryptedRecord {
	rows := make([]EncryptedRecord, len(cands))
	for i, c := range cands {
		rows[i] = c.Rec
	}
	return rows
}

// candidateDistances is Stage 1 of Algorithm 6 over the candidate
// records idx: SSED (step 2a) for every candidate, chunked across the
// session's workers. This — not the k selection rounds — is the
// data-parallel bulk a sharded deployment scatters. The paper's step 2b
// (SBD of every distance) has no counterpart here: the tournament
// compares composed values and the disqualification rewrites them in
// place, so no candidate is ever bit-decomposed outside SMINn.
func (s *QuerySession) candidateDistances(q EncryptedQuery, domainBits int, idx []int, metrics *SecureMetrics) ([]*paillier.Ciphertext, error) {
	// Stage boundary: a canceled query stops before SSED rather than
	// paying for a scan nobody will read.
	if err := s.ctxErr(); err != nil {
		return nil, err
	}
	phase := time.Now()
	packed, err := s.tbl.packedFeatureRows(attrPackBits(domainBits), idx)
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

// selectTopK is the k-round selection loop of Algorithm 6 (steps 3(a)
// through 3(e)) over pre-computed candidate distances: value-domain
// SMINn, blinded min-select, oblivious record extraction, SM
// disqualification. It is deliberately table-agnostic — candidates are
// (distance, record) pairs, each record in the session's row layout
// (rowLayout: ⌈m/c⌉ chunks of c slot-packed columns, or the m attribute
// ciphertexts when c = 1) — so the same engine selects from a shard's
// scanned records and, at the coordinator, from the s·k encrypted
// candidates the shards return: the secure merge is exactly this loop
// over the gathered candidates.
//
// Every returned Candidate carries the round's E(dmin) alongside the
// extracted record — the composed value each round produces anyway —
// which is what lets a shard ship rank-ordered encrypted candidates
// upward without ever decrypting a distance, and lets the coordinator
// fold shard result sets into further selections. dists is E(dᵢ) for
// every candidate (SSED's output, or a gathered Candidate.Dist) and is
// not modified.
func (s *QuerySession) selectTopK(records [][]*paillier.Ciphertext, dists []*paillier.Ciphertext, k, domainBits int, metrics *SecureMetrics) ([]Candidate, error) {
	pk := s.pk
	n := len(records)
	if len(dists) != n {
		return nil, fmt.Errorf("core: %d candidate distances, %d records", len(dists), n)
	}
	if err := validateK(k, n); err != nil {
		return nil, err
	}
	layout := s.rowLayout(domainBits)
	chunks := layout.Chunks(s.m) // ciphertexts per record; callers hand records over in this layout
	// The round's composed distances E(dᵢ), carried from round to round:
	// the disqualification below rewrites each winner in place.
	ds := make([]*paillier.Ciphertext, n)
	copy(ds, dists)

	selected := make([]Candidate, 0, k)

	for iter := 0; iter < k; iter++ {
		// Round boundary: a canceled query abandons the remaining
		// selection rounds (the transport also enforces this mid-round,
		// frame by frame).
		if err := s.ctxErr(); err != nil {
			return nil, err
		}

		// Step 3(a): E(dmin), by the value-domain tournament over the
		// composed distances: n−1 SMIN-equivalents, ending the round
		// holding the composed minimum — the form every consumer (the
		// one-hot select here, a shard merge upstream) wants.
		phase := time.Now()
		encMin, err := s.sminnValue(ds, domainBits)
		if err != nil {
			return nil, fmt.Errorf("core: iteration %d SMINn: %w", iter+1, err)
		}
		metrics.SMINCount += n - 1
		metrics.SMINn += time.Since(phase)

		// Step 3(b)-(c): τᵢ = E(rᵢ·(dmin−dᵢ)), permute, and ask C2 for the
		// one-hot selector U. The permutation is fresh per iteration and
		// lives only on this session.
		phase = time.Now()
		perm, err := smc.NewPermutation(s.primary().Rand(), n)
		if err != nil {
			return nil, fmt.Errorf("core: iteration %d permutation: %w", iter+1, err)
		}
		permuted := make([]*paillier.Ciphertext, n)
		for i := range permuted {
			permuted[i] = ds[perm[i]]
		}
		tauP, err := s.blindDiffs(encMin, permuted)
		if err != nil {
			return nil, fmt.Errorf("core: iteration %d blind: %w", iter+1, err)
		}
		resp, err := mpc.RoundTrip(s.primary().Conn(), &mpc.Message{Op: OpMinSelect, Ints: tauP})
		if err != nil {
			return nil, fmt.Errorf("core: iteration %d min-select: %w", iter+1, err)
		}
		if len(resp.Ints) != n {
			return nil, fmt.Errorf("%w: min-select reply has %d ints, want %d",
				ErrBadFrame, len(resp.Ints), n)
		}
		// V = π⁻¹(U).
		v := make([]*paillier.Ciphertext, n)
		for i := 0; i < n; i++ {
			ct, err := pk.FromRaw(resp.Ints[i])
			if err != nil {
				return nil, fmt.Errorf("core: iteration %d U[%d]: %w", iter+1, i, err)
			}
			v[perm[i]] = ct
		}
		metrics.Select += time.Since(phase)

		// Step 3(d): oblivious extraction — every chunk g of the winner is
		// E(P′_g) = Πᵢ SM(Vᵢ, E(P_{i,g})): n·⌈m/c⌉ products where the
		// paper's per-attribute form pays n·m. V is one-hot, so the sum is
		// the winner's chunk bit for bit and its slots never carry. Vᵢ is
		// a bit and a chunk holds c columns below 2^w, so the products ride
		// the packed SM uplink under that bound.
		phase = time.Now()
		// Per-worker partial chunk sums, combined at the end.
		partials := make([]EncryptedRecord, len(s.rqs))
		err = s.parallelOverRecords(n, func(w int, rq *smc.Requester, lo, hi int) error {
			sel := make([]*paillier.Ciphertext, 0, (hi-lo)*chunks)
			rec := make([]*paillier.Ciphertext, 0, (hi-lo)*chunks)
			for i := lo; i < hi; i++ {
				for _, ct := range records[i] {
					sel = append(sel, v[i])
					rec = append(rec, ct)
				}
			}
			prods, err := rq.SMBatchBounded(sel, rec, 1, layout.Cols*layout.Bits)
			if err != nil {
				return fmt.Errorf("core: extract chunk [%d,%d): %w", lo, hi, err)
			}
			partials[w] = sumRecords(pk, nil, prods, chunks)
			return nil
		})
		if err != nil {
			return nil, err
		}
		var record EncryptedRecord
		for _, part := range partials {
			record = sumRecords(pk, record, part, chunks)
		}
		selected = append(selected, Candidate{Dist: encMin, Rec: record})
		metrics.Extract += time.Since(phase)

		// Step 3(e): oblivious disqualification, driving the winner's
		// distance to the 2^l − 1 sentinel (strictly above any real
		// distance thanks to the DomainBits headroom bit): dᵢ +=
		// Vᵢ·(2^l−1−dᵢ) — n secure multiplications where the paper's bit
		// form pays n·l SBORs. The gap 2^l−1−dᵢ is below 2^l, so the
		// products ride the packed SM uplink under the domain bound.
		// Skipped after the final iteration (nothing consumes the update).
		if iter == k-1 {
			break
		}
		phase = time.Now()
		sentinel := new(big.Int).Lsh(big.NewInt(1), uint(domainBits))
		sentinel.Sub(sentinel, big.NewInt(1))
		err = s.parallelOverRecords(n, func(_ int, rq *smc.Requester, lo, hi int) error {
			sel := make([]*paillier.Ciphertext, hi-lo)
			gaps := make([]*paillier.Ciphertext, hi-lo)
			for i := lo; i < hi; i++ {
				sel[i-lo] = v[i]
				gaps[i-lo] = pk.AddPlain(pk.Neg(ds[i]), sentinel)
			}
			prods, err := rq.SMBatchBounded(sel, gaps, 1, domainBits)
			if err != nil {
				return fmt.Errorf("core: exclude chunk [%d,%d): %w", lo, hi, err)
			}
			for i := lo; i < hi; i++ {
				ds[i] = pk.Add(ds[i], prods[i-lo])
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		metrics.Exclude += time.Since(phase)
	}

	return selected, nil
}

// TopK is the worker's half of a query: the scan — pruned when the
// session's table carries a cluster index and target > 0, full
// otherwise — stopped before the masked reveal, which the coordinator
// performs, returning the top-k candidates still encrypted
// (rank-ordered E(dmin) plus the obliviously extracted record for
// SkNNm; E(d) plus the record for SkNNb). k is clamped to the shard's
// live record count: a shard smaller than k contributes everything it
// has, and an empty shard contributes nothing.
func (s *QuerySession) TopK(q EncryptedQuery, k, domainBits, target int, secure bool) ([]Candidate, *SecureMetrics, error) {
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
	if err := CheckDomainBits(s.pk, domainBits); err != nil {
		return nil, nil, err
	}
	metrics := &SecureMetrics{}
	comm0 := s.CommStats()
	start := time.Now()

	var idx []int
	var err error
	if s.tbl.Clustered() && target > 0 {
		idx, err = s.prunedCandidates(q, k, domainBits, target, metrics)
		if err != nil {
			return nil, nil, err
		}
	} else {
		idx = s.tbl.liveIdx
		metrics.Candidates = len(idx)
	}
	// Shard-local candidates ship their composed E(dmin) to the
	// coordinator's merge — every selection round produces it for free.
	cands, err := s.scanTopK(q, k, domainBits, idx, metrics)
	if err != nil {
		return nil, nil, err
	}
	metrics.Total = time.Since(start)
	metrics.Comm = s.CommStats().Sub(comm0)
	return cands, metrics, nil
}

// mergeCandidates is the coordinator's secure merge: selectTopK — the
// identical engine the shards ran — over gathered candidates' composed
// distances, which feed the tournament directly, so no bit decomposition
// happens at the merge boundary at all. The returned candidates are
// rank-ordered and carry fresh E(dmin) values, so a fold's output can
// feed the next fold.
func (s *QuerySession) mergeCandidates(cands []Candidate, k, domainBits int, metrics *SecureMetrics) ([]Candidate, error) {
	n := len(cands)
	chunks := s.rowLayout(domainBits).Chunks(s.m)
	records := make([][]*paillier.Ciphertext, n)
	ds := make([]*paillier.Ciphertext, n)
	for i, cand := range cands {
		if cand.Dist == nil {
			return nil, fmt.Errorf("%w: merge candidate %d has no distance", ErrBadFrame, i)
		}
		// A remote shard's frame is outside input: a record in another row
		// layout than this table shape, key and domain size produce cannot
		// be merged — reject it here rather than read its chunks as
		// differently packed columns.
		if len(cand.Rec) != chunks {
			return nil, fmt.Errorf("%w: merge candidate %d has %d record ciphertexts, want %d",
				ErrBadFrame, i, len(cand.Rec), chunks)
		}
		records[i] = cand.Rec
		ds[i] = cand.Dist
	}
	return s.selectTopK(records, ds, k, domainBits, metrics)
}

// blindDiffs is step 3(b) of Algorithm 6 over ds, which the caller has
// already permuted: τᵢ = rᵢ·(dmin − dᵢ) for fresh nonzero rᵢ, as frame
// elements. The blinds are drawn first, in order; the full-range
// exponentiations, one per entry, then spread over idle cores.
func (s *QuerySession) blindDiffs(encMin *paillier.Ciphertext, ds []*paillier.Ciphertext) ([]*big.Int, error) {
	rs := make([]*big.Int, len(ds))
	for i := range rs {
		r, err := s.pk.RandomNonzeroZN(s.primary().Rand())
		if err != nil {
			return nil, err
		}
		rs[i] = r
	}
	taus := make([]*big.Int, len(ds))
	_ = paillier.ForEach(len(ds), func(i int) error { // cannot fail
		taus[i] = s.pk.ScalarMul(s.pk.Sub(encMin, ds[i]), rs[i]).Raw()
		return nil
	})
	return taus, nil
}

// sumRecords adds, chunk by chunk, the records laid end to end in prods
// (each chunks ciphertexts long) into acc, which may be nil.
func sumRecords(pk *paillier.PublicKey, acc EncryptedRecord, prods []*paillier.Ciphertext, chunks int) EncryptedRecord {
	for i, ct := range prods {
		if g := i % chunks; len(acc) <= g {
			acc = append(acc, ct)
		} else {
			acc[g] = pk.Add(acc[g], ct)
		}
	}
	return acc
}

// sminnValue is SMINn over composed distances: the ⌈log₂ n⌉-level
// tournament of Algorithm 4 with every level's pairs compared in the
// value domain (smc.SMINValuePairsBatch) and spread across the session's
// streams. l must satisfy CheckDomainBits; every entry point does.
func (s *QuerySession) sminnValue(ds []*paillier.Ciphertext, l int) (*paillier.Ciphertext, error) {
	if len(ds) == 0 {
		return nil, fmt.Errorf("core: SMINn over empty set")
	}
	if len(s.rqs) == 1 {
		return s.rqs[0].SMINnValues(ds, l)
	}
	live := make([]*paillier.Ciphertext, len(ds))
	copy(live, ds)
	for len(live) > 1 {
		pairs := len(live) / 2
		next := make([]*paillier.Ciphertext, (len(live)+1)/2)
		if len(live)%2 == 1 {
			next[pairs] = live[len(live)-1]
		}
		var wg sync.WaitGroup
		errs := make([]error, len(s.rqs))
		for w := range s.rqs {
			lo := w * pairs / len(s.rqs)
			hi := (w + 1) * pairs / len(s.rqs)
			if lo == hi {
				continue
			}
			wg.Add(1)
			go func(w, lo, hi int) {
				defer wg.Done()
				batch := make([]smc.SMINValuePair, hi-lo)
				for p := lo; p < hi; p++ {
					batch[p-lo] = smc.SMINValuePair{A: live[2*p], B: live[2*p+1]}
				}
				mins, err := s.rqs[w].SMINValuePairsBatch(batch, l)
				if err != nil {
					errs[w] = err
					return
				}
				copy(next[lo:hi], mins)
			}(w, lo, hi)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		live = next
	}
	return live[0], nil
}
