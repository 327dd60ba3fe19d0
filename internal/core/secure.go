package core

import (
	"fmt"
	"math/big"
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
	SMINn    time.Duration // sum over the k SMINn invocations
	Select   time.Duration // the OpMinSelect round: τ blinding, operand packing, C2's one-hot select and products (steps 3(b)–(e) on the wire)
	Extract  time.Duration // C1 unblinding the extracted record (step 3(d)), plus rendering rows not yet in the row layout
	Exclude  time.Duration // C1 unblinding the disqualification products (step 3(e))
	Reveal   time.Duration // masked result delivery
	Comm     mpc.StatsSnapshot

	// SMINCount is the number of SMIN invocations Algorithm 6 spends on
	// this query — the protocol's dominant cost unit — including any
	// cluster-ranking tournaments and, on a sharded system, the
	// coordinator's merge: n−1 per selection round over n candidates.
	// It counts the paper's SMIN-equivalents, not the comparisons this
	// engine ran: selection keeps its tournament's bottom level between
	// rounds, so a full scan compares (n−1) + (k−1)·(⌈n/2⌉−1) pairs and
	// a merge over u seeded units k·(u−1) (selectTopK). bench/ gates secure_scan
	// on SMINCount == k·(n−1) and cannot change in the same PR as the
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
//
// Like selectTopK it keeps the tournament's bottom level: the first
// round's pair minima are its units, and since the winner is public to
// C1 the update is plaintext — the winner's pair becomes its partner
// alone, E(d) as SSED produced it, and a lone winner's unit goes. Later
// rounds compare over the units, one level fewer, for no new frame.
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
	var units []unit // nil until the first ranking round compares
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
			if units == nil {
				// Every centroid is still live: the first round's bottom
				// level is the units' seed.
				if units, err = s.comparedUnits(ds, domainBits); err != nil {
					return nil, fmt.Errorf("core: centroid SMINn (round 1): %w", err)
				}
			}
			encMin, err := s.sminnValue(unitMins(units), domainBits)
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
			units = withoutLeaf(units, winner, ds)
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
	return s.selectTopK(records, ds, nil, k, domainBits, metrics)
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
// SMINn, then one OpMinSelect round that selects, extracts and
// disqualifies. It is deliberately table-agnostic — candidates are
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
// merge shard result sets in one more selection. dists is E(dᵢ) for
// every candidate (SSED's output, or a gathered Candidate.Dist) and is
// not modified.
//
// Steps 3(b)–(e) are one round trip because every product they need has
// the one-hot selector as a factor, and C2 holds that selector in the
// clear the moment it picks it: C1 sends the other factors along with
// the blinded differences, short-blinded and packed (smc.PackBlinded),
// and C2 answers with the products (handleMinSelect). Nothing is
// computed twice and no SM round remains.
//
// The tournament keeps its bottom level across rounds. Its units are
// adjacent pairs of candidates, each holding E(min) of the pair's
// current distances, plus a lone candidate where a run is odd. runs nil
// means the candidates come in no known order (a scan): the first round
// compares the pairs and keeps the minima. Otherwise runs are the
// lengths of consecutive rank-ordered lists (a merge's shard results),
// whose pairs are seeded without a comparison — the first entry is the
// minimum. Every round's SMINn then runs over the units, and the
// disqualification moves each pair's minimum to its runner-up: minₚ +=
// (V₂ₚ + V₂ₚ₊₁)·(d₂ₚ + d₂ₚ₊₁ − 2·minₚ), the loser minus the winner when
// the pair holds this round's pick and zero otherwise, as the sum of one
// per-position product each. Which of two tied leaves went is
// OpMinSelect's uniform choice, and either leaves the same minimum behind.
func (s *QuerySession) selectTopK(records [][]*paillier.Ciphertext, dists []*paillier.Ciphertext, runs []int, k, domainBits int, metrics *SecureMetrics) ([]Candidate, error) {
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
	// One slot width for every operand OpMinSelect carries: a record chunk
	// is below 2^(Cols·Bits), a disqualification gap below 2^l.
	valueBits := max(layout.Cols*layout.Bits, domainBits)
	// The round's composed distances E(dᵢ), carried from round to round:
	// the disqualification below rewrites each winner in place.
	ds := make([]*paillier.Ciphertext, n)
	copy(ds, dists)

	// The kept bottom level: compared on a scan, seeded on a merge.
	phase := time.Now()
	var units []unit
	if runs != nil {
		units = seededUnits(runs, ds)
	} else {
		var err error
		if units, err = s.comparedUnits(ds, domainBits); err != nil {
			return nil, fmt.Errorf("core: iteration 1 SMINn: %w", err)
		}
	}
	metrics.SMINn += time.Since(phase)

	selected := make([]Candidate, 0, k)

	for iter := 0; iter < k; iter++ {
		// Round boundary: a canceled query abandons the remaining
		// selection rounds (the transport also enforces this mid-round,
		// frame by frame).
		if err := s.ctxErr(); err != nil {
			return nil, err
		}

		// Step 3(a): E(dmin), by the value-domain tournament over the
		// units' minima, ending the round holding the composed minimum —
		// the form every consumer (the one-hot select here, a shard merge
		// upstream) wants. Counted as Algorithm 6's n−1 SMINs.
		phase := time.Now()
		encMin, err := s.sminnValue(unitMins(units), domainBits)
		if err != nil {
			return nil, fmt.Errorf("core: iteration %d SMINn: %w", iter+1, err)
		}
		metrics.SMINCount += n - 1
		metrics.SMINn += time.Since(phase)

		// Steps 3(b)–(e) in one OpMinSelect round: τᵢ = E(rᵢ·(dmin−dᵢ)) under
		// a fresh permutation (it lives only on this session), and per
		// permuted position the record's chunks and — before every round
		// but the last — its two disqualification gaps.
		phase = time.Now()
		each := 2
		if iter == k-1 {
			each = 0 // nothing consumes the update after the last pick
		}
		perm, err := smc.NewPermutation(s.primary().Rand(), n)
		if err != nil {
			return nil, fmt.Errorf("core: iteration %d permutation: %w", iter+1, err)
		}
		permuted := make([]*paillier.Ciphertext, n)
		for j := range permuted {
			permuted[j] = ds[perm[j]]
		}
		tauP, err := s.blindDiffs(encMin, permuted)
		if err != nil {
			return nil, fmt.Errorf("core: iteration %d blind: %w", iter+1, err)
		}
		groups, rhos, err := s.primary().PackBlinded(selectOperands(pk, records, ds, units, perm, each, domainBits), valueBits)
		if err != nil {
			return nil, fmt.Errorf("core: iteration %d operands: %w", iter+1, err)
		}
		payload := make([]*big.Int, 0, 4+n+len(groups))
		payload = append(payload, big.NewInt(int64(n)), big.NewInt(int64(chunks)), big.NewInt(int64(each)), big.NewInt(int64(valueBits)))
		payload = append(append(payload, tauP...), groups...)
		resp, err := mpc.RoundTrip(s.primary().Conn(), &mpc.Message{Op: OpMinSelect, Ints: payload})
		if err != nil {
			return nil, fmt.Errorf("core: iteration %d min-select: %w", iter+1, err)
		}
		if want := n + chunks + n*each; len(resp.Ints) != want {
			return nil, fmt.Errorf("%w: min-select reply has %d ints, want %d",
				ErrBadFrame, len(resp.Ints), want)
		}
		reply := make([]*paillier.Ciphertext, len(resp.Ints))
		for i, raw := range resp.Ints {
			if reply[i], err = pk.FromRaw(raw); err != nil {
				return nil, fmt.Errorf("core: iteration %d min-select reply %d: %w", iter+1, i, err)
			}
		}
		// U in permuted order, inverted once for every blind to strip:
		// Uⱼ·(x + ρ) − ρ·Uⱼ = Uⱼ·x.
		invU := pk.InvMany(reply[:n])
		metrics.Select += time.Since(phase)

		// Step 3(d): the winner's chunks, E(x_{w,g} + ρ_{w,g}) from C2, less
		// Σⱼ ρ_{j,g}·Uⱼ = ρ_{w,g} — V is one-hot, so the sum is the winner's
		// chunk bit for bit and its slots never carry.
		phase = time.Now()
		per := chunks + each
		record := make(EncryptedRecord, chunks)
		strip := stripBlinds(pk, invU, rhos, per, 0, chunks)
		for g := range record {
			terms := []*paillier.Ciphertext{reply[n+g]}
			for j := 0; j < n; j++ {
				terms = append(terms, strip[j*chunks+g])
			}
			record[g] = pk.Product(terms)
		}
		selected = append(selected, Candidate{Dist: encMin, Rec: record})
		metrics.Extract += time.Since(phase)
		if each == 0 {
			break
		}

		// Step 3(e): oblivious disqualification, driving the winner's
		// distance to the 2^l − 1 sentinel (strictly above any real
		// distance thanks to the DomainBits headroom bit) — dᵢ +=
		// Vᵢ·(2^l−1−dᵢ), n products where the paper's bit form pays n·l
		// SBORs — and each pair unit's minimum to its runner-up (see
		// above): the sum of its two leaves' unit-gap products. A lone leaf
		// is its own unit's minimum.
		phase = time.Now()
		strip = stripBlinds(pk, invU, rhos, per, chunks, each)
		gain := make([]*paillier.Ciphertext, n) // leaf i's unit-gap product Vᵢ·gap
		for j, i := range perm {
			prods := reply[n+chunks+j*each:]
			ds[i] = pk.Add(ds[i], pk.Add(prods[0], strip[j*each]))
			gain[i] = pk.Add(prods[1], strip[j*each+1])
		}
		for u := range units {
			if units[u].b >= 0 {
				units[u].min = pk.Product([]*paillier.Ciphertext{units[u].min, gain[units[u].a], gain[units[u].b]})
			} else {
				units[u].min = ds[units[u].a]
			}
		}
		metrics.Exclude += time.Since(phase)
	}

	return selected, nil
}

// selectOperands lists, per permuted position j = 0…n−1, the operands an
// OpMinSelect round multiplies by Uⱼ: the record chunks of leaf
// i = perm[j] and, when each = 2, its sentinel gap 2^l − 1 − dᵢ and its
// unit's gap, d_a + d_b − 2·min for a pair and d_a − min = 0 for a lone
// leaf. Every gap is below 2^l.
func selectOperands(pk *paillier.PublicKey, records [][]*paillier.Ciphertext, ds []*paillier.Ciphertext, units []unit, perm []int, each, l int) []*paillier.Ciphertext {
	n := len(ds)
	var sentGap, unitGap []*paillier.Ciphertext
	if each > 0 {
		sentinel := new(big.Int).Lsh(big.NewInt(1), uint(l))
		sentinel.Sub(sentinel, big.NewInt(1))
		sentGap = pk.InvMany(ds)
		for i, neg := range sentGap {
			sentGap[i] = pk.AddPlain(neg, sentinel)
		}
		unitGap = make([]*paillier.Ciphertext, n)
		for u, negMin := range pk.InvMany(unitMins(units)) {
			a, b := units[u].a, units[u].b
			gap := pk.Add(ds[a], negMin)
			if b >= 0 {
				gap = pk.Product([]*paillier.Ciphertext{gap, ds[b], negMin})
				unitGap[b] = gap
			}
			unitGap[a] = gap
		}
	}
	ops := make([]*paillier.Ciphertext, 0, n*(len(records[0])+each))
	for _, i := range perm {
		ops = append(ops, records[i]...)
		if each > 0 {
			ops = append(ops, sentGap[i], unitGap[i])
		}
	}
	return ops
}

// stripBlinds returns Inv(Uⱼ)^ρ — E(−ρ·Uⱼ) — for every position j and
// its operands lo … lo+count−1 of the per laid end to end, position by
// position, the exponentiations spread over idle cores.
func stripBlinds(pk *paillier.PublicKey, invU []*paillier.Ciphertext, rhos []*big.Int, per, lo, count int) []*paillier.Ciphertext {
	out := make([]*paillier.Ciphertext, len(invU)*count)
	_ = paillier.ForEach(len(out), func(t int) error { // cannot fail
		j, e := t/count, t%count
		out[t] = pk.ScalarMul(invU[j], rhos[j*per+lo+e])
		return nil
	})
	return out
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
// rank-ordered and carry fresh E(dmin) values.
//
// Each of lists is one shard's result, rank-ordered, and the tournament
// seeds its pairs from that order instead of comparing them. That trusts
// the semi-honest shards the merge already trusts for their distances: a
// list out of order gives a wrong answer or a failed min-select, and its
// negative seeded gap still reaches C2 only as one more OpMinSelect
// operand, packed under a σ-statistical blind. k is clamped to the
// candidates the lists hold.
func (s *QuerySession) mergeCandidates(lists [][]Candidate, k, domainBits int, metrics *SecureMetrics) ([]Candidate, error) {
	chunks := s.rowLayout(domainBits).Chunks(s.m)
	var records [][]*paillier.Ciphertext
	var ds []*paillier.Ciphertext
	runs := make([]int, len(lists))
	for j, list := range lists {
		runs[j] = len(list)
		for _, cand := range list {
			i := len(ds)
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
			records = append(records, cand.Rec)
			ds = append(ds, cand.Dist)
		}
	}
	return s.selectTopK(records, ds, runs, min(k, len(ds)), domainBits, metrics)
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

// unit is one entry of the tournament's kept bottom level: leaves a and
// b (b < 0 for a lone leaf) and min, E(min) of their current distances.
type unit struct {
	a, b int
	min  *paillier.Ciphertext
}

// comparedUnits pairs adjacent leaves of ds — an odd last one stands
// alone — and compares every pair: the first level of ds's tournament,
// kept.
func (s *QuerySession) comparedUnits(ds []*paillier.Ciphertext, l int) ([]unit, error) {
	mins, err := s.sminnLevel(ds, l)
	if err != nil {
		return nil, err
	}
	units := make([]unit, len(mins))
	for p, m := range mins {
		units[p] = unit{a: 2 * p, b: 2*p + 1, min: m}
	}
	if len(ds)%2 == 1 {
		units[len(units)-1].b = -1
	}
	return units, nil
}

// seededUnits pairs adjacent leaves inside each rank-ordered run of ds —
// the runs cover ds end to end, and a run's odd last leaf stands alone —
// with each pair's minimum its first leaf, so no comparison runs.
func seededUnits(runs []int, ds []*paillier.Ciphertext) []unit {
	var units []unit
	lo := 0
	for _, r := range runs {
		for i := lo; i < lo+r; i += 2 {
			u := unit{a: i, b: i + 1, min: ds[i]}
			if i+1 == lo+r {
				u.b = -1
			}
			units = append(units, u)
		}
		lo += r
	}
	return units
}

// unitMins lists the units' minima, the leaves of a round's SMINn.
func unitMins(units []unit) []*paillier.Ciphertext {
	mins := make([]*paillier.Ciphertext, len(units))
	for i, u := range units {
		mins[i] = u.min
	}
	return mins
}

// withoutLeaf drops leaf i, a winner C1 knows in the clear (cluster
// ranking), from its unit: a pair becomes its partner alone, whose
// minimum is its own distance ds[partner], and a lone leaf's unit goes.
func withoutLeaf(units []unit, i int, ds []*paillier.Ciphertext) []unit {
	for j, u := range units {
		switch i {
		case u.a, u.b:
			if u.b < 0 {
				return append(units[:j], units[j+1:]...)
			}
			partner := u.a + u.b - i
			units[j] = unit{a: partner, b: -1, min: ds[partner]}
			return units
		}
	}
	return units
}

// sminnLevel is one level of SMINn's tournament over composed distances:
// live[2p] against live[2p+1] for every pair, compared in the value
// domain (smc.SMINValuePairsBatch, l+1 round trips however many pairs)
// and spread across the session's streams, and an odd last entry passed
// up as it is. l must satisfy CheckDomainBits; every entry point does.
func (s *QuerySession) sminnLevel(live []*paillier.Ciphertext, l int) ([]*paillier.Ciphertext, error) {
	pairs := len(live) / 2
	next := make([]*paillier.Ciphertext, (len(live)+1)/2)
	if len(live)%2 == 1 {
		next[pairs] = live[len(live)-1]
	}
	err := s.parallelOverRecords(pairs, func(rq *smc.Requester, lo, hi int) error {
		batch := make([]smc.SMINValuePair, hi-lo)
		for p := lo; p < hi; p++ {
			batch[p-lo] = smc.SMINValuePair{A: live[2*p], B: live[2*p+1]}
		}
		mins, err := rq.SMINValuePairsBatch(batch, l)
		if err != nil {
			return err
		}
		copy(next[lo:hi], mins)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return next, nil
}

// sminnValue is SMINn over composed distances: the ⌈log₂ n⌉-level
// tournament of Algorithm 4, one sminnLevel per level.
func (s *QuerySession) sminnValue(ds []*paillier.Ciphertext, l int) (*paillier.Ciphertext, error) {
	if len(ds) == 0 {
		return nil, fmt.Errorf("core: SMINn over empty set")
	}
	for len(ds) > 1 {
		var err error
		if ds, err = s.sminnLevel(ds, l); err != nil {
			return nil, err
		}
	}
	return ds[0], nil
}
