package core

import (
	"fmt"
	"math/big"
	"time"

	"sknn/internal/mpc"
	"sknn/internal/paillier"
)

// BasicMetrics breaks down one SkNNb run for the evaluation harness.
type BasicMetrics struct {
	Total    time.Duration
	Distance time.Duration // SSED over all records (step 2)
	Rank     time.Duration // C2 decrypt-and-rank (step 3)
	Reveal   time.Duration // masked result delivery (steps 4–6)
	Comm     mpc.StatsSnapshot
}

// BasicQueryMetered runs SkNNb over the session's table with no
// coordinator: scan, rank, reveal, plus phase timings and this
// session's traffic. Kept for bench/ only — see CloudC1.BasicQueryMetered.
func (s *QuerySession) BasicQueryMetered(q EncryptedQuery, k int) (*MaskedResult, *BasicMetrics, error) {
	if err := s.checkQuery(q); err != nil {
		return nil, nil, err
	}
	if err := validateK(k, s.tbl.N()); err != nil {
		return nil, nil, err
	}
	metrics := &BasicMetrics{}
	comm0 := s.CommStats()
	start := time.Now()

	cands, err := s.basicScan(q, k, metrics)
	if err != nil {
		return nil, nil, err
	}
	phase := time.Now()
	res, err := s.revealBasic(cands)
	if err != nil {
		return nil, nil, err
	}
	metrics.Reveal = time.Since(phase)

	metrics.Total = time.Since(start)
	metrics.Comm = s.CommStats().Sub(comm0)
	return res, metrics, nil
}

// revealBasic is steps 4–6 of Algorithm 5 for both SkNNb entry points:
// the masked reveal of the winners, whose records basicScan left in the
// layout of the table's attribute width. SkNNb already reveals access
// patterns to both clouds, so naming Bob's neighbours by stable id costs
// nothing extra; SkNNm cannot (ids are what it hides).
func (s *QuerySession) revealBasic(cands []Candidate) (*MaskedResult, error) {
	res, err := s.reveal(candidateRecords(cands), rowLayoutFor(s.pk, s.m, s.attrBits))
	if err != nil {
		return nil, err
	}
	res.IDs = make([]uint64, len(cands))
	for j, c := range cands {
		res.IDs[j] = c.ID
	}
	return res, nil
}

// basicScan is the body of Algorithm 5 before the reveal: SSED over the
// live records (step 2) on the packed kernel, C2's decrypt-and-rank (step
// 3), and the selection of the winning records — row-packed like the SSED
// slots by the table's attribute width, and with their encrypted
// distances, so a shard can ship them to a coordinator for a rank merge.
func (s *QuerySession) basicScan(q EncryptedQuery, k int, metrics *BasicMetrics) ([]Candidate, error) {
	// Round boundary: a canceled query never starts the scan.
	if err := s.ctxErr(); err != nil {
		return nil, err
	}
	// The candidate list is the session view's live records: tombstoned
	// rows are invisible to queries opened after their Delete.
	cands := s.tbl.liveIdx

	// Step 2: dᵢ = |Q−tᵢ|² under encryption.
	phase := time.Now()
	packed, err := s.tbl.packedFeatureRows(s.attrBits, cands)
	if err != nil {
		return nil, err
	}
	ds, err := s.distancesOf(q, s.tbl.featureRows(cands), packed)
	if err != nil {
		return nil, err
	}
	metrics.Distance = time.Since(phase)
	if err := s.ctxErr(); err != nil {
		return nil, err
	}

	// Step 3: C2 decrypts and returns the top-k index list δ. Its indices
	// address the candidate list it ranked, which maps back to record
	// positions through the session view.
	phase = time.Now()
	order, err := s.rank(ds, k)
	if err != nil {
		return nil, err
	}
	winners := make([]int, k)
	for j, i := range order {
		winners[j] = cands[i]
	}
	records, err := s.tbl.recordRows(rowLayoutFor(s.pk, s.m, s.attrBits), winners)
	if err != nil {
		return nil, err
	}
	selected := make([]Candidate, k)
	for j, i := range order {
		selected[j] = Candidate{Dist: ds[i], Rec: records[j], ID: s.tbl.ids[winners[j]]}
	}
	metrics.Rank = time.Since(phase)
	return selected, nil
}

// basicTopK is TopK's SkNNb arm: the shard-local scan-and-rank without
// the reveal. The timings land in the SecureMetrics shape the
// coordinator aggregates (Distance, Select for C2's rank, and Total;
// SkNNb has no SMINs).
func (s *QuerySession) basicTopK(q EncryptedQuery, k int) ([]Candidate, *SecureMetrics, error) {
	bm := &BasicMetrics{}
	comm0 := s.CommStats()
	start := time.Now()
	cands, err := s.basicScan(q, k, bm)
	if err != nil {
		return nil, nil, err
	}
	metrics := &SecureMetrics{
		Distance:   bm.Distance,
		Select:     bm.Rank,
		Candidates: s.tbl.N(),
		Total:      time.Since(start),
		Comm:       s.CommStats().Sub(comm0),
	}
	return cands, metrics, nil
}

// rank is step 3 of Algorithm 5: C2 decrypts the distances ds and names
// the k smallest, returned as distinct positions in ds, nearest first.
func (s *QuerySession) rank(ds []*paillier.Ciphertext, k int) ([]int, error) {
	payload := make([]*big.Int, 0, len(ds)+1)
	payload = append(payload, big.NewInt(int64(k)))
	for _, d := range ds {
		payload = append(payload, d.Raw())
	}
	resp, err := mpc.RoundTrip(s.primary().Conn(), &mpc.Message{Op: OpRank, Ints: payload})
	if err != nil {
		return nil, fmt.Errorf("core: rank round trip: %w", err)
	}
	if len(resp.Ints) != k {
		return nil, fmt.Errorf("%w: rank reply has %d indices, want %d", ErrBadFrame, len(resp.Ints), k)
	}
	order := make([]int, k)
	named := make([]bool, len(ds))
	for j, idx := range resp.Ints {
		if !idx.IsInt64() || idx.Int64() < 0 || idx.Int64() >= int64(len(ds)) || named[idx.Int64()] {
			return nil, fmt.Errorf("%w: rank index %v repeated or out of range", ErrBadFrame, idx)
		}
		order[j] = int(idx.Int64())
		named[order[j]] = true
	}
	return order, nil
}

// rankCandidates is the coordinator's SkNNb merge: one more rank round
// over the gathered candidates' encrypted distances, selecting the
// global top-k (returned as full candidates so the stable ids survive
// the merge). Leakage class is unchanged from SkNNb itself — C2
// decrypts distances either way, and both clouds see access patterns.
func (s *QuerySession) rankCandidates(cands []Candidate, k int) ([]Candidate, error) {
	if err := s.ctxErr(); err != nil {
		return nil, err
	}
	if err := validateK(k, len(cands)); err != nil {
		return nil, err
	}
	ds := make([]*paillier.Ciphertext, len(cands))
	for i, c := range cands {
		if c.Dist == nil {
			return nil, fmt.Errorf("%w: candidate %d has no encrypted distance", ErrBadFrame, i)
		}
		ds[i] = c.Dist
	}
	order, err := s.rank(ds, k)
	if err != nil {
		return nil, err
	}
	selected := make([]Candidate, k)
	for j, i := range order {
		selected[j] = cands[i]
	}
	return selected, nil
}
