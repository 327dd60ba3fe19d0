package core

import (
	"fmt"
	"math/big"
	"time"

	"sknn/internal/mpc"
)

// BasicMetrics breaks down one SkNNb run for the evaluation harness.
type BasicMetrics struct {
	Total    time.Duration
	Distance time.Duration // SSED over all records (step 2)
	Rank     time.Duration // C2 decrypt-and-rank (step 3)
	Reveal   time.Duration // masked result delivery (steps 4–6)
	Comm     mpc.StatsSnapshot
}

// BasicQuery runs SkNNb (Algorithm 5): compute all encrypted distances,
// let C2 decrypt and rank them, and reveal the top-k records to Bob via
// masking.
//
// SkNNb is the efficiency baseline: it deliberately relaxes security —
// C2 learns every plaintext distance, and both clouds learn which
// records answer the query (data access patterns). Use SecureQuery for
// the full guarantees.
func (s *QuerySession) BasicQuery(q EncryptedQuery, k int) (*MaskedResult, error) {
	res, _, err := s.BasicQueryMetered(q, k)
	return res, err
}

// BasicQueryMetered is BasicQuery plus phase timings and traffic counts.
// The Comm field covers this session's streams only, so concurrent
// queries on other sessions never pollute the numbers.
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
	ids := make([]uint64, len(cands))
	for j, c := range cands {
		ids[j] = c.ID
	}

	// Steps 4–6: masked reveal to Bob, attribute by attribute — SkNNb
	// never extracts, so its records are the stored ciphertexts.
	phase := time.Now()
	res, err := s.reveal(candidateRecords(cands), perAttribute)
	if err != nil {
		return nil, nil, err
	}
	// SkNNb already reveals access patterns to both clouds, so handing
	// Bob the stable ids of his neighbors costs nothing extra; SkNNm
	// deliberately cannot do this (ids are what it hides).
	res.IDs = ids
	metrics.Reveal = time.Since(phase)

	metrics.Total = time.Since(start)
	metrics.Comm = s.CommStats().Sub(comm0)
	return res, metrics, nil
}

// basicScan is the body of Algorithm 5 before the reveal: SSED over the
// live records (step 2), C2's decrypt-and-rank (step 3), and the
// selection of the winning records — returned with their encrypted
// distances so a shard can ship them to a coordinator for a rank merge.
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
	ds, err := s.distancesOf(q, s.tbl.featureRows(cands), nil)
	if err != nil {
		return nil, err
	}
	metrics.Distance = time.Since(phase)
	if err := s.ctxErr(); err != nil {
		return nil, err
	}

	// Step 3: C2 decrypts and returns the top-k index list δ.
	phase = time.Now()
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
	selected := make([]Candidate, k)
	for j, idx := range resp.Ints {
		// C2's indices address the candidate list it ranked, which maps
		// back to record positions through the session view.
		if !idx.IsInt64() || idx.Int64() < 0 || idx.Int64() >= int64(len(cands)) {
			return nil, fmt.Errorf("%w: rank index %v out of range", ErrBadFrame, idx)
		}
		i := int(idx.Int64())
		selected[j] = Candidate{Dist: ds[i], Rec: s.tbl.records[cands[i]], ID: s.tbl.ids[cands[i]]}
	}
	metrics.Rank = time.Since(phase)
	return selected, nil
}

// basicTopK is TopK's SkNNb arm: the shard-local scan-and-rank without
// the reveal. The timings land in the SecureMetrics shape the
// coordinator aggregates (Distance and Total; SkNNb has no SMINs).
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
		Candidates: s.tbl.N(),
		Total:      time.Since(start),
		Comm:       s.CommStats().Sub(comm0),
	}
	return cands, metrics, nil
}

// rankCandidates is the coordinator's SkNNb merge: one more OpRank round
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
	payload := make([]*big.Int, 0, len(cands)+1)
	payload = append(payload, big.NewInt(int64(k)))
	for i, c := range cands {
		if c.Dist == nil {
			return nil, fmt.Errorf("%w: candidate %d has no encrypted distance", ErrBadFrame, i)
		}
		payload = append(payload, c.Dist.Raw())
	}
	resp, err := mpc.RoundTrip(s.primary().Conn(), &mpc.Message{Op: OpRank, Ints: payload})
	if err != nil {
		return nil, fmt.Errorf("core: merge rank round trip: %w", err)
	}
	if len(resp.Ints) != k {
		return nil, fmt.Errorf("%w: merge rank reply has %d indices, want %d", ErrBadFrame, len(resp.Ints), k)
	}
	selected := make([]Candidate, k)
	for j, idx := range resp.Ints {
		if !idx.IsInt64() || idx.Int64() < 0 || idx.Int64() >= int64(len(cands)) {
			return nil, fmt.Errorf("%w: merge rank index %v out of range", ErrBadFrame, idx)
		}
		selected[j] = cands[int(idx.Int64())]
	}
	return selected, nil
}
