package core

import (
	"context"
	"fmt"
	"math/big"
	"sync"

	"sknn/internal/dataset"
	"sknn/internal/mpc"
	"sknn/internal/paillier"
	"sknn/internal/smc"
)

// QuerySession is the per-query execution context: one tagged logical
// stream (and one smc.Requester driving it) per leased link. All
// protocol state that lives for the duration of a query — blinding
// permutations, SMINn tournament state, per-phase traffic counters — is
// scoped here, never on the shared link pool, which is what lets
// sessions interleave on the same links without crossing streams.
//
// The session also pins the table state: tbl is an immutable view
// captured when the session opened, so a query runs against one
// consistent table no matter which Inserts, Deletes, or Compacts land
// on the live table while it executes. A coordinator's merge session
// has no table at all (tbl == nil): it operates on encrypted candidates
// gathered from the shards, needing only the key and the table shape.
//
// A session answers queries one at a time; run concurrent queries in
// concurrent sessions. Close returns the leased capacity to the pool.
//
// Like http.Request, a session is request-scoped and carries the
// query's context: bound once at open, checked by every protocol loop
// between rounds, and enforced by the transport on every frame, so
// canceling the context aborts the query within one protocol round.
type QuerySession struct {
	pool   *linkPool
	ctx    context.Context // the query's context; never nil
	pk     *paillier.PublicKey
	shape  dataset.Shape    // the table shape the session operates on
	l      int              // the squared-distance domain SkNNm compares in: shape.DomainBits()
	layout RowLayout        // the row layout records travel in: rowLayoutFor(pk.Bits(), shape)
	tbl    *tableView       // table state observed at session open; nil for merge sessions
	slots  []int            // leased link indices
	conns  []mpc.Conn       // logical streams, one per slot
	rqs    []*smc.Requester // primitive drivers, one per stream

	once sync.Once
}

// openSession is the shared constructor behind table-backed sessions
// (CloudC1.NewSession, which pins a view and takes the shape from it) and
// the coordinator's table-less merge sessions (ShardedC1.mergeSession):
// lease the slots, open one tagged stream per slot — each bound to ctx —
// and attach a requester to each. view may be nil — the selection engine
// then runs on caller-supplied candidates only.
func openSession(ctx context.Context, pool *linkPool, view *tableView, pk *paillier.PublicKey, shape dataset.Shape) (*QuerySession, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	slots, err := pool.lease(ctx)
	if err != nil {
		return nil, err
	}
	s := &QuerySession{pool: pool, ctx: ctx, pk: pk, shape: shape,
		l: shape.DomainBits(), layout: rowLayoutFor(pk.Bits(), shape), tbl: view, slots: slots}
	for _, i := range slots {
		conn, err := pool.open(ctx, i)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("core: opening session stream: %w", err)
		}
		s.conns = append(s.conns, conn)
		s.rqs = append(s.rqs, smc.NewRequester(pk, conn, pool.randoms[i]))
	}
	return s, nil
}

// ctxErr reports the session's cancellation state — the between-rounds
// check every protocol loop runs so a canceled query stops scheduling
// new work instead of finishing the scan it started.
func (s *QuerySession) ctxErr() error { return ctxErr(s.ctx) }

// rowLayoutFor is the layout records of the table shape under a
// keyBits-bit key travel in, every column below 2^AttrBits — in both
// protocols: as many columns per chunk as smc.SMPackOperandBits allows
// (SkNNm's comparators carry chunk differences, one operand slot each;
// SkNNb's reveal keeps the rule); per-attribute when fewer than two
// columns fit. The scan, the shard wire, the merge, the reveal and the
// cost model (PredictCost) all take it from here.
func rowLayoutFor(keyBits int, shape dataset.Shape) RowLayout {
	if c := min(shape.M, smc.SMPackOperandBits(keyBits)/shape.AttrBits); c > 1 {
		return RowLayout{Cols: c, Bits: shape.AttrBits}
	}
	return RowLayout{Cols: 1, Bits: shape.AttrBits}
}

// Close ends the session's logical streams and releases its links back
// to the scheduler. It is idempotent and safe to call with the query
// finished or failed; an in-flight query must not be Closed under.
func (s *QuerySession) Close() {
	s.once.Do(func() {
		for _, conn := range s.conns {
			conn.Close()
		}
		s.pool.release(s.slots)
	})
}

// Workers reports how many links this session spans.
func (s *QuerySession) Workers() int { return len(s.rqs) }

// CommStats sums the traffic of this session's streams only — the
// session-scoped counters behind the per-query metrics.
func (s *QuerySession) CommStats() mpc.StatsSnapshot {
	var total mpc.StatsSnapshot
	for _, conn := range s.conns {
		total = total.Add(conn.Stats().Snapshot())
	}
	return total
}

// primary returns the requester used for the global (non-chunkable)
// protocol steps.
func (s *QuerySession) primary() *smc.Requester { return s.rqs[0] }

// chunk describes a contiguous slice of records assigned to one worker.
type chunk struct{ lo, hi, worker int }

// splitChunks splits [0,n) evenly across w workers — a session's records
// or a layer's gates over its links, as the session runs them and as
// PredictCost counts them. Workers with empty ranges are dropped.
func splitChunks(n, w int) []chunk {
	w = min(w, n)
	out := make([]chunk, 0, w)
	for i := 0; i < w; i++ {
		lo := i * n / w
		hi := (i + 1) * n / w
		if lo < hi {
			out = append(out, chunk{lo: lo, hi: hi, worker: i})
		}
	}
	return out
}

// parallelOverRecords runs fn once per chunk, each chunk on its own
// worker's requester, and returns the first error.
func (s *QuerySession) parallelOverRecords(n int, fn func(rq *smc.Requester, lo, hi int) error) error {
	cks := splitChunks(n, len(s.rqs))
	if len(cks) == 1 {
		return fn(s.rqs[cks[0].worker], cks[0].lo, cks[0].hi)
	}
	var wg sync.WaitGroup
	errs := make([]error, len(cks))
	for i, ck := range cks {
		wg.Add(1)
		go func(i int, ck chunk) {
			defer wg.Done()
			errs[i] = fn(s.rqs[ck.worker], ck.lo, ck.hi)
		}(i, ck)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// distancesOf computes E(|Q−rᵢ|²) for an arbitrary list of encrypted
// feature vectors — the table's records, a candidate subset of them, or
// the cluster centroids — chunked across the session's workers, every
// chunk on the packed SSED uplink. packed is the slot-packed rendering of
// exactly the same rows (usually a cached subset from the table view).
func (s *QuerySession) distancesOf(q EncryptedQuery, rows [][]*paillier.Ciphertext, packed *smc.PackedRows) ([]*paillier.Ciphertext, error) {
	out := make([]*paillier.Ciphertext, len(rows))
	err := s.parallelOverRecords(len(rows), func(rq *smc.Requester, lo, hi int) error {
		sub := &smc.PackedRows{Codec: packed.Codec, Rows: packed.Rows[lo:hi]}
		ds, err := rq.SSEDManyPacked(q, rows[lo:hi], sub)
		if err != nil {
			return fmt.Errorf("core: SSED chunk [%d,%d): %w", lo, hi, err)
		}
		copy(out[lo:hi], ds)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// reveal performs the masked result delivery shared by both protocols
// (steps 4–6 of Algorithm 5): C1 masks every ciphertext of each selected
// record — one per attribute, or one per row-packed chunk of the
// session's layout — with fresh full-range randomness, C2 decrypts the
// masked values, and the two shares travel to Bob, who alone can tell
// the columns apart.
func (s *QuerySession) reveal(selected []EncryptedRecord) (*MaskedResult, error) {
	k := len(selected)
	chunks := s.layout.Chunks(s.shape.M)
	cts := make([]*paillier.Ciphertext, 0, k*chunks)
	for _, rec := range selected {
		cts = append(cts, rec...)
	}
	if len(cts) != k*chunks {
		return nil, fmt.Errorf("%w: %d record ciphertexts to reveal, want %d", ErrBadFrame, len(cts), k*chunks)
	}
	masks, masked, err := s.maskedDecrypt(cts)
	if err != nil {
		return nil, err
	}
	res := &MaskedResult{K: k, M: s.shape.M, Layout: s.layout, n: s.pk.N}
	for j := 0; j < k; j++ {
		res.Masks = append(res.Masks, masks[j*chunks:(j+1)*chunks])
		res.Masked = append(res.Masked, masked[j*chunks:(j+1)*chunks])
	}
	return res, nil
}

// maskedDecrypt is the reveal's one round trip (OpReveal): C1 adds a
// fresh full-range mask r to every ciphertext of cts, and C2 decrypts
// each to x + r mod N — uniformly random to C2 — which only the holder
// of the masks, Bob or, for a cluster id, C1, can unmask.
func (s *QuerySession) maskedDecrypt(cts []*paillier.Ciphertext) (masks, masked []*big.Int, err error) {
	masks = make([]*big.Int, len(cts))
	payload := make([]*paillier.Ciphertext, len(cts))
	for i, ct := range cts {
		if masks[i], err = s.pk.RandomZN(s.primary().Rand()); err != nil {
			return nil, nil, fmt.Errorf("core: reveal mask: %w", err)
		}
		payload[i] = s.pk.AddPlain(ct, masks[i])
	}
	f, err := s.primary().RoundTrip(OpReveal, nil, payload)
	if err != nil {
		return nil, nil, fmt.Errorf("core: reveal round trip: %w", err)
	}
	masked = make([]*big.Int, len(cts))
	for i := range masked {
		masked[i] = mpc.Read(f, s.pk.Residue)
	}
	if err := f.Done(); err != nil {
		return nil, nil, fmt.Errorf("core: reveal reply: %w", err)
	}
	return masks, masked, nil
}
