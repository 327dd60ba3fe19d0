package core

import (
	"context"
	"fmt"
	"math/big"
	"sync"

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
	pool     *linkPool
	ctx      context.Context // the query's context; never nil
	pk       *paillier.PublicKey
	m        int              // record arity the session operates on
	featureM int              // distance-relevant prefix
	attrBits int              // the table's attribute width: sizes SkNNb's slots
	tbl      *tableView       // table state observed at session open; nil for merge sessions
	slots    []int            // leased link indices
	conns    []mpc.Conn       // logical streams, one per slot
	rqs      []*smc.Requester // primitive drivers, one per stream

	once sync.Once
}

// openSession is the shared constructor behind table-backed sessions
// (CloudC1.NewSession, which pins a view and takes the shape from it) and
// the coordinator's table-less merge sessions (ShardedC1.mergeSession):
// lease the slots, open one tagged stream per slot — each bound to ctx —
// and attach a requester to each. view may be nil — the selection engine
// then runs on caller-supplied candidates only.
func openSession(ctx context.Context, pool *linkPool, width int, view *tableView, pk *paillier.PublicKey, m, featureM, attrBits int) (*QuerySession, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	slots, err := pool.lease(ctx, width)
	if err != nil {
		return nil, err
	}
	s := &QuerySession{pool: pool, ctx: ctx, pk: pk, m: m, featureM: featureM, attrBits: attrBits, tbl: view, slots: slots}
	for _, i := range slots {
		conn, err := pool.open(ctx, i)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("core: opening session stream: %w", err)
		}
		s.attach(conn)
	}
	return s, nil
}

// ctxErr reports the session's cancellation state — the between-rounds
// check every protocol loop runs so a canceled query stops scheduling
// new work instead of finishing the scan it started.
func (s *QuerySession) ctxErr() error { return ctxErr(s.ctx) }

// attach wires one opened logical stream into the session.
func (s *QuerySession) attach(conn mpc.Conn) {
	s.conns = append(s.conns, conn)
	s.rqs = append(s.rqs, smc.NewRequester(s.pk, conn, s.pool.random))
}

// rowLayoutFor is the layout m-column records under pk travel in when
// every column is below 2^bits — the table's attribute width for SkNNb —
// as many columns per chunk as one operand of the packed SM uplink holds
// (SkNNm's extraction multiplies chunks; SkNNb's reveal keeps the rule);
// per-attribute when fewer than two columns fit.
func rowLayoutFor(pk *paillier.PublicKey, m, bits int) RowLayout {
	if c := min(m, smc.SMPackOperandBits(pk)/bits); c > 1 {
		return RowLayout{Cols: c, Bits: bits}
	}
	return RowLayout{Cols: 1, Bits: bits}
}

// rowLayout is SkNNm's record layout at domain size l: every column held
// to attrPackBits(l), the bound packed SSED puts on the feature columns.
func (s *QuerySession) rowLayout(domainBits int) RowLayout {
	return rowLayoutFor(s.pk, s.m, attrPackBits(domainBits))
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

// chunks splits [0,n) evenly across the session's workers. Workers with
// empty ranges are dropped.
func (s *QuerySession) chunks(n int) []chunk {
	w := len(s.rqs)
	if w > n {
		w = n
	}
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
// worker w (an index into the session's requesters, for per-worker
// result buffers) with that worker's requester, and returns the first
// error.
func (s *QuerySession) parallelOverRecords(n int, fn func(w int, rq *smc.Requester, lo, hi int) error) error {
	cks := s.chunks(n)
	if len(cks) == 1 {
		return fn(cks[0].worker, s.rqs[cks[0].worker], cks[0].lo, cks[0].hi)
	}
	var wg sync.WaitGroup
	errs := make([]error, len(cks))
	for i, ck := range cks {
		wg.Add(1)
		go func(i int, ck chunk) {
			defer wg.Done()
			errs[i] = fn(ck.worker, s.rqs[ck.worker], ck.lo, ck.hi)
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
// the cluster centroids — chunked across the session's workers. packed,
// when non-nil, is the slot-packed rendering of exactly the same rows
// (usually a cached subset from the table view); the chunks then ride
// the packed SSED uplink. With nil — a key too small for the SSED slot
// codec — they take the classic one.
func (s *QuerySession) distancesOf(q EncryptedQuery, rows [][]*paillier.Ciphertext, packed *smc.PackedRows) ([]*paillier.Ciphertext, error) {
	out := make([]*paillier.Ciphertext, len(rows))
	err := s.parallelOverRecords(len(rows), func(_ int, rq *smc.Requester, lo, hi int) error {
		var ds []*paillier.Ciphertext
		var err error
		if packed != nil {
			sub := &smc.PackedRows{Codec: packed.Codec, Rows: packed.Rows[lo:hi]}
			ds, err = rq.SSEDManyPacked(q, rows[lo:hi], sub)
		} else {
			ds, err = rq.SSEDMany(q, rows[lo:hi])
		}
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
// record — one per attribute, or one per row-packed chunk of layout —
// with fresh full-range randomness, C2 decrypts the masked values, and
// the two shares travel to Bob, who alone can tell the columns apart.
func (s *QuerySession) reveal(selected []EncryptedRecord, layout RowLayout) (*MaskedResult, error) {
	pk := s.pk
	k := len(selected)
	chunks := layout.Chunks(s.m)
	res := &MaskedResult{K: k, M: s.m, Layout: layout, n: pk.N}
	payload := make([]*big.Int, 0, k*chunks)
	for j := 0; j < k; j++ {
		maskRow := make([]*big.Int, 0, chunks)
		for _, ct := range selected[j] {
			r, err := pk.RandomZN(s.primary().Rand())
			if err != nil {
				return nil, fmt.Errorf("core: reveal mask: %w", err)
			}
			maskRow = append(maskRow, r)
			payload = append(payload, pk.AddPlain(ct, r).Raw())
		}
		res.Masks = append(res.Masks, maskRow)
	}
	resp, err := mpc.RoundTrip(s.primary().Conn(), &mpc.Message{Op: OpReveal, Ints: payload})
	if err != nil {
		return nil, fmt.Errorf("core: reveal round trip: %w", err)
	}
	if len(resp.Ints) != k*chunks {
		return nil, fmt.Errorf("%w: reveal reply has %d ints, want %d", ErrBadFrame, len(resp.Ints), k*chunks)
	}
	for j := 0; j < k; j++ {
		res.Masked = append(res.Masked, resp.Ints[j*chunks:(j+1)*chunks])
	}
	return res, nil
}
