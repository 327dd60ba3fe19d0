package core

import (
	"context"
	"fmt"
	"math"
	"math/big"
	"sync"
	"time"

	"sknn/internal/mpc"
	"sknn/internal/paillier"
)

// This file is the coordinator↔shard wire protocol: RemoteShard is the
// coordinator's client half (a Shard implementation over an mpc.Conn),
// ShardServer the worker's server half wrapped around its CloudC1. Both
// ends exchange only what the coordinator is entitled to see — the
// public key, partition lineage, live counts, and encrypted candidates
// — so a shard worker's wire peer learns exactly what an in-process
// coordinator would.
//
// Frame layouts (all values big.Ints in Message.Ints):
//
//	OpShardHello  req: []
//	              rep: [N, index, count, n, m, featureM, clustered,
//	                    attrBits]
//	OpShardTopK   req: [k, target, secure, q₁…q_f]   (qᵢ encrypted)
//	              rep: [n, count, sminCount, candidates, clustersProbed,
//	                    totalNanos, cols, bits, then per candidate:
//	                    secure → E(d), ⌈m/cols⌉ record chunks
//	                    basic  → id, E(d), ⌈m/cols⌉ record chunks]
//
// No l travels: it is dataset.DomainBits of the shape the hello
// declares, so agreeing on the shape is agreeing on l.
//
// cols and bits declare the RowLayout the candidates' records are in.
// The coordinator accepts only the one layout the shard's hello implies,
// on a secure reply and a basic one alike — rowLayoutFor of its m, its
// key and its attribute width — since anything else would let chunks be
// read as differently packed columns.
//
// Basic candidates carry their stable record id (SkNNb reveals access
// patterns anyway; the id lets the coordinator name the merged results
// for Bob). Secure candidates are obliviously extracted — not even the
// shard knows which record one holds — so no id travels: ⌈m/cols⌉+1
// ciphertexts per candidate, the composed distance and the record.

// RemoteShard drives one shard worker over a connection. It implements
// Shard; the static shape is cached from the dial-time hello and the
// live count refreshed from every TopK reply, so Info stays cheap. Each
// TopK is its own tagged stream on the multiplexed link, so concurrent
// coordinator queries share the connection without queueing on it.
type RemoteShard struct {
	link *mpc.Multiplexer
	pk   *paillier.PublicKey

	mu   sync.Mutex
	info ShardInfo // guarded by mu
}

// Sanity caps on the topology a shard may declare about itself. The hello
// reply sizes later allocations — M attributes per candidate record —
// so every field that feeds a make() is bounded here, the table shape by
// dataset.Shape.Check as internal/store bounds a snapshot's: a lying peer
// must fail with ErrBadFrame at the handshake, never reach an allocation.
const (
	maxShardN        = 1 << 40 // records per shard (matches store's maxN)
	maxShardCount    = 1 << 16 // shards in a topology
	maxShardReplicas = 1 << 8  // replicas of one shard
)

// shardHello is the decoded handshake reply.
type shardHello struct {
	pk   *paillier.PublicKey
	info ShardInfo
}

// encodeHello lays out the handshake reply frame.
func encodeHello(pkN *big.Int, info ShardInfo) *mpc.Message {
	clustered := int64(0)
	if info.Clustered {
		clustered = 1
	}
	return &mpc.Message{Op: OpShardHello, Ints: []*big.Int{
		new(big.Int).Set(pkN),
		big.NewInt(int64(info.Index)), big.NewInt(int64(info.Count)),
		big.NewInt(int64(info.N)), big.NewInt(int64(info.Shape.M)),
		big.NewInt(int64(info.Shape.FeatureM)), big.NewInt(clustered),
		big.NewInt(int64(info.Shape.AttrBits)),
	}}
}

// decodeHello validates and unpacks a handshake reply. Shape fields are
// both range- and sanity-checked: they parameterize every allocation
// the coordinator makes for this shard's candidates.
func decodeHello(resp *mpc.Message) (shardHello, error) {
	var h shardHello
	f := mpc.ReadFields(resp.Ints)
	modulus := f.Big()
	info := ShardInfo{Index: f.Int(0, maxShardCount-1)}
	info.Count = f.Int(info.Index+1, maxShardCount)
	info.N = f.Int(0, min(maxShardN, math.MaxInt))
	info.Shape.M = f.Int(math.MinInt, math.MaxInt)
	info.Shape.FeatureM = f.Int(math.MinInt, math.MaxInt)
	info.Clustered = f.Int(0, 1) == 1
	info.Shape.AttrBits = f.Int(math.MinInt, math.MaxInt)
	h.info = info
	if err := f.Done(); err != nil {
		return h, fmt.Errorf("core: shard hello: %w", err)
	}
	if err := info.Shape.Check(); err != nil {
		return h, fmt.Errorf("%w: shard hello: %w", ErrBadFrame, err)
	}
	// Last, once the cheap fields hold: the key's nonce kernel costs an
	// exponentiation.
	pk, err := paillier.NewPublicKey(modulus)
	if err != nil {
		return h, fmt.Errorf("%w: implausible shard public modulus: %v", ErrBadFrame, err)
	}
	h.pk = pk
	return h, nil
}

// DialShard performs the hello handshake on conn and returns the
// remote worker as a Shard plus the public key it serves under (the
// coordinator, holding no table of its own, learns pk from its shards).
// On failure the caller still owns conn.
func DialShard(conn mpc.Conn) (*RemoteShard, error) {
	resp, err := mpc.RoundTrip(conn, &mpc.Message{Op: OpShardHello})
	if err != nil {
		return nil, fmt.Errorf("core: shard hello: %w", err)
	}
	h, err := decodeHello(resp)
	if err != nil {
		return nil, err
	}
	return &RemoteShard{link: mpc.NewMultiplexer(conn), pk: h.pk, info: h.info}, nil
}

// PK returns the public key the shard's table is encrypted under.
func (r *RemoteShard) PK() *paillier.PublicKey { return r.pk }

// Info reports the shard's shape (live count as of the last exchange).
func (r *RemoteShard) Info() ShardInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.info
}

// Close tells the worker this coordinator is done and closes the link.
func (r *RemoteShard) Close() error { return r.link.Close() }

// TopK runs the shard-local scan remotely and decodes the encrypted
// candidates. Ciphertexts are range-validated against the shard's key
// on the way in, exactly like snapshot loading.
//
// The scan travels as one frame on a stream bound to ctx: a ctx already
// done sends nothing, and one done while the frame is in flight stops
// the wait at once with ErrCanceled. The worker still finishes its scan
// (the wire protocol has no abort frame); its late reply is dropped.
func (r *RemoteShard) TopK(ctx context.Context, q EncryptedQuery, k, _, target int, secure bool) ([]Candidate, *SecureMetrics, error) {
	info := r.Info()
	conn, err := r.link.OpenContext(ctx)
	if err != nil {
		return nil, nil, fmt.Errorf("core: shard %d top-k: %w", info.Index, err)
	}
	defer conn.Close()
	resp, err := mpc.RoundTrip(conn, encodeTopKRequest(q, k, target, secure))
	if err != nil {
		return nil, nil, fmt.Errorf("core: shard %d top-k: %w", info.Index, err)
	}
	liveN, cands, metrics, err := decodeTopKReply(r.pk, info.Shape.M, resp, k, rowLayoutFor(r.pk.Bits(), info.Shape), secure)
	if err != nil {
		return nil, nil, err
	}
	r.mu.Lock()
	r.info.N = liveN
	r.mu.Unlock()
	return cands, metrics, nil
}

// decodeTopKReply validates and unpacks a shard's top-k reply against
// the query the coordinator actually sent: m is the shard's (already
// bounded) record width, k the request's, want the layout its records
// must come back in. The candidate count is bounded by k and the
// declared row layout pinned to one the request can produce before
// either sizes anything, so a lying reply fails with ErrBadFrame instead
// of reaching a huge make() or shifting a column.
func decodeTopKReply(pk *paillier.PublicKey, m int, resp *mpc.Message, k int, want RowLayout, secure bool) (liveN int, cands []Candidate, metrics *SecureMetrics, err error) {
	f := mpc.ReadFields(resp.Ints)
	liveN = f.Int(0, min(maxShardN, math.MaxInt))
	count := f.Int(0, k)
	metrics = &SecureMetrics{
		SMINCount:      f.Int(0, math.MaxInt),
		Candidates:     f.Int(0, math.MaxInt),
		ClustersProbed: f.Int(0, math.MaxInt),
		Total:          time.Duration(f.Int64(0, math.MaxInt64)),
	}
	layout := RowLayout{Cols: f.Int(1, m), Bits: f.Int(1, math.MaxInt)}
	if err := f.Err(); err != nil {
		return 0, nil, nil, fmt.Errorf("core: shard top-k reply: %w", err)
	}
	if layout != want {
		return 0, nil, nil, fmt.Errorf("%w: shard top-k reply packs %d columns of %d bits, not %d of %d",
			ErrBadFrame, layout.Cols, layout.Bits, want.Cols, want.Bits)
	}
	cands = make([]Candidate, count)
	for i := 0; i < count && f.Err() == nil; i++ { // a short frame allocates no further
		if !secure {
			cands[i].ID = f.Uint64()
		}
		cands[i].Dist = mpc.Read(f, pk.FromRaw)
		cands[i].Rec = make(EncryptedRecord, layout.Chunks(m))
		for j := range cands[i].Rec {
			cands[i].Rec[j] = mpc.Read(f, pk.FromRaw)
		}
	}
	if err := f.Done(); err != nil {
		return 0, nil, nil, fmt.Errorf("core: shard top-k candidates: %w", err)
	}
	return liveN, cands, metrics, nil
}

// ShardServer answers a coordinator's frames for one shard worker.
type ShardServer struct {
	c1    *CloudC1
	index int
	count int
}

// NewShardServer wraps a shard worker's CloudC1 with its partition
// lineage (records with id ≡ index mod count live here); the shape it
// announces is the table's own.
func NewShardServer(c1 *CloudC1, index, count int) (*ShardServer, error) {
	if count < 1 || index < 0 || index >= count {
		return nil, fmt.Errorf("%w: shard %d of %d", ErrShardTopology, index, count)
	}
	return &ShardServer{c1: c1, index: index, count: count}, nil
}

// Mux returns the coordinator-facing dispatcher.
func (s *ShardServer) Mux() *mpc.Mux {
	mux := mpc.NewMux()
	mux.Register(OpShardHello, mpc.HandlerFunc(s.handleHello))
	mux.Register(OpShardTopK, mpc.HandlerFunc(s.handleTopK))
	return mux
}

// Serve answers coordinator frames on conn until the peer closes, up to
// serveInflight of them at once.
func (s *ShardServer) Serve(conn mpc.Conn) error {
	return mpc.ServeConcurrent(conn, s.Mux(), serveInflight)
}

// handleHello announces the worker's current shape, as an in-process
// shard reports it.
func (s *ShardServer) handleHello(*mpc.Message) (*mpc.Message, error) {
	info := (&LocalShard{C1: s.c1, Index: s.index, Count: s.count}).Info()
	return encodeHello(s.c1.Table().PK().N, info), nil
}

func (s *ShardServer) handleTopK(req *mpc.Message) (*mpc.Message, error) {
	t := s.c1.Table()
	q, k, target, secure, err := decodeTopKRequest(t.PK(), t.Shape().FeatureM, req)
	if err != nil {
		return nil, err
	}
	// The wire protocol has no abort frame, so a worker-side scan runs
	// to completion once started; cancellation lives on the coordinator
	// (RemoteShard stops waiting and drops the reply). Background keeps
	// the worker's session unbound.
	cands, metrics, err := s.c1.TopK(context.Background(), q, k, target, secure)
	if err != nil {
		return nil, err
	}
	return encodeTopKReply(t.N(), rowLayoutFor(t.PK().Bits(), t.Shape()), cands, metrics, secure), nil
}

// encodeTopKRequest lays out a top-k request frame.
func encodeTopKRequest(q EncryptedQuery, k, target int, secure bool) *mpc.Message {
	sec := int64(0)
	if secure {
		sec = 1
	}
	ints := append(make([]*big.Int, 0, 3+len(q)),
		big.NewInt(int64(k)), big.NewInt(int64(target)), big.NewInt(sec))
	for _, ct := range q {
		ints = append(ints, ct.Raw())
	}
	return &mpc.Message{Op: OpShardTopK, Ints: ints}
}

// decodeTopKRequest validates and unpacks a top-k request against the
// worker's table: k ≥ 1, refused before the rest is read as ErrBadK and
// ErrBadFrame both, then exactly featureM query ciphertexts under its key.
func decodeTopKRequest(pk *paillier.PublicKey, featureM int, req *mpc.Message) (q EncryptedQuery, k, target int, secure bool, err error) {
	f := mpc.ReadFields(req.Ints)
	if k = f.Int(math.MinInt, math.MaxInt); f.Err() == nil && k < 1 {
		return nil, 0, 0, false, fmt.Errorf("%w: %w: k=%d", ErrBadFrame, ErrBadK, k)
	}
	target, secure = f.Int(math.MinInt, math.MaxInt), f.Int(0, 1) == 1
	q = make(EncryptedQuery, featureM)
	for i := range q {
		q[i] = mpc.Read(f, pk.FromRaw)
	}
	if err := f.Done(); err != nil {
		return nil, 0, 0, false, fmt.Errorf("core: shard top-k request: %w", err)
	}
	return q, k, target, secure, nil
}

// encodeTopKReply lays out a top-k reply frame: the metrics header, the
// row layout the candidates' records are in, then each candidate's
// payload.
func encodeTopKReply(liveN int, layout RowLayout, cands []Candidate, metrics *SecureMetrics, secure bool) *mpc.Message {
	out := make([]*big.Int, 0, 8+len(cands)*3)
	out = append(out,
		big.NewInt(int64(liveN)), big.NewInt(int64(len(cands))),
		big.NewInt(int64(metrics.SMINCount)), big.NewInt(int64(metrics.Candidates)),
		big.NewInt(int64(metrics.ClustersProbed)), big.NewInt(metrics.Total.Nanoseconds()),
		big.NewInt(int64(layout.Cols)), big.NewInt(int64(layout.Bits)))
	for _, c := range cands {
		if secure {
			out = append(out, c.Dist.Raw())
		} else {
			out = append(out, new(big.Int).SetUint64(c.ID), c.Dist.Raw())
		}
		for _, ct := range c.Rec {
			out = append(out, ct.Raw())
		}
	}
	return &mpc.Message{Op: OpShardTopK, Ints: out}
}
