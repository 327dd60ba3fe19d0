package core

import (
	"context"
	"fmt"
	"math/big"
	"sync"
	"time"

	"sknn/internal/mpc"
	"sknn/internal/paillier"
)

// This file is the coordinator↔shard wire protocol: RemoteShard is the
// coordinator's client half (a Shard implementation over an mpc.Conn),
// ServeShard the worker's server half wrapped around its CloudC1. Both
// ends exchange only what the coordinator is entitled to see — the
// public key, partition lineage, live counts, and encrypted candidates
// — so a shard worker's wire peer learns exactly what an in-process
// coordinator would.
//
// Frame layouts (all values big.Ints in Message.Ints):
//
//	OpShardHello  req: []
//	              rep: [N, index, count, n, m, featureM, clustered,
//	                    attrBits, domainBits, replica]
//	OpShardTopK   req: [k, l, target, secure, q₁…q_f]   (qᵢ encrypted)
//	              rep: [n, count, sminCount, candidates, clustersProbed,
//	                    totalNanos, cols, bits, then per candidate:
//	                    secure → E(dmin), ⌈m/cols⌉ record chunks
//	                    basic  → id, E(d), ⌈m/cols⌉ record chunks]
//
// cols and bits declare the RowLayout the candidates' records are in.
// The coordinator accepts only the layout the table shape, the key and
// the slot width produce — the domain size it asked for on a secure
// reply, the attribute width of the shard's hello on a basic one —
// anything else would let chunks be read as differently packed columns.
//
// Basic candidates carry their stable record id (SkNNb reveals access
// patterns anyway; the id lets the coordinator name the merged results
// for Bob). Secure candidates are obliviously extracted — not even the
// shard knows which record one holds — so no id travels: ⌈m/cols⌉+1
// ciphertexts per candidate, the composed distance and the record.

// RemoteShard drives one shard worker over a connection. It implements
// Shard; the static shape is cached from the dial-time hello and the
// live count refreshed from every TopK reply, so Info stays cheap.
// RoundTrips serialize on the connection: concurrent coordinator
// queries queue per shard link.
type RemoteShard struct {
	conn       mpc.Conn
	pk         *paillier.PublicKey
	domainBits int

	mu   sync.Mutex
	info ShardInfo
}

// Sanity caps on the shape a shard may declare about itself. The hello
// reply sizes later allocations — M attributes per candidate record,
// domainBits ciphertexts per secure candidate — so every field that
// feeds a make() is bounded here, mirroring internal/store's snapshot
// caps: a lying peer must fail with ErrBadFrame at the handshake, never
// reach an allocation.
const (
	maxShardN          = 1 << 40 // records per shard (matches store's maxN)
	maxShardM          = 1 << 12 // attributes per record (matches store's maxM)
	maxShardCount      = 1 << 16 // shards in a topology
	maxAttrBits        = 64      // a table's attribute width: columns are uint64
	maxShardDomainBits = 1 << 10 // squared-distance domain bits
	maxShardReplicas   = 1 << 8  // replicas of one shard
)

// shardHello is the decoded handshake reply.
type shardHello struct {
	pk         *paillier.PublicKey
	info       ShardInfo
	domainBits int
}

// encodeHello lays out the handshake reply frame.
func encodeHello(pkN *big.Int, info ShardInfo, domainBits int) *mpc.Message {
	clustered := int64(0)
	if info.Clustered {
		clustered = 1
	}
	return &mpc.Message{Op: OpShardHello, Ints: []*big.Int{
		new(big.Int).Set(pkN),
		big.NewInt(int64(info.Index)), big.NewInt(int64(info.Count)),
		big.NewInt(int64(info.N)), big.NewInt(int64(info.M)),
		big.NewInt(int64(info.FeatureM)), big.NewInt(clustered),
		big.NewInt(int64(info.AttrBits)), big.NewInt(int64(domainBits)),
		big.NewInt(int64(info.Replica)),
	}}
}

// decodeHello validates and unpacks a handshake reply. Shape fields are
// both range- and sanity-checked: they parameterize every allocation
// the coordinator makes for this shard's candidates.
func decodeHello(resp *mpc.Message) (shardHello, error) {
	var h shardHello
	if len(resp.Ints) != 10 {
		return h, fmt.Errorf("%w: shard hello reply has %d ints, want 10", ErrBadFrame, len(resp.Ints))
	}
	vals := make([]int, 9)
	for i := 1; i < 10; i++ {
		if resp.Ints[i] == nil || !resp.Ints[i].IsInt64() {
			return h, fmt.Errorf("%w: shard hello field %d", ErrBadFrame, i)
		}
		vals[i-1] = int(resp.Ints[i].Int64())
	}
	h.info = ShardInfo{
		Index:     vals[0],
		Count:     vals[1],
		N:         vals[2],
		M:         vals[3],
		FeatureM:  vals[4],
		Clustered: vals[5] != 0,
		AttrBits:  vals[6],
		Replica:   vals[8],
	}
	h.domainBits = vals[7]
	info := h.info
	if info.Count < 1 || info.Count > maxShardCount || info.Index < 0 || info.Index >= info.Count ||
		info.M < 1 || info.M > maxShardM || info.FeatureM < 1 || info.FeatureM > info.M ||
		info.N < 0 || int64(info.N) > maxShardN {
		return h, fmt.Errorf("%w: shard hello describes index %d of %d, table %d/%d, n=%d",
			ErrBadFrame, info.Index, info.Count, info.M, info.FeatureM, info.N)
	}
	if info.AttrBits < 1 || info.AttrBits > maxAttrBits ||
		h.domainBits < 0 || h.domainBits > maxShardDomainBits {
		return h, fmt.Errorf("%w: shard hello declares attrBits=%d domainBits=%d",
			ErrBadFrame, info.AttrBits, h.domainBits)
	}
	if info.Replica < 0 || info.Replica >= maxShardReplicas {
		return h, fmt.Errorf("%w: shard hello declares replica %d", ErrBadFrame, info.Replica)
	}
	// Last, once the cheap fields hold: the key's nonce kernel costs an
	// exponentiation.
	pk, err := paillier.NewPublicKey(resp.Ints[0])
	if err != nil {
		return h, fmt.Errorf("%w: implausible shard public modulus: %v", ErrBadFrame, err)
	}
	h.pk = pk
	return h, nil
}

// DialShard performs the hello handshake on conn and returns the
// remote worker as a Shard plus the public key it serves under (the
// coordinator, holding no table of its own, learns pk from its shards).
func DialShard(conn mpc.Conn) (*RemoteShard, error) {
	resp, err := mpc.RoundTrip(conn, &mpc.Message{Op: OpShardHello})
	if err != nil {
		return nil, fmt.Errorf("core: shard hello: %w", err)
	}
	h, err := decodeHello(resp)
	if err != nil {
		return nil, err
	}
	return &RemoteShard{conn: conn, pk: h.pk, info: h.info, domainBits: h.domainBits}, nil
}

// PK returns the public key the shard's table is encrypted under.
func (r *RemoteShard) PK() *paillier.PublicKey { return r.pk }

// DomainBits reports l, the squared-distance domain the shard's SkNNm
// scans decompose to.
func (r *RemoteShard) DomainBits() int { return r.domainBits }

// Info reports the shard's shape (live count as of the last exchange).
func (r *RemoteShard) Info() ShardInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.info
}

// Local reports a remote worker as neither: its scans burn its own
// machine's CPUs and its C2 links terminate there.
func (r *RemoteShard) Local() (*CloudC1, bool) { return nil, false }

// Close closes the coordinator→shard connection.
func (r *RemoteShard) Close() error { return r.conn.Close() }

// TopK runs the shard-local scan remotely and decodes the encrypted
// candidates. Ciphertexts are range-validated against the shard's key
// on the way in, exactly like snapshot loading.
//
// Cancellation is coordinator-side: the scan travels as one frame, so a
// ctx done before the round trip refuses to send, and a ctx done while
// the frame is in flight lets the worker finish its scan (the wire
// protocol has no abort frame) but discards the reply and returns
// ErrCanceled — the coordinator moves on within one exchange either
// way.
func (r *RemoteShard) TopK(ctx context.Context, q EncryptedQuery, k, domainBits, target int, secure bool) ([]Candidate, *SecureMetrics, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, nil, err
	}
	sec := int64(0)
	if secure {
		sec = 1
	}
	payload := make([]*big.Int, 0, 4+len(q))
	payload = append(payload,
		big.NewInt(int64(k)), big.NewInt(int64(domainBits)),
		big.NewInt(int64(target)), big.NewInt(sec))
	for _, ct := range q {
		payload = append(payload, ct.Raw())
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	resp, err := mpc.RoundTrip(r.conn, &mpc.Message{Op: OpShardTopK, Ints: payload})
	if err != nil {
		return nil, nil, fmt.Errorf("core: shard %d top-k: %w", r.info.Index, err)
	}
	if err := ctxErr(ctx); err != nil {
		return nil, nil, err
	}
	liveN, cands, metrics, err := decodeTopKReply(r.pk, r.info.M, resp, k, replyLayout(r.pk, r.info.M, r.info.AttrBits, domainBits, secure), secure)
	if err != nil {
		return nil, nil, err
	}
	if liveN >= 0 {
		r.info.N = liveN
	}
	return cands, metrics, nil
}

// replyLayout is the layout a top-k reply's records travel in: SkNNm's at
// the requested domain size on a secure scan, else the one the shard
// table's attribute width gives SkNNb.
func replyLayout(pk *paillier.PublicKey, m, attrBits, domainBits int, secure bool) RowLayout {
	if secure {
		return rowLayoutFor(pk, m, attrPackBits(domainBits))
	}
	return rowLayoutFor(pk, m, attrBits)
}

// decodeTopKReply validates and unpacks a shard's top-k reply against
// the query the coordinator actually sent: m is the shard's (already
// bounded) record width, k the request's, want the layout its records
// must come back in. The
// candidate count is bounded by k and the declared row layout pinned to
// one the request can produce before any arithmetic on them, so a lying
// reply fails with ErrBadFrame instead of overflowing count*per, reaching
// a huge make(), or shifting a column.
func decodeTopKReply(pk *paillier.PublicKey, m int, resp *mpc.Message, k int, want RowLayout, secure bool) (liveN int, cands []Candidate, metrics *SecureMetrics, err error) {
	const head = 8
	if len(resp.Ints) < head {
		return 0, nil, nil, fmt.Errorf("%w: shard top-k reply has %d ints", ErrBadFrame, len(resp.Ints))
	}
	for i := 0; i < head; i++ {
		if resp.Ints[i] == nil || !resp.Ints[i].IsInt64() {
			return 0, nil, nil, fmt.Errorf("%w: shard top-k header field %d", ErrBadFrame, i)
		}
	}
	liveN = int(resp.Ints[0].Int64())
	count := int(resp.Ints[1].Int64())
	metrics = &SecureMetrics{
		SMINCount:      int(resp.Ints[2].Int64()),
		Candidates:     int(resp.Ints[3].Int64()),
		ClustersProbed: int(resp.Ints[4].Int64()),
	}
	metrics.Total = time.Duration(resp.Ints[5].Int64())
	layout := RowLayout{Cols: int(resp.Ints[6].Int64()), Bits: int(resp.Ints[7].Int64())}
	if layout != want {
		return 0, nil, nil, fmt.Errorf("%w: shard top-k reply packs %d columns of %d bits, not %d of %d",
			ErrBadFrame, layout.Cols, layout.Bits, want.Cols, want.Bits)
	}
	chunks := layout.Chunks(m)
	per := chunks + 2 // id + E(d) + record
	if secure {
		per = chunks + 1 // E(dmin) + record
	}
	if count < 0 || count > k || len(resp.Ints) != head+count*per {
		return 0, nil, nil, fmt.Errorf("%w: shard top-k reply: %d candidates but %d payload ints",
			ErrBadFrame, count, len(resp.Ints)-head)
	}
	cands = make([]Candidate, count)
	pos := head
	for i := range cands {
		if secure {
			if cands[i].Dist, err = pk.FromRaw(resp.Ints[pos]); err != nil {
				return 0, nil, nil, fmt.Errorf("core: shard candidate %d distance: %w", i, err)
			}
			pos++
		} else {
			if resp.Ints[pos] == nil || !resp.Ints[pos].IsUint64() {
				return 0, nil, nil, fmt.Errorf("%w: shard candidate %d record id", ErrBadFrame, i)
			}
			cands[i].ID = resp.Ints[pos].Uint64()
			pos++
			if cands[i].Dist, err = pk.FromRaw(resp.Ints[pos]); err != nil {
				return 0, nil, nil, fmt.Errorf("core: shard candidate %d distance: %w", i, err)
			}
			pos++
		}
		rec := make(EncryptedRecord, chunks)
		for j := range rec {
			if rec[j], err = pk.FromRaw(resp.Ints[pos]); err != nil {
				return 0, nil, nil, fmt.Errorf("core: shard candidate %d record ciphertext %d: %w", i, j, err)
			}
			pos++
		}
		cands[i].Rec = rec
	}
	return liveN, cands, metrics, nil
}

// ShardServer answers a coordinator's frames for one shard worker.
type ShardServer struct {
	c1         *CloudC1
	index      int
	count      int
	replica    int
	domainBits int
}

// NewShardServer wraps a shard worker's CloudC1 with its partition
// lineage (records with id ≡ index mod count live here) and the domain
// size the coordinator needs to plan SkNNm queries; the attribute width
// it announces is the table's own.
func NewShardServer(c1 *CloudC1, index, count, domainBits int) (*ShardServer, error) {
	if count < 1 || index < 0 || index >= count {
		return nil, fmt.Errorf("%w: shard %d of %d", ErrShardTopology, index, count)
	}
	return &ShardServer{c1: c1, index: index, count: count, domainBits: domainBits}, nil
}

// SetReplica declares this worker's ordinal within its shard's replica
// set, announced in the hello so coordinators and operators can tell
// interchangeable workers apart. Call before Serve; replica 0 is the
// default.
func (s *ShardServer) SetReplica(r int) error {
	if r < 0 || r >= maxShardReplicas {
		return fmt.Errorf("%w: replica %d", ErrShardTopology, r)
	}
	s.replica = r
	return nil
}

// Mux returns the coordinator-facing dispatcher.
func (s *ShardServer) Mux() *mpc.Mux {
	mux := mpc.NewMux()
	mux.Register(OpShardHello, mpc.HandlerFunc(s.handleHello))
	mux.Register(OpShardTopK, mpc.HandlerFunc(s.handleTopK))
	return mux
}

// Serve answers coordinator frames on conn until the peer closes.
func (s *ShardServer) Serve(conn mpc.Conn) error { return mpc.Serve(conn, s.Mux()) }

// info is the worker's current shape, as an in-process shard reports it.
func (s *ShardServer) info() ShardInfo {
	info := (&LocalShard{C1: s.c1, Index: s.index, Count: s.count}).Info()
	info.Replica = s.replica
	return info
}

func (s *ShardServer) handleHello(*mpc.Message) (*mpc.Message, error) {
	return encodeHello(s.c1.Table().PK().N, s.info(), s.domainBits), nil
}

func (s *ShardServer) handleTopK(req *mpc.Message) (*mpc.Message, error) {
	t := s.c1.Table()
	featM := t.FeatureM()
	if len(req.Ints) != 4+featM {
		return nil, fmt.Errorf("%w: shard top-k request has %d ints, want %d",
			ErrBadFrame, len(req.Ints), 4+featM)
	}
	for i := 0; i < 4; i++ {
		if !req.Ints[i].IsInt64() {
			return nil, fmt.Errorf("%w: shard top-k header field %d", ErrBadFrame, i)
		}
	}
	k := int(req.Ints[0].Int64())
	domainBits := int(req.Ints[1].Int64())
	target := int(req.Ints[2].Int64())
	secure := req.Ints[3].Int64() != 0
	if k < 1 {
		return nil, fmt.Errorf("%w: k=%d", ErrBadK, k)
	}
	q := make(EncryptedQuery, featM)
	var err error
	for i := range q {
		if q[i], err = t.PK().FromRaw(req.Ints[4+i]); err != nil {
			return nil, fmt.Errorf("core: shard top-k query attribute %d: %w", i, err)
		}
	}
	// The wire protocol has no abort frame, so a worker-side scan runs
	// to completion once started; cancellation lives on the coordinator
	// (RemoteShard discards the reply). Background keeps the worker's
	// session unbound.
	cands, metrics, err := s.c1.TopK(context.Background(), q, k, domainBits, target, secure)
	if err != nil {
		return nil, err
	}
	return encodeTopKReply(t.N(), replyLayout(t.PK(), t.M(), t.AttrBits(), domainBits, secure), cands, metrics, secure), nil
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
