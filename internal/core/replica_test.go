package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"sknn/internal/dataset"
)

// stubShard is a scriptable Shard for replica-set unit tests.
type stubShard struct {
	info ShardInfo

	mu    sync.Mutex
	calls int
	fails int // fail this many TopK calls before succeeding
	err   error
}

func (s *stubShard) Info() ShardInfo { return s.info }

func (s *stubShard) TopK(ctx context.Context, q EncryptedQuery, k, domainBits, target int, secure bool) ([]Candidate, *SecureMetrics, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls++
	if s.fails > 0 {
		s.fails--
		return nil, nil, s.err
	}
	return make([]Candidate, k), &SecureMetrics{Candidates: s.info.N}, nil
}

func stubReplicas(n int) []Shard {
	out := make([]Shard, n)
	for i := range out {
		out[i] = &stubShard{info: ShardInfo{Index: 2, Count: 5, N: 10, Shape: dataset.Shape{M: 3, FeatureM: 2}}}
	}
	return out
}

func TestReplicaSetFailover(t *testing.T) {
	shards := stubReplicas(2)
	shards[0].(*stubShard).fails = 99
	shards[0].(*stubShard).err = errors.New("worker crashed")
	rs, err := newReplicaSet(shards)
	if err != nil {
		t.Fatal(err)
	}
	cands, sm, err := rs.TopK(context.Background(), nil, 3, 8, 0, true)
	if err != nil {
		t.Fatalf("failover query: %v", err)
	}
	if len(cands) != 3 {
		t.Errorf("got %d candidates, want 3", len(cands))
	}
	if sm == nil || sm.Failovers != 1 {
		t.Errorf("metrics failovers = %+v, want 1", sm)
	}
	st := rs.Stats()
	if !st.Dead[0] || st.Dead[1] || st.Retries != 1 || st.Failovers != 1 || st.Live() != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.Shard != 2 || st.Replicas != 2 {
		t.Errorf("stats identity = %+v, want shard 2, 2 replicas", st)
	}
	// The dead replica stays out of dispatch: the next query goes straight
	// to the survivor, no further retries.
	if _, _, err := rs.TopK(context.Background(), nil, 3, 8, 0, true); err != nil {
		t.Fatal(err)
	}
	if st := rs.Stats(); st.Retries != 1 {
		t.Errorf("retries = %d after clean query on degraded set, want 1", st.Retries)
	}
	if calls := shards[0].(*stubShard).calls; calls != 1 {
		t.Errorf("dead replica served %d calls, want 1", calls)
	}
}

func TestReplicaSetAllDeadErrNoReplicas(t *testing.T) {
	shards := stubReplicas(2)
	for _, s := range shards {
		s.(*stubShard).fails = 99
		s.(*stubShard).err = errors.New("down")
	}
	rs, err := newReplicaSet(shards)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := rs.TopK(context.Background(), nil, 1, 8, 0, true); !errors.Is(err, ErrNoReplicas) {
		t.Fatalf("err = %v, want ErrNoReplicas", err)
	}
	if st := rs.Stats(); st.Live() != 0 || st.Retries != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestReplicaSetDeterministicArgErrorsDoNotFailOver(t *testing.T) {
	for _, sentinel := range []error{ErrBadK, ErrDimension, ErrDomainBits, ErrCanceled} {
		shards := stubReplicas(2)
		shards[0].(*stubShard).fails = 1
		shards[0].(*stubShard).err = fmt.Errorf("scan: %w", sentinel)
		rs, err := newReplicaSet(shards)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := rs.TopK(context.Background(), nil, 1, 8, 0, true); !errors.Is(err, sentinel) {
			t.Fatalf("err = %v, want %v propagated", err, sentinel)
		}
		if st := rs.Stats(); st.Live() != 2 || st.Retries != 0 {
			t.Errorf("%v: stats = %+v, want no deaths and no retries", sentinel, st)
		}
		if calls := shards[1].(*stubShard).calls; calls != 0 {
			t.Errorf("%v: sibling served %d calls, want 0", sentinel, calls)
		}
	}
}

func TestReplicaSetCanceledContext(t *testing.T) {
	rs, err := newReplicaSet(stubReplicas(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := rs.TopK(ctx, nil, 1, 8, 0, true); !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

func TestReplicaSetLeastLoadedPick(t *testing.T) {
	rs, err := newReplicaSet(stubReplicas(3))
	if err != nil {
		t.Fatal(err)
	}
	// Ties break toward the lowest ordinal; load shifts picks away.
	i0, _ := rs.pick()
	i1, _ := rs.pick()
	i2, _ := rs.pick()
	if i0 != 0 || i1 != 1 || i2 != 2 {
		t.Errorf("picks under rising load = %d,%d,%d, want 0,1,2", i0, i1, i2)
	}
	rs.release(i1)
	if i, _ := rs.pick(); i != 1 {
		t.Errorf("pick after releasing 1 = %d, want 1 (least loaded)", i)
	}
	rs.markDead(0)
	rs.release(i0)
	rs.release(i2)
	if i, _ := rs.pick(); i != 2 {
		t.Errorf("pick with 0 dead, 1 loaded = %d, want 2", i)
	}
}

func TestNewReplicaSetValidation(t *testing.T) {
	if _, err := newReplicaSet(nil); !errors.Is(err, ErrShardTopology) {
		t.Errorf("empty set: err = %v", err)
	}
	mismatch := stubReplicas(2)
	mismatch[1] = &stubShard{info: ShardInfo{Index: 3, Count: 5, N: 10, Shape: dataset.Shape{M: 3, FeatureM: 2}}}
	if _, err := newReplicaSet(mismatch); !errors.Is(err, ErrShardTopology) {
		t.Errorf("index mismatch: err = %v", err)
	}
	mismatch = stubReplicas(2)
	mismatch[1].(*stubShard).info.Shape.M = 4
	if _, err := newReplicaSet(mismatch); !errors.Is(err, ErrShardTopology) {
		t.Errorf("shape mismatch: err = %v", err)
	}
}

func TestGroupReplicas(t *testing.T) {
	mk := func(index, count int) Shard {
		return &stubShard{info: ShardInfo{Index: index, Count: count, N: 10, Shape: dataset.Shape{M: 3, FeatureM: 2}}}
	}
	grouped, err := GroupReplicas([]Shard{mk(0, 2), mk(1, 2), mk(0, 2), mk(1, 2), mk(1, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if len(grouped) != 2 {
		t.Fatalf("grouped into %d shards, want 2", len(grouped))
	}
	rs0, ok := grouped[0].(*ReplicaSet)
	if !ok || rs0.Replicas() != 2 || rs0.Info().Index != 0 {
		t.Errorf("shard 0 group = %#v", grouped[0])
	}
	rs1, ok := grouped[1].(*ReplicaSet)
	if !ok || rs1.Replicas() != 3 || rs1.Info().Index != 1 {
		t.Errorf("shard 1 group = %#v", grouped[1])
	}
	// Singletons pass through unwrapped.
	single, err := GroupReplicas([]Shard{mk(0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if _, isSet := single[0].(*ReplicaSet); isSet {
		t.Error("singleton was wrapped in a ReplicaSet")
	}
	// Conflicting shapes inside one group fail.
	bad := mk(0, 2)
	bad.(*stubShard).info.Shape.M = 9
	if _, err := GroupReplicas([]Shard{mk(0, 2), bad}); !errors.Is(err, ErrShardTopology) {
		t.Errorf("conflicting group: err = %v", err)
	}
	if _, err := GroupReplicas(nil); !errors.Is(err, ErrShardTopology) {
		t.Errorf("no workers: err = %v", err)
	}
}

// replicatedSystem is the in-process mirror of an R-way replicated
// sharded deployment, with per-replica kill switches that sever a
// worker's connections abruptly — the crash case, not a graceful drain.
type replicatedSystem struct {
	coord *ShardedC1
	sets  []*ReplicaSet // one per shard, in shard order
	bob   *Client
	// kill[shard][replica] severs that worker mid-protocol.
	kill [][]func()
}

// newReplicatedSystem builds S shards × R replicas over one shared C2.
// Replicas of a shard share the restored ciphertext table — a replica
// is just another worker over the same snapshot. remote puts every
// replica behind the coordinator↔shard wire protocol.
func newReplicatedSystem(t *testing.T, tbl *dataset.Table, shards, replicas int, remote bool) *replicatedSystem {
	t.Helper()
	sk := testKey()
	parts, err := encryptDataset(t, sk, tbl).Snapshot().Split(shards)
	if err != nil {
		t.Fatal(err)
	}
	c2 := NewCloudC2(sk, nil)
	// Each close is registered as soon as its resource exists, so a
	// setup step that fails ends the test instead of leaving a serve loop
	// for a later cleanup to wait on. Killed replicas have severed links;
	// Close errors are expected there and irrelevant — the pools'
	// teardown paths are pinned by the unreplicated suites.
	sys := &replicatedSystem{bob: NewClient(&sk.PublicKey, nil)}
	workersList := make([]Shard, 0, shards)
	for i, part := range parts {
		shardTable, err := RestoreTable(&sk.PublicKey, part)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		group := make([]Shard, replicas)
		kills := make([]func(), replicas)
		for r := 0; r < replicas; r++ {
			conns := pipesTo(t, c2, 1)
			c1, err := NewCloudC1(shardTable, conns, nil)
			if err != nil {
				conns[0].Close()
				t.Fatalf("shard %d replica %d: %v", i, r, err)
			}
			t.Cleanup(func() { c1.Close() })
			if remote {
				rsh, coordSide := dialShardPipe(t, c1, i, shards)
				group[r] = rsh
				kills[r] = func() { coordSide.Close() }
			} else {
				group[r] = &LocalShard{C1: c1, Index: i, Count: shards}
				kills[r] = func() {
					for _, conn := range conns {
						conn.Close()
					}
				}
			}
		}
		rs, err := newReplicaSet(group)
		if err != nil {
			t.Fatal(err)
		}
		workersList = append(workersList, rs)
		sys.sets = append(sys.sets, rs)
		sys.kill = append(sys.kill, kills)
	}
	coord, err := NewShardedC1(workersList, pipesTo(t, c2, 2), &sk.PublicKey, nil)
	if err != nil {
		t.Fatal(err)
	}
	sys.coord = coord
	t.Cleanup(func() {
		if err := coord.Close(); err != nil {
			t.Errorf("closing coordinator: %v", err)
		}
	})
	return sys
}

// runFailoverMidLoad drives concurrent queries, severs replica 0 of
// every shard while they are in flight, and requires zero failed
// queries, oracle-exact results throughout, and the failover counters
// to prove the requeue path actually ran.
func runFailoverMidLoad(t *testing.T, remote bool) {
	const attrBits, m, n, k, shards, replicas = 4, 2, 12, 3, 2, 2
	tbl, err := dataset.Generate(101, n, m, attrBits)
	if err != nil {
		t.Fatal(err)
	}
	sys := newReplicatedSystem(t, tbl, shards, replicas, remote)

	queries := [][]uint64{{7, 3}, {1, 14}, {15, 0}, {4, 9}}
	type outcome struct {
		q         []uint64
		rows      [][]uint64
		failovers int
		err       error
	}
	outs := make(chan outcome, len(queries))
	for _, q := range queries {
		go func(q []uint64) {
			eq, err := sys.bob.EncryptQuery(q)
			if err != nil {
				outs <- outcome{q: q, err: err}
				return
			}
			res, sm, err := sys.coord.SecureQuery(context.Background(), eq, k, 0)
			if err != nil {
				outs <- outcome{q: q, err: err}
				return
			}
			rows, err := sys.bob.Unmask(res)
			if err != nil {
				outs <- outcome{q: q, err: err}
				return
			}
			outs <- outcome{q: q, rows: rows, failovers: sm.Failovers}
		}(q)
	}
	// Sever replica 0 of every shard while the queries above are mid
	// protocol. The exact interleaving is nondeterministic — some queries
	// may finish first — so a serial tail query below guarantees the dead
	// replica is dispatched to at least once whatever the timing.
	time.Sleep(20 * time.Millisecond)
	for _, kills := range sys.kill {
		kills[0]()
	}
	totalFailovers := 0
	for range queries {
		out := <-outs
		if out.err != nil {
			t.Errorf("mid-load query %v failed: %v", out.q, out.err)
			continue
		}
		shardOracleCheck(t, tbl.Rows, out.rows, out.q, k)
		totalFailovers += out.failovers
	}

	eq, err := sys.bob.EncryptQuery([]uint64{3, 3})
	if err != nil {
		t.Fatal(err)
	}
	res, sm, err := sys.coord.SecureQuery(context.Background(), eq, k, 0)
	if err != nil {
		t.Fatalf("tail query after kill: %v", err)
	}
	rows, err := sys.bob.Unmask(res)
	if err != nil {
		t.Fatal(err)
	}
	shardOracleCheck(t, tbl.Rows, rows, []uint64{3, 3}, k)
	totalFailovers += sm.Failovers

	for _, rs := range sys.sets {
		st := rs.Stats()
		if !st.Dead[0] {
			t.Errorf("shard %d replica 0 not marked dead after kill", st.Shard)
		}
		if st.Live() != replicas-1 {
			t.Errorf("shard %d live = %d, want %d", st.Shard, st.Live(), replicas-1)
		}
		if st.Retries < 1 {
			t.Errorf("shard %d retries = %d, want ≥ 1 (failover must requeue, not absorb)", st.Shard, st.Retries)
		}
	}
	if totalFailovers < 1 {
		t.Error("no query reported a failover in its metrics")
	}
	// Basic mode keeps working on the degraded sets too.
	res, _, err = sys.coord.BasicQuery(context.Background(), eq, k)
	if err != nil {
		t.Fatalf("basic query on degraded sets: %v", err)
	}
	if rows, err = sys.bob.Unmask(res); err != nil {
		t.Fatal(err)
	}
	shardOracleCheck(t, tbl.Rows, rows, []uint64{3, 3}, k)
}

func TestFailoverMidLoadLocal(t *testing.T) { runFailoverMidLoad(t, false) }

func TestFailoverMidLoadWire(t *testing.T) { runFailoverMidLoad(t, true) }
