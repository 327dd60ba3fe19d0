package sknn

import (
	"context"
	"sync"
	"testing"

	"sknn/internal/dataset"
)

// TestReplicatedQueryMatchesOracle pins the replicated facade to the
// plaintext oracle with every replica healthy: replication must change
// capacity, never answers.
func TestReplicatedQueryMatchesOracle(t *testing.T) {
	const attrBits, k = 4, 3
	tbl, err := dataset.Generate(581, 12, 2, attrBits)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(tbl.Rows, attrBits, Config{Key: facadeKey(), Shards: 2, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if sys.Replicas() != 2 || sys.Shards() != 2 {
		t.Fatalf("topology %d×%d, want 2×2", sys.Shards(), sys.Replicas())
	}
	stats := sys.ReplicaStats()
	if len(stats) != 2 {
		t.Fatalf("ReplicaStats reported %d partitions, want 2", len(stats))
	}
	for _, st := range stats {
		if st.Replicas != 2 || st.Live() != 2 {
			t.Fatalf("partition %d: %d replicas %d live, want 2/2", st.Shard, st.Replicas, st.Live())
		}
	}
	q := []uint64{3, 9}
	for _, mode := range []Mode{ModeBasic, ModeSecure} {
		got, err := queryRows(sys, q, k, mode)
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		oracleCheck(t, tbl.Rows, got, q, k)
	}
}

// TestReplicaFailoverMidLoad is the facade half of the failover
// acceptance: kill one replica of every shard while queries are in
// flight and require zero failed queries at oracle-exact recall, with
// the coordinator's retry/failover counters showing the requeues.
func TestReplicaFailoverMidLoad(t *testing.T) {
	const (
		attrBits = 4
		k        = 3
		inflight = 4
	)
	tbl, err := dataset.Generate(591, 12, 2, attrBits)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(tbl.Rows, attrBits, Config{Key: facadeKey(), Shards: 2, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	queries := [][]uint64{{0, 0}, {3, 9}, {15, 15}, {7, 2}}
	type outcome struct {
		q    []uint64
		rows [][]uint64
		err  error
	}
	results := make(chan outcome, inflight)
	var wg sync.WaitGroup
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func(q []uint64) {
			defer wg.Done()
			res, err := sys.Query(context.Background(), q, WithK(k))
			if err != nil {
				results <- outcome{q: q, err: err}
				return
			}
			results <- outcome{q: q, rows: res.Rows}
		}(queries[i])
	}
	// Kill replica 1 of every shard while the queries above are running
	// (CloseReplica drains: scans in flight on the dying replica finish,
	// later picks fail fast and requeue).
	for shard := 0; shard < sys.Shards(); shard++ {
		if err := sys.CloseReplica(shard, 1); err != nil {
			t.Errorf("CloseReplica(%d, 1): %v", shard, err)
		}
	}
	wg.Wait()
	close(results)
	for got := range results {
		if got.err != nil {
			t.Fatalf("query %v failed during failover: %v", got.q, got.err)
		}
		oracleCheck(t, tbl.Rows, got.rows, got.q, k)
	}

	// Serial tail: every surviving query must route around the dead
	// replicas, forcing at least one dead-replica pick per partition.
	for i := 0; i < 3; i++ {
		res, err := sys.Query(context.Background(), []uint64{3, 9}, WithK(k))
		if err != nil {
			t.Fatalf("post-kill query %d: %v", i, err)
		}
		oracleCheck(t, tbl.Rows, res.Rows, []uint64{3, 9}, k)
	}

	stats := sys.ReplicaStats()
	totalRetries := 0
	for _, st := range stats {
		if !st.Dead[1] {
			t.Errorf("partition %d: replica 1 not marked dead after kill", st.Shard)
		}
		if st.Dead[0] || st.Live() != 1 {
			t.Errorf("partition %d: %d live replicas, want surviving replica 0", st.Shard, st.Live())
		}
		totalRetries += st.Retries
	}
	if totalRetries < 1 {
		t.Error("no retries recorded: the kill was never observed by the coordinator")
	}

	// Mutations keep working on the degraded system (they route to a
	// surviving replica of the owning partition).
	id, err := sys.Insert([]uint64{1, 1})
	if err != nil {
		t.Fatalf("insert on degraded system: %v", err)
	}
	if err := sys.Delete(id); err != nil {
		t.Fatalf("delete on degraded system: %v", err)
	}

	// Killing the same replica again is a no-op; killing out of range and
	// killing on unreplicated systems are errors.
	if err := sys.CloseReplica(0, 1); err != nil {
		t.Errorf("repeat CloseReplica: %v", err)
	}
	if err := sys.CloseReplica(0, 5); err == nil {
		t.Error("out-of-range CloseReplica succeeded")
	}
	flat, err := New(tbl.Rows, attrBits, Config{Key: facadeKey()})
	if err != nil {
		t.Fatal(err)
	}
	defer flat.Close()
	if err := flat.CloseReplica(0, 0); err == nil {
		t.Error("CloseReplica on unreplicated system succeeded")
	}
}

// TestReplicatedUnshardedTopology exercises Replicas > 1 with Shards
// unset — a single replicated partition: the replicas share the one
// table, and the system answers exactly before and after one is killed.
func TestReplicatedUnshardedTopology(t *testing.T) {
	const attrBits, k = 4, 2
	tbl, err := dataset.Generate(601, 8, 2, attrBits)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(tbl.Rows, attrBits, Config{Key: facadeKey(), Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if sys.Shards() != 1 || sys.Replicas() != 2 {
		t.Fatalf("topology %d×%d, want 1×2", sys.Shards(), sys.Replicas())
	}
	q := []uint64{5, 5}
	got, err := queryRows(sys, q, k, ModeSecure)
	if err != nil {
		t.Fatal(err)
	}
	oracleCheck(t, tbl.Rows, got, q, k)
	if err := sys.CloseReplica(0, 0); err != nil {
		t.Fatal(err)
	}
	got, err = queryRows(sys, q, k, ModeSecure)
	if err != nil {
		t.Fatalf("query after killing replica 0: %v", err)
	}
	oracleCheck(t, tbl.Rows, got, q, k)
}

func TestNegativeReplicasRejected(t *testing.T) {
	if _, err := New([][]uint64{{1, 2}}, 4, Config{Key: facadeKey(), Replicas: -1}); err == nil {
		t.Fatal("negative replica count accepted")
	}
}
