package core

import (
	"context"
	"crypto/rand"
	"sort"
	"sync"
	"testing"

	"sknn/internal/dataset"
	"sknn/internal/mpc"
	"sknn/internal/plainknn"
)

// newShardedSystem encrypts tbl, splits it into shards partitions, and
// wires S shard workers plus a coordinator to one shared C2 — the
// in-process mirror of the S×sknnd-shard topology. remote runs every
// shard behind the coordinator↔shard wire protocol over channel pipes
// instead of direct LocalShard calls.
func newShardedSystem(t *testing.T, tbl *dataset.Table, shards, workers int, remote bool) (*ShardedC1, *Client) {
	t.Helper()
	sk := testKey()
	if err := tbl.Validate(); err != nil {
		t.Fatal(err)
	}
	encTable, err := EncryptTable(rand.Reader, &sk.PublicKey, tbl.Rows)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := encTable.Snapshot().Split(shards)
	if err != nil {
		t.Fatal(err)
	}
	c2 := NewCloudC2(sk, nil)
	var wg sync.WaitGroup
	newConns := func(n int) []mpc.Conn {
		conns := make([]mpc.Conn, n)
		for i := range conns {
			c1Side, c2Side := mpc.ChanPipe()
			conns[i] = c1Side
			wg.Add(1)
			go func(conn mpc.Conn) {
				defer wg.Done()
				if err := c2.Serve(conn); err != nil {
					t.Errorf("C2 serve loop: %v", err)
				}
			}(c2Side)
		}
		return conns
	}
	c1s := make([]*CloudC1, shards)
	workersList := make([]Shard, shards)
	for i, part := range parts {
		shardTable, err := RestoreTable(&sk.PublicKey, part)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		c1s[i], err = NewCloudC1(shardTable, newConns(workers), nil)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		if remote {
			srv, err := NewShardServer(c1s[i], i, shards, tbl.DomainBits())
			if err != nil {
				t.Fatal(err)
			}
			coordSide, shardSide := mpc.ChanPipe()
			wg.Add(1)
			go func(conn mpc.Conn) {
				defer wg.Done()
				if err := srv.Serve(conn); err != nil {
					t.Errorf("shard serve loop: %v", err)
				}
			}(shardSide)
			rs, err := DialShard(coordSide)
			if err != nil {
				t.Fatal(err)
			}
			workersList[i] = rs
		} else {
			workersList[i] = &LocalShard{C1: c1s[i], Index: i, Count: shards}
		}
	}
	coord, err := NewShardedC1(workersList, newConns(workers), &sk.PublicKey, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := coord.Close(); err != nil {
			t.Errorf("closing coordinator: %v", err)
		}
		if remote {
			for _, w := range workersList {
				w.(*RemoteShard).Close()
			}
		}
		for _, c1 := range c1s {
			if err := c1.Close(); err != nil {
				t.Errorf("closing shard: %v", err)
			}
		}
		wg.Wait()
	})
	return coord, NewClient(&sk.PublicKey, nil)
}

// shardOracleCheck compares result rows against the plaintext oracle by
// sorted squared distance.
func shardOracleCheck(t *testing.T, rows [][]uint64, got [][]uint64, q []uint64, k int) {
	t.Helper()
	want, err := plainknn.KDistances(rows, q, k)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != k {
		t.Fatalf("got %d neighbors, want %d", len(got), k)
	}
	ds := make([]uint64, len(got))
	for i, row := range got {
		ds[i], err = plainknn.SquaredDistance(row[:len(q)], q)
		if err != nil {
			t.Fatal(err)
		}
	}
	sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
	for i := range want {
		if ds[i] != want[i] {
			t.Fatalf("neighbor distances %v, oracle %v (query %v)", ds, want, q)
		}
	}
}

// TestShardedSecureMatchesOracle is the scatter-gather correctness
// core: for several shard counts, the sharded SkNNm answer equals the
// plaintext oracle (and hence the single-shard answer, which the
// integration suite pins to the same oracle).
func TestShardedSecureMatchesOracle(t *testing.T) {
	const attrBits, m, n, k = 4, 2, 14, 4
	tbl, err := dataset.Generate(71, n, m, attrBits)
	if err != nil {
		t.Fatal(err)
	}
	l := dataset.DomainBits(attrBits, m)
	q := []uint64{7, 3}
	for _, shards := range []int{2, 3} {
		coord, bob := newShardedSystem(t, tbl, shards, 1, false)
		eq, err := bob.EncryptQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		res, metrics, err := coord.SecureQuery(context.Background(), eq, k, l, 0)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		rows, err := bob.Unmask(res)
		if err != nil {
			t.Fatal(err)
		}
		shardOracleCheck(t, tbl.Rows, rows, q, k)
		if metrics.Shards != shards {
			t.Errorf("metrics.Shards = %d, want %d", metrics.Shards, shards)
		}
		if metrics.Candidates != n {
			t.Errorf("metrics.Candidates = %d, want %d (full scans over every shard)", metrics.Candidates, n)
		}
		// Shard scans spend k·(nᵢ−1) SMINs each, the merge k·(s·k−1):
		// in total strictly fewer than a monolithic k·(n−1) only when
		// s·k < n; here just assert the merge actually ran.
		if metrics.Merge <= 0 || metrics.Scatter <= 0 {
			t.Errorf("scatter/merge wall clock not recorded: %+v", metrics)
		}
	}
}

// TestShardedSecureRemoteWire runs the same oracle conformance with
// every shard behind the wire protocol (DialShard/ServeShard), so frame
// encoding, candidate decoding, and live-count refresh are all on the
// hot path.
func TestShardedSecureRemoteWire(t *testing.T) {
	const attrBits, m, n, k = 4, 2, 11, 3
	tbl, err := dataset.Generate(73, n, m, attrBits)
	if err != nil {
		t.Fatal(err)
	}
	l := dataset.DomainBits(attrBits, m)
	coord, bob := newShardedSystem(t, tbl, 2, 1, true)
	for _, q := range [][]uint64{{1, 2}, {14, 0}} {
		eq, err := bob.EncryptQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := coord.SecureQuery(context.Background(), eq, k, l, 0)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := bob.Unmask(res)
		if err != nil {
			t.Fatal(err)
		}
		shardOracleCheck(t, tbl.Rows, rows, q, k)
	}
	// Basic mode over the wire: E(d) candidates instead of bit vectors.
	eq, err := bob.EncryptQuery([]uint64{5, 5})
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := coord.BasicQuery(context.Background(), eq, k)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := bob.Unmask(res)
	if err != nil {
		t.Fatal(err)
	}
	shardOracleCheck(t, tbl.Rows, rows, []uint64{5, 5}, k)
	// Basic candidates carry stable ids across the wire; each decoded id
	// must name the row that came back (initial ids are row order).
	if len(res.IDs) != k {
		t.Fatalf("basic wire result has %d ids, want %d", len(res.IDs), k)
	}
	for i, id := range res.IDs {
		if int(id) >= len(tbl.Rows) {
			t.Fatalf("id %d out of range", id)
		}
		for j, v := range rows[i] {
			if tbl.Rows[id][j] != v {
				t.Fatalf("id %d names row %v, result row is %v", id, tbl.Rows[id], rows[i])
			}
		}
	}
}

// TestShardedBasicMatchesOracle pins the SkNNb rank-merge path.
func TestShardedBasicMatchesOracle(t *testing.T) {
	const attrBits, m, n, k = 5, 2, 17, 5
	tbl, err := dataset.Generate(77, n, m, attrBits)
	if err != nil {
		t.Fatal(err)
	}
	coord, bob := newShardedSystem(t, tbl, 3, 1, false)
	for _, q := range [][]uint64{{9, 9}, {0, 31}} {
		eq, err := bob.EncryptQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := coord.BasicQuery(context.Background(), eq, k)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := bob.Unmask(res)
		if err != nil {
			t.Fatal(err)
		}
		shardOracleCheck(t, tbl.Rows, rows, q, k)
	}
}

// TestShardedSmallShards covers shards smaller than k: a 2-record shard
// asked for k=5 contributes its 2 records and the merge still recovers
// the exact global top-k.
func TestShardedSmallShards(t *testing.T) {
	const attrBits, m, n, k = 4, 2, 9, 5
	tbl, err := dataset.Generate(79, n, m, attrBits)
	if err != nil {
		t.Fatal(err)
	}
	l := dataset.DomainBits(attrBits, m)
	coord, bob := newShardedSystem(t, tbl, 4, 1, false) // shards of 3,2,2,2
	q := []uint64{8, 1}
	eq, err := bob.EncryptQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := coord.SecureQuery(context.Background(), eq, k, l, 0)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := bob.Unmask(res)
	if err != nil {
		t.Fatal(err)
	}
	shardOracleCheck(t, tbl.Rows, rows, q, k)
	// k above the whole table is still rejected.
	if _, _, err := coord.SecureQuery(context.Background(), eq, n+1, l, 0); err == nil {
		t.Error("k > n accepted by sharded query")
	}
}

// TestSplitMergeRoundTrip checks the snapshot algebra: Split partitions
// by id mod S preserving records, ids, tombstones, and the induced
// cluster indexes; Merge(Split(x)) reproduces x exactly.
func TestSplitMergeRoundTrip(t *testing.T) {
	sk := testKey()
	tbl, err := dataset.GenerateClustered(83, 24, 2, 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	encTable, err := EncryptTable(rand.Reader, &sk.PublicKey, tbl.Rows)
	if err != nil {
		t.Fatal(err)
	}
	// Attach a simple 3-cluster index (positions striped) to exercise
	// index splitting without k-means.
	centroids := [][]uint64{{1, 1}, {2, 2}, {3, 3}}
	members := [][]int{{}, {}, {}}
	for i := 0; i < 24; i++ {
		members[i%3] = append(members[i%3], i)
	}
	encTable, err = encTable.WithClusterIndex(rand.Reader, centroids, members)
	if err != nil {
		t.Fatal(err)
	}
	// A couple of tombstones so Dead flags travel too.
	if err := encTable.Delete(5); err != nil {
		t.Fatal(err)
	}
	if err := encTable.Delete(16); err != nil {
		t.Fatal(err)
	}

	snap := encTable.Snapshot()
	const shards = 5
	parts, err := snap.Split(shards)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for w, p := range parts {
		if p.NextID != snap.NextID {
			t.Errorf("shard %d NextID = %d, want %d", w, p.NextID, snap.NextID)
		}
		for i, id := range p.IDs {
			if int(id%shards) != w {
				t.Errorf("shard %d holds id %d", w, id)
			}
			// Ciphertexts are shared, not copied (ids equal positions in
			// this freshly built table).
			if p.Records[i][0] != snap.Records[id][0] {
				t.Errorf("shard %d record id %d not sharing ciphertexts", w, id)
			}
		}
		// Shard index partitions exactly the shard's positions.
		seen := make([]bool, len(p.Records))
		for j, mem := range p.Members {
			if len(mem) == 0 {
				t.Errorf("shard %d kept empty cluster %d", w, j)
			}
			for _, pos := range mem {
				if seen[pos] {
					t.Errorf("shard %d position %d in two clusters", w, pos)
				}
				seen[pos] = true
			}
		}
		for pos, ok := range seen {
			if !ok {
				t.Errorf("shard %d position %d in no cluster", w, pos)
			}
		}
		total += len(p.Records)
	}
	if total != len(snap.Records) {
		t.Fatalf("shards hold %d records, want %d", total, len(snap.Records))
	}

	merged, err := MergeTableSnapshots(parts)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.Records) != len(snap.Records) || merged.NextID != snap.NextID {
		t.Fatalf("merged %d records next %d, want %d next %d",
			len(merged.Records), merged.NextID, len(snap.Records), snap.NextID)
	}
	for i := range merged.Records {
		if merged.IDs[i] != snap.IDs[i] {
			t.Fatalf("merged position %d has id %d, want %d", i, merged.IDs[i], snap.IDs[i])
		}
		if merged.Dead[i] != snap.Dead[i] {
			t.Errorf("merged position %d dead=%v, want %v", i, merged.Dead[i], snap.Dead[i])
		}
		if merged.Records[i][0] != snap.Records[i][0] {
			t.Errorf("merged position %d not sharing ciphertexts", i)
		}
	}
	// Cluster fragments reunite: Merge(Split(x)) restores x's cluster
	// count and exact membership lists, not a per-shard concatenation
	// (which would multiply clusters every reshard cycle).
	if len(merged.Centroids) != len(snap.Centroids) {
		t.Fatalf("merged index has %d clusters, want %d", len(merged.Centroids), len(snap.Centroids))
	}
	for j := range merged.Members {
		if len(merged.Members[j]) != len(snap.Members[j]) {
			t.Fatalf("merged cluster %d has %d members, want %d",
				j, len(merged.Members[j]), len(snap.Members[j]))
		}
		for i := range merged.Members[j] {
			if merged.Members[j][i] != snap.Members[j][i] {
				t.Fatalf("merged cluster %d member %d = %d, want %d",
					j, i, merged.Members[j][i], snap.Members[j][i])
			}
		}
	}
	// The merged index is a valid partition (RestoreTable re-validates).
	if _, err := RestoreTable(&sk.PublicKey, merged); err != nil {
		t.Fatalf("restoring merged snapshot: %v", err)
	}
}

// TestSplitErrors pins the split/merge failure modes.
func TestSplitErrors(t *testing.T) {
	sk := testKey()
	tbl, _ := dataset.Generate(89, 6, 2, 4)
	encTable, err := EncryptTable(rand.Reader, &sk.PublicKey, tbl.Rows)
	if err != nil {
		t.Fatal(err)
	}
	snap := encTable.Snapshot()
	if _, err := snap.Split(0); err == nil {
		t.Error("split into 0 shards accepted")
	}
	// More shards than records leaves residue classes empty.
	if _, err := snap.Split(7); err == nil {
		t.Error("split with an empty shard accepted")
	}
	parts, err := snap.Split(2)
	if err != nil {
		t.Fatal(err)
	}
	// Swapped shards violate the id mod S ownership rule.
	if _, err := MergeTableSnapshots([]*TableSnapshot{parts[1], parts[0]}); err == nil {
		t.Error("merge of mis-ordered shards accepted")
	}
	if _, err := MergeTableSnapshots([]*TableSnapshot{parts[0], parts[0]}); err == nil {
		t.Error("merge of a duplicated shard accepted")
	}
}

// TestInsertWithID pins the sharded id routing contract on the table.
func TestInsertWithID(t *testing.T) {
	sk := testKey()
	tbl, _ := dataset.Generate(97, 4, 2, 4)
	encTable, err := EncryptTable(rand.Reader, &sk.PublicKey, tbl.Rows)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := sk.PublicKey.EncryptUint64Vector(rand.Reader, []uint64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := encTable.InsertWithID(9, rec, -1); err != nil {
		t.Fatal(err)
	}
	if got := encTable.NextID(); got != 10 {
		t.Errorf("NextID = %d after InsertWithID(9), want 10", got)
	}
	// Below the high-water mark: rejected (ids are never reused).
	if err := encTable.InsertWithID(9, rec, -1); err == nil {
		t.Error("reused id accepted")
	}
	// Plain Insert continues from the advanced mark.
	id, err := encTable.Insert(rec, -1)
	if err != nil {
		t.Fatal(err)
	}
	if id != 10 {
		t.Errorf("Insert assigned id %d, want 10", id)
	}
}

// opTally counts the request frames one party sent C2, by opcode. The
// tap sees a link's frames from the session goroutines and the
// multiplexer's reader at once, hence the lock.
type opTally struct {
	mu  sync.Mutex
	ops map[mpc.Op]int
}

func (o *opTally) tap(conn mpc.Conn) mpc.Conn {
	return mpc.Tap(conn, func(dir mpc.Direction, m *mpc.Message) {
		if dir != mpc.DirSend {
			return
		}
		o.mu.Lock()
		defer o.mu.Unlock()
		if o.ops == nil {
			o.ops = map[mpc.Op]int{}
		}
		o.ops[m.Op]++
	})
}

// reset returns the tally so far and starts a new one.
func (o *opTally) reset() map[mpc.Op]int {
	o.mu.Lock()
	defer o.mu.Unlock()
	ops := o.ops
	o.ops = nil
	return ops
}

// TestOneShardBasicAddsNoRankRound pins SkNNb's one-shard degeneration:
// through the coordinator a lone shard's query sends C2 exactly the
// requests and round trips the bare worker's own SkNNb sends on the same
// table — in particular one OpRank, not a second one over the already
// ranked k-set — and Bob gets the ids nearest first. (That C2 sees the
// paper's protocol frame for frame is internal/reference.SkNNb's claim,
// not the engine's: the engine's distances ride the packed SSED kernel.)
func TestOneShardBasicAddsNoRankRound(t *testing.T) {
	const attrBits, m, n, k = 4, 2, 10, 3
	sk := testKey()
	tbl, err := dataset.Generate(881, n, m, attrBits)
	if err != nil {
		t.Fatal(err)
	}
	encTable, err := EncryptTable(rand.Reader, &sk.PublicKey, tbl.Rows)
	if err != nil {
		t.Fatal(err)
	}
	c2 := NewCloudC2(sk, nil)
	var tally opTally
	var wg sync.WaitGroup
	link := func() []mpc.Conn {
		c1Side, c2Side := mpc.ChanPipe()
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := c2.Serve(c2Side); err != nil {
				t.Errorf("C2 serve loop: %v", err)
			}
		}()
		return []mpc.Conn{tally.tap(c1Side)}
	}
	c1, err := NewCloudC1(encTable, link(), nil)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewShardedC1([]Shard{&LocalShard{C1: c1, Count: 1}}, link(), &sk.PublicKey, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		coord.Close()
		c1.Close()
		wg.Wait()
	}()
	bob := NewClient(&sk.PublicKey, nil)
	q := []uint64{6, 11}
	eq, err := bob.EncryptQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	tally.reset() // the two hellos

	_, bm, err := c1.BasicQueryMetered(context.Background(), eq, k)
	if err != nil {
		t.Fatal(err)
	}
	bare := tally.reset()

	res, sm, err := coord.BasicQuery(context.Background(), eq, k)
	if err != nil {
		t.Fatal(err)
	}
	through := tally.reset()

	if bare[OpRank] != 1 || bare[OpReveal] != 1 {
		t.Fatalf("bare SkNNb sent %d rank and %d reveal requests, want 1 and 1", bare[OpRank], bare[OpReveal])
	}
	if len(through) != len(bare) {
		t.Errorf("requests through the coordinator %v, bare worker %v", through, bare)
	}
	for op, want := range bare {
		if through[op] != want {
			t.Errorf("op %d: %d requests through the coordinator, %d from the bare worker", op, through[op], want)
		}
	}
	if sm.Comm.Rounds != bm.Comm.Rounds {
		t.Errorf("%d round trips through the coordinator, %d from the bare worker", sm.Comm.Rounds, bm.Comm.Rounds)
	}
	if sm.Shards != 0 || sm.Distance <= 0 || sm.Select <= 0 || sm.Reveal <= 0 {
		t.Errorf("coordinator metrics missing a phase: %+v", sm)
	}

	want, err := plainknn.KNN(tbl.Rows, q, k)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := bob.Unmask(res)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != k {
		t.Fatalf("%d ids, want %d", len(res.IDs), k)
	}
	for j, nb := range want {
		d, err := plainknn.SquaredDistance(rows[j], q)
		if err != nil {
			t.Fatal(err)
		}
		if d != nb.Dist {
			t.Errorf("rank %d: dist² %d, oracle %d — not nearest first", j, d, nb.Dist)
		}
		if got := tbl.Rows[res.IDs[j]]; got[0] != rows[j][0] || got[1] != rows[j][1] {
			t.Errorf("rank %d: id %d names row %v, revealed row is %v", j, res.IDs[j], got, rows[j])
		}
	}
}
