package sknn

import (
	"bytes"
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"

	"sknn/internal/core"
	"sknn/internal/dataset"
	"sknn/internal/mpc"
	"sknn/internal/paillier"
	"sknn/internal/smc"
	"sknn/internal/store"
	"sknn/internal/testkit"
)

// This file is the facade half of the reference boundary (the engine
// half lives in internal/reference): the same SkNNm query is answered by
// a System — the one production engine, in every topology the facade can
// assemble — and by the paper's printed protocol, reference.SkNNm, which
// shares no engine code with it. The two must return the same top-k rows,
// and both must match the plaintext oracle's k-distance multiset exactly
// — recall 1.0, not approximate.

// sortedRows canonicalizes a result set for multiset comparison.
func sortedRows(rows [][]uint64) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	sort.Strings(out)
	return out
}

// TestDifferentialSecureQueryMatrix runs four topologies — one shard
// (S=1, R=1: the row still named unsharded), a 2-shard streaming merge, a replicated 2-shard system answering through
// failover, and one replicated partition (a coordinator with nothing to
// merge) — in both index modes. The table carries a payload column so a
// shifted slot cannot hide. SkNNb answers the same query on every one of
// them and is held to the same oracle.
func TestDifferentialSecureQueryMatrix(t *testing.T) {
	const attrBits, k = 5, 3
	topologies := []struct {
		name     string
		shards   int
		replicas int // > 1 with shards > 1: replica 1 of every shard is killed before the query
	}{
		{"unsharded", 0, 0},
		{"sharded2", 2, 0},
		{"sharded2-failover", 2, 2},
		{"replicated1x2", 1, 2},
	}
	indexes := []struct {
		name string
		mode IndexMode
	}{
		{"flat", IndexNone},
		{"clustered", IndexClustered},
	}
	tbl, err := dataset.GenerateClustered(501, 36, 2, attrBits, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range tbl.Rows {
		tbl.Rows[i] = append(row, uint64(31-i%32)) // payload: never ranks, must come back intact
	}
	q, err := dataset.GenerateQuery(502, 2, attrBits)
	if err != nil {
		t.Fatal(err)
	}
	features := make([][]uint64, len(tbl.Rows))
	for i, row := range tbl.Rows {
		features[i] = row[:2]
	}
	ref := referenceRows(t, facadeKey(), tbl.Rows, attrBits, 2, q, k)
	oracleCheck(t, features, ref, q, k)

	for _, topo := range topologies {
		for _, idx := range indexes {
			t.Run(topo.name+"/"+idx.name, func(t *testing.T) {
				cfg := Config{
					Key: facadeKey(), Shards: topo.shards, Replicas: topo.replicas,
					Index: idx.mode, FeatureColumns: 2,
				}
				if idx.mode == IndexClustered {
					cfg.Clusters = 4
					cfg.Coverage = 8
				}
				sys, err := New(tbl.Rows, attrBits, cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer sys.Close()
				for shard := 0; topo.replicas > 1 && topo.shards > 1 && shard < topo.shards; shard++ {
					if err := sys.CloseReplica(shard, 1); err != nil {
						t.Fatal(err)
					}
				}
				got, err := queryRows(sys, q, k, ModeSecure)
				if err != nil {
					t.Fatal(err)
				}
				// Identical top-k, payload included, between the engine and
				// the printed protocol.
				gp, gr := sortedRows(got), sortedRows(ref)
				for i := range gr {
					if i >= len(gp) || gp[i] != gr[i] {
						t.Fatalf("top-k %v diverges from the reference's %v", gp, gr)
					}
				}
				// Recall 1.0 against the plaintext oracle: the distance
				// multiset must match exactly.
				oracleCheck(t, features, got, q, k)

				basic, err := sys.Query(context.Background(), q, WithK(k), WithMode(ModeBasic))
				if err != nil {
					t.Fatal(err)
				}
				oracleCheck(t, features, basic.Rows, q, k)
				for j, row := range basic.Rows {
					if want := tbl.Rows[basic.IDs[j]]; fmt.Sprint(row) != fmt.Sprint(want) {
						t.Errorf("SkNNb result %d is %v, id %d names %v", j, row, basic.IDs[j], want)
					}
				}
			})
		}
	}
}

// TestDifferentialSecureQueryEdges takes the same three-way comparison to
// the edges of the value domain, one row each, on one shard and through
// a 2-shard merge (ties are broken at random on both sides, so these
// compare distances, and whole rows against the table). The last rows pin
// the domain bound: l = K − 69 is the widest distance domain a K-bit key
// answers, and one bit more is ErrDomainBits from New and LoadTable
// before any table is encrypted or any cloud stood up.
func TestDifferentialSecureQueryEdges(t *testing.T) {
	const max24 = 1<<24 - 1
	cases := []struct {
		name     string
		keyBits  int
		attrBits int
		rows     [][]uint64
		q        []uint64
		k        int
		wantErr  error
	}{
		{name: "k = n", keyBits: 256, attrBits: 3,
			rows: [][]uint64{{1, 1}, {6, 2}, {5, 5}, {0, 7}}, q: []uint64{1, 1}, k: 4},
		{name: "all-equal distances", keyBits: 256, attrBits: 3,
			rows: [][]uint64{{1, 1}, {1, 3}, {3, 1}, {3, 3}}, q: []uint64{2, 2}, k: 2},
		{name: "maximum attribute value", keyBits: 256, attrBits: 24,
			rows: [][]uint64{{max24, max24}, {0, 0}, {max24, 0}, {max24 - 1, max24}}, q: []uint64{0, 0}, k: 3},
		{name: "m = 1", keyBits: 256, attrBits: 4,
			rows: [][]uint64{{15}, {0}, {9}, {8}}, q: []uint64{9}, k: 2},
		// DomainBits(24, 1) = 49 = 118 − 69; DomainBits(24, 2) = 50.
		{name: "l = K − 69", keyBits: 118, attrBits: 24,
			rows: [][]uint64{{max24}, {0}, {9}, {max24 - 1}}, q: []uint64{max24}, k: 2},
		{name: "l = K − 68", keyBits: 118, attrBits: 24,
			rows: [][]uint64{{max24, 1}, {0, 2}, {9, 3}, {max24 - 1, 4}}, q: []uint64{max24, 0}, k: 2,
			wantErr: core.ErrDomainBits},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sk := testkit.Key(tc.keyBits)
			m := len(tc.rows[0])
			if tc.wantErr != nil {
				if _, err := New(tc.rows, tc.attrBits, Config{Key: sk}); !errors.Is(err, tc.wantErr) {
					t.Errorf("New: err = %v, want %v", err, tc.wantErr)
				}
				// A snapshot some other writer produced at that l.
				table, err := core.EncryptTable(rand.Reader, &sk.PublicKey, tc.rows)
				if err != nil {
					t.Fatal(err)
				}
				if table, err = table.WithAttrBits(tc.attrBits); err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := store.Write(&buf, &sk.PublicKey, table.Snapshot(), dataset.DomainBits(tc.attrBits, m)); err != nil {
					t.Fatal(err)
				}
				if _, err := LoadTable(&buf, sk, Config{}); !errors.Is(err, tc.wantErr) {
					t.Errorf("LoadTable: err = %v, want %v", err, tc.wantErr)
				}
				return
			}
			inTable := make(map[string]bool)
			for _, row := range tc.rows {
				inTable[fmt.Sprint(row)] = true
			}
			check := func(who string, got [][]uint64) {
				t.Helper()
				oracleCheck(t, tc.rows, got, tc.q, tc.k)
				for _, row := range got {
					if !inTable[fmt.Sprint(row)] {
						t.Errorf("%s returned %v, not a table row", who, row)
					}
				}
			}
			check("reference", referenceRows(t, sk, tc.rows, tc.attrBits, m, tc.q, tc.k))
			for _, shards := range []int{0, 2} {
				sys, err := New(tc.rows, tc.attrBits, Config{Key: sk, Shards: shards})
				if err != nil {
					t.Fatal(err)
				}
				got, err := queryRows(sys, tc.q, tc.k, ModeSecure)
				sys.Close()
				if err != nil {
					t.Fatalf("%d shards: %v", shards, err)
				}
				check(fmt.Sprintf("System over %d shards", shards), got)
			}
		})
	}
}

// TestSecureScanCostAtBenchShape guards bench/'s two secure_scan
// counters in tier-1: at that workload's shape (n=8, m=6, attrBits=4,
// k=2, one link, a 512-bit key) a query takes exactly 91 C1↔C2 round
// trips and moves the 52394 bytes the benchmark reports as
// c2_bytes_per_query. The byte count is the integers on the wire at
// their minimal lengths, so a query falls a few bytes short of its
// nominal size — one for every ciphertext or masked value that happens to
// start with a zero byte, a handful in some four hundred — hence the
// window: one ciphertext more or fewer is 130 bytes and lands outside it.
func TestSecureScanCostAtBenchShape(t *testing.T) {
	const n, m, attrBits, k = 8, 6, 4, 2
	tbl, err := dataset.Generate(1, n, m, attrBits)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(tbl.Rows, attrBits, Config{Key: testkit.Key(512), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	q, err := dataset.GenerateQuery(2, m, attrBits)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Query(context.Background(), q, WithK(k), WithMode(ModeSecure))
	if err != nil {
		t.Fatal(err)
	}
	oracleCheck(t, tbl.Rows, res.Rows, q, k)
	comm := res.Metrics.Secure.Comm
	if comm.Rounds != 91 {
		t.Errorf("query took %d round trips, want 91", comm.Rounds)
	}
	if moved := comm.BytesSent + comm.BytesReceived; moved < 52394-32 || moved > 52394+32 {
		t.Errorf("query moved %d bytes between the clouds, want 52394 give or take leading zero bytes", moved)
	}
}

// TestBasicScanCostAtBenchShape is the same guard for bench/'s basic_tcp
// counters: at that workload's shape (n=32, m=6, attrBits=8, k=5, two
// links, a 512-bit key) SkNNb takes 4 round trips — the scan's two halves
// on the two links, the rank, the reveal — and moves the 13843 bytes the
// benchmark reports as c2_bytes_per_query. C2 decrypts one SSED slot
// group per record, the n distances it ranks and one row-packed share per
// neighbour; it encrypts one SSED reply per record, and C1 encrypts
// nothing at all.
func TestBasicScanCostAtBenchShape(t *testing.T) {
	const n, m, attrBits, k = 32, 6, 8, 5
	tbl, err := dataset.Generate(1, n, m, attrBits)
	if err != nil {
		t.Fatal(err)
	}
	q, err := dataset.GenerateQuery(2, m, attrBits)
	if err != nil {
		t.Fatal(err)
	}
	sk := testkit.Key(512)
	pk := &sk.PublicKey
	table, err := core.EncryptTable(rand.Reader, pk, tbl.Rows)
	if err != nil {
		t.Fatal(err)
	}
	if table.AttrBits() != attrBits {
		t.Fatalf("table derived %d-bit attributes from the bench rows, want %d", table.AttrBits(), attrBits)
	}

	// Every ciphertext C1 hands C2, by opcode, headers included.
	var mu sync.Mutex
	sent := map[mpc.Op]int{}
	frames := map[mpc.Op]int{}
	c2 := core.NewCloudC2(sk, nil)
	var wg sync.WaitGroup
	links := func() []mpc.Conn {
		conns := make([]mpc.Conn, 2)
		for i := range conns {
			c1Side, c2Side := mpc.ChanPipe()
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := c2.Serve(c2Side); err != nil {
					t.Errorf("C2 serve loop: %v", err)
				}
			}()
			conns[i] = mpc.Tap(c1Side, func(dir mpc.Direction, msg *mpc.Message) {
				if dir == mpc.DirSend {
					mu.Lock()
					sent[msg.Op] += len(msg.Ints)
					frames[msg.Op]++
					mu.Unlock()
				}
			})
		}
		return conns
	}
	c1, err := core.NewCloudC1(table, links(), nil)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := core.NewShardedC1([]core.Shard{&core.LocalShard{C1: c1, Count: 1}}, links(), pk, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		coord.Close()
		c1.Close()
		wg.Wait()
	}()
	bob := core.NewClient(pk, nil)
	eq, err := bob.EncryptQuery(q)
	if err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	clear(sent) // the pools' handshakes
	clear(frames)
	mu.Unlock()
	encrypts := paillier.EncryptCalls()
	res, metrics, err := coord.BasicQuery(context.Background(), eq, k)
	if err != nil {
		t.Fatal(err)
	}
	encrypts = paillier.EncryptCalls() - encrypts
	rows, err := bob.Unmask(res)
	if err != nil {
		t.Fatal(err)
	}
	oracleCheck(t, tbl.Rows, rows, q, k)

	if metrics.Comm.Rounds != 4 {
		t.Errorf("query took %d round trips, want 4", metrics.Comm.Rounds)
	}
	if moved := metrics.Comm.BytesSent + metrics.Comm.BytesReceived; moved < 13843-32 || moved > 13843+32 {
		t.Errorf("query moved %d bytes between the clouds, want 13843 give or take leading zero bytes", moved)
	}
	mu.Lock()
	defer mu.Unlock()
	chunks := res.Layout.Chunks(m)
	if chunks != 1 {
		t.Errorf("a neighbour is revealed as %d shares (layout %+v), want 1", chunks, res.Layout)
	}
	// An OpSSEDPack frame is [count, m, valueBits, one group per record];
	// the OpRank frame is [k, n distances].
	if got := sent[smc.OpSSEDPack] - 3*frames[smc.OpSSEDPack]; frames[smc.OpSSEDPack] != 2 || got != n {
		t.Errorf("C2 decrypted %d SSED slot groups off %d frames, want %d off 2", got, frames[smc.OpSSEDPack], n)
	}
	if got := sent[core.OpRank] - 1; frames[core.OpRank] != 1 || got != n {
		t.Errorf("C2 decrypted %d distances off %d rank frames, want %d off 1", got, frames[core.OpRank], n)
	}
	if got := sent[core.OpReveal]; frames[core.OpReveal] != 1 || got != k*chunks {
		t.Errorf("C2 decrypted %d masked shares off %d reveal frames, want %d off 1", got, frames[core.OpReveal], k*chunks)
	}
	if len(frames) != 3 {
		t.Errorf("C1 sent C2 requests %v, want only SSEDPack, Rank and Reveal", frames)
	}
	if encrypts != n {
		t.Errorf("%d encryptions during the query, want %d: one SSED reply per record on C2, none on C1", encrypts, n)
	}
}

// TestDeclaredWidthSizesTheSlots: a table whose initial rows all sit in
// the lower half of the declared domain — so the width EncryptTable
// derives is a bit short of it — then takes an Insert at 2^attrBits − 1.
// Both protocols must still equal the oracle, warm renderings and all,
// which they can only if the declared width sized the slots; and the
// width must survive SaveTable → LoadTable, whatever the shard count on
// either side.
func TestDeclaredWidthSizesTheSlots(t *testing.T) {
	const attrBits, k = 6, 3
	top := uint64(1)<<attrBits - 1
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("%d shards", shards), func(t *testing.T) {
			tbl, err := dataset.Generate(77, 8, 3, attrBits-1)
			if err != nil {
				t.Fatal(err)
			}
			rows := tbl.Rows
			sys, err := New(rows, attrBits, Config{Key: facadeKey(), Shards: shards, FeatureColumns: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			q := []uint64{top - 1, top}
			check := func(sys *System, step string) {
				t.Helper()
				for _, tb := range sys.tables() {
					if tb.AttrBits() != attrBits {
						t.Fatalf("%s: a table is %d bits wide, want the declared %d", step, tb.AttrBits(), attrBits)
					}
				}
				for _, mode := range []Mode{ModeBasic, ModeSecure} {
					got, err := queryRows(sys, q, k, mode)
					if err != nil {
						t.Fatalf("%s, mode %d: %v", step, mode, err)
					}
					features := make([][]uint64, len(rows))
					known := make(map[string]bool, len(rows))
					for i, row := range rows {
						features[i] = row[:2]
						known[fmt.Sprint(row)] = true
					}
					oracleCheck(t, features, got, q, k)
					for _, row := range got {
						if !known[fmt.Sprint(row)] {
							t.Fatalf("%s, mode %d: returned %v, not a table row", step, mode, row)
						}
					}
				}
			}
			check(sys, "as built")
			for _, row := range [][]uint64{{top, top, top}, {top, 0, top - 1}} {
				if _, err := sys.Insert(row); err != nil {
					t.Fatal(err)
				}
				rows = append(rows, row)
				check(sys, "after an insert at the top of the domain")
			}
			var buf bytes.Buffer
			if err := sys.SaveTable(&buf); err != nil {
				t.Fatal(err)
			}
			loaded, err := LoadTable(&buf, facadeKey(), Config{Shards: 3 - shards})
			if err != nil {
				t.Fatal(err)
			}
			defer loaded.Close()
			check(loaded, "after reload")
		})
	}
}

// TestRowPackedLiveCycle queries between every kind of mutation, so each
// query after the first finds the table's packed renderings one mutation
// stale: an insert appended to them, a delete, two compactions moving
// them, a save and reload starting them over. Whole rows — the payload
// column included — are compared with a plaintext mirror.
func TestRowPackedLiveCycle(t *testing.T) {
	const attrBits, k = 4, 3
	tbl, err := dataset.Generate(921, 10, 3, attrBits)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(tbl.Rows, attrBits, Config{Key: facadeKey(), FeatureColumns: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	mirror := make(map[uint64][]uint64)
	for i, row := range tbl.Rows {
		mirror[uint64(i)] = row
	}
	q := []uint64{7, 8}
	check := func(sys *System, step string) {
		t.Helper()
		live := make([][]uint64, 0, len(mirror)) // feature prefixes, for the oracle
		known := make(map[string]bool, len(mirror))
		for _, row := range mirror {
			live = append(live, row[:len(q)])
			known[fmt.Sprint(row)] = true
		}
		got, err := queryRows(sys, q, k, ModeSecure)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		oracleCheck(t, live, got, q, k)
		for _, row := range got {
			if !known[fmt.Sprint(row)] {
				t.Fatalf("%s: returned %v, not a live row", step, row)
			}
		}
	}
	check(sys, "fresh table")
	for _, row := range [][]uint64{{7, 8, 15}, {6, 8, 0}} {
		id, err := sys.Insert(row)
		if err != nil {
			t.Fatal(err)
		}
		mirror[id] = row
		check(sys, "after insert")
	}
	for _, id := range []uint64{2, 10} {
		if err := sys.Delete(id); err != nil {
			t.Fatal(err)
		}
		delete(mirror, id)
		check(sys, "after delete")
		if err := sys.Compact(); err != nil {
			t.Fatal(err)
		}
		check(sys, "after compact")
	}
	var buf bytes.Buffer
	if err := sys.SaveTable(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadTable(&buf, facadeKey(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	check(loaded, "after reload")
	id, err := loaded.Insert([]uint64{7, 7, 1})
	if err != nil {
		t.Fatal(err)
	}
	mirror[id] = []uint64{7, 7, 1}
	check(loaded, "after insert on the reloaded table")
}
