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

// TestDifferentialSecureQueryMatrix runs two topologies — one shard (a
// coordinator with nothing to merge) and a 2-shard merge — in both index
// modes. The table carries a payload column so a shifted slot cannot
// hide. SkNNb answers the same query on every one of them and is held to
// the same oracle.
func TestDifferentialSecureQueryMatrix(t *testing.T) {
	const attrBits, k = 5, 3
	topologies := []struct {
		name   string
		shards int
	}{
		{"unsharded", 0},
		{"sharded2", 2},
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
					Key: facadeKey(), Shards: topo.shards,
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
// the edges of the value domain and of the selection network, one row
// each, on one shard over one link and over two (a layer's gates split
// across them) and through 2- and 3-shard merges (ties are broken at
// random on both sides, so these compare distances, and whole rows
// against the table; the facade's rows must also come back nearest
// first, in core.NearestFirst's canonical order). Odd n leaves a short
// last chunk; n = 2, k = 2 and k = n run no gate at all; ties sit inside
// and across gates and at the k-th boundary; k = 3 and k = 5 round up to
// k′ = 4 and 8, so the root sorts and drops wires; deletes leave fewer
// live records than the table was built with, and a k above them is
// ErrBadQuery; the 3-shard split of five rows hands the merge lists
// shorter than k, and the 2-shard split an odd-length one; K = 128 is the
// key-size fallback (one column per record chunk) and packs a single
// slot per operand group of the peel's output round — at K = 64 SkNNm
// has no domain at all. The last rows pin the domain bound: l = K − 69 is
// the widest distance domain a K-bit key answers, and one bit more is
// ErrDomainBits from New and LoadTable before any table is encrypted or
// any cloud stood up.
func TestDifferentialSecureQueryEdges(t *testing.T) {
	const max24 = 1<<24 - 1
	cases := []struct {
		name     string
		keyBits  int
		attrBits int
		rows     [][]uint64
		q        []uint64
		k        int
		deletes  []uint64 // record ids deleted before the query
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
		{name: "odd n", keyBits: 256, attrBits: 3,
			rows: [][]uint64{{3, 1}, {0, 2}, {7, 7}, {1, 1}, {2, 6}}, q: []uint64{1, 1}, k: 3},
		{name: "n = 2, k = 2", keyBits: 256, attrBits: 3,
			rows: [][]uint64{{3, 1}, {0, 2}}, q: []uint64{1, 1}, k: 2},
		{name: "k = n, odd", keyBits: 256, attrBits: 3,
			rows: [][]uint64{{3, 1}, {0, 2}, {7, 7}, {1, 1}, {2, 6}}, q: []uint64{1, 1}, k: 5},
		{name: "ties inside and across pairs", keyBits: 256, attrBits: 3,
			rows: [][]uint64{{1, 2}, {2, 1}, {0, 1}, {6, 6}, {1, 0}, {3, 3}, {1, 2}}, q: []uint64{1, 1}, k: 5},
		{name: "ties at the k-th boundary", keyBits: 256, attrBits: 3,
			rows: [][]uint64{{2, 3}, {0, 0}, {2, 2}, {3, 2}, {1, 2}, {4, 4}}, q: []uint64{2, 2}, k: 2},
		{name: "k = 3, ties at the k-th boundary", keyBits: 256, attrBits: 3,
			rows: [][]uint64{{4, 2}, {2, 2}, {7, 7}, {2, 0}, {2, 3}, {0, 2}, {5, 2}}, q: []uint64{2, 2}, k: 3},
		{name: "k = 5, k′ = 8", keyBits: 256, attrBits: 3,
			rows: [][]uint64{{6, 1}, {0, 2}, {7, 7}, {1, 1}, {2, 6}, {3, 3}, {5, 0}, {1, 4}, {4, 4}}, q: []uint64{1, 1}, k: 5},
		{name: "a shard smaller than k", keyBits: 256, attrBits: 3,
			rows: [][]uint64{{3, 1}, {0, 2}, {7, 7}, {1, 1}}, q: []uint64{1, 1}, k: 2},
		{name: "deletes: k = live n answers, k > live n is refused", keyBits: 256, attrBits: 3,
			rows: [][]uint64{{3, 1}, {0, 2}, {7, 7}, {1, 1}, {2, 6}, {5, 5}}, q: []uint64{1, 1}, k: 4, deletes: []uint64{1, 4}},
		{name: "K = 128", keyBits: 128, attrBits: 3,
			rows: [][]uint64{{3, 1}, {0, 2}, {7, 7}, {1, 1}, {2, 6}}, q: []uint64{1, 1}, k: 3},
		// DomainBits(24, 1) = 48 = 117 − 69; DomainBits(24, 2) = 49.
		{name: "l = K − 69", keyBits: 117, attrBits: 24,
			rows: [][]uint64{{max24}, {0}, {9}, {max24 - 1}}, q: []uint64{max24}, k: 2},
		{name: "l = K − 68", keyBits: 117, attrBits: 24,
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
				// A snapshot of that table: its shape derives that l.
				table, err := core.EncryptTable(rand.Reader, &sk.PublicKey, tc.rows)
				if err != nil {
					t.Fatal(err)
				}
				if table, err = table.WithAttrBits(tc.attrBits); err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := store.Write(&buf, &sk.PublicKey, table.Snapshot()); err != nil {
					t.Fatal(err)
				}
				if _, err := LoadTable(&buf, sk, Config{}); !errors.Is(err, tc.wantErr) {
					t.Errorf("LoadTable: err = %v, want %v", err, tc.wantErr)
				}
				return
			}
			deleted := make(map[uint64]bool)
			for _, id := range tc.deletes {
				deleted[id] = true
			}
			var live [][]uint64
			inTable := make(map[string]bool)
			for i, row := range tc.rows {
				if !deleted[uint64(i)] {
					live = append(live, row)
					inTable[fmt.Sprint(row)] = true
				}
			}
			check := func(who string, got [][]uint64) {
				t.Helper()
				oracleCheck(t, live, got, tc.q, tc.k)
				for _, row := range got {
					if !inTable[fmt.Sprint(row)] {
						t.Errorf("%s returned %v, not a live table row", who, row)
					}
				}
			}
			check("reference", referenceRows(t, sk, live, tc.attrBits, m, tc.q, tc.k))
			for _, topo := range []struct{ shards, workers int }{{0, 1}, {0, 2}, {2, 1}, {3, 1}} {
				if topo.shards > len(tc.rows) {
					continue
				}
				who := fmt.Sprintf("System over %d shards, %d links", topo.shards, topo.workers)
				sys, err := New(tc.rows, tc.attrBits, Config{Key: sk, Shards: topo.shards, Workers: topo.workers})
				if err != nil {
					t.Fatal(err)
				}
				for _, id := range tc.deletes {
					if err := sys.Delete(id); err != nil {
						t.Fatal(err)
					}
				}
				got, err := queryRows(sys, tc.q, tc.k, ModeSecure)
				if err == nil && len(tc.deletes) > 0 {
					if _, over := queryRows(sys, tc.q, len(live)+1, ModeSecure); !errors.Is(over, ErrBadQuery) {
						t.Errorf("%s: k = %d over %d live records: err = %v, want ErrBadQuery", who, len(live)+1, len(live), over)
					}
				}
				sys.Close()
				if err != nil {
					t.Fatalf("%s: %v", who, err)
				}
				check(who, got)
				ranked := append([][]uint64(nil), got...)
				core.NearestFirst(tc.q, ranked)
				if fmt.Sprint(got) != fmt.Sprint(ranked) {
					t.Errorf("%s returned %v, not nearest first (%v)", who, got, ranked)
				}
			}
		})
	}
}

// costShape is one table and query the secure cost tests run: bench/'s
// secure shape (n = 8, m = 6, attrBits = 4, k = 2, its seeds) and two
// one-bit tables, one of them every corner of the unit cube, so a record
// lies at 3 = 2^l − 1 from the query.
type costShape struct {
	name     string
	rows     [][]uint64
	attrBits int
	q        []uint64
	k        int
	l        int // the table's, dataset.DomainBits(attrBits, m)
}

func costShapes(t *testing.T) []costShape {
	t.Helper()
	generated := func(m, attrBits, l int) costShape {
		tbl, err := dataset.Generate(1, 8, m, attrBits)
		if err != nil {
			t.Fatal(err)
		}
		q, err := dataset.GenerateQuery(2, m, attrBits)
		if err != nil {
			t.Fatal(err)
		}
		return costShape{fmt.Sprintf("n=8,m=%d,b=%d", m, attrBits), tbl.Rows, attrBits, q, 2, l}
	}
	var cube [][]uint64
	for c := uint64(0); c < 8; c++ {
		cube = append(cube, []uint64{c & 1, c >> 1 & 1, c >> 2})
	}
	return []costShape{
		generated(6, 4, 11), // bench/'s
		generated(6, 1, 3),
		{"n=8,m=3,b=1", cube, 1, []uint64{1, 1, 1}, 2, 2},
	}
}

// costSystem builds sh on the given shard count, one link per pool and a
// 512-bit key, as bench/ does, and returns it with the engine's cost
// model for the query and sh's query, which checks its answer against
// the oracle.
func costSystem(t *testing.T, sh costShape, shards int) (*System, core.Cost, func() *Result) {
	t.Helper()
	sys, err := New(sh.rows, sh.attrBits, Config{Key: testkit.Key(512), Workers: 1, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	want, err := core.PredictCost(sys.eng.Shape(), 512, len(sh.rows), sh.k, sys.Shards(), 1)
	if err != nil {
		t.Fatal(err)
	}
	return sys, want.Secure, func() *Result {
		t.Helper()
		res, err := sys.Query(context.Background(), sh.q, WithK(sh.k), WithMode(ModeSecure))
		if err != nil {
			t.Fatal(err)
		}
		oracleCheck(t, sh.rows, res.Rows, sh.q, sh.k)
		return res
	}
}

// TestSecureScanCostAtBenchShape guards bench/'s two secure_scan
// counters in tier-1, and the engine's cost model (core.PredictCost)
// beside them: a query takes 1 SSED round trip, the peel's l + 1 for each
// layer of the selection network, and 1 reveal. At secure_scan's shape
// l = 11 and the network over n = 8, k = 2 is 4 layers deep, so 50 round
// trips, and the query moves the 33985 bytes the benchmark reports as
// c2_bytes_per_query. The byte count is the integers on the wire at
// their minimal lengths, so a query falls a few bytes short of its
// nominal size — one for every ciphertext or masked value that happens to
// start with a zero byte, a handful in some three hundred — hence the
// window: one ciphertext more or fewer is 130 bytes and lands outside it.
// At b = 1, m = 6, l = 3 and a layer is 4 round trips; at b = 1, m = 3,
// l = 2 and a record sits at 2^l − 1.
func TestSecureScanCostAtBenchShape(t *testing.T) {
	for i, sh := range costShapes(t) {
		t.Run(sh.name, func(t *testing.T) {
			sys, want, query := costSystem(t, sh, 0)
			l := sys.DomainBits()
			if l != sh.l {
				t.Errorf("the table's l = %d, want %d", l, sh.l)
			}
			comm := query().Metrics.Secure.Comm
			if comm.Rounds != int64(want.Rounds) {
				t.Errorf("query took %d round trips at l = %d, cost model says %d", comm.Rounds, l, want.Rounds)
			}
			if i > 0 {
				return
			}
			if want.Rounds != 50 {
				t.Errorf("secure_scan's shape: l = %d, %d round trips; want 11, 50", l, want.Rounds)
			}
			if moved := comm.BytesSent + comm.BytesReceived; moved < 33985-32 || moved > 33985+32 {
				t.Errorf("query moved %d bytes between the clouds, want 33985 give or take leading zero bytes", moved)
			}
		})
	}
}

// TestShardedScanCostAtBenchShape is the same guard for bench/'s
// gateway_sharded rounds, each pool's held to the cost model: each shard
// of nᵢ records scans in 1 SSED and its network, and the coordinator
// merges their min(k, nᵢ)-candidate sets with one more and reveals. At
// bench/'s shape split over two shards that is 25 per shard (1 + 2 layers
// of 12) and 25 for the merge — the same two-layer network over the four
// candidates, and the reveal — so 75.
func TestShardedScanCostAtBenchShape(t *testing.T) {
	for i, sh := range costShapes(t) {
		t.Run(sh.name, func(t *testing.T) {
			sys, want, query := costSystem(t, sh, 2)
			shards := make([]mpc.StatsSnapshot, len(sys.eng.Workers))
			for j, w := range sys.eng.Workers {
				shards[j] = w.CommStats()
			}
			merge := sys.eng.ShardedC1.CommStats()
			if got := query().Metrics.Secure.Comm.Rounds; got != int64(want.Rounds) {
				t.Errorf("query took %d round trips, cost model says %d", got, want.Rounds)
			}
			for j, w := range sys.eng.Workers {
				if got := w.CommStats().Sub(shards[j]).Rounds; got != int64(want.ShardRounds[j]) {
					t.Errorf("shard %d scanned in %d round trips, cost model says %d", j, got, want.ShardRounds[j])
				}
			}
			if got := sys.eng.ShardedC1.CommStats().Sub(merge).Rounds; got != int64(want.MergeRounds) {
				t.Errorf("the merge and reveal took %d round trips, cost model says %d", got, want.MergeRounds)
			}
			if got := fmt.Sprint(want.Rounds, want.ShardRounds, want.MergeRounds); i == 0 && got != "75 [25 25] 25" {
				t.Errorf("gateway_sharded's shape: %s round trips; want 75 = [25 25] + 25", got)
			}
		})
	}
}

// TestBasicScanCostAtBenchShape is the same guard for bench/'s basic_tcp
// counters, and SkNNb's counted cost held to the cost model: at bench/'s
// shape (n=32, m=6, attrBits=8, k=5) and two others, over two links and a
// 512-bit key, SkNNb takes 4 round trips — the scan's two halves on the
// two links, the rank, the reveal — and at the bench shape moves the
// 13843 bytes the benchmark reports as c2_bytes_per_query. C2 decrypts
// one SSED slot group per group of a record, the n distances it ranks and
// one row-packed share per chunk of a neighbour, and encrypts one SSED
// reply per record; C1 encrypts nothing at all. Each opcode's uplink is
// held to its frames and integer count, headers included. C1's own
// arithmetic — how it strips the SSED blinds — is not in these counts,
// which is why they must not move when it changes.
func TestBasicScanCostAtBenchShape(t *testing.T) {
	for _, shape := range []struct {
		n, m, attrBits, k int
		bytes             int64 // c2_bytes_per_query; checked at bench/'s shape only
	}{
		{32, 6, 8, 5, 13843},
		{7, 3, 4, 2, 0},
		{20, 9, 6, 3, 0},
	} {
		n, m, attrBits, k := shape.n, shape.m, shape.attrBits, shape.k
		t.Run(fmt.Sprintf("n=%d,m=%d,b=%d,k=%d", n, m, attrBits, k), func(t *testing.T) {
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
			if table.Shape().AttrBits != attrBits {
				t.Fatalf("table derived %d-bit attributes from the rows, want %d", table.Shape().AttrBits, attrBits)
			}
			predicted, err := core.PredictCost(table.Shape(), pk.Bits(), n, k, 1, 2)
			if err != nil {
				t.Fatal(err)
			}
			want := predicted.Basic

			// Every ciphertext C1 hands C2, by opcode, headers included.
			var mu sync.Mutex
			sent := map[mpc.Op]int{}
			frames := map[mpc.Op]int{}
			c2 := core.NewCloudC2(sk, nil)
			var wg sync.WaitGroup
			coord, err := core.NewEngine(table, 1, func() ([]mpc.Conn, error) {
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
				return conns, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				coord.Close()
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

			if metrics.Comm.Rounds != int64(want.Rounds) || want.Rounds != 4 {
				t.Errorf("query took %d round trips, cost model says %d; want 4", metrics.Comm.Rounds, want.Rounds)
			}
			if want := shape.bytes; want != 0 {
				if moved := metrics.Comm.BytesSent + metrics.Comm.BytesReceived; moved < want-32 || moved > want+32 {
					t.Errorf("query moved %d bytes between the clouds, want %d give or take leading zero bytes", moved, want)
				}
			}
			mu.Lock()
			defer mu.Unlock()
			// An OpSSEDPack frame is [count, m, valueBits, groups per
			// record]; the OpRank frame is [k, n distances]; the OpReveal
			// frame is the k masked shares of each record's chunks.
			uplink := map[mpc.Op]core.Traffic{}
			for op, f := range frames {
				uplink[op] = core.Traffic{Frames: f, Ints: sent[op]}
			}
			if fmt.Sprint(uplink) != fmt.Sprint(want.Uplink) {
				t.Errorf("C1 sent C2 %v (frames, ints by opcode), cost model says %v", uplink, want.Uplink)
			}
			decrypts := (sent[smc.OpSSEDPack] - 3*frames[smc.OpSSEDPack]) + (sent[core.OpRank] - 1) + sent[core.OpReveal]
			if decrypts != want.OnePrime+want.CRT {
				t.Errorf("C2 decrypted %d values, cost model says %d", decrypts, want.OnePrime+want.CRT)
			}
			if encrypts != uint64(want.Encrypts) || want.Encrypts != n {
				t.Errorf("%d encryptions during the query, cost model says %d: one SSED reply per record on C2, none on C1", encrypts, want.Encrypts)
			}
		})
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
					if tb.Shape().AttrBits != attrBits {
						t.Fatalf("%s: a table is %d bits wide, want the declared %d", step, tb.Shape().AttrBits, attrBits)
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
