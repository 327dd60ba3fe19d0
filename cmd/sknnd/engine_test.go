package main

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"sknn/internal/core"
	"sknn/internal/dataset"
	"sknn/internal/mpc"
	"sknn/internal/paillier"
	"sknn/internal/plainknn"
	"sknn/internal/store"
	"sknn/internal/testkit"
)

// listen serves every connection accepted on a loopback listener with
// handle until the test ends, and returns the address to dial.
func listen(t *testing.T, handle func(mpc.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer c.Close()
				handle(mpc.WrapNet(c))
			}()
		}
	}()
	// Registered before the engines' own cleanups, so it runs after them:
	// by then every peer has hung up and the handlers return.
	t.Cleanup(func() {
		ln.Close()
		wg.Wait()
	})
	return ln.Addr().String()
}

// serveC2 is `sknnd c2` over sk.
func serveC2(t *testing.T, sk *paillier.PrivateKey) string {
	c2 := core.NewCloudC2(sk, nil)
	return listen(t, func(conn mpc.Conn) {
		if err := c2.Serve(conn); err != nil {
			t.Errorf("C2 session: %v", err)
		}
	})
}

// serveShard is `sknnd shard` over one partition. It returns the address
// to dial and the worker, whose Close stops it answering scans.
func serveShard(t *testing.T, pk *paillier.PublicKey, part *core.TableSnapshot, c2Addr string, index, count int) (string, *core.CloudC1) {
	t.Helper()
	table, err := core.RestoreTable(pk, part)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := mpc.Dial(c2Addr)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := core.NewCloudC1(table, []mpc.Conn{conn}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c1.Close() })
	srv, err := core.NewShardServer(c1, index, count)
	if err != nil {
		t.Fatal(err)
	}
	return listen(t, func(conn mpc.Conn) {
		if err := srv.Serve(conn); err != nil {
			t.Errorf("shard %d session: %v", index, err)
		}
	}), c1
}

// TestBuildEngine stands the one engine builder up the ways the
// subcommands do — `c1` and a gateway "table" tenant from a snapshot
// file, `coord` and a "shards" tenant from dialled workers, one or two
// replicas per partition — over real TCP, and requires the plaintext
// oracle's answers from each in both modes, also after one replica
// stops; then it shows the builder refusing workers that do not belong
// together.
func TestBuildEngine(t *testing.T) {
	const n, m, attrBits, k = 12, 2, 4, 3
	sk := testkit.Key(256)
	pk := &sk.PublicKey
	tbl, err := dataset.Generate(7, n, m, attrBits)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := core.EncryptTable(rand.Reader, pk, tbl.Rows)
	if err != nil {
		t.Fatal(err)
	}
	if enc, err = enc.WithAttrBits(attrBits); err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(t.TempDir(), "table.snap")
	if err := store.WriteFile(snapPath, pk, enc.Snapshot()); err != nil {
		t.Fatal(err)
	}
	// The same table with its header's attribute width forged past
	// dataset.MaxAttrBits (the u32 after the magic, version, flags, m and
	// featureM; the CRC-32C trailer recomputed), and one shard of it
	// alone: no C1 may serve either as a whole table.
	tooWide, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	const headerAttrBits = 8 + 2 + 2 + 4 + 4
	binary.LittleEndian.PutUint32(tooWide[headerAttrBits:], dataset.MaxAttrBits+1)
	body := tooWide[:len(tooWide)-4]
	binary.LittleEndian.PutUint32(tooWide[len(body):], crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
	tooWidePath := filepath.Join(t.TempDir(), "too-wide.snap")
	if err := os.WriteFile(tooWidePath, tooWide, 0o644); err != nil {
		t.Fatal(err)
	}
	shardPaths, err := store.SplitFile(snapPath, filepath.Join(t.TempDir(), "table.snap"), 2)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := enc.Snapshot().Split(2)
	if err != nil {
		t.Fatal(err)
	}
	c2Addr := serveC2(t, sk)
	shardAddrs := make([]string, len(parts))
	for i, part := range parts {
		shardAddrs[i], _ = serveShard(t, pk, part, c2Addr, i, 2)
	}
	// Two more workers per partition, listed replica by replica as an
	// operator would: buildEngine groups them into two replica sets.
	var replicaAddrs []string
	var preferred *core.CloudC1 // replica 0 of shard 0: the balancer's first pick
	for r := 0; r < 2; r++ {
		for i, part := range parts {
			addr, c1 := serveShard(t, pk, part, c2Addr, i, 2)
			replicaAddrs = append(replicaAddrs, addr)
			if i == 0 && r == 0 {
				preferred = c1
			}
		}
	}

	// checkRows holds one answer to the oracle's k-distance multiset.
	checkRows := func(t *testing.T, what string, q []uint64, rows [][]uint64) {
		t.Helper()
		want, err := plainknn.KDistances(tbl.Rows, q, k)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]uint64, len(rows))
		for i, row := range rows {
			if got[i], err = plainknn.SquaredDistance(row, q); err != nil {
				t.Fatal(err)
			}
		}
		sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
		if len(got) != k {
			t.Fatalf("%s query %v: %d rows, want %d", what, q, len(got), k)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s query %v: distances %v, oracle %v", what, q, got, want)
			}
		}
	}
	checkAnswers := func(t *testing.T, eng *engine, bob *core.Client) {
		t.Helper()
		for _, q := range [][]uint64{{3, 9}, {14, 1}} {
			for _, mode := range []string{"basic", "secure"} {
				rows, err := eng.query(context.Background(), bob, q, k, mode, 0, 0)
				if err != nil {
					t.Fatalf("%s query %v: %v", mode, q, err)
				}
				checkRows(t, mode, q, rows)
			}
		}
	}

	for _, tc := range []struct {
		name   string
		spec   tenantSpec
		shards int
		stop   *core.CloudC1 // a worker to stop once the engine has answered
	}{
		{"snapshot", tenantSpec{Table: snapPath, C2: c2Addr, Workers: 2}, 1, nil},
		{"dialled shards", tenantSpec{Shards: shardAddrs, C2: c2Addr}, 2, nil},
		{"replicated dialled shards", tenantSpec{Shards: replicaAddrs, C2: c2Addr}, 2, preferred},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := buildEngine(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			if l := eng.coord.Shape().DomainBits(); l != tbl.DomainBits() || eng.clustered || eng.coord.PK().N.Cmp(pk.N) != 0 {
				t.Errorf("engine reports l=%d clustered=%v, want l=%d unclustered under the table's key", l, eng.clustered, tbl.DomainBits())
			}
			if eng.coord.Shards() != tc.shards {
				t.Errorf("coordinator over %d shards, want %d", eng.coord.Shards(), tc.shards)
			}
			bob := core.NewClient(eng.coord.PK(), nil)
			checkAnswers(t, eng, bob)
			if tc.stop != nil {
				// The stopped worker fails the next scan it is picked for;
				// the coordinator requeues that scan on its sibling.
				if err := tc.stop.Close(); err != nil {
					t.Fatal(err)
				}
				q := []uint64{3, 9}
				eq, err := bob.EncryptQuery(q)
				if err != nil {
					t.Fatal(err)
				}
				res, sm, err := eng.coord.SecureQuery(context.Background(), eq, k, 0)
				if err != nil {
					t.Fatalf("query after stopping a replica: %v", err)
				}
				if sm.Failovers < 1 {
					t.Errorf("query after stopping a replica counted %d failovers, want ≥ 1", sm.Failovers)
				}
				rows, err := bob.Unmask(res)
				if err != nil {
					t.Fatal(err)
				}
				checkRows(t, "secure, failed over,", q, rows)
				checkAnswers(t, eng, bob)
			}
			if _, err := eng.query(context.Background(), bob, []uint64{1, 1}, k, "fast", 0, 0); err == nil {
				t.Error("unknown mode accepted")
			}
			// 16 is outside the 4-bit domain: SkNNm refuses it before
			// encrypting, SkNNb answers it exactly.
			if _, err := eng.query(context.Background(), bob, []uint64{16, 1}, k, "secure", 0, 0); !errors.Is(err, dataset.ErrValueTooLarge) {
				t.Errorf("out-of-domain secure query = %v, want ErrValueTooLarge", err)
			}
			rows, err := eng.query(context.Background(), bob, []uint64{16, 1}, k, "basic", 0, 0)
			if err != nil {
				t.Fatalf("out-of-domain basic query: %v", err)
			}
			checkRows(t, "basic", []uint64{16, 1}, rows)
			if tc.shards == 1 {
				// The width came off the snapshot header, so SkNNb rode the
				// packed kernels: a ciphertext up and one down per record, the
				// n distances to rank, one row-packed share per neighbour each
				// way — where the printed protocol moves 3·m ciphertexts per
				// record before it ranks anything.
				eq, err := bob.EncryptQuery([]uint64{3, 9})
				if err != nil {
					t.Fatal(err)
				}
				res, metrics, err := eng.coord.BasicQuery(context.Background(), eq, k)
				if err != nil {
					t.Fatal(err)
				}
				ctBytes := int64(2*pk.N.BitLen()/8 + 4) // length-prefixed
				const framing = 256                     // ten frames' headers and their small integers
				if moved := metrics.Comm.BytesSent + metrics.Comm.BytesReceived; res.Layout.Cols != m || moved > (3*n+2*k)*ctBytes+framing {
					t.Errorf("SkNNb moved %d bytes in layout %+v, want at most %d ciphertexts of %d in chunks of %d columns",
						moved, res.Layout, 3*n+2*k, ctBytes, m)
				}
			}
		})
	}

	t.Run("refusals", func(t *testing.T) {
		other := testkit.Key(512)
		foreign, err := core.EncryptTable(rand.Reader, &other.PublicKey, tbl.Rows)
		if err != nil {
			t.Fatal(err)
		}
		foreignParts, err := foreign.Snapshot().Split(2)
		if err != nil {
			t.Fatal(err)
		}
		foreignShard, _ := serveShard(t, &other.PublicKey, foreignParts[1], serveC2(t, other), 1, 2)
		// A worker whose table is one bit wider: another shape, so another l.
		wider := *parts[1]
		wider.Shape.AttrBits++
		otherL, _ := serveShard(t, pk, &wider, c2Addr, 1, 2)
		for _, tc := range []struct {
			name string
			spec tenantSpec
			want string
		}{
			{"foreign key", tenantSpec{Shards: []string{shardAddrs[0], foreignShard}, C2: c2Addr}, "worker 1 serves a different public key"},
			{"different l", tenantSpec{Shards: []string{shardAddrs[0], otherL}, C2: c2Addr}, "2/2 columns of 5-bit attributes, want 2/2 columns of 4-bit"},
			{"half a partition", tenantSpec{Shards: shardAddrs[:1], C2: c2Addr}, core.ErrShardTopology.Error()},
			{"table and shards", tenantSpec{Table: snapPath, Shards: shardAddrs, C2: c2Addr}, "exactly one of"},
			{"neither", tenantSpec{C2: c2Addr}, "exactly one of"},
			{"no C2", tenantSpec{Table: snapPath}, `missing "c2" address`},
			{"wider than any table", tenantSpec{Table: tooWidePath, C2: c2Addr}, "25 outside [1,24]"},
			{"shard file as table", tenantSpec{Table: shardPaths[0], C2: c2Addr}, "not a whole table"},
		} {
			eng, err := buildEngine(tc.spec)
			if err == nil {
				eng.Close()
				t.Errorf("%s: engine built", tc.name)
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: err = %v, want it to say %q", tc.name, err, tc.want)
			}
		}
	})
}
