package reference

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	mrand "math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"sknn/internal/core"
	"sknn/internal/dataset"
	"sknn/internal/mpc"
	"sknn/internal/paillier"
	"sknn/internal/plainknn"
	"sknn/internal/smc"
	"sknn/internal/testkit"
)

// keyCloud is C2 for one test: a core.CloudC2 holding sk, serving every
// link handed out by conns until the test ends.
type keyCloud struct {
	t  *testing.T
	c2 *core.CloudC2
	wg sync.WaitGroup
}

func newKeyCloud(t *testing.T, sk *paillier.PrivateKey) *keyCloud {
	kc := &keyCloud{t: t, c2: core.NewCloudC2(sk, nil)}
	t.Cleanup(kc.wg.Wait) // registered first, so it runs after every link's owner closed it
	return kc
}

// conns opens n links to C2. The caller owns closing them (a CloudC1 or
// ShardedC1 does so in Close; requester closes its own).
func (kc *keyCloud) conns(n int) []mpc.Conn {
	out := make([]mpc.Conn, n)
	for i := range out {
		c1Side, c2Side := mpc.ChanPipe()
		out[i] = c1Side
		kc.wg.Add(1)
		go func() {
			defer kc.wg.Done()
			if err := kc.c2.Serve(c2Side); err != nil {
				kc.t.Errorf("C2 serve loop: %v", err)
			}
		}()
	}
	return out
}

// requester is the printed protocol's C1 on a link of its own.
func (kc *keyCloud) requester(pk *paillier.PublicKey) *smc.Requester {
	conn := kc.conns(1)[0]
	kc.t.Cleanup(func() {
		if err := mpc.SendClose(conn); err != nil {
			kc.t.Errorf("closing reference link: %v", err)
		}
		conn.Close()
	})
	return smc.NewRequester(pk, conn, nil)
}

// --- SMINn (Algorithm 4) ------------------------------------------------

func smallPair(t *testing.T) (*smc.Requester, *paillier.PrivateKey) {
	t.Helper()
	sk := testkit.Key(256)
	return newKeyCloud(t, sk).requester(&sk.PublicKey), sk
}

// encBitsMany is [v] for every v: l encrypted bits each, MSB first.
func encBitsMany(t *testing.T, sk *paillier.PrivateKey, l int, vals ...uint64) [][]*paillier.Ciphertext {
	t.Helper()
	out := make([][]*paillier.Ciphertext, len(vals))
	for i, v := range vals {
		out[i] = make([]*paillier.Ciphertext, l)
		for g := range out[i] {
			ct, err := sk.EncryptUint64(rand.Reader, (v>>(l-1-g))&1)
			if err != nil {
				t.Fatal(err)
			}
			out[i][g] = ct
		}
	}
	return out
}

// decBits decrypts an encrypted bit vector (MSB first) to its value,
// failing if any component is not a bit.
func decBits(t *testing.T, sk *paillier.PrivateKey, bits []*paillier.Ciphertext) uint64 {
	t.Helper()
	var v uint64
	for i, ct := range bits {
		b, err := sk.Decrypt(ct)
		if err != nil {
			t.Fatal(err)
		}
		if !b.IsUint64() || b.Uint64() > 1 {
			t.Fatalf("bit %d decrypts to %v, not a bit", i, b)
		}
		v = v<<1 | b.Uint64()
	}
	return v
}

func sminnOf(t *testing.T, l int, vals ...uint64) uint64 {
	t.Helper()
	rq, sk := smallPair(t)
	min, err := SMINn(rq, encBitsMany(t, sk, l, vals...))
	if err != nil {
		t.Fatal(err)
	}
	return decBits(t, sk, min)
}

func TestSMINnSixValues(t *testing.T) {
	// n = 6 matches the binary execution tree of Figure 1 in the paper.
	if got := sminnOf(t, 6, 23, 9, 40, 55, 12, 31); got != 9 {
		t.Errorf("SMINn = %d, want 9", got)
	}
}

func TestSMINnSingleValue(t *testing.T) {
	if got := sminnOf(t, 5, 19); got != 19 {
		t.Errorf("SMINn([19]) = %d, want 19", got)
	}
}

func TestSMINnOddCount(t *testing.T) {
	if got := sminnOf(t, 6, 44, 3, 60, 17, 29); got != 3 {
		t.Errorf("SMINn(5 values) = %d, want 3", got)
	}
}

func TestSMINnMinAtEveryPosition(t *testing.T) {
	base := []uint64{50, 51, 52, 53}
	for pos := range base {
		vals := append([]uint64(nil), base...)
		vals[pos] = 7
		if got := sminnOf(t, 6, vals...); got != 7 {
			t.Errorf("min at position %d: SMINn = %d, want 7", pos, got)
		}
	}
}

func TestSMINnDuplicateMinima(t *testing.T) {
	if got := sminnOf(t, 6, 30, 8, 8, 45); got != 8 {
		t.Errorf("SMINn with ties = %d, want 8", got)
	}
}

func TestSMINnValidation(t *testing.T) {
	rq, sk := smallPair(t)
	if _, err := SMINn(rq, nil); !errors.Is(err, smc.ErrEmptyInput) {
		t.Errorf("empty error = %v", err)
	}
	ragged := [][]*paillier.Ciphertext{encBitsMany(t, sk, 3, 1)[0], encBitsMany(t, sk, 4, 1)[0]}
	if _, err := SMINn(rq, ragged); !errors.Is(err, smc.ErrLengthMismatch) {
		t.Errorf("ragged error = %v", err)
	}
}

func TestSMINnPropertyMatchesMin(t *testing.T) {
	rq, sk := smallPair(t)
	const l = 6
	f := func(raw []uint8) bool {
		if len(raw) == 0 || len(raw) > 8 {
			return true // skip out-of-profile sizes
		}
		vals := make([]uint64, len(raw))
		want := uint64(63)
		for i, r := range raw {
			vals[i] = uint64(r) & 63
			if vals[i] < want {
				want = vals[i]
			}
		}
		min, err := SMINn(rq, encBitsMany(t, sk, l, vals...))
		if err != nil {
			return false
		}
		return decBits(t, sk, min) == want
	}
	cfg := &quick.Config{MaxCount: 6, Rand: mrand.New(mrand.NewSource(5))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// --- SkNNm (Algorithm 6) against the production engine -------------------

// coordinator stands the production engine up over table: a coordinator
// over that many shard workers, one being the paper's single C1 holding
// the table whole. One shard serves table itself, so it sees later
// mutations; more are restored from its split snapshot. Remote workers
// sit behind the shard wire protocol instead of in-process calls.
func coordinator(t *testing.T, kc *keyCloud, table *core.EncryptedTable, shards int, remote bool) *core.ShardedC1 {
	t.Helper()
	tables := []*core.EncryptedTable{table}
	if shards > 1 {
		parts, err := table.Snapshot().Split(shards)
		if err != nil {
			t.Fatal(err)
		}
		tables = make([]*core.EncryptedTable, shards)
		for i, part := range parts {
			if tables[i], err = core.RestoreTable(table.PK(), part); err != nil {
				t.Fatal(err)
			}
		}
	}
	workers := make([]core.Shard, shards)
	for i, shardTable := range tables {
		c1, err := core.NewCloudC1(shardTable, kc.conns(1), nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c1.Close() })
		workers[i] = &core.LocalShard{C1: c1, Index: i, Count: shards}
		if !remote {
			continue
		}
		srv, err := core.NewShardServer(c1, i, shards, 0)
		if err != nil {
			t.Fatal(err)
		}
		coordSide, shardSide := mpc.ChanPipe()
		kc.wg.Add(1)
		go func() {
			defer kc.wg.Done()
			if err := srv.Serve(shardSide); err != nil {
				t.Errorf("shard serve loop: %v", err)
			}
		}()
		rs, err := core.DialShard(coordSide)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { rs.Close() })
		workers[i] = rs
	}
	coord, err := core.NewShardedC1(workers, kc.conns(1), table.PK(), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	return coord
}

// engine runs one production SkNNm query over table, through a
// coordinator over that many in-process shard workers.
func engine(t *testing.T, kc *keyCloud, table *core.EncryptedTable, shards int, q core.EncryptedQuery, k, l int) (*core.MaskedResult, error) {
	t.Helper()
	res, _, err := coordinator(t, kc, table, shards, false).SecureQuery(context.Background(), q, k, l, 0)
	return res, err
}

// sortedDistances maps result rows to their sorted squared distances
// from q over the feature prefix.
func sortedDistances(t *testing.T, rows [][]uint64, q []uint64) []uint64 {
	t.Helper()
	ds := make([]uint64, len(rows))
	for i, row := range rows {
		var err error
		if ds[i], err = plainknn.SquaredDistance(row[:len(q)], q); err != nil {
			t.Fatal(err)
		}
	}
	sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
	return ds
}

// TestSkNNmDifferential is the reference boundary: on every row of the
// table the production engine — the coordinator over one shard and over
// two — and the printed protocol answer the same encrypted table, and each
// must return the plaintext oracle's k-distance multiset (ties are broken
// at random on both sides, so rows are compared as distances) made of
// whole table rows, payload columns included. The rows are the edges of
// the value domain that cost one line each.
func TestSkNNmDifferential(t *testing.T) {
	const max24 = 1<<24 - 1
	cases := []struct {
		name     string
		keyBits  int
		attrBits int
		f        int // feature columns
		rows     [][]uint64
		q        []uint64
		k        int
		l        int   // 0 = dataset.DomainBits(attrBits, f)
		wantErr  error // of the production engine; the reference is not run
	}{
		{name: "plain", keyBits: 256, attrBits: 4, f: 2,
			rows: [][]uint64{{1, 2}, {3, 4}, {5, 6}, {7, 8}, {2, 2}, {9, 1}, {0, 5}},
			q:    []uint64{2, 3}, k: 3},
		{name: "k = n", keyBits: 256, attrBits: 3, f: 2,
			rows: [][]uint64{{1, 1}, {6, 2}, {5, 5}, {0, 7}},
			q:    []uint64{1, 1}, k: 4},
		{name: "all-equal distances", keyBits: 256, attrBits: 3, f: 2,
			rows: [][]uint64{{1, 1, 4}, {1, 3, 5}, {3, 1, 6}, {3, 3, 7}},
			q:    []uint64{2, 2}, k: 2},
		{name: "maximum attribute value", keyBits: 256, attrBits: 24, f: 2,
			rows: [][]uint64{{max24, max24}, {0, 0}, {max24, 0}, {max24 - 1, max24}},
			q:    []uint64{0, 0}, k: 3},
		{name: "m = 1", keyBits: 256, attrBits: 4, f: 1,
			rows: [][]uint64{{15}, {0}, {9}, {8}},
			q:    []uint64{9}, k: 2},
		{name: "payload column intact", keyBits: 256, attrBits: 3, f: 2,
			rows: [][]uint64{{7, 7, 7, 0}, {0, 0, 0, 7}, {7, 0, 7, 7}, {3, 4, 0, 1}},
			q:    []uint64{7, 7}, k: 2},
		{name: "l = K − 69", keyBits: 128, attrBits: 3, f: 2, l: 128 - 69,
			rows: [][]uint64{{1, 2}, {7, 7}, {4, 0}, {2, 2}},
			q:    []uint64{2, 3}, k: 2},
		{name: "l = K − 68", keyBits: 128, attrBits: 3, f: 2, l: 128 - 68,
			rows: [][]uint64{{1, 2}, {7, 7}, {4, 0}, {2, 2}},
			q:    []uint64{2, 3}, k: 2, wantErr: core.ErrDomainBits},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tbl := &dataset.Table{Rows: tc.rows, AttrBits: tc.attrBits}
			if err := tbl.Validate(); err != nil {
				t.Fatal(err)
			}
			sk := testkit.Key(tc.keyBits)
			pk := &sk.PublicKey
			l := tc.l
			if l == 0 {
				l = dataset.DomainBits(tc.attrBits, tc.f)
			}
			table, err := core.EncryptTable(rand.Reader, pk, tc.rows)
			if err != nil {
				t.Fatal(err)
			}
			if table, err = table.WithFeatureColumns(tc.f); err != nil {
				t.Fatal(err)
			}
			bob := core.NewClient(pk, nil)
			eq, err := bob.EncryptQuery(tc.q)
			if err != nil {
				t.Fatal(err)
			}
			kc := newKeyCloud(t, sk)

			features := make([][]uint64, len(tc.rows))
			inTable := make(map[string]int)
			for i, row := range tc.rows {
				features[i] = row[:tc.f]
				inTable[fmt.Sprint(row)]++
			}
			oracle, err := plainknn.KDistances(features, tc.q, tc.k)
			if err != nil {
				t.Fatal(err)
			}
			check := func(who string, res *core.MaskedResult) {
				t.Helper()
				rows, err := bob.Unmask(res)
				if err != nil {
					t.Fatalf("%s: %v", who, err)
				}
				if got := sortedDistances(t, rows, tc.q); fmt.Sprint(got) != fmt.Sprint(oracle) {
					t.Errorf("%s: distances %v, oracle %v", who, got, oracle)
				}
				// Whole rows must be table rows, each at most as often as the
				// table holds it: a shifted slot or a twice-selected record
				// shows up here.
				seen := make(map[string]int)
				for _, row := range rows {
					key := fmt.Sprint(row)
					if seen[key]++; seen[key] > inTable[key] {
						t.Errorf("%s: returned %v more often than the table holds it (%v)", who, row, rows)
					}
				}
			}

			for _, shards := range []int{1, 2} {
				who := fmt.Sprintf("engine over %d shards", shards)
				res, err := engine(t, kc, table, shards, eq, tc.k, l)
				if tc.wantErr != nil {
					if !errors.Is(err, tc.wantErr) {
						t.Errorf("%s: err = %v, want %v", who, err, tc.wantErr)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s: %v", who, err)
				}
				check(who, res)
			}
			if tc.wantErr != nil {
				return
			}
			res, err := SkNNm(kc.requester(pk), table.Snapshot().Records, eq, tc.k, l)
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			check("reference", res)
		})
	}
}

// TestSkNNbDifferential is the same boundary for the fast protocol: the
// production SkNNb — packed SSED and a row-packed reveal, through the
// coordinator over one shard and over two, in-process and behind the shard
// wire — and Algorithm 5 as printed answer the same encrypted table, and
// each must return the plaintext oracle's k-distance multiset made of
// whole live rows, named by ids that are those rows'. The one-shard engine
// serves the live table itself, so its packed renderings are warm when
// the Insert (of the widest value the declared domain allows), the Delete
// and the Compact land.
func TestSkNNbDifferential(t *testing.T) {
	cases := []struct {
		name     string
		keyBits  int
		attrBits int
		f        int
		rows     [][]uint64
		insert   []uint64
		q        []uint64
		k        int
	}{
		{name: "plain", keyBits: 256, attrBits: 5, f: 2,
			rows:   [][]uint64{{1, 2}, {3, 4}, {5, 6}, {7, 8}, {2, 2}, {9, 1}, {0, 5}},
			insert: []uint64{31, 31}, q: []uint64{2, 3}, k: 3},
		{name: "payload wider than the features", keyBits: 256, attrBits: 12, f: 2,
			rows:   [][]uint64{{7, 7, 4095}, {0, 0, 7}, {7, 0, 2048}, {3, 4, 1}, {1, 1, 0}},
			insert: []uint64{6, 6, 4095}, q: []uint64{7, 7}, k: 2},
		{name: "two chunks per record", keyBits: 256, attrBits: 24, f: 3,
			rows:   [][]uint64{{1<<24 - 1, 0, 5}, {0, 0, 0}, {1 << 23, 1 << 23, 1 << 23}, {9, 9, 9}},
			insert: []uint64{1<<24 - 1, 1<<24 - 1, 1<<24 - 1}, q: []uint64{1 << 23, 1 << 23, 0}, k: 3},
		{name: "key too small for one SSED slot", keyBits: 64, attrBits: 4, f: 2,
			rows:   [][]uint64{{1, 2}, {15, 15}, {4, 0}, {2, 2}, {8, 9}},
			insert: []uint64{15, 0}, q: []uint64{2, 3}, k: 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sk := testkit.Key(tc.keyBits)
			pk := &sk.PublicKey
			table, err := core.EncryptTable(rand.Reader, pk, tc.rows)
			if err != nil {
				t.Fatal(err)
			}
			if table, err = table.WithAttrBits(tc.attrBits); err != nil {
				t.Fatal(err)
			}
			if table, err = table.WithFeatureColumns(tc.f); err != nil {
				t.Fatal(err)
			}
			bob := core.NewClient(pk, nil)
			eq, err := bob.EncryptQuery(tc.q)
			if err != nil {
				t.Fatal(err)
			}
			kc := newKeyCloud(t, sk)
			live := coordinator(t, kc, table, 1, false)
			byID := make(map[uint64][]uint64) // the live plaintext, by stable id
			for i, row := range tc.rows {
				byID[uint64(i)] = row
			}

			check := func(who string, res *core.MaskedResult, id func(uint64) uint64) {
				t.Helper()
				rows, err := bob.Unmask(res)
				if err != nil {
					t.Fatalf("%s: %v", who, err)
				}
				features := make([][]uint64, 0, len(byID))
				for _, row := range byID {
					features = append(features, row[:tc.f])
				}
				oracle, err := plainknn.KDistances(features, tc.q, tc.k)
				if err != nil {
					t.Fatal(err)
				}
				if got := sortedDistances(t, rows, tc.q); fmt.Sprint(got) != fmt.Sprint(oracle) {
					t.Errorf("%s: distances %v, oracle %v", who, got, oracle)
				}
				if len(res.IDs) != len(rows) {
					t.Fatalf("%s: %d ids for %d rows", who, len(res.IDs), len(rows))
				}
				for j, row := range rows {
					if want := byID[id(res.IDs[j])]; fmt.Sprint(row) != fmt.Sprint(want) {
						t.Errorf("%s: result %d is %v, id %d names %v", who, j, row, res.IDs[j], want)
					}
				}
			}
			stage := func(stage string) {
				t.Helper()
				snap := table.Snapshot()
				var liveRows []core.EncryptedRecord
				var liveIDs []uint64
				for i, rec := range snap.Records {
					if !snap.Dead[i] {
						liveRows, liveIDs = append(liveRows, rec), append(liveIDs, snap.IDs[i])
					}
				}
				res, err := SkNNb(kc.requester(pk), liveRows, eq, tc.k)
				if err != nil {
					t.Fatalf("%s, reference: %v", stage, err)
				}
				check(stage+", reference", res, func(pos uint64) uint64 { return liveIDs[pos] })
				engines := map[string]*core.ShardedC1{
					"engine over the live table":  live,
					"engine over 2 shards":        coordinator(t, kc, table, 2, false),
					"engine over 2 remote shards": coordinator(t, kc, table, 2, true),
				}
				for who, coord := range engines {
					res, _, err := coord.BasicQuery(context.Background(), eq, tc.k)
					if err != nil {
						t.Fatalf("%s, %s: %v", stage, who, err)
					}
					check(stage+", "+who, res, func(id uint64) uint64 { return id })
				}
			}

			stage("as encrypted")
			rec, err := pk.EncryptUint64Vector(rand.Reader, tc.insert)
			if err != nil {
				t.Fatal(err)
			}
			id, err := table.Insert(rec, -1)
			if err != nil {
				t.Fatal(err)
			}
			byID[id] = tc.insert
			stage("after Insert")
			if err := table.Delete(1); err != nil {
				t.Fatal(err)
			}
			delete(byID, 1)
			stage("after Delete")
			if table.Compact() != 1 {
				t.Fatal("Compact removed nothing")
			}
			stage("after Compact")
		})
	}
}

func TestSkNNmValidation(t *testing.T) {
	sk := testkit.Key(256)
	pk := &sk.PublicKey
	table, err := core.EncryptTable(rand.Reader, pk, [][]uint64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	rows := table.Snapshot().Records
	bob := core.NewClient(pk, nil)
	q2, _ := bob.EncryptQuery([]uint64{1, 1})
	q3, _ := bob.EncryptQuery([]uint64{1, 1, 1})
	rq := newKeyCloud(t, sk).requester(pk)
	for _, tc := range []struct {
		name string
		q    core.EncryptedQuery
		k, l int
		want error
	}{
		{"k = 0", q2, 0, 6, core.ErrBadK},
		{"k > n", q2, 3, 6, core.ErrBadK},
		{"l = 0", q2, 1, 0, core.ErrDomainBits},
		{"query wider than the records", q3, 1, 6, core.ErrDimension},
		{"empty query", nil, 1, 6, core.ErrDimension},
	} {
		if _, err := SkNNm(rq, rows, tc.q, tc.k, tc.l); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
		if tc.want == core.ErrDomainBits {
			continue
		}
		if _, err := SkNNb(rq, rows, tc.q, tc.k); !errors.Is(err, tc.want) {
			t.Errorf("SkNNb, %s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}
