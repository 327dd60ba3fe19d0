package core

import (
	"context"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/big"
	"sync"
	"testing"

	"sknn/internal/cluster"
	"sknn/internal/dataset"
	"sknn/internal/mpc"
	"sknn/internal/paillier"
)

// The golden key's factors: fixed, so N — and with it every full-range
// blind and reveal mask C1 draws from a seeded stream — is the same on
// every run. 512 bits, the engine's default key size.
const (
	goldenP = "cfac2fbfb21d4216fb294789136de6bd49c17d8ca35bad6ada5a4baf6c00216f"
	goldenQ = "c5f2d612891970d7a878985c5abb320c4dcc8fc782f551f21e6eab7b56050cc1"
)

// TestGoldenTranscript pins, bit for bit, what C1 puts on every link to
// C2 and what Bob reads at the end, for both protocols, sharded and not,
// clustered with live mutations between queries. The transcript is the
// plaintext one: for each frame in either direction its opcode and
// element count, then for each element Dec_sk(x) where x parses as a
// ciphertext under the golden key and x itself where it does not. So it
// depends on C1's blinds, masks, permutations and packing layout — every
// one drawn from the seeded stream each link gets — and on no
// encryption nonce of any party, and a refactor of how frames are built
// must leave every hash as it is. The two_links cases pin sessions that
// span several links, each link reading its own stream.
func TestGoldenTranscript(t *testing.T) {
	p, _ := new(big.Int).SetString(goldenP, 16)
	q, _ := new(big.Int).SetString(goldenQ, 16)
	sk, err := paillier.NewPrivateKey(p, q)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		run    func(t *testing.T, sk *paillier.PrivateKey) ([]*transcript, [][]uint64)
		hashes []string // one per link in engine order (seedLinks), then Bob's answer
	}{
		{"secure_scan", goldenScan(8, 6, 4, 2, 1, 1, true), []string{
			"43716105f8ea68bbce8158714db9893dd457799ec5d155af983b4ffb84e4bc8e",
			"2b05a3ad8d4220c01f59243cf013f4ef49c4a20644adb1b8d62e2c3eb7040357",
			"511bedf29ae316fe631e33231cf497194efa5c8f6c77b8d5a0f8481edf0155b3",
		}},
		{"secure_two_shards", goldenScan(8, 6, 4, 2, 2, 1, true), []string{
			"01553eddec9c3576bb85aa275505f723305ea62382ab4e5fb8259324b43ff039",
			"9da0fac22f59f15bbd43d13f24e411590afda184a99cabcfe3385bbbc67cb077",
			"55be74e7c18406f4f5cdbdc253ade8cd842b86a994d8f8c23a227fddd24dc85a",
			"dd7666870ba11078e8ba0964c758966fcbeb2d9148bf5f1b5b6630f0e2fde7bf",
		}},
		{"secure_clustered_live", goldenLive, []string{
			"4e6b7165276d007044fab0af24545528ad50983b1f54c1c8e0e5fb6e8532f191",
			"8e83bc8e74eb41e8004c12cee3f6f8e08d7d83e297645b27086a26ebc0299010",
			"68db8c37405bd05176cd66b72a54a3abb998b473e0e1ce8eb6f59ee7095213af",
		}},
		{"basic", goldenScan(16, 6, 8, 3, 1, 1, false), []string{
			"113a1e15980c2191fd4dda43ae0ef368687a28926fd951bdbee0a2a10a49b799",
			"877d39ffb7fa4100bb6b9b137c4cc9f8f99fad00aee8ed6c1c0665a81a39f488",
			"573916d76db5127e004350a1ef8da9ac8e443c7d47d743d202c97255e4ef08d8",
		}},
		{"basic_two_shards", goldenScan(16, 6, 8, 3, 2, 1, false), []string{
			"a566cf55026c3bff7c42205ef3334a3748ab9be01fa0216fe2190c1aa257a897",
			"7008e8887269b73a291e099852c49af61eae76d0d59fc98372cf7f1397f2d6df",
			"5b6b42746e8b552a56d1531b288e64a52f1497419d7f2139f370fc1a68028f04",
			"573916d76db5127e004350a1ef8da9ac8e443c7d47d743d202c97255e4ef08d8",
		}},
		{"secure_two_shards_two_links", goldenScan(8, 6, 4, 2, 2, 2, true), []string{
			"05403be69ca7330150e3f92cab3759b22e8bd70c64eb96c6285bf4dff32ff03f",
			"04a959ce05c68720ba367a6c16a585c59325fab8376ec43fe03ca3b999213dbd",
			"a7064038819fc1937670ee25456cddabe04c70434fb8db1f33eccd284b4686e0",
			"7c0a47525fdd3717e0913baea4d01c8542154c108a532a483e8845821884c5cf",
			"4170dc263afecb0d3868fafd92f1e343a98bac14ca89a43fdd47c2914618c496",
			"bd9f0ef56da685c4f714027c119a2de24d4cc6dcf0ee3095dd4ec13a454c92ec",
			"dd7666870ba11078e8ba0964c758966fcbeb2d9148bf5f1b5b6630f0e2fde7bf",
		}},
		{"basic_two_shards_two_links", goldenScan(16, 6, 8, 3, 2, 2, false), []string{
			"fa9f9f901725f97af39772bc28489c1885488219293487d6d097f1f900b5c923",
			"06153e0f8a12ed28556de3d86c3f3191b421dc2a39f1d45746a5ea45de8197c0",
			"e230b963469ce1d2bf3c08758e84a5a54de0b084f4fa609bd96c05cc471ac629",
			"6ca71d16099d5472b4ad5fabda0b66bfb7cbc7cefce6a2cfa9f98c0bc14f1170",
			"b4941989868b0a9c57da18d4d08bb8bf6df6dd3e0c9aa2fb5a2b29d21512e38d",
			"d8c163e574632c793ec137d9c9a3eab5aa8f0cc819e0b456795e5a60aaf39b8d",
			"573916d76db5127e004350a1ef8da9ac8e443c7d47d743d202c97255e4ef08d8",
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			links, answer := tc.run(t, sk)
			var got []string
			for _, tr := range links {
				got = append(got, tr.sum())
			}
			h := sha256.New()
			fmt.Fprint(h, answer)
			got = append(got, hex.EncodeToString(h.Sum(nil)))
			if fmt.Sprint(got) != fmt.Sprint(tc.hashes) {
				t.Errorf("transcript hashes changed:\n got %q\nwant %q", got, tc.hashes)
			}
		})
	}
}

// transcript hashes the plaintext view of every frame crossing one link.
type transcript struct {
	sk *paillier.PrivateKey
	mu sync.Mutex // sends come from the session, receives from the demultiplexer
	h  hash.Hash
}

func (tr *transcript) observe(_ mpc.Direction, m *mpc.Message) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	fmt.Fprintf(tr.h, "op %d, %d elements\n", m.Op, len(m.Ints))
	for _, x := range m.Ints {
		v := x
		if ct, err := tr.sk.FromRaw(x); err == nil {
			v, _ = tr.sk.Decrypt(ct) // fails only on a nil ciphertext
		}
		fmt.Fprintf(tr.h, "%x\n", v)
	}
}

func (tr *transcript) sum() string {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return hex.EncodeToString(tr.h.Sum(nil))
}

// goldenEngine is newEngine over shards workers with links tapped,
// seeded links per pool (seedLinks), and the transcript of every link
// in engine order.
func goldenEngine(t *testing.T, sk *paillier.PrivateKey, table *EncryptedTable, shards, links int) (*Engine, []*transcript) {
	t.Helper()
	c2 := NewCloudC2(sk, nil)
	var taps []*transcript
	e := newEngine(t, table, shards, func() []mpc.Conn {
		conns := pipesTo(t, c2, links)
		for i, conn := range conns {
			tr := &transcript{sk: sk, h: sha256.New()}
			taps = append(taps, tr)
			conns[i] = mpc.Tap(conn, tr.observe)
		}
		return conns
	})
	seedLinks(e)
	return e, taps
}

// goldenTable encrypts rows under sk at attrBits; its nonces are
// crypto/rand's, which the plaintext transcript does not see.
func goldenTable(t *testing.T, sk *paillier.PrivateKey, rows [][]uint64, attrBits int) *EncryptedTable {
	t.Helper()
	tbl, err := EncryptTable(rand.Reader, &sk.PublicKey, rows)
	if err == nil {
		tbl, err = tbl.WithAttrBits(attrBits)
	}
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// goldenQuery runs one query and returns Bob's unmasked rows, with the
// record ids where the protocol names them.
func goldenQuery(t *testing.T, e *Engine, bob *Client, q []uint64, k, target int, secure bool) [][]uint64 {
	t.Helper()
	eq, err := bob.EncryptQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	var res *MaskedResult
	if secure {
		res, _, err = e.SecureQuery(context.Background(), eq, k, target)
	} else {
		res, _, err = e.BasicQuery(context.Background(), eq, k)
	}
	if err != nil {
		t.Fatal(err)
	}
	rows, err := bob.Unmask(res)
	if err != nil {
		t.Fatal(err)
	}
	return append(rows, res.IDs)
}

// goldenScan is one full-scan query of a seeded n×m table of
// attrBits-bit values over shards shards, links links per pool.
func goldenScan(n, m, attrBits, k, shards, links int, secure bool) func(*testing.T, *paillier.PrivateKey) ([]*transcript, [][]uint64) {
	return func(t *testing.T, sk *paillier.PrivateKey) ([]*transcript, [][]uint64) {
		data, err := dataset.Generate(1, n, m, attrBits)
		if err != nil {
			t.Fatal(err)
		}
		q, err := dataset.GenerateQuery(2, m, attrBits)
		if err != nil {
			t.Fatal(err)
		}
		e, taps := goldenEngine(t, sk, goldenTable(t, sk, data.Rows, attrBits), shards, links)
		return taps, goldenQuery(t, e, NewClient(&sk.PublicKey, nil), q, k, 0, secure)
	}
}

// goldenLive is a pruned SkNNm query on a clustered table, an Insert
// routed obliviously to its nearest centroid, a Delete, and the query
// again.
func goldenLive(t *testing.T, sk *paillier.PrivateKey) ([]*transcript, [][]uint64) {
	const n, m, attrBits, c, k, target = 16, 2, 6, 4, 2, 4
	data, err := dataset.GenerateClustered(3, n, m, attrBits, c)
	if err != nil {
		t.Fatal(err)
	}
	part, err := cluster.KMeans(data.Rows, c, 1)
	if err != nil {
		t.Fatal(err)
	}
	tbl := goldenTable(t, sk, data.Rows, attrBits)
	if err := tbl.SetClusterIndex(rand.Reader, part.Centroids, part.Members); err != nil {
		t.Fatal(err)
	}
	e, links := goldenEngine(t, sk, tbl, 1, 1)
	bob := NewClient(&sk.PublicKey, nil)
	q := data.Rows[5]
	answer := goldenQuery(t, e, bob, q, k, target, true)

	row := []uint64{q[0] ^ 1, q[1]}
	rec, err := sk.EncryptUint64Vector(rand.Reader, row)
	if err != nil {
		t.Fatal(err)
	}
	eq, err := bob.EncryptQuery(row)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := e.Workers[0].NewSession(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cid, err := sess.NearestCluster(eq)
	sess.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.InsertWithID(tbl.NextID(), rec, cid); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Delete(3); err != nil {
		t.Fatal(err)
	}
	return links, append(answer, goldenQuery(t, e, bob, q, k, target, true)...)
}
