package store

import (
	"bytes"
	"crypto/rand"
	"errors"
	"io"
	"math/big"
	"sync"
	"testing"

	"sknn/internal/core"
	"sknn/internal/paillier"
)

// testKey shares one small key across the suite (keygen dominates).
var testKey = sync.OnceValue(func() *paillier.PrivateKey {
	sk, err := paillier.GenerateKey(rand.Reader, 256)
	if err != nil {
		panic(err)
	}
	return sk
})

// buildTable encrypts a deterministic little table, optionally clustered
// and optionally churned (one insert + one delete) so snapshots cover
// ids, tombstones, and ragged membership lists.
func buildTable(t *testing.T, clustered, churned bool) *core.EncryptedTable {
	t.Helper()
	sk := testKey()
	rows := [][]uint64{{1, 2}, {3, 4}, {5, 6}, {30, 31}, {32, 33}, {60, 61}}
	tbl, err := core.EncryptTable(rand.Reader, &sk.PublicKey, rows)
	if err != nil {
		t.Fatal(err)
	}
	if clustered {
		cents := [][]uint64{{3, 4}, {31, 32}, {60, 61}}
		members := [][]int{{0, 1, 2}, {3, 4}, {5}}
		tbl, err = tbl.WithClusterIndex(rand.Reader, cents, members)
		if err != nil {
			t.Fatal(err)
		}
	}
	if churned {
		rec, err := sk.PublicKey.EncryptUint64Vector(rand.Reader, []uint64{31, 30})
		if err != nil {
			t.Fatal(err)
		}
		clusterID := -1
		if clustered {
			clusterID = 1
		}
		if _, err := tbl.Insert(rec, clusterID); err != nil {
			t.Fatal(err)
		}
		if err := tbl.Delete(2); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func encode(t *testing.T, tbl *core.EncryptedTable) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, &testKey().PublicKey, tbl.Snapshot(), 14); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSnapshotRoundTrip(t *testing.T) {
	for _, tc := range []struct{ clustered, churned bool }{
		{false, false}, {true, false}, {false, true}, {true, true},
	} {
		tbl := buildTable(t, tc.clustered, tc.churned)
		data := encode(t, tbl)
		snap, err := Read(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("clustered=%v churned=%v: %v", tc.clustered, tc.churned, err)
		}
		if err := snap.VerifyKey(&testKey().PublicKey); err != nil {
			t.Fatal(err)
		}
		// 6 bits is what EncryptTable derived from buildTable's widest value, 61.
		if snap.Table.AttrBits != 6 || snap.DomainBits != 14 {
			t.Fatalf("meta = %d/%d, want 6/14", snap.Table.AttrBits, snap.DomainBits)
		}
		back, err := core.RestoreTable(snap.PK, snap.Table)
		if err != nil {
			t.Fatal(err)
		}
		want := tbl.Snapshot()
		got := back.Snapshot()
		if len(got.Records) != len(want.Records) || got.NextID != want.NextID {
			t.Fatalf("restored %d records nextID %d, want %d/%d",
				len(got.Records), got.NextID, len(want.Records), want.NextID)
		}
		for i := range want.Records {
			if got.IDs[i] != want.IDs[i] || got.Dead[i] != want.Dead[i] {
				t.Fatalf("record %d id/dead = %d/%v, want %d/%v",
					i, got.IDs[i], got.Dead[i], want.IDs[i], want.Dead[i])
			}
			for j := range want.Records[i] {
				if got.Records[i][j].Raw().Cmp(want.Records[i][j].Raw()) != 0 {
					t.Fatalf("record %d attr %d ciphertext mismatch", i, j)
				}
			}
		}
		if back.Clustered() != tbl.Clustered() || back.Clusters() != tbl.Clusters() {
			t.Fatalf("index shape changed: %v/%d, want %v/%d",
				back.Clustered(), back.Clusters(), tbl.Clustered(), tbl.Clusters())
		}
		for j := 0; j < tbl.Clusters(); j++ {
			a, b := tbl.ClusterMembers(j), back.ClusterMembers(j)
			if len(a) != len(b) {
				t.Fatalf("cluster %d has %d members, want %d", j, len(b), len(a))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("cluster %d member %d = %d, want %d", j, i, b[i], a[i])
				}
			}
		}
	}
}

func TestSnapshotDecryptsToOriginal(t *testing.T) {
	sk := testKey()
	rows := [][]uint64{{7, 8, 9}, {10, 11, 12}}
	tbl, err := core.EncryptTable(rand.Reader, &sk.PublicKey, rows)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, &sk.PublicKey, tbl.Snapshot(), 8); err != nil {
		t.Fatal(err)
	}
	snap, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range snap.Table.Records {
		for j, ct := range rec {
			v, err := sk.Decrypt(ct)
			if err != nil {
				t.Fatal(err)
			}
			if v.Uint64() != rows[i][j] {
				t.Fatalf("record %d attr %d = %v, want %d", i, j, v, rows[i][j])
			}
		}
	}
}

func TestSnapshotRejectsCorruption(t *testing.T) {
	data := encode(t, buildTable(t, true, true))

	t.Run("magic", func(t *testing.T) {
		bad := append([]byte(nil), data...)
		bad[0] ^= 0xff
		if _, err := Read(bytes.NewReader(bad)); !errors.Is(err, ErrMagic) {
			t.Fatalf("err = %v, want ErrMagic", err)
		}
	})
	t.Run("version", func(t *testing.T) {
		bad := append([]byte(nil), data...)
		bad[8] = 99 // version little-endian low byte
		if _, err := Read(bytes.NewReader(bad)); !errors.Is(err, ErrVersion) {
			t.Fatalf("err = %v, want ErrVersion", err)
		}
	})
	t.Run("bitflips", func(t *testing.T) {
		// Any single bit flip after the header must be caught by parse
		// validation or, at the latest, the CRC trailer — never returned
		// as a "successful" read.
		for _, pos := range []int{40, len(data) / 2, len(data) - 20, len(data) - 2} {
			bad := append([]byte(nil), data...)
			bad[pos] ^= 0x04
			if _, err := Read(bytes.NewReader(bad)); err == nil {
				t.Fatalf("corruption at byte %d went undetected", pos)
			}
		}
	})
	t.Run("truncation", func(t *testing.T) {
		for _, keep := range []int{0, 4, 30, len(data) / 3, len(data) - 3} {
			_, err := Read(bytes.NewReader(data[:keep]))
			if err == nil {
				t.Fatalf("truncation to %d bytes went undetected", keep)
			}
			if keep >= 10 && !errors.Is(err, ErrTruncated) {
				t.Fatalf("truncation to %d bytes: err = %v, want ErrTruncated", keep, err)
			}
		}
	})
	t.Run("trailing-garbage-is-ignored", func(t *testing.T) {
		// Readers stop at the trailer; framing beyond it belongs to the
		// caller (e.g. concatenated streams).
		if _, err := Read(bytes.NewReader(append(append([]byte(nil), data...), 1, 2, 3))); err != nil {
			t.Fatal(err)
		}
	})
}

func TestSnapshotWrongKey(t *testing.T) {
	data := encode(t, buildTable(t, false, false))
	snap, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	other, err := paillier.GenerateKey(rand.Reader, 256)
	if err != nil {
		t.Fatal(err)
	}
	if err := snap.VerifyKey(&other.PublicKey); !errors.Is(err, ErrKeyMismatch) {
		t.Fatalf("err = %v, want ErrKeyMismatch", err)
	}
	if err := snap.VerifyKey(&testKey().PublicKey); err != nil {
		t.Fatalf("matching key rejected: %v", err)
	}
}

func TestKeyRoundTrip(t *testing.T) {
	sk := testKey()
	var buf bytes.Buffer
	if err := WriteKey(&buf, sk); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	back, err := ReadKey(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if back.PublicKey.N.Cmp(sk.PublicKey.N) != 0 {
		t.Fatal("key changed across round trip")
	}
	// The reloaded key encrypts from its factorisation — what a C2
	// daemon does with the file — and the original key reads it.
	for _, m := range []*big.Int{big.NewInt(0), big.NewInt(1), new(big.Int).Sub(sk.N, big.NewInt(1))} {
		ct, err := back.Encrypt(rand.Reader, m)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := sk.Decrypt(ct); err != nil || got.Cmp(m) != 0 {
			t.Fatalf("reloaded key's encryption of %v decrypts to %v (err %v)", m, got, err)
		}
	}

	bad := append([]byte(nil), data...)
	bad[len(bad)/2] ^= 0x10
	if _, err := ReadKey(bytes.NewReader(bad)); err == nil {
		t.Fatal("corrupted key file went undetected")
	}
	if _, err := ReadKey(bytes.NewReader(data[:len(data)-3])); err == nil {
		t.Fatal("truncated key file went undetected")
	}
	if _, err := ReadKey(bytes.NewReader([]byte("not a key"))); !errors.Is(err, ErrMagic) {
		t.Fatal("garbage key file accepted")
	}
}

// TestStreamingWriterFlushes proves Write never buffers the whole table:
// the writer emits through a small fixed-size bufio layer, so feeding it
// a sink that counts writes sees many flushes for a multi-record table.
func TestStreamingWriterFlushes(t *testing.T) {
	tbl := buildTable(t, true, true)
	var sink countingWriter
	if err := Write(&sink, &testKey().PublicKey, tbl.Snapshot(), 14); err != nil {
		t.Fatal(err)
	}
	if sink.n == 0 {
		t.Fatal("nothing written")
	}
	// Round-trip through an io.Reader that yields one byte at a time:
	// the reader must be purely incremental too.
	data := encode(t, tbl)
	if _, err := Read(io.LimitReader(oneByteReader{bytes.NewReader(data)}, int64(len(data)))); err != nil {
		t.Fatal(err)
	}
}

type countingWriter struct{ n int }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += len(p)
	return len(p), nil
}

type oneByteReader struct{ r io.Reader }

func (o oneByteReader) Read(p []byte) (int, error) {
	if len(p) > 1 {
		p = p[:1]
	}
	return o.r.Read(p)
}
