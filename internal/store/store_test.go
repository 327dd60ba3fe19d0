package store

import (
	"bytes"
	"crypto/rand"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"hash/crc32"
	"io"
	"math/big"
	"sync"
	"testing"

	"sknn/internal/core"
	"sknn/internal/dataset"
	"sknn/internal/paillier"
	"sknn/internal/testkit"
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
		if err := tbl.SetClusterIndex(rand.Reader, cents, members); err != nil {
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
		if err := tbl.InsertWithID(tbl.NextID(), rec, clusterID); err != nil {
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
	if err := Write(&buf, &testKey().PublicKey, tbl.Snapshot()); err != nil {
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
		if snap.Table.Shape.AttrBits != 6 || snap.Table.Shape.FeatureM != 2 {
			t.Fatalf("meta = %d/%d, want 6/2", snap.Table.Shape.AttrBits, snap.Table.Shape.FeatureM)
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
		for j := range want.Members {
			a, b := want.Members[j], got.Members[j]
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
	if err := Write(&buf, &sk.PublicKey, tbl.Snapshot()); err != nil {
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

// headerL is the offset at which a v1 or v2 header carried l: after the
// magic, the version, the flags, m, featureM and attrBits.
const headerL = 8 + 2 + 2 + 4 + 4 + 4

// olderVersion rewrites a snapshot this version wrote into the byte
// layout of version v < 3: the version field, the u32 l v1 and v2 wrote
// after attrBits — their formula, dataset.DomainBits + 1, moved by dl —
// and the CRC trailer over the result.
func olderVersion(data []byte, v uint16, dl int) []byte {
	out := bytes.Clone(data[:headerL])
	binary.LittleEndian.PutUint16(out[8:], v)
	featureM := int(binary.LittleEndian.Uint32(data[16:]))
	attrBits := int(binary.LittleEndian.Uint32(data[20:]))
	out = binary.LittleEndian.AppendUint32(out, uint32(dataset.DomainBits(attrBits, featureM)+1+dl))
	out = append(out, data[headerL:len(data)-4]...)
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, crcTable))
}

// TestReadRefusesForeignDomain: Read admits only the domain metadata this
// engine writes. A v1 or v2 header's l must be what those versions
// derived, dataset.DomainBits(attrBits, featureM) + 1 — a forged one
// would compare distances in the wrong domain — and an attribute domain
// beyond dataset.MaxAttrBits, the one width bound, is refused at 25 and
// 64 bits and taken at 24. A key too small to carry the table's l is
// refused as core.ErrDomainBits, as sknn.New refuses it, at exactly the
// bound: a 117-bit key carries l = K − 69 = 48 = DomainBits(24, 1) and
// not DomainBits(24, 2) = 49. The files are otherwise well formed.
func TestReadRefusesForeignDomain(t *testing.T) {
	pk := &testKey().PublicKey
	snap := buildTable(t, false, false).Snapshot()
	write := func(pk *paillier.PublicKey, tbl *core.TableSnapshot) []byte {
		var buf bytes.Buffer
		if err := Write(&buf, pk, tbl); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	data := write(pk, snap)
	for _, v := range []uint16{1, 2} {
		if _, err := Read(bytes.NewReader(olderVersion(data, v, 0))); err != nil {
			t.Fatalf("v%d header with its own l refused: %v", v, err)
		}
		for _, dl := range []int{-1, 1} {
			if _, err := Read(bytes.NewReader(olderVersion(data, v, dl))); !errors.Is(err, ErrFormat) {
				t.Errorf("v%d header with l moved by %d: err = %v, want ErrFormat", v, dl, err)
			}
		}
	}

	for _, bits := range []int{24, 25, 64} {
		wide := *snap
		wide.Shape.AttrBits = bits
		var buf bytes.Buffer
		err := Write(&buf, pk, &wide)
		if bits <= dataset.MaxAttrBits {
			if err != nil {
				t.Fatalf("writing attrBits=%d: %v", bits, err)
			}
			if _, err := Read(&buf); err != nil {
				t.Errorf("reading attrBits=%d: %v", bits, err)
			}
			continue
		}
		if !errors.Is(err, ErrFormat) {
			t.Errorf("writing attrBits=%d > %d: err = %v, want ErrFormat", bits, dataset.MaxAttrBits, err)
		}
		// The same header forged into a file the writer would have made.
		forged := bytes.Clone(data)
		binary.LittleEndian.PutUint32(forged[20:], uint32(bits))
		binary.LittleEndian.PutUint32(forged[len(forged)-4:], crc32.Checksum(forged[:len(forged)-4], crcTable))
		if _, err := Read(bytes.NewReader(forged)); !errors.Is(err, ErrFormat) {
			t.Errorf("reading attrBits=%d > %d: err = %v, want ErrFormat", bits, dataset.MaxAttrBits, err)
		}
	}

	small := &testkit.Key(117).PublicKey
	const max24 = 1<<24 - 1
	for f, want := range map[int]error{1: nil, 2: core.ErrDomainBits} {
		tbl, err := core.EncryptTable(rand.Reader, small, [][]uint64{{max24, 2}, {15, 0}, {4, 9}})
		if err == nil {
			tbl, err = tbl.WithFeatureColumns(f)
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Read(bytes.NewReader(write(small, tbl.Snapshot()))); !errors.Is(err, want) {
			t.Errorf("117-bit key, l = %d: err = %v, want %v", dataset.DomainBits(24, f), err, want)
		}
	}
}

// TestSnapshotColumnBound: the snapshot writer and reader keep the one
// column bound, dataset.MaxColumns: a table that wide round-trips, one
// column wider is refused by WriteSnapshot as ErrFormat — not written
// into a file Read then refuses — and a header forged to declare it is
// refused by Read.
func TestSnapshotColumnBound(t *testing.T) {
	pk := &testKey().PublicKey
	ct, err := pk.Encrypt(rand.Reader, big.NewInt(1))
	if err != nil {
		t.Fatal(err)
	}
	snapOf := func(m int) *core.TableSnapshot {
		rec := make(core.EncryptedRecord, m)
		for j := range rec {
			rec[j] = ct
		}
		return &core.TableSnapshot{Shape: dataset.Shape{M: m, FeatureM: 2, AttrBits: 1}, NextID: 1,
			Records: []core.EncryptedRecord{rec}, IDs: []uint64{0}, Dead: []bool{false}}
	}
	var buf bytes.Buffer
	if err := Write(&buf, pk, snapOf(dataset.MaxColumns)); err != nil {
		t.Fatalf("writing %d columns: %v", dataset.MaxColumns, err)
	}
	if snap, err := Read(&buf); err != nil || snap.Table.Shape.M != dataset.MaxColumns {
		t.Fatalf("reading %d columns: err = %v", dataset.MaxColumns, err)
	}
	buf.Reset()
	if err := Write(&buf, pk, snapOf(dataset.MaxColumns+1)); !errors.Is(err, ErrFormat) || buf.Len() != 0 {
		t.Errorf("writing %d columns: err = %v after %d bytes, want ErrFormat before any", dataset.MaxColumns+1, err, buf.Len())
	}
	forged := encode(t, buildTable(t, false, false))
	binary.LittleEndian.PutUint32(forged[12:], dataset.MaxColumns+1)
	binary.LittleEndian.PutUint32(forged[len(forged)-4:], crc32.Checksum(forged[:len(forged)-4], crcTable))
	if _, err := Read(bytes.NewReader(forged)); !errors.Is(err, ErrFormat) {
		t.Errorf("reading a header of %d columns: err = %v, want ErrFormat", dataset.MaxColumns+1, err)
	}
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

// legacyKeyFile is sk as a key file of version v < 3 wrote it: the gob
// stream of struct{ P, Q *big.Int } as a length-prefixed blob.
func legacyKeyFile(tb testing.TB, sk *paillier.PrivateKey, v uint16) []byte {
	tb.Helper()
	p, q := sk.Factors()
	var blob bytes.Buffer
	if err := gob.NewEncoder(&blob).Encode(struct{ P, Q *big.Int }{p, q}); err != nil {
		tb.Fatal(err)
	}
	return legacyKeyFrame(v, blob.Bytes())
}

// legacyKeyFrame arms a v1/v2 key blob: magic, version, length, CRC.
func legacyKeyFrame(v uint16, blob []byte) []byte {
	out := binary.LittleEndian.AppendUint16(bytes.Clone(keyMagic[:]), v)
	out = binary.AppendUvarint(out, uint64(len(blob)))
	out = append(out, blob...)
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, crcTable))
}

// TestKeyFileCompat: a v3 key file holds p and q as the store's own
// length-prefixed integers and nothing gob; v1 and v2 files — the
// committed bench/testdata/k512.key among them — still load, through
// the same checks; a corrupted one fails its checksum before its blob is
// parsed, and a v2 blob off the one gob shape those versions wrote, or
// holding factors no key has, is ErrFormat.
func TestKeyFileCompat(t *testing.T) {
	sk := testKey()
	var buf bytes.Buffer
	if err := WriteKey(&buf, sk); err != nil {
		t.Fatal(err)
	}
	p, q := sk.Factors()
	want := binary.LittleEndian.AppendUint16(bytes.Clone(keyMagic[:]), Version)
	for _, x := range []*big.Int{p, q} {
		want = binary.AppendUvarint(want, uint64(len(x.Bytes())))
		want = append(want, x.Bytes()...)
	}
	if got := buf.Bytes(); !bytes.Equal(got[:len(got)-4], want) {
		t.Errorf("v3 key file body = %x, want %x", got[:len(got)-4], want)
	}

	old, err := ReadKeyFile("../../bench/testdata/k512.key")
	if err != nil {
		t.Fatalf("bench/testdata/k512.key: %v", err)
	}
	if old.N.BitLen() != 512 {
		t.Errorf("k512.key holds a %d-bit key", old.N.BitLen())
	}
	for _, v := range []uint16{1, 2} {
		back, err := ReadKey(bytes.NewReader(legacyKeyFile(t, sk, v)))
		if err != nil {
			t.Fatalf("v%d key file: %v", v, err)
		}
		if back.N.Cmp(sk.N) != 0 {
			t.Errorf("v%d key file read as another key", v)
		}
	}

	flipped := legacyKeyFile(t, sk, 2)
	flipped[len(flipped)/2] ^= 0x10 // inside the blob: the checksum, not the gob reader, refuses it
	if _, err := ReadKey(bytes.NewReader(flipped)); !errors.Is(err, ErrChecksum) {
		t.Errorf("v2 key file with a flipped bit: err = %v, want ErrChecksum", err)
	}

	var blob bytes.Buffer
	if err := gob.NewEncoder(&blob).Encode(struct{ P, Q *big.Int }{p, q}); err != nil {
		t.Fatal(err)
	}
	good := blob.Bytes()
	safe, _ := new(big.Int).SetString("1000000000000000000000000000000000009271", 10)
	unsafe := new(big.Int).Lsh(safe, 1)
	unsafe.Add(unsafe, big.NewInt(1)) // 2q+1: prime, yet shares q with the totient
	var shared bytes.Buffer
	if err := gob.NewEncoder(&shared).Encode(struct{ P, Q *big.Int }{unsafe, safe}); err != nil {
		t.Fatal(err)
	}
	var onlyP bytes.Buffer
	if err := gob.NewEncoder(&onlyP).Encode(struct{ P *big.Int }{p}); err != nil {
		t.Fatal(err)
	}
	for name, blob := range map[string][]byte{
		"empty":             nil,
		"not gob":           []byte("not gob"),
		"truncated":         good[:len(good)-5],
		"trailing byte":     append(bytes.Clone(good), 0),
		"one factor":        onlyP.Bytes(),
		"p = 2q+1":          shared.Bytes(),
		"type section only": good[:good[0]+1],
	} {
		if _, err := ReadKey(bytes.NewReader(legacyKeyFrame(2, blob))); !errors.Is(err, ErrFormat) {
			t.Errorf("v2 blob %s: err = %v, want ErrFormat", name, err)
		}
	}
}

// TestStreamingWriterFlushes proves Write never buffers the whole table:
// the writer emits through a small fixed-size bufio layer, so feeding it
// a sink that counts writes sees many flushes for a multi-record table.
func TestStreamingWriterFlushes(t *testing.T) {
	tbl := buildTable(t, true, true)
	var sink countingWriter
	if err := Write(&sink, &testKey().PublicKey, tbl.Snapshot()); err != nil {
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
