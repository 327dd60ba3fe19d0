package store

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/big"
	"slices"
	"sync"
	"testing"

	"sknn/internal/core"
	"sknn/internal/dataset"
	"sknn/internal/paillier"
	"sknn/internal/testkit"
)

// fuzzKey is a small shared key for corpus construction.
var fuzzKey = sync.OnceValue(func() *paillier.PrivateKey {
	sk, err := paillier.GenerateKey(rand.Reader, 256)
	if err != nil {
		panic(err)
	}
	return sk
})

// seedSnapshot builds one valid snapshot byte stream: clustered and
// sharded variants cover every decoder section (header, lineage,
// bitmap, ids, ciphertexts, centroids, memberships, trailer).
func seedSnapshot(tb testing.TB, clustered, sharded bool) []byte {
	tb.Helper()
	sk := fuzzKey()
	rows := [][]uint64{{1, 2}, {3, 4}, {5, 6}, {7, 0}}
	enc, err := core.EncryptTable(rand.Reader, &sk.PublicKey, rows)
	if err != nil {
		tb.Fatal(err)
	}
	if clustered {
		if err := enc.SetClusterIndex(rand.Reader, [][]uint64{{2, 3}, {6, 3}}, [][]int{{0, 1}, {2, 3}}); err != nil {
			tb.Fatal(err)
		}
	}
	snap := &Snapshot{PK: &sk.PublicKey, Table: enc.Snapshot()}
	if sharded {
		parts, err := Split(snap, 2)
		if err != nil {
			tb.Fatal(err)
		}
		snap = parts[1]
	}
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, snap); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzSnapshotRead drives the full snapshot decoder — header, shard
// lineage, public key, tombstone bitmap, id list, ciphertext matrix,
// cluster sections, CRC trailer — over mutated inputs. The invariants:
// never panic, never allocate unboundedly off a lying header, and when
// a parse succeeds, its key carries its l (core.CheckDomainBits) and the
// snapshot must survive a write/read round trip and core.RestoreTable's
// structural validation (i.e. nothing half-parsed ever escapes); a table
// RestoreTable accepts must save and read back with the same ids,
// tombstones and member lists.
func FuzzSnapshotRead(f *testing.F) {
	plain := seedSnapshot(f, false, false)
	f.Add(plain)
	f.Add(seedSnapshot(f, true, false))
	f.Add(seedSnapshot(f, true, true))
	f.Add(seedSnapshot(f, false, true))
	// Manual corruption seeds: truncations and field flips the corpus
	// grows from.
	f.Add(plain[:8])
	f.Add(plain[:len(plain)-5])
	flip := bytes.Clone(plain)
	flip[9] ^= 0xff
	f.Add(flip)
	f.Add([]byte("SKNNSNP\x00garbage"))
	for _, modulus := range hostileModuli() {
		f.Add(withModulus(plain, modulus))
	}
	f.Add(withModulus(plain, testkit.Key(64).N.Bytes())) // a key too small for the header's l

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := core.CheckDomainBits(snap.PK, dataset.DomainBits(snap.Table.Shape.AttrBits, snap.Table.Shape.FeatureM)); err != nil {
			t.Fatalf("accepted a snapshot whose key cannot carry its l: %v", err)
		}
		// A successful parse must be internally coherent enough to
		// serialize again and reload identically.
		var buf bytes.Buffer
		if err := WriteSnapshot(&buf, snap); err != nil {
			t.Fatalf("re-encoding accepted snapshot: %v", err)
		}
		again, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-parsing re-encoded snapshot: %v", err)
		}
		if len(again.Table.Records) != len(snap.Table.Records) ||
			again.ShardCount != snap.ShardCount || again.ShardIndex != snap.ShardIndex {
			t.Fatalf("round trip changed shape: %d/%d records, lineage %d/%d vs %d/%d",
				len(again.Table.Records), len(snap.Table.Records),
				again.ShardIndex, again.ShardCount, snap.ShardIndex, snap.ShardCount)
		}
		// The engine-level validator must accept or reject cleanly, not
		// panic: Read's format checks are deliberately weaker than
		// RestoreTable's structural ones. A table it accepts must save and
		// load back unchanged — the engine never serves what it cannot
		// store.
		tbl, err := core.RestoreTable(snap.PK, snap.Table)
		if err != nil {
			return
		}
		want := tbl.Snapshot()
		var saved bytes.Buffer
		if err := Write(&saved, snap.PK, want); err != nil {
			t.Fatalf("saving a restored table: %v", err)
		}
		back, err := Read(&saved)
		if err != nil {
			t.Fatalf("reloading a restored table: %v", err)
		}
		if !slices.Equal(back.Table.IDs, want.IDs) || !slices.Equal(back.Table.Dead, want.Dead) ||
			!slices.EqualFunc(back.Table.Members, want.Members, slices.Equal[[]int]) {
			t.Fatalf("restored table changed on save: ids %v/%v, dead %v/%v, members %v/%v",
				back.Table.IDs, want.IDs, back.Table.Dead, want.Dead, back.Table.Members, want.Members)
		}
	})
}

// FuzzKeyRead drives the armored key-file decoder.
func FuzzKeyRead(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteKey(&buf, fuzzKey()); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:10])
	f.Add(legacyKeyFile(f, fuzzKey(), 2))
	flip := bytes.Clone(valid)
	flip[len(flip)/2] ^= 1
	f.Add(flip)

	f.Fuzz(func(t *testing.T, data []byte) {
		sk, err := ReadKey(bytes.NewReader(data))
		if err != nil {
			return
		}
		if sk.N == nil || sk.N.Sign() <= 0 {
			t.Fatal("accepted key with invalid modulus")
		}
	})
}

// TestFuzzSeedsParse keeps the corpus itself honest in a plain test run
// (the CI fuzz smoke only runs briefly).
func TestFuzzSeedsParse(t *testing.T) {
	for _, tc := range []struct{ clustered, sharded bool }{
		{false, false}, {true, false}, {true, true}, {false, true},
	} {
		data := seedSnapshot(t, tc.clustered, tc.sharded)
		snap, err := Read(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("clustered=%v sharded=%v: %v", tc.clustered, tc.sharded, err)
		}
		if snap.Sharded() != tc.sharded {
			t.Errorf("clustered=%v sharded=%v: lineage %d/%d", tc.clustered, tc.sharded,
				snap.ShardIndex, snap.ShardCount)
		}
	}
}

// TestReadHugeHeaderClaim pins the incremental-allocation hardening: a
// header claiming 2^39 records over a tiny file must fail with
// ErrTruncated quickly instead of committing gigabytes.
func TestReadHugeHeaderClaim(t *testing.T) {
	data := bytes.Clone(seedSnapshot(t, false, false))
	// n is the u64 at offset 8(magic)+2(version)+2(flags)+3*4(u32s) = 24.
	binary.LittleEndian.PutUint64(data[24:], 1<<39)
	// Fix the trailer CRC so only the decoder body, not the checksum,
	// decides the outcome... except the CRC is computed over the whole
	// stream during reading, so a truncation error must surface first.
	if _, err := Read(bytes.NewReader(data)); !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrFormat) {
		t.Fatalf("huge-n header: err = %v, want ErrTruncated/ErrFormat", err)
	}
}

// TestReadTruncatedModulusLength pins the crash FuzzSnapshotRead found:
// a file ending inside the modulus-length uvarint used to reach
// make([]byte, nLen) with a garbage partial value and panic with
// "makeslice: len out of range"; it must fail with ErrTruncated.
func TestReadTruncatedModulusLength(t *testing.T) {
	data := seedSnapshot(t, false, false)
	// Header through nextID is 8+2+2+3*4+8+8 = 40 bytes; append one
	// continuation byte (high bit set) of a uvarint that never ends.
	cut := append(bytes.Clone(data[:40]), 0xff)
	if _, err := Read(bytes.NewReader(cut)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated modulus length: err = %v, want ErrTruncated", err)
	}
	// Same shape for the key decoder's length of p.
	var kb bytes.Buffer
	if err := WriteKey(&kb, fuzzKey()); err != nil {
		t.Fatal(err)
	}
	kcut := append(bytes.Clone(kb.Bytes()[:10]), 0xff)
	if _, err := ReadKey(bytes.NewReader(kcut)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated key factor length: err = %v, want ErrTruncated", err)
	}
}

// withModulus rewrites an unsharded snapshot's embedded key — modulus
// length, modulus, and the fingerprint that must match it — leaving the
// rest of the stream as it was.
func withModulus(data, modulus []byte) []byte {
	const header = 40 // through nextID, see TestReadTruncatedModulusLength
	oldLen, w := binary.Uvarint(data[header:])
	out := binary.AppendUvarint(bytes.Clone(data[:header]), uint64(len(modulus)))
	out = append(out, modulus...)
	fp := sha256.Sum256(new(big.Int).SetBytes(modulus).Bytes())
	out = append(out, fp[:]...)
	return append(out, data[header+w+int(oldLen)+len(fp):]...)
}

// hostileModuli are the embedded moduli Read must refuse although their
// fingerprint matches, padded to the 8 bytes the length check asks for.
// (The byte layout carries no nil and no sign, the other two of
// testkit.HostileModuli.)
func hostileModuli() map[string][]byte {
	out := make(map[string][]byte)
	for name, n := range testkit.HostileModuli() {
		if n != nil && n.Sign() >= 0 {
			out[name] = n.FillBytes(make([]byte, max(8, len(n.Bytes()))))
		}
	}
	return out
}

// TestReadHostileModulus: a header whose key is self-consistent but is
// no Paillier modulus fails as ErrFormat before any ciphertext is read;
// the same rewrite with the real modulus still loads.
func TestReadHostileModulus(t *testing.T) {
	data := seedSnapshot(t, false, false)
	if _, err := Read(bytes.NewReader(withModulus(data, fuzzKey().N.Bytes()))); err != nil {
		t.Fatalf("rewriting the header with its own modulus: %v", err)
	}
	for name, modulus := range hostileModuli() {
		if _, err := Read(bytes.NewReader(withModulus(data, modulus))); !errors.Is(err, ErrFormat) {
			t.Errorf("modulus %s: err = %v, want ErrFormat", name, err)
		}
	}
}

// TestReadV1Compat: a v1 file (no shard lineage, flags never carry
// flagSharded, l in the header) still reads under this decoder.
func TestReadV1Compat(t *testing.T) {
	data := olderVersion(seedSnapshot(t, true, false), 1, 0)
	snap, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("v1 file rejected: %v", err)
	}
	if snap.Sharded() {
		t.Error("v1 file parsed as sharded")
	}
	if len(snap.Table.Centroids) != 2 {
		t.Errorf("v1 file lost its cluster index (%d centroids)", len(snap.Table.Centroids))
	}
	// An unknown future version is still rejected.
	binary.LittleEndian.PutUint16(data[8:], 9)
	crc := crc32.Checksum(data[:len(data)-4], crcTable)
	binary.LittleEndian.PutUint32(data[len(data)-4:], crc)
	if _, err := Read(bytes.NewReader(data)); !errors.Is(err, ErrVersion) {
		t.Fatalf("v9 file: err = %v, want ErrVersion", err)
	}
}

// TestStoreSplitMerge covers the store-level partition algebra: lineage
// stamping, shard files that round-trip and merge back (through
// core.MergeTableSnapshots, in lineage order) to the whole table, and
// the refusal to re-split a shard.
func TestStoreSplitMerge(t *testing.T) {
	data := seedSnapshot(t, true, false)
	snap, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	parts, err := Split(snap, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range parts {
		if p.ShardIndex != i || p.ShardCount != 2 {
			t.Fatalf("part %d lineage %d/%d", i, p.ShardIndex, p.ShardCount)
		}
		if p.Table.Shape.AttrBits != snap.Table.Shape.AttrBits || p.Table.Shape.FeatureM != snap.Table.Shape.FeatureM {
			t.Fatalf("part %d domain metadata lost", i)
		}
		// Round-trip each shard file.
		var buf bytes.Buffer
		if err := WriteSnapshot(&buf, p); err != nil {
			t.Fatal(err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if back.ShardIndex != i || back.ShardCount != 2 {
			t.Fatalf("part %d reloaded lineage %d/%d", i, back.ShardIndex, back.ShardCount)
		}
		parts[i] = back
	}
	// Read back in the reverse order, the shards still merge by lineage.
	tables := make([]*core.TableSnapshot, len(parts))
	for _, p := range []*Snapshot{parts[1], parts[0]} {
		tables[p.ShardIndex] = p.Table
	}
	merged, err := core.MergeTableSnapshots(tables)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.Records) != len(snap.Table.Records) {
		t.Fatalf("merged: %d records, want %d", len(merged.Records), len(snap.Table.Records))
	}
	for i := range merged.IDs {
		if merged.IDs[i] != snap.Table.IDs[i] {
			t.Fatalf("merged id order diverged at %d", i)
		}
	}

	if _, err := Split(parts[0], 2); err == nil {
		t.Error("re-splitting a shard accepted")
	}
	if got := ShardPath("t.snap", 3); got != "t.snap.s3" {
		t.Errorf("ShardPath = %q", got)
	}
}
