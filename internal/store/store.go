// Package store is the persistence layer for outsourced tables: a
// versioned binary snapshot format that serializes a core.EncryptedTable
// — ciphertext matrix, attached cluster index (encrypted centroids +
// membership lists), tombstones and stable record ids, domain-bit
// metadata, and the public key (with its SHA-256 fingerprint as the
// wrong-key check value) — plus the private-key file the data owner and
// C2 keep beside it.
//
// The format is streaming on both sides: the writer emits one ciphertext
// at a time and the reader parses the same way, so a table the size of
// the disk file loads without ever materializing an intermediate
// [][]*big.Int copy (ciphertext pointers are shared with the table, the
// only per-record overhead is slice headers). Every file ends in a
// CRC-32C trailer, so corruption and truncation are detected before any
// half-built table escapes: Read fails with ErrChecksum or ErrTruncated
// instead of returning plausible garbage.
//
// A snapshot contains no plaintext and no secret key — it is exactly
// the artifact the paper's C1 is allowed to hold, which is why the
// public key rides along in full (C1 needs it to run the protocols) but
// the private key never does.
package store

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/big"
	"os"

	"sknn/internal/core"
	"sknn/internal/paillier"
)

// Version is the current snapshot format version. Readers reject files
// from a newer format instead of guessing. v2 added the shard-lineage
// header fields (present only when flagSharded is set), so v1 files —
// which never carry the flag — read under the same decoder. (The v2
// decoder also tightened the sanity caps on claimed attribute count
// and modulus size to 2^12 attributes / 2^13 modulus bytes; files this
// engine actually writes sit orders of magnitude below both, but a v1
// file hand-crafted beyond them now fails ErrFormat instead of
// parsing.)
const Version = 2

// minVersion is the oldest format this build still reads.
const minVersion = 1

var (
	tableMagic = [8]byte{'S', 'K', 'N', 'N', 'S', 'N', 'P', 0}
	keyMagic   = [8]byte{'S', 'K', 'N', 'N', 'K', 'E', 'Y', 0}
)

// Errors returned by this package. Read and ReadKey wrap them, so test
// with errors.Is.
var (
	ErrMagic       = errors.New("store: unrecognized file format")
	ErrVersion     = errors.New("store: unsupported snapshot version")
	ErrChecksum    = errors.New("store: snapshot checksum mismatch (file corrupted)")
	ErrTruncated   = errors.New("store: snapshot truncated")
	ErrFormat      = errors.New("store: malformed snapshot")
	ErrKeyMismatch = errors.New("store: snapshot was written under a different key")
)

// crcTable is Castagnoli, the polynomial with hardware support on both
// amd64 and arm64.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// flag bits of the header.
const (
	flagClustered = 1 << 0
	flagSharded   = 1 << 1 // v2+: header carries shard lineage
)

// Snapshot is one parsed table file: the public key it is encrypted
// under, the domain size SkNNm queries need, and the full table state
// ready for core.RestoreTable — including the attribute width the header
// records, which lives on Table.AttrBits and nowhere else. A shard
// snapshot (written by Split) additionally records its partition lineage:
// this file holds the records with stable id ≡ ShardIndex mod ShardCount.
// ShardCount 0 means an unsharded (whole-table) snapshot.
type Snapshot struct {
	PK         *paillier.PublicKey
	DomainBits int // l, the squared-distance domain for SkNNm's SBD
	ShardIndex int // partition lineage; meaningful when ShardCount > 0
	ShardCount int // 0 = whole table
	Table      *core.TableSnapshot
}

// Sharded reports whether this snapshot is one shard of a partition.
func (s *Snapshot) Sharded() bool { return s.ShardCount > 0 }

// Fingerprint is the snapshot's key check value: SHA-256 over the
// big-endian bytes of the public modulus N.
func Fingerprint(pk *paillier.PublicKey) [32]byte { return fingerprint(pk.N) }

func fingerprint(n *big.Int) [32]byte { return sha256.Sum256(n.Bytes()) }

// VerifyKey checks that the snapshot was written under the given public
// key, returning ErrKeyMismatch (with both fingerprints) otherwise.
func (s *Snapshot) VerifyKey(pk *paillier.PublicKey) error {
	want, got := Fingerprint(pk), Fingerprint(s.PK)
	if want != got {
		return fmt.Errorf("%w: file %x…, key %x…", ErrKeyMismatch, got[:6], want[:6])
	}
	return nil
}

// Write serializes an unsharded table state to w in snapshot format
// Version. tbl.AttrBits and domainBits are the dataset metadata a loader
// needs to validate inserts and run queries without re-deriving them.
func Write(w io.Writer, pk *paillier.PublicKey, tbl *core.TableSnapshot, domainBits int) error {
	return WriteSnapshot(w, &Snapshot{PK: pk, DomainBits: domainBits, Table: tbl})
}

// WriteSnapshot serializes snap — including its shard lineage, when it
// is one shard of a partition — in snapshot format Version.
func WriteSnapshot(w io.Writer, snap *Snapshot) error {
	if snap == nil {
		return fmt.Errorf("%w: nil snapshot", ErrFormat)
	}
	pk, tbl, domainBits := snap.PK, snap.Table, snap.DomainBits
	if pk == nil || tbl == nil {
		return fmt.Errorf("%w: nil key or table", ErrFormat)
	}
	if snap.ShardCount < 0 || (snap.ShardCount > 0 &&
		(snap.ShardIndex < 0 || snap.ShardIndex >= snap.ShardCount)) {
		return fmt.Errorf("%w: shard %d of %d", ErrFormat, snap.ShardIndex, snap.ShardCount)
	}
	n := len(tbl.Records)
	if n == 0 || len(tbl.IDs) != n || len(tbl.Dead) != n {
		return fmt.Errorf("%w: inconsistent table snapshot (%d records, %d ids, %d dead)",
			ErrFormat, n, len(tbl.IDs), len(tbl.Dead))
	}
	if tbl.AttrBits < 1 || tbl.AttrBits > 64 {
		return fmt.Errorf("%w: attrBits=%d", ErrFormat, tbl.AttrBits)
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	h := crc32.New(crcTable)
	out := &sectionWriter{w: io.MultiWriter(bw, h)}

	out.bytes(tableMagic[:])
	out.u16(Version)
	var flags uint16
	if len(tbl.Centroids) > 0 {
		flags |= flagClustered
	}
	if snap.ShardCount > 0 {
		flags |= flagSharded
	}
	out.u16(flags)
	out.u32(uint32(tbl.M))
	out.u32(uint32(tbl.FeatureM))
	out.u32(uint32(tbl.AttrBits))
	out.u32(uint32(domainBits))
	out.u64(uint64(n))
	out.u64(tbl.NextID)
	if flags&flagSharded != 0 {
		out.u32(uint32(snap.ShardIndex))
		out.u32(uint32(snap.ShardCount))
	}
	nBytes := pk.N.Bytes()
	out.uvarint(uint64(len(nBytes)))
	out.bytes(nBytes)
	fp := Fingerprint(pk)
	out.bytes(fp[:])

	// Tombstone bitmap, LSB-first within each byte.
	bitmap := make([]byte, (n+7)/8)
	for i, d := range tbl.Dead {
		if d {
			bitmap[i/8] |= 1 << (i % 8)
		}
	}
	out.bytes(bitmap)
	for _, id := range tbl.IDs {
		out.uvarint(id)
	}
	for i, rec := range tbl.Records {
		if len(rec) != tbl.M {
			return fmt.Errorf("%w: record %d has %d attributes, want %d", ErrFormat, i, len(rec), tbl.M)
		}
		for _, ct := range rec {
			out.bigInt(ct.Raw())
		}
	}
	if flags&flagClustered != 0 {
		if len(tbl.Centroids) != len(tbl.Members) {
			return fmt.Errorf("%w: %d centroids, %d member lists",
				ErrFormat, len(tbl.Centroids), len(tbl.Members))
		}
		out.u32(uint32(len(tbl.Centroids)))
		for j, cent := range tbl.Centroids {
			if len(cent) != tbl.FeatureM {
				return fmt.Errorf("%w: centroid %d has %d attributes, want %d",
					ErrFormat, j, len(cent), tbl.FeatureM)
			}
			for _, ct := range cent {
				out.bigInt(ct.Raw())
			}
		}
		for j, mem := range tbl.Members {
			out.uvarint(uint64(len(mem)))
			prev := -1
			for _, pos := range mem {
				if pos <= prev {
					return fmt.Errorf("%w: cluster %d members not strictly ascending", ErrFormat, j)
				}
				out.uvarint(uint64(pos - prev)) // delta ≥ 1
				prev = pos
			}
		}
	}
	if out.err != nil {
		return fmt.Errorf("store: writing snapshot: %w", out.err)
	}
	// Trailer: CRC over everything above, written outside the hash.
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], h.Sum32())
	if _, err := bw.Write(crc[:]); err != nil {
		return fmt.Errorf("store: writing snapshot: %w", err)
	}
	return bw.Flush()
}

// Read parses one snapshot, validating the magic, version, checksum,
// and structural invariants. The caller still owes a VerifyKey against
// the key it intends to use and a core.RestoreTable (which re-validates
// the cluster partition) before querying.
func Read(r io.Reader) (*Snapshot, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	h := crc32.New(crcTable)
	in := &sectionReader{r: io.TeeReader(br, h)}

	var magic [8]byte
	in.bytes(magic[:])
	if in.err != nil || magic != tableMagic {
		return nil, fmt.Errorf("%w: not a sknn table snapshot", ErrMagic)
	}
	version := in.u16()
	if in.err == nil && (version < minVersion || version > Version) {
		return nil, fmt.Errorf("%w: file is v%d, this build reads v%d–v%d", ErrVersion, version, minVersion, Version)
	}
	flags := in.u16()
	m := int(in.u32())
	featureM := int(in.u32())
	attrBits := int(in.u32())
	domainBits := int(in.u32())
	n64 := in.u64()
	nextID := in.u64()
	shardIndex, shardCount := 0, 0
	if version >= 2 && flags&flagSharded != 0 {
		shardIndex = int(in.u32())
		shardCount = int(in.u32())
	}
	if in.err != nil {
		return nil, in.fail("header")
	}
	if flags&flagSharded != 0 && (shardCount < 1 || shardIndex < 0 || shardIndex >= shardCount) {
		return nil, fmt.Errorf("%w: shard %d of %d", ErrFormat, shardIndex, shardCount)
	}
	const maxN, maxM = 1 << 40, 1 << 12
	if m < 1 || m > maxM || featureM < 1 || featureM > m {
		return nil, fmt.Errorf("%w: %d attributes, %d feature columns", ErrFormat, m, featureM)
	}
	if attrBits < 1 || attrBits > 64 || domainBits < 1 || domainBits > 512 {
		return nil, fmt.Errorf("%w: attrBits=%d domainBits=%d", ErrFormat, attrBits, domainBits)
	}
	if n64 < 1 || n64 > maxN {
		return nil, fmt.Errorf("%w: %d records", ErrFormat, n64)
	}
	n := int(n64)

	// 2^13 bytes = a 65536-bit modulus, far beyond any real key size.
	// The error check must precede the length check: a truncated uvarint
	// leaves a garbage partial value that must never reach make()
	// (found by FuzzSnapshotRead — the original ordering panicked with
	// "makeslice: len out of range" on crafted input).
	nLen := in.uvarint()
	if in.err != nil {
		return nil, in.fail("public key")
	}
	if nLen < 8 || nLen > 1<<13 {
		return nil, fmt.Errorf("%w: public modulus of %d bytes", ErrFormat, nLen)
	}
	nBytes := make([]byte, nLen)
	in.bytes(nBytes)
	var fp [32]byte
	in.bytes(fp[:])
	if in.err != nil {
		return nil, in.fail("public key")
	}
	// The fingerprint first: it costs a hash, the key's nonce kernel an
	// exponentiation.
	N := new(big.Int).SetBytes(nBytes)
	if fingerprint(N) != fp {
		return nil, fmt.Errorf("%w: embedded key fingerprint does not match embedded key", ErrFormat)
	}
	pk, err := paillier.NewPublicKey(N)
	if err != nil {
		return nil, fmt.Errorf("%w: implausible public modulus: %v", ErrFormat, err)
	}
	// Each ciphertext lives in (0, N²): cap the length prefix we will
	// allocate for.
	maxCT := len(nBytes)*2 + 1

	// Allocations below grow with the bytes actually read, never with
	// the header's claimed sizes alone: a crafted header declaring 2^40
	// records against a 100-byte file must fail with ErrTruncated after
	// kilobytes, not commit terabytes. preallocN caps every
	// n-proportional make; record/centroid rows append as ciphertexts
	// actually arrive.
	preallocN := minInt(n, 1<<12)
	tbl := &core.TableSnapshot{
		M:        m,
		FeatureM: featureM,
		AttrBits: attrBits,
		NextID:   nextID,
		IDs:      make([]uint64, 0, preallocN),
		Dead:     make([]bool, 0, preallocN),
	}
	bitmapLen := (n + 7) / 8
	bitmap := make([]byte, 0, minInt(bitmapLen, 1<<12))
	for read := 0; read < bitmapLen; {
		chunk := minInt(bitmapLen-read, 1<<12)
		bitmap = append(bitmap, make([]byte, chunk)...)
		in.bytes(bitmap[read : read+chunk])
		if in.err != nil {
			return nil, in.fail("tombstone bitmap")
		}
		read += chunk
	}
	for i := 0; i < n; i++ {
		tbl.Dead = append(tbl.Dead, bitmap[i/8]&(1<<(i%8)) != 0)
	}
	for i := 0; i < n; i++ {
		tbl.IDs = append(tbl.IDs, in.uvarint())
		if in.err != nil {
			return nil, in.fail("record ids")
		}
	}
	tbl.Records = make([]core.EncryptedRecord, 0, preallocN)
	for i := 0; i < n; i++ {
		rec := make(core.EncryptedRecord, 0, minInt(m, 64))
		for j := 0; j < m; j++ {
			ct, err := in.ciphertext(pk, maxCT)
			if err != nil {
				return nil, fmt.Errorf("record %d attribute %d: %w", i, j, err)
			}
			rec = append(rec, ct)
		}
		tbl.Records = append(tbl.Records, rec)
	}
	if flags&flagClustered != 0 {
		c := int(in.u32())
		if in.err != nil {
			return nil, in.fail("cluster count")
		}
		if c < 1 || c > n {
			return nil, fmt.Errorf("%w: %d clusters over %d records", ErrFormat, c, n)
		}
		preallocC := minInt(c, 1<<12)
		tbl.Centroids = make([]core.EncryptedRecord, 0, preallocC)
		for j := 0; j < c; j++ {
			cent := make(core.EncryptedRecord, 0, minInt(featureM, 64))
			for hh := 0; hh < featureM; hh++ {
				ct, err := in.ciphertext(pk, maxCT)
				if err != nil {
					return nil, fmt.Errorf("centroid %d attribute %d: %w", j, hh, err)
				}
				cent = append(cent, ct)
			}
			tbl.Centroids = append(tbl.Centroids, cent)
		}
		tbl.Members = make([][]int, 0, preallocC)
		for j := 0; j < c; j++ {
			count := in.uvarint()
			if in.err != nil {
				return nil, in.fail("membership list")
			}
			if count > uint64(n) {
				return nil, fmt.Errorf("%w: cluster %d claims %d members of %d records", ErrFormat, j, count, n)
			}
			mem := make([]int, 0, minInt(int(count), 1<<12))
			pos := -1
			for i := 0; i < int(count); i++ {
				delta := in.uvarint()
				if in.err != nil {
					return nil, in.fail("membership list")
				}
				if delta < 1 || delta > uint64(n) || pos+int(delta) >= n {
					return nil, fmt.Errorf("%w: cluster %d member delta %d out of range", ErrFormat, j, delta)
				}
				pos += int(delta)
				mem = append(mem, pos)
			}
			tbl.Members = append(tbl.Members, mem)
		}
	}
	if in.err != nil {
		return nil, in.fail("table body")
	}

	// Trailer: the stored CRC is read outside the hashing tee.
	want := h.Sum32()
	var crc [4]byte
	if _, err := io.ReadFull(br, crc[:]); err != nil {
		return nil, fmt.Errorf("%w: missing checksum trailer", ErrTruncated)
	}
	if binary.LittleEndian.Uint32(crc[:]) != want {
		return nil, ErrChecksum
	}
	return &Snapshot{
		PK: pk, DomainBits: domainBits,
		ShardIndex: shardIndex, ShardCount: shardCount, Table: tbl,
	}, nil
}

// Split partitions a whole-table snapshot into shards shard snapshots
// (record id mod shards — see core.TableSnapshot.Split), stamping each
// with its lineage. No re-encryption happens: ciphertexts are shared
// with the input. Splitting an already-split shard is rejected —
// re-Merge first, so lineage always describes one level of partition.
func Split(snap *Snapshot, shards int) ([]*Snapshot, error) {
	if snap.Sharded() {
		return nil, fmt.Errorf("%w: splitting shard %d of %d (Merge first)",
			ErrFormat, snap.ShardIndex, snap.ShardCount)
	}
	parts, err := snap.Table.Split(shards)
	if err != nil {
		return nil, err
	}
	out := make([]*Snapshot, len(parts))
	for i, p := range parts {
		out[i] = &Snapshot{
			PK: snap.PK, DomainBits: snap.DomainBits,
			ShardIndex: i, ShardCount: shards, Table: p,
		}
	}
	return out, nil
}

// Merge reassembles the shards of one partition — in any order — into a
// whole-table snapshot. It validates that the parts form exactly one
// partition (same count, indices 0..S−1 once each, one key, matching
// domain metadata) before handing the tables to
// core.MergeTableSnapshots.
func Merge(parts []*Snapshot) (*Snapshot, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("%w: merging zero shards", ErrFormat)
	}
	first := parts[0]
	if !first.Sharded() && len(parts) == 1 {
		return first, nil
	}
	fp := Fingerprint(first.PK)
	ordered := make([]*core.TableSnapshot, len(parts))
	for _, p := range parts {
		if p.ShardCount != len(parts) {
			return nil, fmt.Errorf("%w: shard says the partition has %d shards, got %d files",
				ErrFormat, p.ShardCount, len(parts))
		}
		if p.ShardIndex < 0 || p.ShardIndex >= len(parts) || ordered[p.ShardIndex] != nil {
			return nil, fmt.Errorf("%w: shard index %d duplicated or out of range", ErrFormat, p.ShardIndex)
		}
		if Fingerprint(p.PK) != fp {
			return nil, fmt.Errorf("%w: shard %d under a different key", ErrKeyMismatch, p.ShardIndex)
		}
		if p.DomainBits != first.DomainBits {
			return nil, fmt.Errorf("%w: shard %d domain metadata disagrees", ErrFormat, p.ShardIndex)
		}
		ordered[p.ShardIndex] = p.Table
	}
	tbl, err := core.MergeTableSnapshots(ordered)
	if err != nil {
		return nil, err
	}
	return &Snapshot{PK: first.PK, DomainBits: first.DomainBits, Table: tbl}, nil
}

// ShardPath is the conventional file name of shard i split from the
// snapshot at path: "<path>.s<i>". sknngen, sknnd split, and the CI
// smoke topology all agree on it.
func ShardPath(path string, i int) string { return fmt.Sprintf("%s.s%d", path, i) }

// SplitFile reads the whole-table snapshot at path, splits it into
// shards partitions, writes each to ShardPath(base, i), and returns
// the written paths — the one split-to-disk sequence sknngen -shards
// and sknnd split share.
func SplitFile(path, base string, shards int) ([]string, error) {
	snap, err := ReadFile(path)
	if err != nil {
		return nil, err
	}
	parts, err := Split(snap, shards)
	if err != nil {
		return nil, err
	}
	paths := make([]string, len(parts))
	for i, part := range parts {
		paths[i] = ShardPath(base, i)
		if err := WriteSnapshotFile(paths[i], part); err != nil {
			return nil, err
		}
	}
	return paths, nil
}

// WriteFile writes a snapshot to path (0644), fsync-free; callers that
// need durability order their own syncs.
func WriteFile(path string, pk *paillier.PublicKey, tbl *core.TableSnapshot, domainBits int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, pk, tbl, domainBits); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteSnapshotFile writes snap (shard lineage included) to path (0644).
func WriteSnapshotFile(path string, snap *Snapshot) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteSnapshot(f, snap); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile reads a snapshot from path.
func ReadFile(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// WriteKey serializes a private key with the same magic/version/CRC
// armor as table snapshots, so a truncated or swapped key file fails
// loudly instead of producing a key that cannot decrypt.
func WriteKey(w io.Writer, sk *paillier.PrivateKey) error {
	blob, err := sk.MarshalBinary()
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	h := crc32.New(crcTable)
	out := &sectionWriter{w: io.MultiWriter(&buf, h)}
	out.bytes(keyMagic[:])
	out.u16(Version)
	out.uvarint(uint64(len(blob)))
	out.bytes(blob)
	if out.err != nil {
		return out.err
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], h.Sum32())
	buf.Write(crc[:])
	_, err = w.Write(buf.Bytes())
	return err
}

// ReadKey parses a private-key file written by WriteKey.
func ReadKey(r io.Reader) (*paillier.PrivateKey, error) {
	br := bufio.NewReader(r)
	h := crc32.New(crcTable)
	in := &sectionReader{r: io.TeeReader(br, h)}
	var magic [8]byte
	in.bytes(magic[:])
	if in.err != nil || magic != keyMagic {
		return nil, fmt.Errorf("%w: not a sknn key file", ErrMagic)
	}
	version := in.u16()
	if in.err == nil && (version < minVersion || version > Version) {
		return nil, fmt.Errorf("%w: key file is v%d", ErrVersion, version)
	}
	blobLen := in.uvarint()
	if in.err != nil {
		return nil, in.fail("key blob")
	}
	if blobLen > 1<<20 {
		return nil, fmt.Errorf("%w: key blob of %d bytes", ErrFormat, blobLen)
	}
	blob := make([]byte, blobLen)
	in.bytes(blob)
	if in.err != nil {
		return nil, in.fail("key blob")
	}
	want := h.Sum32()
	var crc [4]byte
	if _, err := io.ReadFull(br, crc[:]); err != nil {
		return nil, fmt.Errorf("%w: missing checksum trailer", ErrTruncated)
	}
	if binary.LittleEndian.Uint32(crc[:]) != want {
		return nil, ErrChecksum
	}
	sk := new(paillier.PrivateKey)
	if err := sk.UnmarshalBinary(blob); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	return sk, nil
}

// WriteKeyFile writes the private key to path with 0600 permissions.
func WriteKeyFile(path string, sk *paillier.PrivateKey) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		return err
	}
	if err := WriteKey(f, sk); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadKeyFile reads a private key from path.
func ReadKeyFile(path string) (*paillier.PrivateKey, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadKey(f)
}

// sectionWriter batches little-endian primitives with sticky errors so
// the encoder body stays linear.
type sectionWriter struct {
	w   io.Writer
	err error
	buf [binary.MaxVarintLen64]byte
}

func (s *sectionWriter) bytes(b []byte) {
	if s.err != nil {
		return
	}
	_, s.err = s.w.Write(b)
}

func (s *sectionWriter) u16(v uint16) {
	binary.LittleEndian.PutUint16(s.buf[:2], v)
	s.bytes(s.buf[:2])
}

func (s *sectionWriter) u32(v uint32) {
	binary.LittleEndian.PutUint32(s.buf[:4], v)
	s.bytes(s.buf[:4])
}

func (s *sectionWriter) u64(v uint64) {
	binary.LittleEndian.PutUint64(s.buf[:8], v)
	s.bytes(s.buf[:8])
}

func (s *sectionWriter) uvarint(v uint64) {
	n := binary.PutUvarint(s.buf[:], v)
	s.bytes(s.buf[:n])
}

func (s *sectionWriter) bigInt(v *big.Int) {
	b := v.Bytes()
	s.uvarint(uint64(len(b)))
	s.bytes(b)
}

// sectionReader is the decoding mirror of sectionWriter: sticky errors,
// EOFs normalized to ErrTruncated.
type sectionReader struct {
	r   io.Reader
	err error
	buf [8]byte
}

func (s *sectionReader) bytes(b []byte) {
	if s.err != nil {
		return
	}
	if _, err := io.ReadFull(s.r, b); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			err = fmt.Errorf("%w: %v", ErrTruncated, err)
		}
		s.err = err
	}
}

func (s *sectionReader) u16() uint16 {
	s.bytes(s.buf[:2])
	return binary.LittleEndian.Uint16(s.buf[:2])
}

func (s *sectionReader) u32() uint32 {
	s.bytes(s.buf[:4])
	return binary.LittleEndian.Uint32(s.buf[:4])
}

func (s *sectionReader) u64() uint64 {
	s.bytes(s.buf[:8])
	return binary.LittleEndian.Uint64(s.buf[:8])
}

func (s *sectionReader) uvarint() uint64 {
	if s.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(byteReader{s})
	if err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			err = fmt.Errorf("%w: %v", ErrTruncated, err)
		}
		s.err = err
	}
	return v
}

// ciphertext reads one length-prefixed ciphertext, validating it against
// the public key's range.
func (s *sectionReader) ciphertext(pk *paillier.PublicKey, maxLen int) (*paillier.Ciphertext, error) {
	l := s.uvarint()
	if s.err != nil {
		return nil, s.err
	}
	if l == 0 || l > uint64(maxLen) {
		return nil, fmt.Errorf("%w: ciphertext of %d bytes", ErrFormat, l)
	}
	b := make([]byte, l)
	s.bytes(b)
	if s.err != nil {
		return nil, s.err
	}
	ct, err := pk.FromRaw(new(big.Int).SetBytes(b))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	return ct, nil
}

// fail wraps the sticky error with the section that was being parsed.
func (s *sectionReader) fail(section string) error {
	return fmt.Errorf("store: reading %s: %w", section, s.err)
}

// byteReader adapts sectionReader to io.ByteReader for ReadUvarint.
type byteReader struct{ s *sectionReader }

func (b byteReader) ReadByte() (byte, error) {
	var one [1]byte
	if _, err := io.ReadFull(b.s.r, one[:]); err != nil {
		return 0, err
	}
	return one[0], nil
}
