// Package store is the persistence layer for outsourced tables: a
// versioned binary snapshot format that serializes a core.EncryptedTable
// — ciphertext matrix, attached cluster index (encrypted centroids +
// membership lists), tombstones and stable record ids, the attribute
// width and feature columns that l derives from, and the public key
// (with its SHA-256 fingerprint as the wrong-key check value) — plus the private-key file the data owner and
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
	"math"
	"math/big"
	"os"

	"sknn/internal/core"
	"sknn/internal/dataset"
	"sknn/internal/paillier"
)

// Version is the current format version of snapshots and key files.
// Readers reject files from a newer format instead of guessing. v2 added
// the shard-lineage header fields (present only when flagSharded is
// set), so v1 files — which never carry the flag — read under the same
// decoder. (The v2 decoder also tightened the sanity caps on claimed
// attribute count and modulus size to 2^12 attributes / 2^13 modulus
// bytes; files this engine actually writes sit orders of magnitude below
// both, but a v1 file hand-crafted beyond them now fails ErrFormat
// instead of parsing.) v3 writes no l in the snapshot header, since
// dataset.DomainBits derives it from the shape; a v1 or v2 header's l is
// checked against the formula those versions wrote, one bit more. A v3
// key file stores p and q as length-prefixed integers where v1 and v2
// stored a gob blob, which still reads.
const Version = 3

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

// flag bits of the header.
const (
	flagClustered = 1 << 0
	flagSharded   = 1 << 1 // v2+: header carries shard lineage
)

// Snapshot is one parsed table file: the public key it is encrypted
// under and the full table state ready for core.RestoreTable — including
// the table shape the header records, which lives on Table.Shape and
// nowhere else. l is no field here, and a v3 header carries none: it is
// Table.Shape.DomainBits(). A shard
// snapshot (written by Split) additionally records
// its partition lineage: this file holds the records with stable id ≡
// ShardIndex mod ShardCount. ShardCount 0 means an unsharded
// (whole-table) snapshot.
type Snapshot struct {
	PK         *paillier.PublicKey
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
// Version.
func Write(w io.Writer, pk *paillier.PublicKey, tbl *core.TableSnapshot) error {
	return WriteSnapshot(w, &Snapshot{PK: pk, Table: tbl})
}

// WriteSnapshot serializes snap — including its shard lineage, when it
// is one shard of a partition — in snapshot format Version. Its shape
// must be one a table admits (dataset.Shape.Check), so that Read takes
// back whatever WriteSnapshot writes.
func WriteSnapshot(w io.Writer, snap *Snapshot) error {
	if snap == nil {
		return fmt.Errorf("%w: nil snapshot", ErrFormat)
	}
	pk, tbl := snap.PK, snap.Table
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
	shape := tbl.Shape
	if err := shape.Check(); err != nil {
		return fmt.Errorf("%w: %w", ErrFormat, err)
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
	out.u32(uint32(shape.M))
	out.u32(uint32(shape.FeatureM))
	out.u32(uint32(shape.AttrBits))
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
		if len(rec) != shape.M {
			return fmt.Errorf("%w: record %d has %d attributes, want %d", ErrFormat, i, len(rec), shape.M)
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
			if len(cent) != shape.FeatureM {
				return fmt.Errorf("%w: centroid %d has %d attributes, want %d",
					ErrFormat, j, len(cent), shape.FeatureM)
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

// Read parses one snapshot of any version from minVersion to Version,
// validating the magic, version, checksum, structural invariants, the
// header's domain metadata, and that its key carries its l
// (core.ErrDomainBits). The caller still owes a VerifyKey
// against the key it intends to use and a core.RestoreTable (which
// re-validates the cluster partition) before querying.
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
	shape := dataset.Shape{M: int(in.u32()), FeatureM: int(in.u32()), AttrBits: int(in.u32())}
	headerL := 0
	if version < 3 {
		headerL = int(in.u32())
	}
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
	// The engine's own header invariants: the shape is one a table
	// admits, and a v1 or v2 header's l is what those versions derived
	// from the shape — the engine's l plus the headroom bit they kept for
	// the paper's step 3(e) sentinel. A file that breaks either was not
	// written by this engine.
	if err := shape.Check(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrFormat, err)
	}
	l := shape.DomainBits()
	if version < 3 && headerL != l+1 {
		return nil, fmt.Errorf("%w: v%d domain size l=%d inconsistent with shape %v (want %d)",
			ErrFormat, version, headerL, shape, l+1)
	}
	// maxN exceeds a 32-bit int: there the cap is math.MaxInt, so the
	// conversion below never wraps.
	const maxN = 1 << 40
	if n64 < 1 || n64 > min(maxN, math.MaxInt) {
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
	if err := core.CheckDomainBits(pk, l); err != nil {
		return nil, fmt.Errorf("store: %w", err)
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
	preallocN := min(n, 1<<12)
	tbl := &core.TableSnapshot{
		Shape:  shape,
		NextID: nextID,
		IDs:    make([]uint64, 0, preallocN),
		Dead:   make([]bool, 0, preallocN),
	}
	bitmapLen := (n + 7) / 8
	bitmap := make([]byte, 0, min(bitmapLen, 1<<12))
	for read := 0; read < bitmapLen; {
		chunk := min(bitmapLen-read, 1<<12)
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
		rec := make(core.EncryptedRecord, 0, min(shape.M, 64))
		for j := 0; j < shape.M; j++ {
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
		preallocC := min(c, 1<<12)
		tbl.Centroids = make([]core.EncryptedRecord, 0, preallocC)
		for j := 0; j < c; j++ {
			cent := make(core.EncryptedRecord, 0, min(shape.FeatureM, 64))
			for hh := 0; hh < shape.FeatureM; hh++ {
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
			mem := make([]int, 0, min(int(count), 1<<12))
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
		PK: pk, ShardIndex: shardIndex, ShardCount: shardCount, Table: tbl,
	}, nil
}

// Split partitions a whole-table snapshot into shards shard snapshots
// (record id mod shards — see core.TableSnapshot.Split), stamping each
// with its lineage. No re-encryption happens: ciphertexts are shared
// with the input. Splitting an already-split shard is rejected, so
// lineage always describes one level of partition.
func Split(snap *Snapshot, shards int) ([]*Snapshot, error) {
	if snap.Sharded() {
		return nil, fmt.Errorf("%w: splitting shard %d of %d",
			ErrFormat, snap.ShardIndex, snap.ShardCount)
	}
	parts, err := snap.Table.Split(shards)
	if err != nil {
		return nil, err
	}
	out := make([]*Snapshot, len(parts))
	for i, p := range parts {
		out[i] = &Snapshot{
			PK: snap.PK, ShardIndex: i, ShardCount: shards, Table: p,
		}
	}
	return out, nil
}

// ShardPath is the conventional file name of shard i split from the
// snapshot at path: "<path>.s<i>". sknnd split and the CI smoke
// topology agree on it.
func ShardPath(path string, i int) string { return fmt.Sprintf("%s.s%d", path, i) }

// SplitFile reads the whole-table snapshot at path, splits it into
// shards partitions, writes each to ShardPath(base, i), and returns
// the written paths — the split-to-disk sequence behind sknnd split.
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
func WriteFile(path string, pk *paillier.PublicKey, tbl *core.TableSnapshot) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, pk, tbl); err != nil {
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
// loudly instead of producing a key that cannot decrypt. Only p and q are
// stored, each as a length-prefixed big-endian integer; everything else
// is derived on load.
func WriteKey(w io.Writer, sk *paillier.PrivateKey) error {
	p, q := sk.Factors()
	var buf bytes.Buffer
	h := crc32.New(crcTable)
	out := &sectionWriter{w: io.MultiWriter(&buf, h)}
	out.bytes(keyMagic[:])
	out.u16(Version)
	out.bigInt(p)
	out.bigInt(q)
	if out.err != nil {
		return out.err
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], h.Sum32())
	buf.Write(crc[:])
	_, err := w.Write(buf.Bytes())
	return err
}

// maxFactorBytes caps a key file's p and q at half of snapshot's
// 2^13-byte modulus cap, plus one.
const maxFactorBytes = 1<<12 + 1

// ReadKey parses a private-key file written by WriteKey, of this version
// or a v1/v2 one, whose factors are in a gob blob (gobKeyFactors). The
// factors pass paillier.NewPrivateKey's checks or the file is ErrFormat.
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
	var p, q *big.Int
	var blob []byte // v1/v2: the gob blob, parsed once the checksum holds
	if version < 3 {
		blobLen := in.uvarint()
		if in.err != nil {
			return nil, in.fail("key blob")
		}
		if blobLen > 1<<20 {
			return nil, fmt.Errorf("%w: key blob of %d bytes", ErrFormat, blobLen)
		}
		blob = make([]byte, blobLen)
		in.bytes(blob)
		if in.err != nil {
			return nil, in.fail("key blob")
		}
	} else {
		p, q = in.bigInt(maxFactorBytes), in.bigInt(maxFactorBytes)
		if in.err != nil {
			return nil, in.fail("key factors")
		}
	}
	want := h.Sum32()
	var crc [4]byte
	if _, err := io.ReadFull(br, crc[:]); err != nil {
		return nil, fmt.Errorf("%w: missing checksum trailer", ErrTruncated)
	}
	if binary.LittleEndian.Uint32(crc[:]) != want {
		return nil, ErrChecksum
	}
	if version < 3 {
		var err error
		if p, q, err = gobKeyFactors(blob); err != nil {
			return nil, err
		}
	}
	sk, err := paillier.NewPrivateKey(p, q)
	if err != nil {
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

// bigInt reads one length-prefixed non-negative integer of at most
// maxLen bytes, sectionWriter.bigInt's encoding.
func (s *sectionReader) bigInt(maxLen int) *big.Int {
	l := s.uvarint()
	if s.err == nil && l > uint64(maxLen) {
		s.err = fmt.Errorf("%w: integer of %d bytes", ErrFormat, l)
	}
	if s.err != nil {
		return nil
	}
	b := make([]byte, l)
	s.bytes(b)
	return new(big.Int).SetBytes(b)
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
