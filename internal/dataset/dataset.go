// Package dataset provides the data substrate for the SkNN evaluation:
// synthetic table generation with the paper's parameterization (number of
// records n, attributes m, attribute domain in bits), the UCI
// heart-disease sample of Table 1/2, CSV interchange, and the
// domain-size calculation that feeds SkNNm's bit-decomposition
// parameter l.
package dataset

import (
	"errors"
	"fmt"
	"math/bits"
	//sknnlint:allow cryptorand -- synthetic owner-side test data generated from a caller-chosen seed; not protocol randomness
	mrand "math/rand"
)

// MaxAttrBits bounds per-attribute domains so squared Euclidean
// distances stay well inside uint64 for the plaintext oracle
// (m·2^(2b) < 2^63 comfortably for realistic m). It is the one width
// bound of every table (Shape.Check).
const MaxAttrBits = 24

// MaxColumns is the one bound on a table's attribute count m (Shape.Check):
// the shape sizes every per-record allocation a snapshot reader, a shard
// coordinator, a tenant client and C2's packed SSED handler make, so each
// of them refuses a wider one before allocating.
const MaxColumns = 1 << 12

// Errors returned by this package.
var (
	ErrEmptyTable    = errors.New("dataset: empty table")
	ErrRagged        = errors.New("dataset: rows have differing attribute counts")
	ErrValueTooLarge = errors.New("dataset: attribute exceeds declared domain")
	ErrBadAttrBits   = errors.New("dataset: attribute domain bits out of range")
	ErrBadShape      = errors.New("dataset: table columns out of range")
	ErrDimension     = errors.New("dataset: query/record dimension mismatch")
)

// Shape is the public shape of an outsourced table, the one value every
// layer carries it in: M attributes per record, the first FeatureM of
// which distances run over (the rest ride along as payload), every
// column below 2^AttrBits. It fixes SkNNm's distance domain l
// (DomainBits), the packed slots of both protocols, and what a query
// must look like (CheckQuery).
type Shape struct {
	M        int // attributes per record
	FeatureM int // leading attributes that take part in distances
	AttrBits int // attribute width b: every column is below 2^b
}

// Check admits a shape made or read anywhere: 1 ≤ FeatureM ≤ M ≤
// MaxColumns (ErrBadShape) and 1 ≤ AttrBits ≤ MaxAttrBits
// (ErrBadAttrBits). Every table constructor, the snapshot writer and
// reader, the shard hello, the tenant welcome and C2's packed SSED
// handler call it, so a shape one of them would refuse is refused where
// it is made.
func (s Shape) Check() error {
	if s.M < 1 || s.M > MaxColumns || s.FeatureM < 1 || s.FeatureM > s.M {
		return fmt.Errorf("%w: %d feature columns of %d, want 1 ≤ featureM ≤ m ≤ %d",
			ErrBadShape, s.FeatureM, s.M, MaxColumns)
	}
	if s.AttrBits < 1 || s.AttrBits > MaxAttrBits {
		return fmt.Errorf("%w: %d outside [1,%d]", ErrBadAttrBits, s.AttrBits, MaxAttrBits)
	}
	return nil
}

// String renders the shape as "featureM/m columns of b-bit attributes".
func (s Shape) String() string {
	return fmt.Sprintf("%d/%d columns of %d-bit attributes", s.FeatureM, s.M, s.AttrBits)
}

// DomainBits is the table's l: DomainBits(AttrBits, FeatureM).
func (s Shape) DomainBits() int { return DomainBits(s.AttrBits, s.FeatureM) }

// CheckQuery admits Bob's query point before it is encrypted: FeatureM
// attributes (ErrDimension), and for SkNNm (secure) every attribute
// below 2^AttrBits (ErrValueTooLarge) — its comparators hold a squared
// distance below 2^l only inside the domain. SkNNb decrypts its
// distances and takes any uint64.
func (s Shape) CheckQuery(q []uint64, secure bool) error {
	if len(q) != s.FeatureM {
		return fmt.Errorf("%w: query has %d attributes, table has %d feature columns",
			ErrDimension, len(q), s.FeatureM)
	}
	if secure {
		for j, v := range q {
			if bits.Len64(v) > s.AttrBits {
				return fmt.Errorf("%w: query attribute %d value %d ≥ 2^%d", ErrValueTooLarge, j, v, s.AttrBits)
			}
		}
	}
	return nil
}

// Table is a plaintext relational table: n rows of m uint64 attributes,
// each attribute in [0, 2^AttrBits).
type Table struct {
	// Rows holds the records, row-major.
	Rows [][]uint64
	// AttrBits is the per-attribute domain size in bits (values are in
	// [0, 2^AttrBits)).
	AttrBits int
	// Names optionally labels the attributes (len M or nil).
	Names []string
}

// N returns the number of records.
func (t *Table) N() int { return len(t.Rows) }

// M returns the number of attributes (0 for an empty table).
func (t *Table) M() int {
	if len(t.Rows) == 0 {
		return 0
	}
	return len(t.Rows[0])
}

// Validate checks shape and domain bounds.
func (t *Table) Validate() error {
	if t.N() == 0 || t.M() == 0 {
		return ErrEmptyTable
	}
	if t.AttrBits < 1 || t.AttrBits > MaxAttrBits {
		return fmt.Errorf("%w: %d", ErrBadAttrBits, t.AttrBits)
	}
	limit := uint64(1) << t.AttrBits
	m := t.M()
	for i, row := range t.Rows {
		if len(row) != m {
			return fmt.Errorf("%w: row %d has %d, row 0 has %d", ErrRagged, i, len(row), m)
		}
		for j, v := range row {
			if v >= limit {
				return fmt.Errorf("%w: row %d attr %d value %d ≥ 2^%d",
					ErrValueTooLarge, i, j, v, t.AttrBits)
			}
		}
	}
	return nil
}

// DomainBits returns l for the table: the bit length of the largest
// possible squared Euclidean distance, m·(2^b−1)², which is what SkNNm's
// comparisons must accommodate.
func (t *Table) DomainBits() int {
	return DomainBits(t.AttrBits, t.M())
}

// DomainBits computes l = bitlen(m · (2^b − 1)²) for attribute domain b
// and dimension m: every squared distance between two in-domain vectors
// is below 2^l, and l is the least such width.
//
// The engine compares two distances a, b < 2^l by the top bit of
// t = 2^l + a − b, an (l+1)-bit value, so l needs no headroom: a
// distance may equal 2^l − 1 (b = 1, m = 3 reaches it). The paper's
// printed SkNNm does need one more bit — its step 3(e) drives a selected
// record's distance to the all-ones sentinel, which a real distance must
// stay below — and internal/reference adds it there, not here.
// The product is exact (three 64-bit words) for every b ≤ 64: a wrapped
// one would compare in too few bits.
func DomainBits(attrBits, m int) int {
	maxAttr := uint64(1)<<attrBits - 1
	sqHi, sqLo := bits.Mul64(maxAttr, maxAttr)
	carry, w0 := bits.Mul64(sqLo, uint64(m))
	w2, w1 := bits.Mul64(sqHi, uint64(m))
	w1, c := bits.Add64(w1, carry, 0)
	w2 += c
	switch {
	case w2 != 0:
		return 128 + bits.Len64(w2)
	case w1 != 0:
		return 64 + bits.Len64(w1)
	}
	return bits.Len64(w0)
}

// Generate produces a synthetic table with uniform attribute values, the
// dataset recipe of the paper's Section 5 ("we randomly generated
// synthetic datasets depending on the parameter values in
// consideration"). The generator is deterministic in seed so benchmark
// runs are reproducible.
func Generate(seed int64, n, m, attrBits int) (*Table, error) {
	if n <= 0 || m <= 0 {
		return nil, ErrEmptyTable
	}
	if attrBits < 1 || attrBits > MaxAttrBits {
		return nil, fmt.Errorf("%w: %d", ErrBadAttrBits, attrBits)
	}
	rng := mrand.New(mrand.NewSource(seed))
	limit := uint64(1) << attrBits
	rows := make([][]uint64, n)
	for i := range rows {
		row := make([]uint64, m)
		for j := range row {
			row[j] = uint64(rng.Int63n(int64(limit)))
		}
		rows[i] = row
	}
	return &Table{Rows: rows, AttrBits: attrBits}, nil
}

// GenerateClustered produces a synthetic table whose rows form
// `centers` Gaussian-ish blobs in the attribute domain — the workload a
// clustered secure index is built for (uniform data, Generate's output,
// is its adversarial counterpart). Each row is a blob center plus
// bounded noise, clamped to [0, 2^attrBits). Deterministic in seed.
func GenerateClustered(seed int64, n, m, attrBits, centers int) (*Table, error) {
	if n <= 0 || m <= 0 {
		return nil, ErrEmptyTable
	}
	if attrBits < 1 || attrBits > MaxAttrBits {
		return nil, fmt.Errorf("%w: %d", ErrBadAttrBits, attrBits)
	}
	if centers < 1 {
		return nil, fmt.Errorf("dataset: centers must be ≥ 1, got %d", centers)
	}
	rng := mrand.New(mrand.NewSource(seed))
	limit := int64(1) << attrBits
	// Spread of each blob: a small fraction of the domain so blobs stay
	// separated once the domain has a few bits to spare.
	spread := limit / 8
	if spread < 1 {
		spread = 1
	}
	cents := make([][]int64, centers)
	for c := range cents {
		cent := make([]int64, m)
		for j := range cent {
			cent[j] = rng.Int63n(limit)
		}
		cents[c] = cent
	}
	rows := make([][]uint64, n)
	for i := range rows {
		cent := cents[rng.Intn(centers)]
		row := make([]uint64, m)
		for j := range row {
			v := cent[j] + rng.Int63n(2*spread+1) - spread
			if v < 0 {
				v = 0
			}
			if v >= limit {
				v = limit - 1
			}
			row[j] = uint64(v)
		}
		rows[i] = row
	}
	return &Table{Rows: rows, AttrBits: attrBits}, nil
}

// GenerateQuery produces a uniform random query point in the table's
// attribute domain.
func GenerateQuery(seed int64, m, attrBits int) ([]uint64, error) {
	if m <= 0 {
		return nil, ErrEmptyTable
	}
	if attrBits < 1 || attrBits > MaxAttrBits {
		return nil, fmt.Errorf("%w: %d", ErrBadAttrBits, attrBits)
	}
	rng := mrand.New(mrand.NewSource(seed))
	limit := uint64(1) << attrBits
	q := make([]uint64, m)
	for j := range q {
		q[j] = uint64(rng.Int63n(int64(limit)))
	}
	return q, nil
}
