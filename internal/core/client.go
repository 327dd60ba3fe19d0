package core

import (
	"crypto/rand"
	"fmt"
	"io"
	"math/big"

	"sknn/internal/paillier"
)

// Client is Bob, the authorized query user. His entire workload is one
// attribute-wise encryption of the query and at most k·m modular
// subtractions to unmask the result — the "low computation overhead on the end-user"
// property the paper measures in Section 5.2 (milliseconds even at
// K = 1024).
type Client struct {
	pk     *paillier.PublicKey
	random io.Reader
}

// NewClient builds Bob's context. If random is nil, crypto/rand.Reader
// is used.
func NewClient(pk *paillier.PublicKey, random io.Reader) *Client {
	if random == nil {
		random = rand.Reader
	}
	return &Client{pk: pk, random: random}
}

// EncryptedQuery is E(Q) = ⟨E(q₁),…,E(q_m)⟩ as sent to C1.
type EncryptedQuery []*paillier.Ciphertext

// EncryptQuery encrypts Bob's query attribute-wise. Any uint64 is a valid
// attribute: a table's width bounds its columns, not the query (BasicQuery).
func (c *Client) EncryptQuery(q []uint64) (EncryptedQuery, error) {
	if len(q) == 0 {
		return nil, fmt.Errorf("core: empty query")
	}
	cts, err := c.pk.EncryptUint64Vector(c.random, q)
	if err != nil {
		return nil, fmt.Errorf("core: encrypting query: %w", err)
	}
	return EncryptedQuery(cts), nil
}

// RowLayout says how a record's m columns ride ciphertexts from a shard's
// scan — SkNNm's extraction, SkNNb's selection — through the merge and the
// reveal to Bob: Cols columns per ciphertext, slot-packed Bits apart with
// the lowest column in the lowest slot (paillier.NewRowPacking), the last
// chunk holding what is left. Cols = 1 is the per-attribute form, one
// ciphertext per column: what either protocol uses when the key is too
// small to pack two columns.
type RowLayout struct {
	Cols int // columns per chunk, ≥ 1
	Bits int // slot width: every column value is below 2^Bits
}

// Chunks is how many ciphertexts carry a record of m columns.
func (l RowLayout) Chunks(m int) int { return (m + l.Cols - 1) / l.Cols }

// codec vets that l can describe records of m columns under pk and
// returns the slot codec that splits one chunk — nil for the
// per-attribute layout, whose chunks are single values.
func (l RowLayout) codec(pk *paillier.PublicKey, m int) (*paillier.Packing, error) {
	if l.Cols < 1 || l.Cols > m || l.Bits < 0 {
		return nil, fmt.Errorf("%w: %d columns of %d bits per chunk for %d-column records", ErrBadFrame, l.Cols, l.Bits, m)
	}
	if l.Cols == 1 {
		return nil, nil
	}
	codec, err := paillier.NewRowPacking(pk, l.Bits, l.Cols)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	return codec, nil
}

// MaskedResult is what reaches Bob at the end of either protocol: for
// each of the k nearest records and each chunk g of its Layout, the
// additive mask r_{j,g} chosen by C1 and the decrypted masked value
// γ′_{j,g} = P_{j,g} + r_{j,g} mod N produced by C2, where P_{j,g} packs
// the chunk's columns (a single attribute t′_{j,h} in the per-attribute
// layout). Either share alone is uniformly random.
type MaskedResult struct {
	K, M   int
	Layout RowLayout
	Masks  [][]*big.Int // from C1: r_{j,g}
	Masked [][]*big.Int // from C2: γ′_{j,g}
	n      *big.Int     // modulus for unmasking
	// IDs holds the stable record ids of the k results, in result
	// order. Populated by SkNNb paths only: that protocol already
	// reveals data access patterns to both clouds, so naming the rows
	// for Bob adds no leakage. SkNNm leaves it nil by design — hiding
	// which records answered the query is the property it pays for.
	IDs []uint64
}

// RestoreMaskedResult rebuilds a per-attribute MaskedResult (k×m shares)
// from its transported shares; see RestoreMaskedRows.
func RestoreMaskedResult(pk *paillier.PublicKey, k, m int, masks, masked [][]*big.Int, ids []uint64) (*MaskedResult, error) {
	return RestoreMaskedRows(pk, k, m, RowLayout{Cols: 1}, masks, masked, ids)
}

// RestoreMaskedRows rebuilds a MaskedResult from its transported
// shares — used by serving tiers that relay the masked shares to Bob
// over their own wire protocol (the shares are uniformly random alone,
// so relaying them leaks nothing the reveal step didn't already grant
// Bob). The unmasking modulus is the public key's N; Unmask re-checks
// the per-record share count, so this only pins the outer shape and that
// the layout fits the table shape and the key.
func RestoreMaskedRows(pk *paillier.PublicKey, k, m int, layout RowLayout, masks, masked [][]*big.Int, ids []uint64) (*MaskedResult, error) {
	if k < 1 || m < 1 || len(masks) != k || len(masked) != k {
		return nil, fmt.Errorf("%w: masked result shape %d×%d with %d/%d share rows",
			ErrBadFrame, k, m, len(masks), len(masked))
	}
	if _, err := layout.codec(pk, m); err != nil {
		return nil, err
	}
	if ids != nil && len(ids) != k {
		return nil, fmt.Errorf("%w: %d ids for %d results", ErrBadFrame, len(ids), k)
	}
	return &MaskedResult{K: k, M: m, Layout: layout, Masks: masks, Masked: masked, n: pk.N, IDs: ids}, nil
}

// Unmask recovers the k nearest records: P_{j,g} = γ′_{j,g} − r_{j,g}
// mod N (step 6 of Algorithm 5), split into its columns where the
// layout packs several per share. A result whose layout does not fit
// the record shape, or whose unmasked share has bits beyond its slots,
// is ErrBadFrame; the recovered attributes must fit uint64.
func (c *Client) Unmask(res *MaskedResult) ([][]uint64, error) {
	if res == nil || res.M < 1 || len(res.Masks) != res.K || len(res.Masked) != res.K {
		return nil, fmt.Errorf("%w: inconsistent masked result", ErrBadFrame)
	}
	codec, err := res.Layout.codec(c.pk, res.M)
	if err != nil {
		return nil, err
	}
	cols, chunks := res.Layout.Cols, res.Layout.Chunks(res.M)
	out := make([][]uint64, res.K)
	for j := 0; j < res.K; j++ {
		if len(res.Masks[j]) != chunks || len(res.Masked[j]) != chunks {
			return nil, fmt.Errorf("%w: record %d has %d/%d shares, want %d",
				ErrBadFrame, j, len(res.Masks[j]), len(res.Masked[j]), chunks)
		}
		row := make([]uint64, 0, res.M)
		for g := 0; g < chunks; g++ {
			v := new(big.Int).Sub(res.Masked[j][g], res.Masks[j][g])
			v.Mod(v, res.n)
			vals := []*big.Int{v}
			if codec != nil {
				if vals, err = codec.Unpack(v, min(cols, res.M-g*cols)); err != nil {
					return nil, fmt.Errorf("%w: record %d share %d: %v", ErrBadFrame, j, g, err)
				}
			}
			for _, a := range vals {
				if !a.IsUint64() {
					return nil, fmt.Errorf("core: unmasked attribute (%d,%d) overflows uint64", j, len(row))
				}
				row = append(row, a.Uint64())
			}
		}
		out[j] = row
	}
	return out, nil
}
