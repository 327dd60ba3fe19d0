package paillier

import (
	"errors"
	"fmt"
	"io"
	"math/big"
)

// Packing is a plaintext-slot codec: it lays s = Slots values of at most
// ValueBits bits each into one Paillier plaintext, each in its own
// Width-bit slot, so a vector of n small values rides ⌈n/s⌉ ciphertexts
// instead of n. Slot j occupies bits [j·Width, (j+1)·Width), and the
// Headroom = Width − ValueBits spare bits per slot absorb the additive
// blinds (σ = 64 bits of statistical hiding) and carries the protocols
// add on top of the payload, so slotwise homomorphic addition and
// subtraction-with-offset never borrow across slot boundaries.
//
// The protocols keep all slot values non-negative and below 2^Width, and
// s·Width ≤ Bits(N) − 2, so a packed plaintext never wraps mod N: the
// integer and mod-N views coincide, which is what makes per-slot
// arithmetic on the single big integer exact.
//
// NewRowPacking builds the headroom-free variant (Width = ValueBits) for
// values that are moved but never computed on in their slots.
//
// A Packing is immutable and safe for concurrent use.
type Packing struct {
	pk *PublicKey
	SlotLayout

	mask *big.Int // 2^Width − 1
}

// SlotLayout is a codec's geometry, which the key's size alone decides:
// what NewPacking packs under a key and what a cost model counts without
// one (LayoutFor).
type SlotLayout struct {
	// ValueBits is the maximum payload width of one slot.
	ValueBits int
	// Width is the slot stride: ValueBits + Headroom (ValueBits alone
	// for a NewRowPacking codec).
	Width int
	// Slots is how many slots one plaintext carries: (Bits(N)−2) / Width,
	// or the row length a NewRowPacking codec was built for.
	Slots int
}

// Groups reports how many packed plaintexts carry n values.
func (s SlotLayout) Groups(n int) int { return (n + s.Slots - 1) / s.Slots }

// PackHeadroom is the per-slot spare capacity: σ = 64 bits of statistical
// blinding plus 2 carry bits for the sums the protocols form in a slot.
const PackHeadroom = 66

// Packing construction and decoding errors. Decoding returns errors, not
// panics — frames from the peer flow through Unpack.
var (
	ErrPackWidth = errors.New("paillier: packing slot width out of range")
	ErrPackCount = errors.New("paillier: packed value count out of range")
	ErrPackRange = errors.New("paillier: packed slot value out of range")
)

// maxPackValueBits bounds ValueBits: the widest slot any protocol needs
// is the squared-distance domain (≤ 512 bits, see core's domain checks).
const maxPackValueBits = 512

// NewPacking builds the codec for payloads of at most valueBits bits
// under pk: LayoutFor(pk.Bits(), valueBits). Fails when even one slot
// does not fit the plaintext space (tiny test keys); callers fall back to
// the unpacked path.
func NewPacking(pk *PublicKey, valueBits int) (*Packing, error) {
	layout, err := LayoutFor(pk.Bits(), valueBits)
	if err != nil {
		return nil, err
	}
	return newPacking(pk, layout), nil
}

// LayoutFor is the geometry NewPacking gives payloads of at most
// valueBits bits under a keyBits-bit key.
func LayoutFor(keyBits, valueBits int) (SlotLayout, error) {
	if valueBits < 1 || valueBits > maxPackValueBits {
		return SlotLayout{}, fmt.Errorf("%w: %d value bits", ErrPackWidth, valueBits)
	}
	width := valueBits + PackHeadroom
	slots := (keyBits - 2) / width
	if slots < 1 {
		return SlotLayout{}, fmt.Errorf("%w: %d-bit slots in a %d-bit plaintext", ErrPackWidth, width, keyBits)
	}
	return SlotLayout{ValueBits: valueBits, Width: width, Slots: slots}, nil
}

// NewRowPacking builds a headroom-free codec of exactly slots slots,
// each valueBits wide, laid edge to edge. It is for values that are only
// moved under encryption, never computed on slotwise: a record's columns
// packed this way survive the one-hot selector sum Σᵢ Vᵢ·Pᵢ and a
// full-range additive mask (removed mod N before Unpack) bit for bit, so
// no slot needs spare capacity. Fails when the row does not fit the
// plaintext space.
func NewRowPacking(pk *PublicKey, valueBits, slots int) (*Packing, error) {
	if valueBits < 1 || valueBits > maxPackValueBits || slots < 1 || slots > (pk.Bits()-2)/valueBits {
		return nil, fmt.Errorf("%w: %d slots of %d bits in a %d-bit plaintext",
			ErrPackWidth, slots, valueBits, pk.Bits())
	}
	return newPacking(pk, SlotLayout{ValueBits: valueBits, Width: valueBits, Slots: slots}), nil
}

func newPacking(pk *PublicKey, layout SlotLayout) *Packing {
	mask := new(big.Int).Lsh(one, uint(layout.Width))
	mask.Sub(mask, one)
	return &Packing{pk: pk, SlotLayout: layout, mask: mask}
}

// Pack lays up to Slots values into one plaintext. Each value must be in
// [0, 2^Width) — payloads plus whatever blind/offset the caller already
// added; the full slot range is legal so blinded values fit.
func (p *Packing) Pack(vals []*big.Int) (*big.Int, error) {
	if len(vals) < 1 || len(vals) > p.Slots {
		return nil, fmt.Errorf("%w: %d values into %d slots", ErrPackCount, len(vals), p.Slots)
	}
	out := new(big.Int)
	for j, v := range vals {
		if v == nil || v.Sign() < 0 || v.BitLen() > p.Width {
			return nil, fmt.Errorf("%w: slot %d", ErrPackRange, j)
		}
		out.Or(out, new(big.Int).Lsh(v, uint(j*p.Width)))
	}
	return out, nil
}

// Unpack splits a packed plaintext back into count slot values. It
// validates that v carries no bits beyond the count slots — a packed
// value from an honest computation never does, so trailing garbage means
// a corrupt or adversarial frame.
func (p *Packing) Unpack(v *big.Int, count int) ([]*big.Int, error) {
	if count < 1 || count > p.Slots {
		return nil, fmt.Errorf("%w: %d of %d slots", ErrPackCount, count, p.Slots)
	}
	if v == nil || v.Sign() < 0 || v.BitLen() > count*p.Width {
		return nil, fmt.Errorf("%w: packed value exceeds %d slots", ErrPackRange, count)
	}
	out := make([]*big.Int, count)
	rest := new(big.Int).Set(v)
	for j := 0; j < count; j++ {
		out[j] = new(big.Int).And(rest, p.mask)
		rest.Rsh(rest, uint(p.Width))
	}
	return out, nil
}

// PackEncrypt packs one group of values and encrypts it.
func (p *Packing) PackEncrypt(random io.Reader, vals []*big.Int) (*Ciphertext, error) {
	m, err := p.Pack(vals)
	if err != nil {
		return nil, err
	}
	return p.pk.Encrypt(random, m)
}

// UnpackDecrypt decrypts one group ciphertext and splits it into count
// slot values. The group's plaintext has at most count·Width bits, so a
// short group decrypts under the smaller prime factor alone
// (DecryptBelow), and Unpack's range check refuses a forged one. C2's
// handlers do the same in two steps, DecryptBelow through their
// responder's one door (smc.Responder.Decrypt) and Unpack after it;
// this one-call form serves the tests and benchmarks.
func (p *Packing) UnpackDecrypt(sk *PrivateKey, ct *Ciphertext, count int) ([]*big.Int, error) {
	m, err := sk.DecryptBelow(ct, count*p.Width)
	if err != nil {
		return nil, err
	}
	return p.Unpack(m, count)
}

// PackCiphertexts folds up to Slots individual ciphertexts into one
// packed ciphertext: E(Σ xⱼ·2^(j·Width)) = Π E(xⱼ)^(2^(j·Width)), the
// Horner fold ((E(x_{s−1})^(2^W)·E(x_{s−2}))^(2^W)·…)·E(x₀) as one
// multi-exponentiation (multiexp.go) whose power-of-two exponents share
// a single squaring chain. Cost is (len−1)·Width squarings and a product
// per slot, so callers pack where the result is reused (cached table
// rows, the bit peel's remainders living across its rounds). Slot
// values must be below 2^Width for the layout to hold — the caller's
// invariant, untestable under encryption.
func (p *Packing) PackCiphertexts(cts []*Ciphertext) (*Ciphertext, error) {
	if len(cts) < 1 || len(cts) > p.Slots {
		return nil, fmt.Errorf("%w: %d ciphertexts into %d slots", ErrPackCount, len(cts), p.Slots)
	}
	bases, exps := make([]*big.Int, len(cts)), make([]*big.Int, len(cts))
	for j, ct := range cts {
		bases[j], exps[j] = ct.c, new(big.Int).Lsh(one, uint(j*p.Width))
	}
	return &Ciphertext{c: p.pk.n2.multiExp(bases, exps)}, nil
}

// AddPacked adds the plaintext group vals (slotwise) into the packed
// ciphertext: one AddPlain on the packed constant. The caller guarantees
// each resulting slot stays below 2^Width.
func (p *Packing) AddPacked(ct *Ciphertext, vals []*big.Int) (*Ciphertext, error) {
	m, err := p.Pack(vals)
	if err != nil {
		return nil, err
	}
	return p.pk.AddPlain(ct, m), nil
}
