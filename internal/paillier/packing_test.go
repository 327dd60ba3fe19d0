package paillier

import (
	"crypto/rand"
	"errors"
	"math/big"
	"testing"
)

// packCodec builds a codec over the shared test key, failing the test if
// even one slot does not fit (cannot happen at 256-bit keys for the
// widths used here).
func packCodec(t testing.TB, valueBits int) (*Packing, *PrivateKey) {
	t.Helper()
	sk := testKey()
	codec, err := NewPacking(&sk.PublicKey, valueBits)
	if err != nil {
		t.Fatalf("NewPacking(%d): %v", valueBits, err)
	}
	return codec, sk
}

func TestNewPackingBounds(t *testing.T) {
	sk := testKey()
	for _, vb := range []int{0, -1, maxPackValueBits + 1} {
		if _, err := NewPacking(&sk.PublicKey, vb); !errors.Is(err, ErrPackWidth) {
			t.Errorf("NewPacking(%d) error = %v, want ErrPackWidth", vb, err)
		}
	}
	// A key too small for even one slot must refuse, not build a
	// zero-slot codec.
	tiny := NewPrivateKeyFromPrimes(big.NewInt(13), big.NewInt(17))
	if _, err := NewPacking(&tiny.PublicKey, 8); !errors.Is(err, ErrPackWidth) {
		t.Errorf("tiny-key NewPacking error = %v, want ErrPackWidth", err)
	}
	codec, _ := packCodec(t, 8)
	if codec.Width != 8+PackHeadroom {
		t.Errorf("Width = %d, want %d", codec.Width, 8+PackHeadroom)
	}
	if want := (sk.Bits() - 2) / codec.Width; codec.Slots != want {
		t.Errorf("Slots = %d, want %d", codec.Slots, want)
	}
}

// TestPackUnpackRoundTripBoundaries round-trips the extreme slot values:
// zeros, the full 2^Width−1 (payload plus maximal blind), and a full
// complement of Slots values.
func TestPackUnpackRoundTripBoundaries(t *testing.T) {
	codec, _ := packCodec(t, 8)
	maxSlot := new(big.Int).Lsh(big.NewInt(1), uint(codec.Width))
	maxSlot.Sub(maxSlot, big.NewInt(1))
	cases := [][]*big.Int{
		{big.NewInt(0)},
		{maxSlot},
		{big.NewInt(0), maxSlot, big.NewInt(1)},
	}
	full := make([]*big.Int, codec.Slots)
	for j := range full {
		full[j] = new(big.Int).Set(maxSlot)
	}
	cases = append(cases, full)
	for _, vals := range cases {
		packed, err := codec.Pack(vals)
		if err != nil {
			t.Fatalf("Pack(%d values): %v", len(vals), err)
		}
		got, err := codec.Unpack(packed, len(vals))
		if err != nil {
			t.Fatalf("Unpack: %v", err)
		}
		for j := range vals {
			if got[j].Cmp(vals[j]) != 0 {
				t.Errorf("slot %d: got %v, want %v", j, got[j], vals[j])
			}
		}
	}
}

func TestPackRejectsOutOfRange(t *testing.T) {
	codec, _ := packCodec(t, 8)
	over := new(big.Int).Lsh(big.NewInt(1), uint(codec.Width)) // 2^Width
	if _, err := codec.Pack([]*big.Int{over}); !errors.Is(err, ErrPackRange) {
		t.Errorf("overflowing slot error = %v, want ErrPackRange", err)
	}
	if _, err := codec.Pack([]*big.Int{big.NewInt(-1)}); !errors.Is(err, ErrPackRange) {
		t.Errorf("negative slot error = %v, want ErrPackRange", err)
	}
	if _, err := codec.Pack([]*big.Int{nil}); !errors.Is(err, ErrPackRange) {
		t.Errorf("nil slot error = %v, want ErrPackRange", err)
	}
	if _, err := codec.Pack(nil); !errors.Is(err, ErrPackCount) {
		t.Errorf("empty pack error = %v, want ErrPackCount", err)
	}
	tooMany := make([]*big.Int, codec.Slots+1)
	for j := range tooMany {
		tooMany[j] = big.NewInt(1)
	}
	if _, err := codec.Pack(tooMany); !errors.Is(err, ErrPackCount) {
		t.Errorf("Slots+1 pack error = %v, want ErrPackCount", err)
	}
}

func TestUnpackRejectsGarbage(t *testing.T) {
	codec, _ := packCodec(t, 8)
	// One bit beyond the claimed slot count is trailing garbage.
	over := new(big.Int).Lsh(big.NewInt(1), uint(codec.Width))
	if _, err := codec.Unpack(over, 1); !errors.Is(err, ErrPackRange) {
		t.Errorf("trailing-bits error = %v, want ErrPackRange", err)
	}
	if _, err := codec.Unpack(nil, 1); !errors.Is(err, ErrPackRange) {
		t.Errorf("nil value error = %v, want ErrPackRange", err)
	}
	if _, err := codec.Unpack(big.NewInt(-5), 1); !errors.Is(err, ErrPackRange) {
		t.Errorf("negative value error = %v, want ErrPackRange", err)
	}
	if _, err := codec.Unpack(big.NewInt(0), 0); !errors.Is(err, ErrPackCount) {
		t.Errorf("count=0 error = %v, want ErrPackCount", err)
	}
	if _, err := codec.Unpack(big.NewInt(0), codec.Slots+1); !errors.Is(err, ErrPackCount) {
		t.Errorf("count=Slots+1 error = %v, want ErrPackCount", err)
	}
}

// TestPackCiphertextsMatchesPackEncrypt: the Horner fold over individual
// ciphertexts must land on the same plaintext layout as packing first
// and encrypting once, and be the group element a Horner fold on
// big.Int.Exp gives, for 1 to Slots slots — at K = 256 (N² of 8 limbs)
// and at K = 512 (16), a row codec of 64 one-bit slots included.
func TestPackCiphertextsMatchesPackEncrypt(t *testing.T) {
	codec, sk := packCodec(t, 8)
	sk512, err := GenerateKey(rand.Reader, 512)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := NewPacking(&sk512.PublicKey, 12)
	if err != nil {
		t.Fatal(err)
	}
	row, err := NewRowPacking(&sk512.PublicKey, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		codec *Packing
		sk    *PrivateKey
	}{{codec, sk}, {wide, sk512}, {row, sk512}} {
		for count := 1; count <= c.codec.Slots; count++ {
			checkPackCiphertexts(t, c.codec, c.sk, count)
		}
	}
	if _, err := codec.PackCiphertexts(make([]*Ciphertext, codec.Slots+1)); !errors.Is(err, ErrPackCount) {
		t.Errorf("overfull fold error = %v, want ErrPackCount", err)
	}
	vals := []*big.Int{big.NewInt(200), big.NewInt(0), big.NewInt(255)}
	cts := make([]*Ciphertext, len(vals))
	for j, v := range vals {
		ct, err := sk.Encrypt(rand.Reader, v)
		if err != nil {
			t.Fatal(err)
		}
		cts[j] = ct
	}
	folded, err := codec.PackCiphertexts(cts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := codec.UnpackDecrypt(sk, folded, len(vals))
	if err != nil {
		t.Fatal(err)
	}
	for j := range vals {
		if got[j].Cmp(vals[j]) != 0 {
			t.Errorf("slot %d: got %v, want %v", j, got[j], vals[j])
		}
	}
	if _, err := codec.PackCiphertexts(nil); !errors.Is(err, ErrPackCount) {
		t.Errorf("empty fold error = %v, want ErrPackCount", err)
	}
}

// TestAddPackedMatchesBlindedFold: blinding a fold slotwise is the fold
// of the blinded values, bit for bit — AddPacked(PackCiphertexts(xs), ρs)
// is PackCiphertexts of the AddPlain(xᵢ, ρᵢ), since (1 + aN)^k ≡ 1 + kaN
// mod N² — at K = 256 and 512, for every slot count, with every blind at
// the σ bound (2^(ValueBits+64) − 1, the largest a short blind takes) on
// values at the slot's edges. C1's peel folds its output round's
// operands before it draws their blinds on this identity.
func TestAddPackedMatchesBlindedFold(t *testing.T) {
	sk512, err := GenerateKey(rand.Reader, 512)
	if err != nil {
		t.Fatal(err)
	}
	for _, sk := range []*PrivateKey{testKey(), sk512} {
		pk := &sk.PublicKey
		for _, vb := range []int{12, 25} {
			codec, err := NewPacking(pk, vb)
			if err != nil {
				t.Fatal(err)
			}
			top := new(big.Int).Sub(new(big.Int).Lsh(one, uint(vb)), one)
			rho := new(big.Int).Sub(new(big.Int).Lsh(one, uint(vb+64)), one)
			for count := 1; count <= codec.Slots; count++ {
				xs := make([]*big.Int, count)
				cts := make([]*Ciphertext, count)
				blinded := make([]*Ciphertext, count)
				rhos := make([]*big.Int, count)
				for j := range xs {
					xs[j] = []*big.Int{top, new(big.Int), big.NewInt(1)}[j%3]
					if cts[j], err = pk.Encrypt(rand.Reader, xs[j]); err != nil {
						t.Fatal(err)
					}
					rhos[j] = rho
					blinded[j] = pk.AddPlain(cts[j], rho)
				}
				folded, err := codec.PackCiphertexts(cts)
				if err != nil {
					t.Fatal(err)
				}
				got, err := codec.AddPacked(folded, rhos)
				if err != nil {
					t.Fatal(err)
				}
				want, err := codec.PackCiphertexts(blinded)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(want) {
					t.Fatalf("K = %d, %d of %d %d-bit slots: the blinded fold differs from the fold of the blinded values", sk.Bits(), count, codec.Slots, vb)
				}
				slots, err := codec.UnpackDecrypt(sk, got, count)
				if err != nil {
					t.Fatal(err)
				}
				for j, v := range slots {
					if w := new(big.Int).Add(xs[j], rho); v.Cmp(w) != 0 {
						t.Fatalf("K = %d, %d slots: slot %d = %v, want %v", sk.Bits(), count, j, v, w)
					}
				}
			}
		}
	}
}

// TestSlotwiseHomomorphicOps covers AddPacked staying inside its slots
// when the caller honors the width contract.
func TestSlotwiseHomomorphicOps(t *testing.T) {
	codec, sk := packCodec(t, 8)
	vals := []*big.Int{big.NewInt(3), big.NewInt(250), big.NewInt(77)}
	ct, err := codec.PackEncrypt(rand.Reader, vals)
	if err != nil {
		t.Fatal(err)
	}
	adds := []*big.Int{big.NewInt(100), big.NewInt(1), big.NewInt(0)}
	sum, err := codec.AddPacked(ct, adds)
	if err != nil {
		t.Fatal(err)
	}
	got, err := codec.UnpackDecrypt(sk, sum, len(vals))
	if err != nil {
		t.Fatal(err)
	}
	for j := range vals {
		want := new(big.Int).Add(vals[j], adds[j])
		if got[j].Cmp(want) != 0 {
			t.Errorf("AddPacked slot %d: got %v, want %v", j, got[j], want)
		}
	}
}

// FuzzPackDecode throws arbitrary (valueBits, count, raw value) triples
// at the decode path: invalid shapes must error — never panic — and any
// value Unpack accepts must survive a Pack/Unpack round trip and agree
// with the decrypting variant.
func FuzzPackDecode(f *testing.F) {
	sk := fuzzPackKey()
	pk := &sk.PublicKey
	f.Add(8, 2, []byte{0x01, 0x02})
	f.Add(64, 1, []byte{})
	f.Add(0, 0, []byte{0xff})
	f.Add(600, 3, []byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, valueBits, count int, raw []byte) {
		codec, err := NewPacking(pk, valueBits)
		if err != nil {
			return
		}
		v := new(big.Int).SetBytes(raw)
		vals, err := codec.Unpack(v, count)
		if err != nil {
			return
		}
		repacked, err := codec.Pack(vals)
		if err != nil {
			t.Fatalf("repacking accepted slots: %v", err)
		}
		if repacked.Cmp(v) != 0 {
			t.Fatalf("Pack(Unpack(v)) = %v, want %v", repacked, v)
		}
		// Anything Unpack accepts fits below N (count·Width ≤ Bits−2),
		// so the decrypting variant must agree slot for slot.
		ct := pk.EncryptWithNonce(v, big.NewInt(2))
		got, err := codec.UnpackDecrypt(sk, ct, count)
		if err != nil {
			t.Fatalf("UnpackDecrypt on an accepted value: %v", err)
		}
		for j := range vals {
			if got[j].Cmp(vals[j]) != 0 {
				t.Fatalf("slot %d: decrypted %v, direct %v", j, got[j], vals[j])
			}
		}
	})
}

// fuzzPackKey is a deterministic 256-bit key (fixed primes) so fuzz runs
// spend their budget on decode paths, not key generation.
func fuzzPackKey() *PrivateKey {
	p, _ := new(big.Int).SetString("322675563644637075347871266145154846919", 10)
	q, _ := new(big.Int).SetString("323776987140864129127030639610541904247", 10)
	return NewPrivateKeyFromPrimes(p, q)
}

// checkPackCiphertexts folds count encryptions of values at the slot's
// edges (0, 1, the largest payload) under codec, and fails unless the
// result is the Horner fold on big.Int.Exp bit for bit and decrypts to
// the values, slot by slot.
func checkPackCiphertexts(t *testing.T, codec *Packing, sk *PrivateKey, count int) {
	t.Helper()
	pk := codec.pk
	top := new(big.Int).Sub(new(big.Int).Lsh(one, uint(codec.ValueBits)), one)
	vals := make([]*big.Int, count)
	cts := make([]*Ciphertext, count)
	for j := range vals {
		vals[j] = []*big.Int{new(big.Int), big.NewInt(1), top}[j%3]
		ct, err := pk.Encrypt(rand.Reader, vals[j])
		if err != nil {
			t.Fatal(err)
		}
		cts[j] = ct
	}
	shift := new(big.Int).Lsh(one, uint(codec.Width))
	want := new(big.Int).Set(cts[count-1].c)
	for j := count - 2; j >= 0; j-- {
		want.Exp(want, shift, pk.NSquared).Mul(want, cts[j].c).Mod(want, pk.NSquared)
	}
	folded, err := codec.PackCiphertexts(cts)
	if err != nil {
		t.Fatal(err)
	}
	if folded.c.Cmp(want) != 0 {
		t.Fatalf("%d of %d %d-bit slots: fold = %v, want %v", count, codec.Slots, codec.Width, folded, want)
	}
	got, err := codec.UnpackDecrypt(sk, folded, count)
	if err != nil {
		t.Fatal(err)
	}
	for j := range vals {
		if got[j].Cmp(vals[j]) != 0 {
			t.Fatalf("%d of %d slots: slot %d = %v, want %v", count, codec.Slots, j, got[j], vals[j])
		}
	}
}
