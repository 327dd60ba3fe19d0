package paillier

import (
	"crypto/rand"
	"fmt"
	"math/big"
	mrand "math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// fbKey is a process-wide deterministic 256-bit key (fixed primes, so no
// keygen cost), next to testKey's freshly generated one.
var fbKey = sync.OnceValue(fuzzPackKey)

// mustPanic runs fn and reports whether it panicked.
func mustPanic(fn func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	fn()
	return false
}

// TestFBTableMatchesBigExpEdges pins the three combs of a key — public
// mod N², CRT mod p² and q² — against big.Int.Exp at every key size
// whose limb count or block length differs (K = 65 leaves p and q of
// unequal, odd lengths), on the exponents where comb indexing goes wrong
// first: 0 (empty product), 1, 2^B − 1 (every tooth live at every step),
// and the group-order edges p−2, p−1 (hN mod p² has order dividing p−1,
// so the answer is 1) and N−1.
func TestFBTableMatchesBigExpEdges(t *testing.T) {
	for _, bits := range []int{64, 65, 128, 256, 512, 1024} {
		t.Run(fmt.Sprintf("K=%d", bits), func(t *testing.T) {
			t.Parallel()
			sk, err := GenerateKey(rand.Reader, bits)
			if err != nil {
				t.Fatal(err)
			}
			pub, err := NewPublicKey(sk.N)
			if err != nil {
				t.Fatal(err)
			}
			crt := sk.fb.crt
			for name, c := range map[string]*comb{"N²": pub.fb.pub, "p²": crt.p, "q²": crt.q} {
				base, mod := c.exp(one), c.mod.big
				top := new(big.Int).Lsh(one, uint(c.bits))
				exps := []*big.Int{new(big.Int), one, top.Sub(top, one)}
				for _, edge := range []*big.Int{crt.pMinus1, crt.qMinus1, sk.N} {
					for _, e := range []*big.Int{new(big.Int).Sub(edge, one), edge} {
						if e.BitLen() <= c.bits {
							exps = append(exps, e)
						}
					}
				}
				for _, e := range exps {
					if got, want := c.exp(e), new(big.Int).Exp(base, e, mod); got.Cmp(want) != 0 {
						t.Errorf("comb mod %s: exp(%v) = %v, want %v", name, e, got, want)
					}
				}
			}
			if crt.p.exp(crt.pMinus1).Cmp(one) != 0 || crt.q.exp(crt.qMinus1).Cmp(one) != 0 {
				t.Error("hN^(p−1) mod p² or hN^(q−1) mod q² is not 1")
			}
		})
	}
}

// TestFBTableMatchesBigExpRandom sweeps random exponents up to the full
// comb width, on a width that is not a multiple of combTeeth.
func TestFBTableMatchesBigExpRandom(t *testing.T) {
	sk := fbKey()
	mod := sk.NSquared
	base := big.NewInt(7)
	bits := sk.N.BitLen() - 1
	c := NewTestComb(base, mod, bits)
	rng := mrand.New(mrand.NewSource(2))
	bound := new(big.Int).Lsh(one, uint(bits))
	f := func(seed int64) bool {
		e := new(big.Int).Rand(rng, bound)
		return c.Exp(e).Cmp(new(big.Int).Exp(base, e, mod)) == 0
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestFBTableRejectsOutOfRange: a negative or too-wide exponent is a
// caller's bug and must panic instead of silently truncating; the widest
// in-range one must evaluate.
func TestFBTableRejectsOutOfRange(t *testing.T) {
	c := NewTestComb(big.NewInt(5), big.NewInt(1_000_003), 17)
	if !mustPanic(func() { c.Exp(big.NewInt(-1)) }) {
		t.Error("negative exponent accepted")
	}
	if !mustPanic(func() { c.Exp(big.NewInt(1 << 17)) }) {
		t.Error("18-bit exponent accepted by a 17-bit comb")
	}
	want := new(big.Int).Exp(big.NewInt(5), big.NewInt(1<<17-1), big.NewInt(1_000_003))
	if got := c.Exp(big.NewInt(1<<17 - 1)); got.Cmp(want) != 0 {
		t.Errorf("Exp(2^17-1) = %v, want %v", got, want)
	}
}

// TestFixedBasePowCRTMatchesDirect pins the CRT-split evaluation (combs
// mod p² and q², the exponent reduced mod p−1 and q−1, recombination)
// against direct exponentiation of hN mod N², bit for bit — including
// the exponents around p−1 and q−1 where the reduction wraps.
func TestFixedBasePowCRTMatchesDirect(t *testing.T) {
	sk := fbKey()
	hN := sk.FixedBasePow(one)
	exps := []*big.Int{big.NewInt(0), big.NewInt(1), new(big.Int).Sub(sk.N, big.NewInt(1))}
	for _, edge := range []*big.Int{sk.pMinus1, sk.qMinus1} {
		exps = append(exps, new(big.Int).Sub(edge, one), edge, new(big.Int).Add(edge, one))
	}
	rng := mrand.New(mrand.NewSource(3))
	for i := 0; i < 20; i++ {
		exps = append(exps, new(big.Int).Rand(rng, sk.N))
	}
	for _, a := range exps {
		if sk.FixedBasePow(a).Cmp(new(big.Int).Exp(hN, a, sk.NSquared)) != 0 {
			t.Errorf("CRT pow(%v) diverges from direct exponentiation", a)
		}
	}
}

// TestFixedBaseEncryptRoundTrip: ciphertexts drawn from the combs
// decrypt and rerandomize correctly.
func TestFixedBaseEncryptRoundTrip(t *testing.T) {
	sk := fbKey()
	for _, m := range []int64{0, 1, 41, 1 << 40} {
		ct, err := sk.Encrypt(rand.Reader, big.NewInt(m))
		if err != nil {
			t.Fatal(err)
		}
		got, err := sk.Decrypt(ct)
		if err != nil || got.Int64() != m {
			t.Fatalf("round trip of %d: got %v, err %v", m, got, err)
		}
		rr, err := sk.Rerandomize(rand.Reader, ct)
		if err != nil {
			t.Fatal(err)
		}
		if rr.Equal(ct) {
			t.Error("rerandomize returned the identical ciphertext")
		}
		if got, err := sk.Decrypt(rr); err != nil || got.Int64() != m {
			t.Fatalf("rerandomized round trip of %d: got %v, err %v", m, got, err)
		}
	}
}

// TestPublicOnlyAndPrivateKeysInteroperate: a public-only key (one comb
// mod N², its own h) and the private key it was published from (two CRT
// combs, another h) each draw from their own kernel, and each handles
// the other's ciphertexts: the private key decrypts what the public one
// encrypted, and either re-randomises the other's.
func TestPublicOnlyAndPrivateKeysInteroperate(t *testing.T) {
	sk := testKey()
	data, err := sk.PublicKey.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	pk := new(PublicKey)
	if err := pk.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if pk.fb.pub == nil || pk.fb.crt != nil {
		t.Fatal("a key decoded off the wire must carry the public comb alone")
	}
	if sk.fb.crt == nil || sk.fb.pub != nil {
		t.Fatal("a private key must carry the CRT combs alone")
	}
	if copied := sk.PublicKey; copied.fb != sk.fb {
		t.Fatal("a copy of sk.PublicKey must keep encrypting through sk's combs")
	}
	if pk.FixedBasePow(one).Cmp(sk.FixedBasePow(one)) == 0 {
		t.Error("two keys constructed apart share one generator")
	}
	fromPub, err := pk.Encrypt(rand.Reader, big.NewInt(99))
	if err != nil {
		t.Fatal(err)
	}
	fromPriv, err := sk.Encrypt(rand.Reader, big.NewInt(99))
	if err != nil {
		t.Fatal(err)
	}
	viaPriv, err := sk.Rerandomize(rand.Reader, fromPub)
	if err != nil {
		t.Fatal(err)
	}
	viaPub, err := pk.Rerandomize(rand.Reader, fromPriv)
	if err != nil {
		t.Fatal(err)
	}
	if viaPriv.Equal(fromPub) || viaPub.Equal(fromPriv) {
		t.Error("rerandomize returned the identical ciphertext")
	}
	for name, ct := range map[string]*Ciphertext{
		"public": fromPub, "private": fromPriv, "public→private": viaPriv, "private→public": viaPub,
	} {
		if got, err := sk.Decrypt(ct); err != nil || got.Int64() != 99 {
			t.Errorf("%s: decrypt = %v, err %v", name, got, err)
		}
	}
}

// TestRaisedNonceAllocs pins the allocations of one raised nonce on
// either kernel. A comb walk makes six — the exponent's bytes and limbs,
// one slab of limb scratch, the result's bytes, big.Int and words — and
// the CRT kernel two walks, two reduced exponents and a recombination
// whose big.Int products grow or not with the operands (19 to 22): a
// count per walk, where one allocation per step would be 64 and up.
func TestRaisedNonceAllocs(t *testing.T) {
	sk := fbKey()
	pub, err := NewPublicKey(sk.N)
	if err != nil {
		t.Fatal(err)
	}
	a := new(big.Int).Sub(sk.N, big.NewInt(5))
	for _, tc := range []struct {
		name string
		pk   *PublicKey
		max  float64
	}{{"crt", &sk.PublicKey, 24}, {"public", pub, 8}} {
		if got := testing.AllocsPerRun(50, func() { tc.pk.FixedBasePow(a) }); got > tc.max {
			t.Errorf("%s: one nonce power allocates %v times, pinned at %v", tc.name, got, tc.max)
		}
	}
}

// FuzzFixedBaseExp feeds arbitrary exponent bytes through a comb and
// cross-checks big.Int.Exp: any in-range exponent must agree exactly,
// any out-of-range one must panic before touching the table.
func FuzzFixedBaseExp(f *testing.F) {
	mod, _ := new(big.Int).SetString("104476280815459414444157170371138662750017727", 10)
	const maxBits = 96
	c := NewTestComb(big.NewInt(3), mod, maxBits)
	f.Add([]byte{})
	f.Add([]byte{0x01})
	f.Add(new(big.Int).Lsh(big.NewInt(1), maxBits-1).Bytes())
	f.Add(new(big.Int).Lsh(big.NewInt(1), maxBits).Bytes())
	f.Fuzz(func(t *testing.T, raw []byte) {
		e := new(big.Int).SetBytes(raw)
		if e.BitLen() > maxBits {
			if !mustPanic(func() { c.Exp(e) }) {
				t.Fatalf("%d-bit exponent accepted by a %d-bit comb", e.BitLen(), maxBits)
			}
			return
		}
		if want := new(big.Int).Exp(big.NewInt(3), e, mod); c.Exp(e).Cmp(want) != 0 {
			t.Fatalf("comb diverges from big.Int.Exp for e=%v", e)
		}
	})
}
