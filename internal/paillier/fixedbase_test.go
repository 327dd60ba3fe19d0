package paillier

import (
	"crypto/rand"
	"math/big"
	mrand "math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// fbKey is a process-wide deterministic 256-bit key (fixed primes, so no
// keygen cost) with the CRT fixed-base state enabled at construction —
// before it is shared, matching EnableFixedBase's setup-time contract.
// testKey stays fixed-base-free so the two paths coexist in the suite.
var fbKey = sync.OnceValue(func() *PrivateKey {
	p, _ := new(big.Int).SetString("322675563644637075347871266145154846919", 10)
	q, _ := new(big.Int).SetString("323776987140864129127030639610541904247", 10)
	sk := NewPrivateKeyFromPrimes(p, q)
	if err := sk.EnableFixedBase(rand.Reader); err != nil {
		panic(err)
	}
	return sk
})

// TestFBTableMatchesBigExpEdges pins the window table against
// big.Int.Exp on the exponents where windowing logic goes wrong first:
// 0 (empty product), 1, N−1 (all windows live), and λ-sized exponents
// (the widest value the decrypt path ever raises to).
func TestFBTableMatchesBigExpEdges(t *testing.T) {
	sk := fbKey()
	mod := sk.NSquared
	base := big.NewInt(3)
	tab := NewTestFBTable(base, mod, sk.N.BitLen())

	p, q := sk.Factors()
	pm1 := new(big.Int).Sub(p, big.NewInt(1))
	qm1 := new(big.Int).Sub(q, big.NewInt(1))
	lambda := new(big.Int).Mul(pm1, qm1)
	lambda.Div(lambda, new(big.Int).GCD(nil, nil, pm1, qm1))

	edges := []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		new(big.Int).Sub(sk.N, big.NewInt(1)),
		lambda,
	}
	for _, e := range edges {
		got, ok := tab.Exp(e)
		if !ok {
			t.Fatalf("Exp(%v) reported out of range", e)
		}
		want := new(big.Int).Exp(base, e, mod)
		if got.Cmp(want) != 0 {
			t.Errorf("Exp(%v) = %v, want %v", e, got, want)
		}
	}
}

// TestFBTableMatchesBigExpRandom sweeps random exponents up to the full
// table width.
func TestFBTableMatchesBigExpRandom(t *testing.T) {
	sk := fbKey()
	mod := sk.NSquared
	base := big.NewInt(7)
	tab := NewTestFBTable(base, mod, sk.N.BitLen())
	rng := mrand.New(mrand.NewSource(2))
	f := func(seed int64) bool {
		e := new(big.Int).Rand(rng, sk.N)
		got, ok := tab.Exp(e)
		return ok && got.Cmp(new(big.Int).Exp(base, e, mod)) == 0
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestFBTableRejectsOutOfRange: negative or too-wide exponents must
// report !ok so callers fall back to big.Int.Exp instead of silently
// truncating.
func TestFBTableRejectsOutOfRange(t *testing.T) {
	tab := NewTestFBTable(big.NewInt(5), big.NewInt(1_000_003), 16)
	if _, ok := tab.Exp(big.NewInt(-1)); ok {
		t.Error("negative exponent accepted")
	}
	if _, ok := tab.Exp(big.NewInt(1 << 16)); ok {
		t.Error("17-bit exponent accepted by a 16-bit table")
	}
	if got, ok := tab.Exp(big.NewInt(1<<16 - 1)); !ok {
		t.Error("max in-range exponent rejected")
	} else if want := new(big.Int).Exp(big.NewInt(5), big.NewInt(1<<16-1), big.NewInt(1_000_003)); got.Cmp(want) != 0 {
		t.Errorf("Exp(2^16-1) = %v, want %v", got, want)
	}
}

// TestFixedBasePowCRTMatchesDirect pins the CRT-split evaluation (tables
// mod p² and q², the exponent reduced mod p−1 and q−1, recombination)
// against direct exponentiation of hN mod N², bit for bit — including
// the exponents around p−1 and q−1 where the reduction wraps.
func TestFixedBasePowCRTMatchesDirect(t *testing.T) {
	sk := fbKey()
	hN := sk.FixedBaseHN()
	if hN == nil {
		t.Fatal("fixed-base state missing on fbKey")
	}
	exps := []*big.Int{big.NewInt(0), big.NewInt(1), new(big.Int).Sub(sk.N, big.NewInt(1))}
	for _, edge := range []*big.Int{sk.pMinus1, sk.qMinus1} {
		exps = append(exps, new(big.Int).Sub(edge, one), edge, new(big.Int).Add(edge, one))
	}
	rng := mrand.New(mrand.NewSource(3))
	for i := 0; i < 20; i++ {
		exps = append(exps, new(big.Int).Rand(rng, sk.N))
	}
	for _, a := range exps {
		got, ok := sk.PublicKey.FixedBasePow(a)
		if !ok {
			t.Fatalf("FixedBasePow(%v) out of range", a)
		}
		want := new(big.Int).Exp(hN, a, sk.NSquared)
		if got.Cmp(want) != 0 {
			t.Errorf("CRT pow(%v) diverges from direct exponentiation", a)
		}
	}
}

// TestFixedBaseEncryptRoundTrip: with the table enabled, ciphertexts
// still decrypt and rerandomize correctly, and enabling is idempotent.
func TestFixedBaseEncryptRoundTrip(t *testing.T) {
	sk := fbKey()
	if !sk.FixedBaseEnabled() {
		t.Fatal("FixedBaseEnabled() = false after EnableFixedBase")
	}
	if err := sk.EnableFixedBase(rand.Reader); err != nil {
		t.Fatalf("re-enable: %v", err)
	}
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

// TestPublicKeyEnableFixedBase exercises the public-key-only variant (no
// CRT tables): encryption through the plain mod-N² table must stay
// decryptable by the untouched private key.
func TestPublicKeyEnableFixedBase(t *testing.T) {
	sk := testKey()
	pk := sk.PublicKey // copy; sk's own state stays fixed-base-free
	if pk.FixedBaseEnabled() {
		t.Fatal("copy inherited fixed-base state unexpectedly")
	}
	if err := pk.EnableFixedBase(rand.Reader); err != nil {
		t.Fatal(err)
	}
	if !pk.FixedBaseEnabled() || sk.FixedBaseEnabled() {
		t.Fatal("enable leaked between the copy and the original")
	}
	ct, err := pk.Encrypt(rand.Reader, big.NewInt(99))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := sk.Decrypt(ct); err != nil || got.Int64() != 99 {
		t.Fatalf("decrypt = %v, err %v", got, err)
	}
}

// FuzzFixedBaseExp feeds arbitrary exponent bytes through the window
// table and cross-checks big.Int.Exp: any in-range exponent must agree
// exactly, any out-of-range one must report !ok, and nothing may panic.
func FuzzFixedBaseExp(f *testing.F) {
	mod, _ := new(big.Int).SetString("104476280815459414444157170371138662750017727", 10)
	const maxBits = 96
	tab := NewTestFBTable(big.NewInt(3), mod, maxBits)
	f.Add([]byte{})
	f.Add([]byte{0x01})
	f.Add(new(big.Int).Lsh(big.NewInt(1), maxBits-1).Bytes())
	f.Add(new(big.Int).Lsh(big.NewInt(1), maxBits).Bytes())
	f.Fuzz(func(t *testing.T, raw []byte) {
		e := new(big.Int).SetBytes(raw)
		got, ok := tab.Exp(e)
		if e.BitLen() > maxBits {
			if ok {
				t.Fatalf("%d-bit exponent accepted by a %d-bit table", e.BitLen(), maxBits)
			}
			return
		}
		if !ok {
			t.Fatalf("in-range exponent (%d bits) rejected", e.BitLen())
		}
		if want := new(big.Int).Exp(big.NewInt(3), e, mod); got.Cmp(want) != 0 {
			t.Fatalf("table Exp diverges from big.Int.Exp for e=%v", e)
		}
	})
}
