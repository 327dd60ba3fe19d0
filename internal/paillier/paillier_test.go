package paillier

import (
	"crypto/rand"
	"errors"
	"math/big"
	"sync"
	"testing"
)

// testKey returns a process-wide 256-bit key; generating keys is the slow
// part of the suite so it is shared across tests that don't mutate it.
var testKey = sync.OnceValue(func() *PrivateKey {
	sk, err := GenerateKey(rand.Reader, 256)
	if err != nil {
		panic(err)
	}
	return sk
})

func TestGenerateKeySizes(t *testing.T) {
	for _, bits := range []int{64, 128, 256, 512} {
		bits := bits
		t.Run(big.NewInt(int64(bits)).String(), func(t *testing.T) {
			t.Parallel()
			sk, err := GenerateKey(rand.Reader, bits)
			if err != nil {
				t.Fatalf("GenerateKey(%d): %v", bits, err)
			}
			if got := sk.N.BitLen(); got != bits {
				t.Errorf("modulus bit length = %d, want %d", got, bits)
			}
			p, q := sk.Factors()
			if new(big.Int).Mul(p, q).Cmp(sk.N) != 0 {
				t.Error("p*q != N")
			}
		})
	}
}

func TestGenerateKeyTooSmall(t *testing.T) {
	if _, err := GenerateKey(rand.Reader, 32); err != ErrKeyTooSmall {
		t.Errorf("GenerateKey(32) error = %v, want ErrKeyTooSmall", err)
	}
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	sk := testKey()
	values := []int64{0, 1, 2, 58, 59, 813, 1 << 30, 1<<62 - 1}
	for _, v := range values {
		ct, err := sk.Encrypt(rand.Reader, big.NewInt(v))
		if err != nil {
			t.Fatalf("Encrypt(%d): %v", v, err)
		}
		m, err := sk.Decrypt(ct)
		if err != nil {
			t.Fatalf("Decrypt(%d): %v", v, err)
		}
		if m.Int64() != v {
			t.Errorf("round trip of %d = %v", v, m)
		}
	}
}

func TestEncryptReducesNegative(t *testing.T) {
	sk := testKey()
	ct, err := sk.Encrypt(rand.Reader, big.NewInt(-7))
	if err != nil {
		t.Fatal(err)
	}
	m, err := sk.Decrypt(ct)
	if err != nil {
		t.Fatal(err)
	}
	want := new(big.Int).Sub(sk.N, big.NewInt(7))
	if m.Cmp(want) != 0 {
		t.Errorf("Decrypt(E(-7)) = %v, want N-7 = %v", m, want)
	}
	s, err := sk.DecryptSigned(ct)
	if err != nil {
		t.Fatal(err)
	}
	if s.Int64() != -7 {
		t.Errorf("DecryptSigned(E(-7)) = %v, want -7", s)
	}
}

func TestDecryptSignedPositive(t *testing.T) {
	sk := testKey()
	ct, _ := sk.Encrypt(rand.Reader, big.NewInt(12345))
	s, err := sk.DecryptSigned(ct)
	if err != nil {
		t.Fatal(err)
	}
	if s.Int64() != 12345 {
		t.Errorf("DecryptSigned(E(12345)) = %v", s)
	}
}

func TestEncryptionIsProbabilistic(t *testing.T) {
	sk := testKey()
	a, _ := sk.Encrypt(rand.Reader, big.NewInt(42))
	b, _ := sk.Encrypt(rand.Reader, big.NewInt(42))
	if a.Equal(b) {
		t.Error("two encryptions of the same plaintext produced identical ciphertexts")
	}
}

func TestHomomorphicAdd(t *testing.T) {
	sk := testKey()
	a, _ := sk.Encrypt(rand.Reader, big.NewInt(59))
	b, _ := sk.Encrypt(rand.Reader, big.NewInt(58))
	sum, err := sk.Decrypt(sk.Add(a, b))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Int64() != 117 {
		t.Errorf("E(59)*E(58) decrypts to %v, want 117", sum)
	}
}

func TestHomomorphicAddWrapsModN(t *testing.T) {
	sk := testKey()
	nm1 := new(big.Int).Sub(sk.N, big.NewInt(1))
	a, _ := sk.Encrypt(rand.Reader, nm1)
	b, _ := sk.Encrypt(rand.Reader, big.NewInt(5))
	sum, err := sk.Decrypt(sk.Add(a, b))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Int64() != 4 {
		t.Errorf("(N-1)+5 mod N = %v, want 4", sum)
	}
}

func TestHomomorphicScalarMul(t *testing.T) {
	sk := testKey()
	a, _ := sk.Encrypt(rand.Reader, big.NewInt(7))
	got, err := sk.Decrypt(sk.ScalarMul(a, big.NewInt(9)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Int64() != 63 {
		t.Errorf("E(7)^9 decrypts to %v, want 63", got)
	}
}

func TestHomomorphicScalarMulNegative(t *testing.T) {
	sk := testKey()
	a, _ := sk.Encrypt(rand.Reader, big.NewInt(7))
	got, err := sk.DecryptSigned(sk.ScalarMulInt64(a, -3))
	if err != nil {
		t.Fatal(err)
	}
	if got.Int64() != -21 {
		t.Errorf("E(7)^-3 decrypts (signed) to %v, want -21", got)
	}
}

func TestNegAndSub(t *testing.T) {
	sk := testKey()
	a, _ := sk.Encrypt(rand.Reader, big.NewInt(100))
	b, _ := sk.Encrypt(rand.Reader, big.NewInt(42))
	diff, err := sk.Decrypt(sk.Sub(a, b))
	if err != nil {
		t.Fatal(err)
	}
	if diff.Int64() != 58 {
		t.Errorf("E(100)-E(42) = %v, want 58", diff)
	}
	neg, err := sk.DecryptSigned(sk.Neg(b))
	if err != nil {
		t.Fatal(err)
	}
	if neg.Int64() != -42 {
		t.Errorf("Neg(E(42)) signed = %v, want -42", neg)
	}
}

func TestAddPlainMatchesAdd(t *testing.T) {
	sk := testKey()
	a, _ := sk.Encrypt(rand.Reader, big.NewInt(1000))
	viaPlain, err := sk.Decrypt(sk.AddPlain(a, big.NewInt(23)))
	if err != nil {
		t.Fatal(err)
	}
	if viaPlain.Int64() != 1023 {
		t.Errorf("AddPlain = %v, want 1023", viaPlain)
	}
	// Negative plaintext addend.
	viaNeg, err := sk.Decrypt(sk.AddPlain(a, big.NewInt(-1)))
	if err != nil {
		t.Fatal(err)
	}
	if viaNeg.Int64() != 999 {
		t.Errorf("AddPlain(-1) = %v, want 999", viaNeg)
	}
}

func TestRerandomizePreservesPlaintextChangesElement(t *testing.T) {
	sk := testKey()
	a, _ := sk.Encrypt(rand.Reader, big.NewInt(777))
	b, err := sk.Rerandomize(rand.Reader, a)
	if err != nil {
		t.Fatal(err)
	}
	if a.Equal(b) {
		t.Error("Rerandomize returned the identical group element")
	}
	m, err := sk.Decrypt(b)
	if err != nil {
		t.Fatal(err)
	}
	if m.Int64() != 777 {
		t.Errorf("rerandomized plaintext = %v, want 777", m)
	}
}

func TestProduct(t *testing.T) {
	sk := testKey()
	cts := make([]*Ciphertext, 5)
	want := int64(0)
	for i := range cts {
		v := int64(i * i)
		want += v
		cts[i], _ = sk.Encrypt(rand.Reader, big.NewInt(v))
	}
	got, err := sk.Decrypt(sk.Product(cts))
	if err != nil {
		t.Fatal(err)
	}
	if got.Int64() != want {
		t.Errorf("Product decrypts to %v, want %d", got, want)
	}
}

func TestProductEmptyPanics(t *testing.T) {
	sk := testKey()
	defer func() {
		if recover() == nil {
			t.Error("Product(nil) did not panic")
		}
	}()
	sk.Product(nil)
}

func TestVectorRoundTrip(t *testing.T) {
	sk := testKey()
	v := []uint64{63, 1, 1, 145, 233, 1, 3, 0, 6, 0} // record t1 of Table 1
	cts, err := sk.EncryptUint64Vector(rand.Reader, v)
	if err != nil {
		t.Fatal(err)
	}
	for i := range v {
		m, err := sk.Decrypt(cts[i])
		if err != nil {
			t.Fatal(err)
		}
		if m.Uint64() != v[i] {
			t.Errorf("component %d = %v, want %d", i, m, v[i])
		}
	}
}

func TestFromRawValidation(t *testing.T) {
	sk := testKey()
	pk := &sk.PublicKey
	cases := []struct {
		name string
		v    *big.Int
	}{
		{"nil", nil},
		{"zero", big.NewInt(0)},
		{"negative", big.NewInt(-5)},
		{"nsquared", new(big.Int).Set(pk.NSquared)},
		{"huge", new(big.Int).Add(pk.NSquared, big.NewInt(1))},
	}
	for _, tc := range cases {
		if _, err := pk.FromRaw(tc.v); err == nil {
			t.Errorf("FromRaw(%s) accepted an invalid value", tc.name)
		}
	}
	ct, _ := sk.Encrypt(rand.Reader, big.NewInt(9))
	back, err := pk.FromRaw(ct.Raw())
	if err != nil {
		t.Fatalf("FromRaw of a genuine ciphertext: %v", err)
	}
	m, _ := sk.Decrypt(back)
	if m.Int64() != 9 {
		t.Errorf("FromRaw round trip decrypts to %v", m)
	}
}

func TestDecryptRejectsBadCiphertext(t *testing.T) {
	sk := testKey()
	if _, err := sk.Decrypt(nil); err != ErrNilCiphertext {
		t.Errorf("Decrypt(nil) = %v, want ErrNilCiphertext", err)
	}
	if _, err := sk.Decrypt(&Ciphertext{}); err != ErrNilCiphertext {
		t.Errorf("Decrypt(empty) = %v, want ErrNilCiphertext", err)
	}
	if _, err := sk.Decrypt(&Ciphertext{c: new(big.Int).Set(sk.NSquared)}); err == nil {
		t.Error("Decrypt accepted c = N²")
	}
}

func TestCRTMatchesTextbookDecryption(t *testing.T) {
	sk := testKey()
	for _, v := range []int64{0, 1, 55, 58, 1 << 40} {
		ct, _ := sk.Encrypt(rand.Reader, big.NewInt(v))
		fast, err := sk.Decrypt(ct)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := sk.DecryptNoCRT(ct)
		if err != nil {
			t.Fatal(err)
		}
		if fast.Cmp(slow) != 0 {
			t.Errorf("CRT=%v textbook=%v for plaintext %d", fast, slow, v)
		}
	}
}

func TestDeterministicVector(t *testing.T) {
	// Tiny textbook key p=13, q=17 (N=221) with fixed nonce: checkable by
	// hand. c = (1+mN) * r^N mod N².
	sk := NewPrivateKeyFromPrimes(big.NewInt(13), big.NewInt(17))
	ct := sk.EncryptWithNonce(big.NewInt(42), big.NewInt(3))
	m, err := sk.Decrypt(ct)
	if err != nil {
		t.Fatal(err)
	}
	if m.Int64() != 42 {
		t.Errorf("tiny-key round trip = %v, want 42", m)
	}
	// The deterministic ciphertext value itself.
	want := new(big.Int).Exp(big.NewInt(3), big.NewInt(221), new(big.Int).Mul(big.NewInt(221*221), big.NewInt(1)))
	want.Mul(want, big.NewInt(1+42*221))
	want.Mod(want, big.NewInt(221*221))
	if ct.c.Cmp(want) != 0 {
		t.Errorf("deterministic ciphertext = %v, want %v", ct.c, want)
	}
}

func TestPublicKeyEqualAndBits(t *testing.T) {
	sk := testKey()
	if !sk.PublicKey.Equal(&sk.PublicKey) {
		t.Error("key not Equal to itself")
	}
	if sk.PublicKey.Equal(nil) {
		t.Error("key Equal(nil) = true")
	}
	other := NewPrivateKeyFromPrimes(big.NewInt(13), big.NewInt(17))
	if sk.PublicKey.Equal(&other.PublicKey) {
		t.Error("distinct keys compare Equal")
	}
	if sk.Bits() != 256 {
		t.Errorf("Bits() = %d, want 256", sk.Bits())
	}
}

func TestRandomZNBounds(t *testing.T) {
	sk := testKey()
	for i := 0; i < 50; i++ {
		r, err := sk.RandomZN(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		if r.Sign() < 0 || r.Cmp(sk.N) >= 0 {
			t.Fatalf("RandomZN out of range: %v", r)
		}
	}
	for i := 0; i < 50; i++ {
		r, err := sk.RandomNonzeroZN(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		if r.Sign() <= 0 || r.Cmp(sk.N) >= 0 {
			t.Fatalf("RandomNonzeroZN out of range: %v", r)
		}
	}
}

func TestMarshalPublicKey(t *testing.T) {
	sk := testKey()
	data, err := sk.PublicKey.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var pk PublicKey
	if err := pk.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if !pk.Equal(&sk.PublicKey) {
		t.Error("public key did not survive marshal round trip")
	}
	if pk.NSquared.Cmp(sk.NSquared) != 0 {
		t.Error("NSquared not rebuilt")
	}
}

func TestMarshalPrivateKey(t *testing.T) {
	sk := testKey()
	data, err := sk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var sk2 PrivateKey
	if err := sk2.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	ct, _ := sk.Encrypt(rand.Reader, big.NewInt(321))
	m, err := sk2.Decrypt(ct)
	if err != nil {
		t.Fatal(err)
	}
	if m.Int64() != 321 {
		t.Errorf("restored key decrypts to %v, want 321", m)
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	var pk PublicKey
	if err := pk.UnmarshalBinary([]byte("not gob")); err == nil {
		t.Error("public key accepted garbage")
	}
	var sk PrivateKey
	if err := sk.UnmarshalBinary([]byte("not gob")); err == nil {
		t.Error("private key accepted garbage")
	}
	// Composite "primes" must be rejected.
	bad := NewPrivateKeyFromPrimes(big.NewInt(13), big.NewInt(17))
	_ = bad
	data, _ := (&wireEncoder{p: big.NewInt(15), q: big.NewInt(17)}).encode()
	if err := sk.UnmarshalBinary(data); err == nil {
		t.Error("private key accepted composite factor")
	}
}

// hostileModuli are the values every site that builds a key from an
// outside modulus must refuse: absent, zero, negative, one bit short of
// the minimum, and even — which Montgomery arithmetic cannot take and no
// product of two odd primes is.
func hostileModuli(n *big.Int) map[string]*big.Int {
	even := new(big.Int).Lsh(one, 511)
	return map[string]*big.Int{
		"nil":      nil,
		"zero":     new(big.Int),
		"negative": new(big.Int).Neg(n),
		"2^63":     new(big.Int).Lsh(one, 63),
		"even":     even.Add(even, big.NewInt(6)),
		"huge":     new(big.Int).Add(new(big.Int).Lsh(one, maxModulusBits), one),
	}
}

// TestNewPublicKeyValidates: the one validation every outside modulus
// passes through, and UnmarshalBinary's mapping of its verdict to
// ErrMalformedGobRemote.
func TestNewPublicKeyValidates(t *testing.T) {
	sk := testKey()
	for name, n := range hostileModuli(sk.N) {
		if _, err := NewPublicKey(n); !errors.Is(err, ErrInvalidModulus) {
			t.Errorf("NewPublicKey(%s) error = %v, want ErrInvalidModulus", name, err)
		}
		data, err := WirePublicKey(n)
		if err != nil {
			t.Fatal(err)
		}
		pk := new(PublicKey)
		if err := pk.UnmarshalBinary(data); !errors.Is(err, ErrMalformedGobRemote) {
			t.Errorf("UnmarshalBinary(N = %s) error = %v, want ErrMalformedGobRemote", name, err)
		}
		if pk.N != nil || pk.fb != nil {
			t.Errorf("UnmarshalBinary(N = %s) left a half-built key behind", name)
		}
	}
	pk, err := NewPublicKey(sk.N)
	if err != nil {
		t.Fatal(err)
	}
	if !pk.Equal(&sk.PublicKey) || pk.NSquared.Cmp(sk.NSquared) != 0 {
		t.Error("NewPublicKey(N) is not the key of modulus N")
	}
	// 2 is prime: a factor pair with it gives an even N.
	data, err := (&wireEncoder{p: big.NewInt(2), q: big.NewInt(13)}).encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := new(PrivateKey).UnmarshalBinary(data); !errors.Is(err, ErrMalformedGobRemote) {
		t.Errorf("UnmarshalBinary(p = 2) error = %v, want ErrMalformedGobRemote", err)
	}
}

func TestCiphertextStringer(t *testing.T) {
	sk := testKey()
	ct, _ := sk.Encrypt(rand.Reader, big.NewInt(5))
	if s := ct.String(); len(s) == 0 || s == "Ciphertext(nil)" {
		t.Errorf("String() = %q", s)
	}
	var nilCt *Ciphertext
	if s := nilCt.String(); s != "Ciphertext(nil)" {
		t.Errorf("nil String() = %q", s)
	}
}
