package paillier

import (
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"
	mrand "math/rand"
	"testing"
)

// decryptPaths runs f and reports how many decryptions it made by path.
func decryptPaths(f func()) (onePrime, crt uint64) {
	o0, c0 := DecryptCalls()
	f()
	o1, c1 := DecryptCalls()
	return o1 - o0, c1 - c0
}

// checkDecryptBelow decrypts E(m) declared at bits and fails unless the
// result is m and the decryption took the wanted path.
func checkDecryptBelow(t *testing.T, sk *PrivateKey, m *big.Int, bits int, wantOnePrime bool) {
	t.Helper()
	ct, err := sk.Encrypt(rand.Reader, m)
	if err != nil {
		t.Fatal(err)
	}
	var got *big.Int
	onePrime, crt := decryptPaths(func() { got, err = sk.DecryptBelow(ct, bits) })
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(m) != 0 {
		t.Fatalf("DecryptBelow(E(%v), %d) = %v", m, bits, got)
	}
	want := [2]uint64{0, 1}
	if wantOnePrime {
		want = [2]uint64{1, 0}
	}
	if [2]uint64{onePrime, crt} != want {
		t.Fatalf("%d-bit bound: %d one-prime and %d CRT decryptions, want %v", bits, onePrime, crt, want)
	}
	if full, err := sk.Decrypt(ct); err != nil || full.Cmp(got) != 0 {
		t.Fatalf("Decrypt = %v, %v; DecryptBelow = %v", full, err, got)
	}
	checkHalvesMatchExp(t, sk, ct)
}

// checkHalvesMatchExp holds each CRT half's exponentiation c^(r−1) mod
// r² to big.Int.Exp, and Decrypt to the textbook decryption, which runs
// on big.Int.Exp alone.
func checkHalvesMatchExp(t *testing.T, sk *PrivateKey, ct *Ciphertext) {
	t.Helper()
	for _, h := range []*crtHalf{&sk.p, &sk.q} {
		want := new(big.Int).Exp(ct.c, h.minus1, h.square.big)
		if got := h.square.exp(ct.c, h.minus1); got.Cmp(want) != 0 {
			t.Fatalf("c^(r−1) mod r² = %v, want %v (c = %v, r = %v)", got, want, ct.c, h.prime)
		}
	}
	full, err := sk.Decrypt(ct)
	if err != nil {
		t.Fatal(err)
	}
	if slow, err := sk.DecryptNoCRT(ct); err != nil || slow.Cmp(full) != 0 {
		t.Fatalf("Decrypt = %v, textbook = %v, %v (c = %v)", full, slow, err, ct.c)
	}
}

// TestOnePrimeMatchesDecrypt: below the bound bitlen(s) − 65 and at it,
// DecryptBelow takes the smaller factor's half alone and returns what
// Decrypt does; one bit past it, it recombines both halves.
func TestOnePrimeMatchesDecrypt(t *testing.T) {
	rng := mrand.New(mrand.NewSource(47))
	for _, bits := range []int{256, 512, 1024} {
		t.Run(fmt.Sprintf("K=%d", bits), func(t *testing.T) {
			sk, err := GenerateKey(rand.Reader, bits)
			if err != nil {
				t.Fatal(err)
			}
			bound := sk.short.prime.BitLen() - 65 // σ = 64 bits below s, plus one
			if bound < 1 {
				t.Fatalf("no one-prime bound at K = %d", bits)
			}
			limit := new(big.Int).Lsh(one, uint(bound))
			for i := 0; i < 8; i++ {
				checkDecryptBelow(t, sk, new(big.Int).Rand(rng, limit), bound, true)
			}
			top := new(big.Int).Sub(limit, one)
			checkDecryptBelow(t, sk, top, bound, true)
			checkDecryptBelow(t, sk, big.NewInt(0), bound, true)
			past := new(big.Int).Add(limit, new(big.Int).Rand(rng, limit))
			checkDecryptBelow(t, sk, past, bound+1, false)
			checkDecryptBelow(t, sk, top, bound+1, false)
		})
	}
}

// TestOnePrimeUsesSmallerFactor: on a deliberately unbalanced key the
// one-prime path runs under the smaller factor whichever slot it was
// given in — a plaintext past the bound comes back reduced mod the
// smaller prime — and the bound follows that factor's length.
func TestOnePrimeUsesSmallerFactor(t *testing.T) {
	small, large := unbalancedFactors(t, 200, 312)
	bound := small.BitLen() - 65
	for _, order := range [][2]*big.Int{{small, large}, {large, small}} {
		sk, err := NewPrivateKey(order[0], order[1])
		if err != nil {
			t.Fatal(err)
		}
		t.Run(fmt.Sprintf("p=%dbits", order[0].BitLen()), func(t *testing.T) {
			checkDecryptBelow(t, sk, new(big.Int).Lsh(one, uint(bound-1)), bound, true)
			checkDecryptBelow(t, sk, new(big.Int).Lsh(one, uint(bound)), bound+1, false)
			// A plaintext no honest short group has: only the smaller
			// factor's half reduces it to m mod small.
			m, err := sk.RandomZN(rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			ct, err := sk.Encrypt(rand.Reader, m)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sk.DecryptBelow(ct, bound)
			if err != nil {
				t.Fatal(err)
			}
			if want := new(big.Int).Mod(m, small); got.Cmp(want) != 0 {
				t.Fatalf("one-prime decryption = %v, want m mod the smaller factor %v", got, want)
			}
		})
	}
}

// unbalancedFactors returns primes of the two lengths that NewPrivateKey
// accepts together.
func unbalancedFactors(t *testing.T, smallBits, largeBits int) (small, large *big.Int) {
	t.Helper()
	for {
		small, err := rand.Prime(rand.Reader, smallBits)
		if err != nil {
			t.Fatal(err)
		}
		large, err := rand.Prime(rand.Reader, largeBits)
		if err != nil {
			t.Fatal(err)
		}
		if coprimeToTotient(small, large) {
			return small, large
		}
	}
}

// TestUnpackDecryptRefusesCorruptShortGroup: a short group decrypts
// under one prime, and a corrupted one — a carry past its slots, a
// plaintext shifted by a random δ, flipped ciphertext bits — reduces mod
// that prime to something Unpack's range check refuses.
func TestUnpackDecryptRefusesCorruptShortGroup(t *testing.T) {
	sk, err := GenerateKey(rand.Reader, 512)
	if err != nil {
		t.Fatal(err)
	}
	codec, err := NewPacking(&sk.PublicKey, 12)
	if err != nil {
		t.Fatal(err)
	}
	const count = 2
	if count*codec.Width > sk.short.prime.BitLen()-65 {
		t.Fatalf("%d slots of %d bits do not fit one prime", count, codec.Width)
	}
	random := mrand.New(mrand.NewSource(5))
	vals := []*big.Int{big.NewInt(4095), new(big.Int).Sub(codec.mask, one)}
	ct, err := codec.PackEncrypt(random, vals)
	if err != nil {
		t.Fatal(err)
	}
	var got []*big.Int
	if onePrime, _ := decryptPaths(func() { got, err = codec.UnpackDecrypt(sk, ct, count) }); onePrime != 1 || err != nil {
		t.Fatalf("honest group: %d one-prime decryptions, err %v", onePrime, err)
	}
	for j := range vals {
		if got[j].Cmp(vals[j]) != 0 {
			t.Fatalf("slot %d = %v, want %v", j, got[j], vals[j])
		}
	}
	corrupt := []*Ciphertext{sk.AddPlain(ct, new(big.Int).Lsh(one, uint(count*codec.Width)))}
	for i := 0; i < 8; i++ {
		delta, err := sk.RandomNonzeroZN(random)
		if err != nil {
			t.Fatal(err)
		}
		corrupt = append(corrupt, sk.AddPlain(ct, delta))
		flipped := new(big.Int).Set(ct.c)
		bit := random.Intn(sk.Bits())
		flipped.SetBit(flipped, bit, flipped.Bit(bit)^1)
		corrupt = append(corrupt, &Ciphertext{c: flipped})
	}
	for i, bad := range corrupt {
		if _, err := codec.UnpackDecrypt(sk, bad, count); !errors.Is(err, ErrPackRange) {
			t.Errorf("corruption %d: err = %v, want ErrPackRange", i, err)
		}
	}
}
