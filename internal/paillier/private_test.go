package paillier

import (
	"crypto/rand"
	"errors"
	"math/big"
	"sync"
	"testing"
)

// privateKeys returns a key from each way a C2 can come by one: freshly
// generated, assembled from fixed primes, and rebuilt from its factors
// (what a daemon reads from a key file).
func privateKeys(t *testing.T) map[string]*PrivateKey {
	t.Helper()
	reloaded, err := NewPrivateKey(fuzzPackKey().Factors())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*PrivateKey{"generated": testKey(), "primes": fbKey(), "reloaded": reloaded}
}

// privateEncrypt encrypts m under a nonce from the private-key kernel,
// as C2 does with the nonces its NonceReserve hands out.
func privateEncrypt(sk *PrivateKey, m *big.Int) (*Ciphertext, error) {
	nc, err := sk.drawNonce(rand.Reader)
	if err != nil {
		return nil, err
	}
	return sk.EncryptWith(nc, m), nil
}

// privateRerandomize re-randomizes a under a private-key nonce.
func privateRerandomize(sk *PrivateKey, a *Ciphertext) (*Ciphertext, error) {
	nc, err := sk.drawNonce(rand.Reader)
	if err != nil {
		return nil, err
	}
	return sk.RerandomizeWith(nc, a), nil
}

// TestPrivateEncryptRoundTrip drives the private-key nonce kernel
// through encryption and re-randomization over the plaintexts where a
// wrong nonce would show: 0 and 1 (the ciphertext is the nonce itself,
// or nearly), N−1 and −1 (the top of Z_N, reached two ways), and a
// packed plaintext with every slot full.
func TestPrivateEncryptRoundTrip(t *testing.T) {
	for name, sk := range privateKeys(t) {
		codec, err := NewPacking(&sk.PublicKey, 13)
		if err != nil {
			t.Fatal(err)
		}
		full := make([]*big.Int, codec.Slots)
		for i := range full {
			full[i] = codec.mask
		}
		packed, err := codec.Pack(full)
		if err != nil {
			t.Fatal(err)
		}
		nMinus1 := new(big.Int).Sub(sk.N, one)
		for _, tc := range []struct{ m, want *big.Int }{
			{big.NewInt(0), big.NewInt(0)},
			{big.NewInt(1), big.NewInt(1)},
			{nMinus1, nMinus1},
			{big.NewInt(-1), nMinus1},
			{packed, packed},
		} {
			ct, err := privateEncrypt(sk, tc.m)
			if err != nil {
				t.Fatalf("%s: Encrypt(%v): %v", name, tc.m, err)
			}
			if got, err := sk.Decrypt(ct); err != nil || got.Cmp(tc.want) != 0 {
				t.Errorf("%s: Decrypt(Encrypt(%v)) = %v, err %v", name, tc.m, got, err)
			}
			rr, err := privateRerandomize(sk, ct)
			if err != nil {
				t.Fatalf("%s: Rerandomize: %v", name, err)
			}
			if rr.Equal(ct) {
				t.Errorf("%s: Rerandomize returned the identical element", name)
			}
			if got, err := sk.Decrypt(rr); err != nil || got.Cmp(tc.want) != 0 {
				t.Errorf("%s: Decrypt(Rerandomize(E(%v))) = %v, err %v", name, tc.m, got, err)
			}
		}
	}
}

// TestPrivateNonceIsNthResidue: every private nonce lies in the group
// of N-th residues mod N² — the elements of order dividing φ(N) — and
// is not the identity, so a private encryption hides its plaintext the
// way r^N does.
func TestPrivateNonceIsNthResidue(t *testing.T) {
	for name, sk := range privateKeys(t) {
		phi := new(big.Int).Mul(sk.p.minus1, sk.q.minus1)
		for i := 0; i < 32; i++ {
			nc, err := sk.drawNonce(rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			rho := nc.power()
			if rho.Sign() <= 0 || rho.Cmp(sk.NSquared) >= 0 {
				t.Fatalf("%s: nonce outside (0, N²)", name)
			}
			if rho.Cmp(one) == 0 {
				t.Fatalf("%s: nonce is the identity", name)
			}
			if new(big.Int).Exp(rho, phi, sk.NSquared).Cmp(one) != 0 {
				t.Fatalf("%s: nonce %v is not an N-th residue", name, rho)
			}
		}
	}
}

// TestPrivateEncryptCountsOnce: the metering hook the snapshot and
// cost-model tests lean on sees each private encryption exactly once,
// and a rerandomization not at all.
func TestPrivateEncryptCountsOnce(t *testing.T) {
	for name, sk := range privateKeys(t) {
		before := EncryptCalls()
		ct, err := privateEncrypt(sk, big.NewInt(5))
		if err != nil {
			t.Fatal(err)
		}
		if got := EncryptCalls() - before; got != 1 {
			t.Errorf("%s: one private encryption advanced EncryptCalls by %d", name, got)
		}
		if _, err := privateRerandomize(sk, ct); err != nil {
			t.Fatal(err)
		}
		if got := EncryptCalls() - before; got != 1 {
			t.Errorf("%s: a private re-randomization advanced EncryptCalls to %d", name, got)
		}
	}
}

// TestPrivateEncryptConcurrent shares one key across goroutines the way
// C2's serve loops do; run under -race it proves the kernel touches no
// shared mutable state.
func TestPrivateEncryptConcurrent(t *testing.T) {
	for name, sk := range privateKeys(t) {
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 16; i++ {
					want := int64(g*100 + i)
					ct, err := privateEncrypt(sk, big.NewInt(want))
					if err != nil {
						t.Errorf("%s: Encrypt: %v", name, err)
						return
					}
					rr, err := privateRerandomize(sk, ct)
					if err != nil {
						t.Errorf("%s: Rerandomize: %v", name, err)
						return
					}
					if got, err := sk.Decrypt(rr); err != nil || got.Int64() != want {
						t.Errorf("%s: round trip of %d = %v, err %v", name, want, got, err)
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

// TestPrivateEnableFixedBaseIsNoOp: the method survives for bench/'s
// sake only. It must leave the kernel the key was born with — the one
// holders of a copied public key already encrypt through — pointer
// identical, and read nothing from its reader.
func TestPrivateEnableFixedBaseIsNoOp(t *testing.T) {
	sk := fuzzPackKey()
	published := sk.PublicKey // the copy another party holds
	before, crt := sk.fb, sk.fb.crt
	if err := sk.EnableFixedBase(failingReader{}); err != nil {
		t.Fatal(err)
	}
	if sk.fb != before || sk.fb.crt != crt || published.fb != before {
		t.Error("sk.EnableFixedBase replaced the key's nonce kernel")
	}
}

// failingReader fails the test's assumption that nobody reads it.
type failingReader struct{}

func (failingReader) Read([]byte) (int, error) { return 0, errors.New("reader was read") }

// TestUnmarshalRejectsSharedFactorWithTotient: p = 2q+1 passes every
// primality check but gives gcd(pq, (p−1)(q−1)) = q, for which neither
// decryption nor the private nonce argument holds.
func TestUnmarshalRejectsSharedFactorWithTotient(t *testing.T) {
	q, _ := new(big.Int).SetString("1000000000000000000000000000000000009271", 10)
	p := new(big.Int).Lsh(q, 1)
	p.Add(p, one)
	if !p.ProbablyPrime(20) || !q.ProbablyPrime(20) {
		t.Fatal("test vector is not a safe-prime pair")
	}
	for _, f := range [][2]*big.Int{{p, q}, {q, p}} {
		if sk, err := NewPrivateKey(f[0], f[1]); !errors.Is(err, ErrMalformedKey) || sk != nil {
			t.Errorf("NewPrivateKey(p=2q+1) = %v, %v; want no key and ErrMalformedKey", sk, err)
		}
	}
}
