package smc

import (
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sknn/internal/paillier"
	"sknn/internal/testkit"
)

// countingReader is crypto/rand that counts the bytes read from it, from
// any goroutine.
type countingReader struct{ n atomic.Int64 }

func (r *countingReader) Read(p []byte) (int, error) {
	n, err := rand.Read(p)
	r.n.Add(int64(n))
	return n, err
}

// settle polls until the process is back to at most want goroutines or
// two seconds pass, and returns the count: a fan-out helper's wg.Done
// runs a moment before its goroutine is gone, and a reserve's raiser
// exits on its own once the reserve is full.
func settle(want int) int {
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	return runtime.NumGoroutine()
}

// TestResponderDecryptDoor holds C2's one door to its contract at K =
// 256 and 512: each ciphertext takes the decryption path its declared
// bound selects, a request without replies leaves the reserve alone, a
// failure is the lowest failing index's, and nothing the call starts
// outlives it.
func TestResponderDecryptDoor(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, k := range []int{256, 512} {
		t.Run(fmt.Sprint(k), func(t *testing.T) {
			sk := testkit.Key(k)
			short := paillier.OnePrimeBits(k)
			// Six plaintexts of short/2 bits at most: the first three
			// declared at or below the one-prime bound, the rest past it.
			want := make([]*big.Int, 6)
			cts := make([]*paillier.Ciphertext, len(want))
			for i := range want {
				want[i] = new(big.Int).Lsh(big.NewInt(int64(2*i+1)), uint(short/2-4))
				ct, err := sk.Encrypt(rand.Reader, want[i])
				if err != nil {
					t.Fatal(err)
				}
				cts[i] = ct
			}
			bits := []int{short, short - 1, 1 + short/2, short + 1, k - 1, k}

			t.Run("paths", func(t *testing.T) {
				rp := NewResponder(sk, nil)
				for _, tc := range []struct {
					name          string
					bits          []int
					onePrime, crt uint64
				}{
					{"declared", bits, 3, 3},
					{"full width", nil, 0, 6},
				} {
					o0, c0 := paillier.DecryptCalls()
					ms, nonces, err := rp.Decrypt(cts, tc.bits, 0)
					o1, c1 := paillier.DecryptCalls()
					if err != nil {
						t.Fatal(err)
					}
					if o1-o0 != tc.onePrime || c1-c0 != tc.crt {
						t.Errorf("%s: %d one-prime and %d CRT decryptions, want %d and %d",
							tc.name, o1-o0, c1-c0, tc.onePrime, tc.crt)
					}
					if nonces != nil {
						t.Errorf("%s: %d nonces for a request without replies", tc.name, len(nonces))
					}
					for i, m := range ms {
						if m.Cmp(want[i]) != 0 {
							t.Errorf("%s: plaintext %d = %v, want %v", tc.name, i, m, want[i])
						}
					}
				}
			})

			t.Run("no replies", func(t *testing.T) {
				random := new(countingReader)
				rp := NewResponder(sk, random)
				before := runtime.NumGoroutine()
				if _, _, err := rp.Decrypt(cts, bits, 0); err != nil {
					t.Fatal(err)
				}
				if after := settle(before); after > before {
					t.Errorf("%d goroutines before the call, %d after", before, after)
				}
				time.Sleep(20 * time.Millisecond) // room for a raiser, were one started
				if n := random.n.Load(); n != 0 {
					t.Errorf("a request without replies read %d bytes from the reserve's reader", n)
				}
				// The contrast: replies draw from the reader and leave a
				// raiser that exits on its own.
				_, nonces, err := rp.Decrypt(cts, bits, 2)
				if err != nil {
					t.Fatal(err)
				}
				if len(nonces) != 2 || random.n.Load() == 0 {
					t.Errorf("2 replies: %d nonces, %d bytes read", len(nonces), random.n.Load())
				}
				if after := settle(before); after > before {
					t.Errorf("%d goroutines before the call, %d two seconds after", before, after)
				}
			})

			t.Run("lowest failing index", func(t *testing.T) {
				// Values outside sk's group, carried by a key one bit wider.
				wide, err := paillier.NewPublicKey(new(big.Int).Add(new(big.Int).Lsh(sk.N, 1), oneBig))
				if err != nil {
					t.Fatal(err)
				}
				outside := func(v *big.Int) *paillier.Ciphertext {
					ct, err := wide.FromRaw(v)
					if err != nil {
						t.Fatal(err)
					}
					return ct
				}
				bad := append([]*paillier.Ciphertext(nil), cts...)
				bad[2] = outside(sk.NSquared)
				bad[4] = outside(new(big.Int).Add(sk.NSquared, oneBig))
				rp := NewResponder(sk, nil)
				for _, replies := range []int{0, len(bad)} {
					for range 5 {
						before := runtime.NumGoroutine()
						ms, nonces, err := rp.Decrypt(bad, bits, replies)
						if !errors.Is(err, paillier.ErrInvalidCiphertext) || !strings.Contains(err.Error(), "[2]") {
							t.Fatalf("%d replies: got %v, want index 2's %v", replies, err, paillier.ErrInvalidCiphertext)
						}
						if ms != nil || nonces != nil {
							t.Errorf("%d replies: a failed call returned plaintexts or nonces", replies)
						}
						if after := settle(before); after > before {
							t.Errorf("%d replies: %d goroutines before the call, %d after", replies, before, after)
						}
					}
				}
			})
		})
	}
}
