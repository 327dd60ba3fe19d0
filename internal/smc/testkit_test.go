package smc

import (
	"crypto/rand"
	"math/big"
	"testing"

	"sknn/internal/mpc"
	"sknn/internal/paillier"
	"sknn/internal/testkit"
)

// testKey is the shared 256-bit key for the whole smc suite, drawn from
// the cross-package keyring (keygen is the slow part; the key itself is
// immutable).
func testKey() *paillier.PrivateKey { return testkit.Key(256) }

// pair wires a Requester to a live Responder over an in-process pipe and
// registers cleanup. Tests drive the returned Requester directly.
func pair(t testing.TB) (*Requester, *paillier.PrivateKey) {
	t.Helper()
	sk := testKey()
	return pairOn(t, sk), sk
}

// pairOn is pair under a caller-chosen key (benchmarks run at the
// benchmark's 512 bits).
func pairOn(t testing.TB, sk *paillier.PrivateKey) *Requester {
	t.Helper()
	return servedBy(t, sk, NewResponder(sk, nil).Mux())
}

// servedBy wires a Requester to handler — the genuine responder mux, or
// a wrapper around it that counts or tampers — over an in-process pipe
// and registers cleanup.
func servedBy(t testing.TB, sk *paillier.PrivateKey, handler mpc.Handler) *Requester {
	t.Helper()
	c1Conn, c2Conn := mpc.ChanPipe()
	done := make(chan error, 1)
	go func() { done <- mpc.Serve(c2Conn, handler) }()
	t.Cleanup(func() {
		if err := mpc.SendClose(c1Conn); err != nil {
			t.Errorf("close: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("responder loop: %v", err)
		}
		c1Conn.Close()
		c2Conn.Close()
	})
	return NewRequester(&sk.PublicKey, c1Conn, nil)
}

// enc encrypts a small integer, failing the test on error.
func enc(t testing.TB, sk *paillier.PrivateKey, v int64) *paillier.Ciphertext {
	t.Helper()
	ct, err := sk.Encrypt(rand.Reader, big.NewInt(v))
	if err != nil {
		t.Fatal(err)
	}
	return ct
}

// encVec encrypts a vector attribute-wise.
func encVec(t testing.TB, sk *paillier.PrivateKey, vs ...int64) []*paillier.Ciphertext {
	t.Helper()
	out := make([]*paillier.Ciphertext, len(vs))
	for i, v := range vs {
		out[i] = enc(t, sk, v)
	}
	return out
}

// encBits bit-decomposes v into l encrypted bits, MSB first — the [v]
// notation of the paper, prepared locally for tests.
func encBits(t testing.TB, sk *paillier.PrivateKey, v uint64, l int) []*paillier.Ciphertext {
	t.Helper()
	out := make([]*paillier.Ciphertext, l)
	for i := 0; i < l; i++ {
		bit := (v >> (l - 1 - i)) & 1
		ct, err := sk.EncryptUint64(rand.Reader, bit)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = ct
	}
	return out
}

// dec decrypts to int64 (unsigned range), failing on error.
func dec(t testing.TB, sk *paillier.PrivateKey, ct *paillier.Ciphertext) int64 {
	t.Helper()
	m, err := sk.Decrypt(ct)
	if err != nil {
		t.Fatal(err)
	}
	return m.Int64()
}

// decBits decrypts an encrypted bit vector (MSB first) to its value,
// failing if any component is not a bit.
func decBits(t testing.TB, sk *paillier.PrivateKey, bits []*paillier.Ciphertext) uint64 {
	t.Helper()
	var v uint64
	for i, ct := range bits {
		b := dec(t, sk, ct)
		if b != 0 && b != 1 {
			t.Fatalf("bit %d decrypts to %d, not a bit", i, b)
		}
		v = v<<1 | uint64(b)
	}
	return v
}

// packRows renders rows under the SSED slot codec for valueBits-wide
// payloads, the way core's table memo does row by row.
func packRows(t testing.TB, pk *paillier.PublicKey, valueBits int, rows [][]*paillier.Ciphertext) *PackedRows {
	t.Helper()
	codec, err := paillier.NewPacking(pk, valueBits)
	if err != nil {
		t.Fatal(err)
	}
	out := &PackedRows{Codec: codec, Rows: make([][]*paillier.Ciphertext, len(rows))}
	for i, row := range rows {
		if out.Rows[i], err = PackRow(codec, row); err != nil {
			t.Fatalf("packing row %d: %v", i, err)
		}
	}
	return out
}

// bigInts builds a frame payload from small integers.
func bigInts(vals ...int64) []*big.Int {
	out := make([]*big.Int, len(vals))
	for i, v := range vals {
		out[i] = big.NewInt(v)
	}
	return out
}
