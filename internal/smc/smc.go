// Package smc implements the paper's basic security primitives (Section 3)
// as two-party protocols between C1 (the data cloud, which holds only
// ciphertexts and the public key) and C2 (the key cloud, which holds the
// Paillier secret key):
//
//   - SM     — Secure Multiplication (Algorithm 1)
//   - SSED   — Secure Squared Euclidean Distance (Algorithm 2)
//   - SBD    — Secure Bit-Decomposition (Samanthula–Jiang, ASIACCS'13 [21])
//   - SMIN   — Secure Minimum of two bit-decomposed values (Algorithm 3)
//   - SBOR   — Secure Bit-OR (Section 3)
//
// as printed — one ciphertext per value, full-range blinds (sm.go,
// ssed.go, sbd.go, smin.go, sbor.go). They are the oracle of this
// package's differential tests and exactly what internal/reference, which
// holds the paper's SMINn and SkNNm (Algorithms 4 and 6), runs. Each has
// a batched variant that processes a whole vector per round trip; the
// arithmetic is identical element-wise, only framing is shared.
//
// Beside them sit the production kernels internal/core calls — the
// slot-packed SM and SSED uplinks and the packed bit peel (pack.go) and
// the value-domain minimum with its tournament (sminvalue.go). Nothing
// switches between the two families: a kernel falls back to its paper
// primitive only on something it observes (a key too small to pack, an
// operand too wide for a slot pair).
//
// C1's side of each protocol is a method on Requester; C2's side is a
// stateless handler registered on an mpc.Mux by Responder.
//
// Bit-vector convention: as in the paper, [z] = ⟨E(z₁),…,E(z_l)⟩ with
// index 0 holding the MOST significant bit.
package smc

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"

	"sknn/internal/mpc"
	"sknn/internal/paillier"
)

// Opcodes 16–63 are reserved for smc (0–15 belong to mpc).
const (
	OpSM        mpc.Op = 16 // batched secure multiplication
	OpSBDLsb    mpc.Op = 17 // batched encrypted-LSB extraction
	OpSBDVerify mpc.Op = 18 // batched randomized zero test
	OpSMIN      mpc.Op = 19 // SMIN step 2 (Γ′, L′ → M′, E(α))
	// 20 is retired (the round-batched bit-vector SMIN); do not reuse.
	OpSMPack mpc.Op = 21 // slot-packed SM uplink (pack.go)
	// 22 is retired (the slot-packed SBD LSB round); do not reuse.
	OpSSEDPack   mpc.Op = 23 // slot-packed SSED record distances (pack.go)
	OpSBDPackBit mpc.Op = 24 // slot-packed shifted bit round (pack.go)
)

// Errors returned by the primitives.
var (
	ErrLengthMismatch = errors.New("smc: input vector lengths differ")
	ErrEmptyInput     = errors.New("smc: empty input")
	ErrBadFrame       = errors.New("smc: malformed protocol frame")
	ErrSBDVerify      = errors.New("smc: bit decomposition failed verification after retries")
)

// oneBig is the shared constant 1 (read-only).
var oneBig = big.NewInt(1)

// sbdMaxRetries bounds the verify-and-retry loop of SBD. The failure
// probability per value is ≈ 2^l / N (< 2^-200 for realistic keys), so a
// retry triggering at all in practice means a broken peer.
const sbdMaxRetries = 4

// statSecBits is σ, the statistical-hiding margin of the short additive
// blinds: a bounded plaintext behind a (bound+σ)-bit blind is hidden to
// statistical distance 2^−σ. Matches paillier.PackHeadroom − 2 so a
// blinded slot value always fits its slot.
const statSecBits = 64

// Requester is C1's execution context: the public key, one connection to
// C2, and a randomness source. A Requester drives primitives serially;
// for parallel work open one Requester per worker connection.
type Requester struct {
	pk   *paillier.PublicKey
	conn mpc.Conn
	rand io.Reader

	// invTwo caches 2⁻¹ mod N for SBD's halving step.
	invTwo *big.Int

	// codecs caches the slot codec per value-bit width so the packed
	// kernels called once per tournament level (SMINValuePairsBatch,
	// SMBatchBounded) don't rebuild it each call. A Requester drives
	// primitives serially — its documented contract — so the map needs
	// no lock.
	codecs map[int]*paillier.Packing
}

// packCodec returns the slot codec for valueBits-wide values, cached
// per width for the lifetime of the requester.
func (rq *Requester) packCodec(valueBits int) (*paillier.Packing, error) {
	if c, ok := rq.codecs[valueBits]; ok {
		return c, nil
	}
	c, err := paillier.NewPacking(rq.pk, valueBits)
	if err != nil {
		return nil, err
	}
	if rq.codecs == nil {
		rq.codecs = make(map[int]*paillier.Packing)
	}
	rq.codecs[valueBits] = c
	return c, nil
}

// NewRequester builds C1's context. If random is nil, crypto/rand.Reader
// is used.
func NewRequester(pk *paillier.PublicKey, conn mpc.Conn, random io.Reader) *Requester {
	if random == nil {
		random = rand.Reader
	}
	return &Requester{
		pk:     pk,
		conn:   conn,
		rand:   random,
		invTwo: new(big.Int).ModInverse(big.NewInt(2), pk.N),
	}
}

// shortBlind samples a statistical blind in [0, 2^(bits+σ)) for a
// plaintext bounded by 2^bits.
func (rq *Requester) shortBlind(bits int) (*big.Int, error) {
	bound := new(big.Int).Lsh(oneBig, uint(bits+statSecBits))
	r, err := rand.Int(rq.rand, bound)
	if err != nil {
		return nil, fmt.Errorf("smc: short blind: %w", err)
	}
	return r, nil
}

// PK returns the public key the requester encrypts under.
func (rq *Requester) PK() *paillier.PublicKey { return rq.pk }

// Conn returns the underlying connection (for stats and shutdown).
func (rq *Requester) Conn() mpc.Conn { return rq.conn }

// Rand returns the requester's randomness source.
func (rq *Requester) Rand() io.Reader { return rq.rand }

// EncryptZero returns a fresh encryption of 0.
func (rq *Requester) EncryptZero() (*paillier.Ciphertext, error) {
	return rq.pk.EncryptInt64(rq.rand, 0)
}

// roundTrip performs one request/response exchange, validating the reply
// payload length.
func (rq *Requester) roundTrip(op mpc.Op, payload []*big.Int, wantLen int) ([]*big.Int, error) {
	resp, err := mpc.RoundTrip(rq.conn, &mpc.Message{Op: op, Ints: payload})
	if err != nil {
		return nil, err
	}
	if len(resp.Ints) != wantLen {
		return nil, fmt.Errorf("%w: op %d reply has %d ints, want %d",
			ErrBadFrame, op, len(resp.Ints), wantLen)
	}
	return resp.Ints, nil
}

// rawCiphertexts converts a reply payload into validated ciphertexts.
func (rq *Requester) rawCiphertexts(vals []*big.Int) ([]*paillier.Ciphertext, error) {
	out := make([]*paillier.Ciphertext, len(vals))
	for i, v := range vals {
		ct, err := rq.pk.FromRaw(v)
		if err != nil {
			return nil, fmt.Errorf("smc: reply component %d: %w", i, err)
		}
		out[i] = ct
	}
	return out, nil
}

// Responder is C2's execution context: the secret key and a randomness
// source for re-randomizing replies. Responder is stateless across
// requests and safe for concurrent serve loops.
type Responder struct {
	sk   *paillier.PrivateKey
	rand io.Reader
}

// NewResponder builds C2's context. If random is nil, crypto/rand.Reader
// is used.
func NewResponder(sk *paillier.PrivateKey, random io.Reader) *Responder {
	if random == nil {
		random = rand.Reader
	}
	return &Responder{sk: sk, rand: random}
}

// Register installs all smc handlers on mux.
func (rp *Responder) Register(mux *mpc.Mux) {
	mux.Register(OpSM, mpc.HandlerFunc(rp.handleSM))
	mux.Register(OpSBDLsb, mpc.HandlerFunc(rp.handleSBDLsb))
	mux.Register(OpSBDVerify, mpc.HandlerFunc(rp.handleSBDVerify))
	mux.Register(OpSMIN, mpc.HandlerFunc(rp.handleSMIN))
	mux.Register(OpSMPack, mpc.HandlerFunc(rp.handleSMPack))
	mux.Register(OpSSEDPack, mpc.HandlerFunc(rp.handleSSEDPack))
	mux.Register(OpSBDPackBit, mpc.HandlerFunc(rp.handleSBDPackBit))
}

// Mux returns a fresh Mux with all smc handlers registered.
func (rp *Responder) Mux() *mpc.Mux {
	mux := mpc.NewMux()
	rp.Register(mux)
	return mux
}

// encryptReply assembles a reply of fresh encryptions, ms[i] under
// nonces[i]: the cheap half left once a handler's fan-out has raised the
// nonces beside its decryptions (paillier.RaiseAlongside).
func (rp *Responder) encryptReply(nonces []*paillier.Nonce, ms []*big.Int) []*big.Int {
	out := make([]*big.Int, len(ms))
	for i, m := range ms {
		out[i] = rp.sk.EncryptWith(nonces[i], m).Raw()
	}
	return out
}

// decryptRaw validates and decrypts one payload element.
func (rp *Responder) decryptRaw(v *big.Int) (*big.Int, error) {
	ct, err := rp.sk.FromRaw(v)
	if err != nil {
		return nil, err
	}
	return rp.sk.Decrypt(ct)
}
