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
// holds the paper's SMINn and SkNNm (Algorithms 4 and 6), runs. SM, SBD
// and SBOR have batched variants that process a whole vector per round
// trip; the arithmetic is identical element-wise, only framing is shared.
//
// Beside them sit the production kernels internal/core calls — the
// slot-packed SSED uplink, the packed bit peel, the blinded operand
// uplink of the frames in which C2 multiplies by a selector it knows
// (pack.go) and the value-domain minimum with its tournament
// (sminvalue.go). Nothing switches between the two families, and no
// kernel falls back to a paper primitive.
//
// C1's side of each protocol is a method on Requester; C2's side is a
// handler registered on an mpc.Mux by Responder, one registration per
// family: the deployed key cloud serves the kernels alone,
// internal/reference's serves both. Every handler, core's and the
// reference's included, opens its request through one door,
// Responder.Decrypt: it decrypts the request's ciphertexts and takes the
// reply's nonces from the Responder's one reserve
// (paillier.NonceReserve), raised before the request arrives. A handler
// keeps only its frame's parsing and its plaintext function, and no
// protocol state between requests.
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
	// 21 is retired (the slot-packed SM uplink); do not reuse.
	// 22 is retired (the slot-packed SBD LSB round); do not reuse.
	OpSSEDPack   mpc.Op = 23 // slot-packed SSED record distances (pack.go)
	OpSBDPackBit mpc.Op = 24 // slot-packed shifted bit round (pack.go)
)

// OpSMPack is retired opcode 21, the slot-packed SM uplink: nothing
// sends or serves it, and a frame carrying it is answered as an unknown
// opcode. The number stays declared — as a plain integer, not an mpc.Op
// anything could dispatch — only because bench/ledger.go still names it.
const OpSMPack = 21

// Errors returned by the primitives.
var (
	ErrLengthMismatch = errors.New("smc: input vector lengths differ")
	ErrEmptyInput     = errors.New("smc: empty input")
	ErrBadFrame       = mpc.ErrBadFrame // the transport's sentinel: one class for every malformed frame
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

	// codecs caches the slot codec per value-bit width so the packed
	// kernels called once per network layer or tournament level
	// (SMINValuePairsBatch, PackBlinded) don't rebuild it each call. A
	// Requester drives primitives serially — its documented contract — so
	// the map needs no lock.
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
	return &Requester{pk: pk, conn: conn, rand: random}
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

// Rand returns the requester's randomness source.
func (rq *Requester) Rand() io.Reader { return rq.rand }

// EncryptZero returns a fresh encryption of 0.
func (rq *Requester) EncryptZero() (*paillier.Ciphertext, error) {
	return rq.pk.EncryptInt64(rq.rand, 0)
}

// RoundTrip sends C2 one frame — the header integers, then the raw
// values of the uplink ciphertexts — and returns the reply's fields for
// the caller to read and finish with Done. It is the one door by which a
// ciphertext of C1's reaches C2: every frame the primitives here,
// internal/core's rank and reveal and internal/reference's protocols
// send the key cloud leaves through it.
func (rq *Requester) RoundTrip(op mpc.Op, header []int, uplink []*paillier.Ciphertext) (*mpc.Fields, error) {
	ints := make([]*big.Int, 0, len(header)+len(uplink))
	for _, h := range header {
		ints = append(ints, big.NewInt(int64(h)))
	}
	for _, ct := range uplink {
		ints = append(ints, ct.Raw())
	}
	resp, err := mpc.RoundTrip(rq.conn, &mpc.Message{Op: op, Ints: ints})
	if err != nil {
		return nil, err
	}
	return mpc.ReadFields(resp.Ints), nil
}

// exchange is RoundTrip for a reply of want ciphertexts under the
// requester's key: the one place C1 decodes a ciphertext reply from C2.
func (rq *Requester) exchange(op mpc.Op, header []int, uplink []*paillier.Ciphertext, want int) ([]*paillier.Ciphertext, error) {
	f, err := rq.RoundTrip(op, header, uplink)
	if err != nil {
		return nil, err
	}
	cts := make([]*paillier.Ciphertext, want)
	for i := range cts {
		cts[i] = mpc.Read(f, rq.pk.FromRaw)
	}
	if err := f.Done(); err != nil {
		return nil, fmt.Errorf("smc: op %d reply: %w", op, err)
	}
	return cts, nil
}

// Responder is C2's execution context: the secret key and the reserve
// every reply encryption draws its nonce from. It keeps no protocol
// state between requests — only that reserve of its own randomness,
// raised ahead of the requests — and is safe for concurrent serve loops.
type Responder struct {
	sk     *paillier.PrivateKey
	nonces *paillier.NonceReserve
}

// NewResponder builds C2's context, its reply nonces drawn from random
// (crypto/rand.Reader if nil) in stream order. The responder's reserve
// reads random between requests too, so it must be C2's own.
func NewResponder(sk *paillier.PrivateKey, random io.Reader) *Responder {
	return &Responder{sk: sk, nonces: paillier.NewNonceReserve(sk, random)}
}

// Decrypt is C2's one door out of its key: every plaintext a key-cloud
// handler reads, and every nonce its reply encrypts under, comes from
// here — smc's handlers, core.CloudC2's rank and reveal and
// internal/reference's min-select alike. It takes the next replies
// nonces from the reserve (none, and no raiser started, when replies is
// 0) and decrypts each cts[i] as a plaintext of at most bits[i] bits
// (paillier.DecryptBelow: a short packed group's count·Width takes the
// smaller prime alone), or at full width when bits is nil, raising the
// nonces the reserve has not in the same task list
// (paillier.RaiseAlongside). An error is the lowest failing index's; no
// goroutine of the fan-out outlives the call.
func (rp *Responder) Decrypt(cts []*paillier.Ciphertext, bits []int, replies int) ([]*big.Int, []*paillier.Nonce, error) {
	var nonces []*paillier.Nonce
	if replies > 0 {
		var err error
		if nonces, err = rp.nonces.Take(replies); err != nil {
			return nil, nil, fmt.Errorf("smc: reply nonces: %w", err)
		}
	}
	full := rp.sk.N.BitLen()
	ms := make([]*big.Int, len(cts))
	err := paillier.RaiseAlongside(nonces, len(cts), func(i int) error {
		b := full
		if bits != nil {
			b = bits[i]
		}
		m, err := rp.sk.DecryptBelow(cts[i], b)
		if err != nil {
			return fmt.Errorf("smc: decrypt [%d]: %w", i, err)
		}
		ms[i] = m
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return ms, nonces, nil
}

// RegisterPaper installs the handlers of the paper's primitives as
// printed (SM, SBD's two rounds, SMIN's second round) on mux. Only
// internal/reference's key cloud serves them.
func (rp *Responder) RegisterPaper(mux *mpc.Mux) {
	mux.Register(OpSM, mpc.HandlerFunc(rp.handleSM))
	mux.Register(OpSBDLsb, mpc.HandlerFunc(rp.handleSBDLsb))
	mux.Register(OpSBDVerify, mpc.HandlerFunc(rp.handleSBDVerify))
	mux.Register(OpSMIN, mpc.HandlerFunc(rp.handleSMIN))
}

// RegisterKernels installs the handlers of the packed kernels
// internal/core sends (packed SSED, the bit peel) on mux.
func (rp *Responder) RegisterKernels(mux *mpc.Mux) {
	mux.Register(OpSSEDPack, mpc.HandlerFunc(rp.handleSSEDPack))
	mux.Register(OpSBDPackBit, mpc.HandlerFunc(rp.handleSBDPackBit))
}

// Mux returns a fresh Mux with all smc handlers, of both families,
// registered.
func (rp *Responder) Mux() *mpc.Mux {
	mux := mpc.NewMux()
	rp.RegisterPaper(mux)
	rp.RegisterKernels(mux)
	return mux
}

// encryptReply assembles a reply of fresh encryptions, ms[i] under
// nonces[i] from Decrypt: the cheap half left once the reserve's raiser,
// or the door's fan-out beside the decryptions, has raised the nonces.
func (rp *Responder) encryptReply(nonces []*paillier.Nonce, ms []*big.Int) []*big.Int {
	out := make([]*big.Int, len(ms))
	for i, m := range ms {
		out[i] = rp.sk.EncryptWith(nonces[i], m).Raw()
	}
	return out
}

// ciphertexts reads a request that is nothing but ciphertexts under the
// responder's key: at least one, and a multiple of per.
func (rp *Responder) ciphertexts(req *mpc.Message, per int) ([]*paillier.Ciphertext, error) {
	f := mpc.ReadFields(req.Ints)
	cts := mpc.ReadRest(f, rp.sk.FromRaw)
	if err := f.Err(); err != nil {
		return nil, fmt.Errorf("smc: op %d: %w", req.Op, err)
	}
	if len(cts) == 0 || len(cts)%per != 0 {
		return nil, fmt.Errorf("%w: op %d payload of %d ciphertexts", ErrBadFrame, req.Op, len(cts))
	}
	return cts, nil
}
