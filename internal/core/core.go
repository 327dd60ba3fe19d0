// Package core implements the paper's two protocols — SkNNb (Algorithm 5,
// the efficient basic protocol) and SkNNm (Algorithm 6, the fully secure
// protocol) — plus their parallel variants (Section 5.3).
//
// Cast of parties and where each lives:
//
//   - Alice, the data owner: EncryptTable. She encrypts attribute-wise,
//     outsources, and never participates again.
//   - Bob, the authorized user: Client. He encrypts a query
//     (EncryptQuery) and unmasks the k result records (Unmask); that is
//     all the computation he ever does, which is the paper's
//     "lightweight end-user" property.
//   - C1, the data cloud: CloudC1. Holds E(T) and the public key,
//     orchestrates every protocol phase through smc primitives.
//   - C2, the key cloud: CloudC2. Holds the secret key and answers C1's
//     frames; never sees unblinded data.
//
// Result delivery: in the paper C1 sends masks r directly to Bob and C2
// sends decrypted masked attributes γ′ directly to Bob. This runtime has
// a single C1↔C2 link, so C2's γ′ frame is routed back through C1, which
// packages it — without inspecting it — into the MaskedResult handed to
// Bob. The values C1 relays are exactly the ones the paper already lets
// C1 generate masks for, so the simulation argument is unchanged.
package core

import (
	"context"
	"errors"
	"fmt"

	"sknn/internal/mpc"
	"sknn/internal/paillier"
)

// Opcodes 64+ belong to the protocol layer (mpc owns 0–15, smc 16–63).
// 64–68 travel C1↔C2; 80+ travel coordinator↔shard (shardwire.go) and
// never reach C2.
const (
	OpRank      mpc.Op = 64 // SkNNb: decrypt distances, return top-k index list δ
	OpReveal    mpc.Op = 65 // both: decrypt masked result attributes γ → γ′
	OpMinSelect mpc.Op = 66 // SkNNm: decrypt blinded β, return one-hot U
	OpHello     mpc.Op = 67 // session handshake: verify both clouds share one key
	OpMinIndex  mpc.Op = 68 // clustered index: decrypt blinded β, return argmin position in the clear

	OpShardHello mpc.Op = 80 // coordinator→shard: partition lineage + table shape
	OpShardTopK  mpc.Op = 81 // coordinator→shard: scatter one shard-local top-k scan
)

// Errors returned by the protocols.
var (
	ErrBadK          = errors.New("core: k must satisfy 1 ≤ k ≤ n")
	ErrDimension     = errors.New("core: query/record dimension mismatch")
	ErrKeyMismatch   = errors.New("core: ciphertext under a different public key")
	ErrNoZeroInBeta  = errors.New("core: no minimum found in blinded distance vector")
	ErrBadFrame      = errors.New("core: malformed protocol frame")
	ErrNoConnections = errors.New("core: CloudC1 needs at least one connection")
	ErrCloudClosed   = errors.New("core: cloud closed")
	ErrDomainBits    = errors.New("core: domain size l out of range")
	ErrHello         = errors.New("core: key mismatch between C1 and C2")
	ErrNotClustered  = errors.New("core: table has no cluster index")
)

// ErrCanceled marks a query aborted by its context. It is the same
// sentinel value the transport layer uses (mpc.ErrCanceled), so
// errors.Is(err, ErrCanceled) holds no matter which layer noticed the
// cancellation first; every wrapping error also carries ctx.Err(), so
// errors.Is against context.Canceled / context.DeadlineExceeded holds
// too.
var ErrCanceled = mpc.ErrCanceled

// ctxErr converts a done context into the typed cancellation error the
// protocol loops return between rounds; nil contexts never cancel.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	}
	return nil
}

// CheckDomainBits reports whether SkNNm can run at squared-distance
// domain size l under pk. The tournament compares two distances by the
// top bit of t = 2^l + a − b, peeled inside one slot of the packed codec
// (smc.SMINValuePairsBatch): l + 1 value bits plus paillier.PackHeadroom
// = 66 spare ones (σ = 64 of statistical blinding and two carries), in a
// plaintext that keeps its own two top bits clear — so a K-bit key
// carries 1 ≤ l ≤ K − 69 (and l + 1 ≤ 512, the codec's cap). Anything
// else is ErrDomainBits at every entry point; there is no slower path to
// drop to.
func CheckDomainBits(pk *paillier.PublicKey, l int) error {
	if l < 1 {
		return fmt.Errorf("%w: l=%d", ErrDomainBits, l)
	}
	if _, err := paillier.NewPacking(pk, l+1); err != nil {
		return fmt.Errorf("%w: l=%d does not fit a %d-bit key (l ≤ K−69, at most 511)",
			ErrDomainBits, l, pk.Bits())
	}
	return nil
}

func validateK(k, n int) error {
	if k < 1 || k > n {
		return fmt.Errorf("%w: k=%d, n=%d", ErrBadK, k, n)
	}
	return nil
}
