// Package core implements the paper's two protocols — SkNNb (Algorithm 5,
// the efficient basic protocol) and SkNNm (Algorithm 6, the fully secure
// protocol) — plus their parallel variants (Section 5.3).
//
// Cast of parties and where each lives:
//
//   - Alice, the data owner: EncryptTable. She encrypts attribute-wise,
//     outsources, and never participates again.
//   - Bob, the authorized user: Client. He encrypts a query
//     (EncryptQuery) and unmasks the k result records (Finish, which
//     also ranks SkNNm's set); that is all the computation he ever
//     does, which is the paper's "lightweight end-user" property.
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

	"sknn/internal/dataset"
	"sknn/internal/mpc"
	"sknn/internal/paillier"
)

// Opcodes 64+ belong to the protocol layer (mpc owns 0–15, smc 16–63).
// 64, 65 and 67 travel C1↔C2; 66, the paper's one-hot select, is
// internal/reference's (OpMinSelect) and no deployed C2 serves it; 68,
// the clustered index's plaintext argmin, is retired: the cluster
// ranking reveals its winner's id through 65. 80+ travel
// coordinator↔shard (shardwire.go) and never reach C2.
const (
	OpRank   mpc.Op = 64 // SkNNb: decrypt distances, return top-k index list δ
	OpReveal mpc.Op = 65 // both: decrypt masked result attributes γ → γ′; the cluster ranking's masked winner id
	OpHello  mpc.Op = 67 // session handshake: verify both clouds share one key

	OpShardHello mpc.Op = 80 // coordinator→shard: partition lineage + table shape
	OpShardTopK  mpc.Op = 81 // coordinator→shard: scatter one shard-local top-k scan
)

// Errors returned by the protocols.
var (
	ErrBadK          = errors.New("core: k must satisfy 1 ≤ k ≤ n")
	ErrDimension     = dataset.ErrDimension // Bob's admission (Shape.CheckQuery) and C1's check share it
	ErrKeyMismatch   = errors.New("core: ciphertext under a different public key")
	ErrBadFrame      = mpc.ErrBadFrame // the transport's sentinel: one class for every malformed frame
	ErrNoConnections = errors.New("core: CloudC1 needs at least one connection")
	ErrCloudClosed   = errors.New("core: cloud closed")
	ErrDomainBits    = errors.New("core: domain size l out of range")
	ErrHello         = errors.New("core: key mismatch between C1 and C2")
	ErrNotClustered  = errors.New("core: table has no cluster index")
)

// serveInflight is how many requests C2 and a shard worker answer at once
// on one connection, whose peer multiplexes query sessions over it.
const serveInflight = 4

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
// domain size l under pk. l is the table's: dataset.DomainBits of its
// attribute width and feature columns, derived where a session opens and
// nowhere taken as input. A comparator of the selection network compares
// two distances by the top bit of t = 2^l + a − b, peeled inside one slot
// of the packed codec (smc.SMINValuePairsBatch): l + 1 value bits plus
// paillier.PackHeadroom = 66 spare ones (σ = 64 of statistical blinding
// and two carries), in a plaintext that keeps its own two top bits clear
// — so a K-bit key carries 1 ≤ l ≤ K − 69 (and l + 1 ≤ 512, the codec's
// cap). The same bound gives every comparator its operand slots: the
// peel's output round packs a distance difference or a record chunk's
// below 2^max(l+1, c·b+1), one to a slot at least, where c·b — c columns
// of the table's attribute width b — stays under half the plaintext
// (rowLayoutFor); l sizes the comparison, b the records, and l ≥ 2b by
// derivation. A layer of the network is l + 1
// round trips, the peel's, whose last also selects. Anything else is
// ErrDomainBits at every SkNNm entry point; there is no slower path to
// drop to.
func CheckDomainBits(pk *paillier.PublicKey, l int) error { return checkDomainBits(pk.Bits(), l) }

// checkDomainBits is CheckDomainBits for a key of keyBits bits.
func checkDomainBits(keyBits, l int) error {
	if l < 1 {
		return fmt.Errorf("%w: l=%d", ErrDomainBits, l)
	}
	if _, err := paillier.LayoutFor(keyBits, l+1); err != nil {
		return fmt.Errorf("%w: l=%d does not fit a %d-bit key (l ≤ K−69, at most 511)",
			ErrDomainBits, l, keyBits)
	}
	return nil
}

func validateK(k, n int) error {
	if k < 1 || k > n {
		return fmt.Errorf("%w: k=%d, n=%d", ErrBadK, k, n)
	}
	return nil
}
