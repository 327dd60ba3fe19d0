package partyflow

// The role manifest is the machine-readable statement of the paper's
// party boundary (Elmehdwi, Samanthula, Jiang, ICDE'14 §3): which
// files of the protocol package act as which party, and therefore what
// they may touch.
//
//   - c1     — the data cloud. Holds the encrypted table and drives the
//     protocol; must never reference key material (PrivateKey, the smc
//     Responder, or any Decrypt), because the security argument is
//     exactly that C1 sees only ciphertexts and blinded values.
//   - c2     — the key cloud. Holds sk and decrypts, but only values C1
//     blinded and permuted first (β = r·(dmin − dᵢ)); every decrypted
//     value that flows back onto the wire must be re-encrypted, or is a
//     documented, annotated leak.
//   - owner  — Alice's tooling: generates keys and encrypts the table.
//   - client — Bob: submits the encrypted query and receives results;
//     never holds key material.
//
// Files are keyed as "<package path>/<base name>". The analyzer checks
// the manifest both ways: a non-test file of a scoped package missing
// from the manifest is a finding, and a manifest entry naming a file
// that no longer exists is a finding — so the boundary declaration
// cannot rot as the package evolves.

// Party role names.
const (
	RoleC1     = "c1"
	RoleC2     = "c2"
	RoleOwner  = "owner"
	RoleClient = "client"
)

// KnownRoles is the set of valid role names, for pragma validation.
var KnownRoles = map[string]bool{
	RoleC1:     true,
	RoleC2:     true,
	RoleOwner:  true,
	RoleClient: true,
}

// ScopedPackages lists the packages whose party boundary the manifest
// declares completely. Test files are exempt (they play all parties on
// purpose). The facade package (sknn) and cmd/ binaries compose all
// parties in one process by design and stay out of scope; internal/smc
// contains both the Requester (C1 side) and Responder (C2 side) halves
// of each primitive in one package and documents the split per type.
var ScopedPackages = map[string]bool{
	"sknn/internal/core":      true,
	"sknn/internal/gateway":   true,
	"sknn/internal/reference": true,
}

// Manifest assigns each scoped non-test file its party role.
var Manifest = map[string]string{
	"sknn/internal/core/basic.go":     RoleC1,
	"sknn/internal/core/c1.go":        RoleC1,
	"sknn/internal/core/c2.go":        RoleC2,
	"sknn/internal/core/client.go":    RoleClient,
	"sknn/internal/core/core.go":      RoleC1,
	"sknn/internal/core/cost.go":      RoleC1,
	"sknn/internal/core/engine.go":    RoleC1,
	"sknn/internal/core/network.go":   RoleC1,
	"sknn/internal/core/pool.go":      RoleC1,
	"sknn/internal/core/replica.go":   RoleC1,
	"sknn/internal/core/secure.go":    RoleC1,
	"sknn/internal/core/session.go":   RoleC1,
	"sknn/internal/core/shard.go":     RoleC1,
	"sknn/internal/core/shardwire.go": RoleC1,
	"sknn/internal/core/split.go":     RoleC1,
	"sknn/internal/core/table.go":     RoleC1,

	// The gateway is C1-side serving infrastructure: it relays encrypted
	// queries and masked shares, never key material. Only the tenant
	// client (Bob's edge) plays the client role.
	"sknn/internal/gateway/backend.go": RoleC1,
	"sknn/internal/gateway/client.go":  RoleClient,
	"sknn/internal/gateway/gateway.go": RoleC1,
	"sknn/internal/gateway/metrics.go": RoleC1,
	"sknn/internal/gateway/tenant.go":  RoleC1,
	"sknn/internal/gateway/wire.go":    RoleC1,

	// The paper's printed SkNNm plays C1: like the engine it is the oracle
	// for, it sees ciphertexts and blinded values only. Its key cloud is
	// the deployed C2 plus the handlers of Algorithms 1–3. Its cost model
	// counts and touches nothing secret, as the engine's (core/cost.go).
	"sknn/internal/reference/cost.go":      RoleC1,
	"sknn/internal/reference/keycloud.go":  RoleC2,
	"sknn/internal/reference/reference.go": RoleC1,
}
