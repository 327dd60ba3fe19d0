package gateway

import (
	"context"
	"io"

	"sknn/internal/core"
	"sknn/internal/paillier"
)

// Backend is the query engine a tenant's frames execute against: a
// coordinator over however many (possibly replicated) shard workers the
// tenant's table is spread across — one, for a table served whole — or a
// test stub. The gateway is deliberately indifferent to which — it owns
// admission, auth, and metrics; the backend owns the protocol.
type Backend interface {
	// SecureQuery runs SkNNm and returns the masked result plus its
	// metrics (which carry the failover count on replicated backends).
	SecureQuery(ctx context.Context, q core.EncryptedQuery, k, domainBits, target int) (*core.MaskedResult, *core.SecureMetrics, error)
	// BasicQuery runs SkNNb.
	BasicQuery(ctx context.Context, q core.EncryptedQuery, k int) (*core.MaskedResult, error)
	// N reports the live record count, M the table shape.
	N() int
	M() (m, featureM int)
	// PK is the public key the tenant's table is encrypted under.
	PK() *paillier.PublicKey
	// Close releases the backend's resources (link pools, shard dials).
	Close() error
}

// coordinatorBackend adapts a coordinator (and whatever extra resources
// it rides on — its local worker, shard dials, serve loops) to Backend.
type coordinatorBackend struct {
	coord *core.ShardedC1
	also  []io.Closer
}

// NewCoordinatorBackend wraps a coordinator as a tenant backend. extra
// closers (a local worker, shard connections) are closed after the
// coordinator on Close, in order.
func NewCoordinatorBackend(coord *core.ShardedC1, extra ...io.Closer) Backend {
	return &coordinatorBackend{coord: coord, also: extra}
}

func (b *coordinatorBackend) SecureQuery(ctx context.Context, q core.EncryptedQuery, k, domainBits, target int) (*core.MaskedResult, *core.SecureMetrics, error) {
	return b.coord.SecureQuery(ctx, q, k, domainBits, target)
}

func (b *coordinatorBackend) BasicQuery(ctx context.Context, q core.EncryptedQuery, k int) (*core.MaskedResult, error) {
	res, _, err := b.coord.BasicQuery(ctx, q, k)
	return res, err
}

func (b *coordinatorBackend) N() int                  { return b.coord.N() }
func (b *coordinatorBackend) M() (int, int)           { return b.coord.M(), b.coord.FeatureM() }
func (b *coordinatorBackend) PK() *paillier.PublicKey { return b.coord.PK() }

func (b *coordinatorBackend) Close() error {
	err := b.coord.Close()
	for _, c := range b.also {
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
