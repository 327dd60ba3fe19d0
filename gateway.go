package sknn

import (
	"context"

	"sknn/internal/core"
	"sknn/internal/gateway"
	"sknn/internal/paillier"
)

// GatewayBackend adapts this in-process System to the serving tier's
// Backend interface, so a gateway tenant can be served by a System
// stood up in the same process (the single-binary quickstart
// deployment; distributed deployments compose internal/gateway with
// dialed shard workers instead).
//
// The returned backend does not own the System: its Close is a no-op,
// the System's own Close governs the lifecycle. This lets one System
// outlive gateway drains and lets the caller decide teardown order.
func (s *System) GatewayBackend() gateway.Backend {
	return &systemBackend{s: s}
}

// systemBackend routes gateway queries into the System's coordinator
// with the same begin/end drain accounting as the public query surface.
type systemBackend struct {
	s *System
}

func (b *systemBackend) SecureQuery(ctx context.Context, q core.EncryptedQuery, k, domainBits, target int) (*core.MaskedResult, *core.SecureMetrics, error) {
	if err := b.s.begin(); err != nil {
		return nil, nil, err
	}
	defer b.s.end()
	return b.s.coord.SecureQuery(ctx, q, k, domainBits, target)
}

func (b *systemBackend) BasicQuery(ctx context.Context, q core.EncryptedQuery, k int) (*core.MaskedResult, error) {
	if err := b.s.begin(); err != nil {
		return nil, err
	}
	defer b.s.end()
	res, _, err := b.s.coord.BasicQuery(ctx, q, k)
	return res, err
}

func (b *systemBackend) N() int { return b.s.N() }

func (b *systemBackend) M() (m, featureM int) { return b.s.M(), b.s.FeatureM() }

func (b *systemBackend) PK() *paillier.PublicKey { return b.s.PublicKey() }

func (b *systemBackend) Close() error { return nil }
