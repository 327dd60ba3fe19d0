package gateway

import (
	"context"
	"fmt"

	"sknn/internal/core"
	"sknn/internal/dataset"
	"sknn/internal/mpc"
)

// TenantClient is Bob's edge against the gateway: it runs the tenant
// handshake on dial, then encrypts queries and unmasks results locally
// under the tenant's public key — the gateway relays shares, it never
// sees plaintext. Concurrent Query calls are safe, each on its own
// stream of the multiplexed connection; the gateway answers them one at
// a time per connection, so open more clients for concurrency.
type TenantClient struct {
	gateWelcome // the tenant's key and table shape
	client      *core.Client
	link        *mpc.Multiplexer
}

// DialTenant authenticates conn as the named tenant — mpc's token
// handshake with the name bound into the MAC, whose accept frame is the
// welcome — and returns a query client bound to it. On any failure the
// connection is closed: a half-authenticated connection is useless to
// the caller.
func DialTenant(conn mpc.Conn, name, token string) (*TenantClient, error) {
	w, err := tenantHandshake(conn, name, token)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return &TenantClient{gateWelcome: w, client: core.NewClient(w.pk, nil), link: mpc.NewMultiplexer(conn)}, nil
}

// tenantHandshake runs the named handshake and decodes its welcome.
func tenantHandshake(conn mpc.Conn, name, token string) (gateWelcome, error) {
	if !ValidTenantName(name) {
		return gateWelcome{}, fmt.Errorf("%w: invalid tenant name %q", ErrGateAuth, name)
	}
	welcome, err := mpc.AuthClientNamed(conn, name, token)
	if err != nil {
		return gateWelcome{}, fmt.Errorf("%w: %w", ErrGateAuth, err)
	}
	return decodeGateWelcome(welcome)
}

// N reports the tenant table's record count as declared by the gateway.
func (c *TenantClient) N() int { return c.n }

// Shape reports the tenant table's shape.
func (c *TenantClient) Shape() dataset.Shape { return c.shape }

// Query runs one k-NN query: encrypt locally, one round trip to the
// gateway, unmask locally. secure selects SkNNm (oblivious) over SkNNb.
// It returns the k records (m attributes each), nearest first, and, for
// basic queries, their record ids (nil under SkNNm, which hides them by
// design). An SkNNm query with an attribute outside the table's domain
// is refused before encryption (dataset.ErrValueTooLarge), and so is a
// ctx already done; once ctx is done the wait ends with core.ErrCanceled.
func (c *TenantClient) Query(ctx context.Context, q []uint64, k int, secure bool) ([][]uint64, []uint64, error) {
	conn, err := c.link.OpenContext(ctx)
	if err != nil {
		return nil, nil, fmt.Errorf("gateway: query: %w", err)
	}
	defer conn.Close()
	if err := c.shape.CheckQuery(q, secure); err != nil {
		return nil, nil, err
	}
	if k < 1 || k > maxGateK {
		return nil, nil, fmt.Errorf("%w: k=%d (cap %d)", core.ErrBadK, k, maxGateK)
	}
	eq, err := c.client.EncryptQuery(q)
	if err != nil {
		return nil, nil, err
	}
	resp, err := mpc.RoundTrip(conn, encodeGateQuery(k, secure, eq))
	if err != nil {
		return nil, nil, fmt.Errorf("gateway: query round trip: %w", err)
	}
	res, err := decodeGateResult(c.pk, k, c.shape.M, resp)
	if err != nil {
		return nil, nil, err
	}
	rows, err := c.client.Finish(q, res, secure)
	if err != nil {
		return nil, nil, err
	}
	return rows, res.IDs, nil
}

// Close ends the session politely (OpClose) and closes the connection.
func (c *TenantClient) Close() error { return c.link.Close() }
