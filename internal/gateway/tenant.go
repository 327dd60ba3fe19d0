package gateway

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// TenantConfig declares one tenant of the gateway: its name, the token
// its clients must prove, and its admission quotas. Each tenant runs
// against its own Backend — its own table, key, and shard set — so
// tenants are cryptographically isolated; the gateway only multiplexes
// connections and enforces quotas between them.
type TenantConfig struct {
	Name  string
	Token string // pre-shared tenant token; must be non-empty

	// Deprecated: ignored; l is the backend table's. bench/workloads.go
	// still sets it.
	DomainBits int

	// RateQPS caps admitted queries per second (token bucket, shed on
	// empty — a client over its rate gets an immediate refusal, not a
	// queue slot). 0 = unlimited.
	RateQPS float64
	// Burst is the rate bucket's capacity (defaults to max(1, RateQPS)).
	Burst int
	// MaxInflight caps the tenant's concurrently executing queries.
	// 0 = unlimited.
	MaxInflight int
	// MaxQueue caps how many admitted queries may wait for an inflight
	// slot before the gateway sheds instead (only meaningful with
	// MaxInflight > 0).
	MaxQueue int
}

// ErrShed reports a query refused by admission control: the tenant is
// over its rate or its queue is full. Clients should back off and
// retry; nothing was executed.
var ErrShed = errors.New("gateway: query shed by admission control")

// tenant is one tenant's runtime state: its backend, its admission
// bookkeeping, and its metrics.
type tenant struct {
	cfg TenantConfig
	be  Backend

	slots chan struct{} // inflight semaphore (nil when unlimited)

	mu     sync.Mutex
	tokens float64   // guarded by mu; rate-bucket fill
	last   time.Time // guarded by mu; last refill instant
	queued int       // guarded by mu; admitted queries waiting for a slot
}

func newTenant(cfg TenantConfig, be Backend) (*tenant, error) {
	if !ValidTenantName(cfg.Name) {
		return nil, fmt.Errorf("gateway: invalid tenant name %q (want 1–%d of [a-zA-Z0-9._-])", cfg.Name, maxTenantName)
	}
	if cfg.Token == "" {
		return nil, fmt.Errorf("gateway: tenant %q has no token; unauthenticated tenants are not served", cfg.Name)
	}
	if cfg.RateQPS < 0 || cfg.MaxInflight < 0 || cfg.MaxQueue < 0 {
		return nil, fmt.Errorf("gateway: tenant %q has negative quotas", cfg.Name)
	}
	if cfg.Burst < 1 {
		cfg.Burst = int(cfg.RateQPS)
		if cfg.Burst < 1 {
			cfg.Burst = 1
		}
	}
	t := &tenant{cfg: cfg, be: be, tokens: float64(cfg.Burst)}
	if cfg.MaxInflight > 0 {
		t.slots = make(chan struct{}, cfg.MaxInflight)
	}
	return t, nil
}

// admitRate takes one token from the rate bucket, reporting whether the
// query may proceed. Over-rate queries shed immediately — waiting them
// out would just move the overload into the gateway's memory.
func (t *tenant) admitRate(now time.Time) bool {
	if t.cfg.RateQPS <= 0 {
		return true
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.last.IsZero() {
		t.tokens += now.Sub(t.last).Seconds() * t.cfg.RateQPS
		if burst := float64(t.cfg.Burst); t.tokens > burst {
			t.tokens = burst
		}
	}
	t.last = now
	if t.tokens < 1 {
		return false
	}
	t.tokens--
	return true
}

// acquireSlot takes an inflight slot, queueing up to MaxQueue admitted
// queries when the tenant is saturated. Returns ErrShed when the queue
// is full. The caller must releaseSlot after the query finishes.
func (t *tenant) acquireSlot(m *Metrics) error {
	if t.slots == nil {
		return nil
	}
	select {
	case t.slots <- struct{}{}:
		return nil
	default:
	}
	t.mu.Lock()
	if t.queued >= t.cfg.MaxQueue {
		t.mu.Unlock()
		return fmt.Errorf("%w: tenant %s queue full (%d waiting)", ErrShed, t.cfg.Name, t.cfg.MaxQueue)
	}
	t.queued++
	t.mu.Unlock()
	m.setQueueDepth(t.cfg.Name, t.queueDepth())
	t.slots <- struct{}{}
	t.mu.Lock()
	t.queued--
	t.mu.Unlock()
	m.setQueueDepth(t.cfg.Name, t.queueDepth())
	return nil
}

// releaseSlot returns an inflight slot.
func (t *tenant) releaseSlot() {
	if t.slots != nil {
		<-t.slots
	}
}

// queueDepth reports how many admitted queries are waiting for a slot.
func (t *tenant) queueDepth() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.queued
}
