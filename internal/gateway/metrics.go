package gateway

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// Metrics is the gateway's stdlib-only metrics registry, exposed in
// Prometheus text format (version 0.0.4) via ServeHTTP — no client
// library, just counters under a mutex and a deterministic text
// rendering, which is all a serving tier this size needs to be
// scrapeable.
type Metrics struct {
	mu       sync.Mutex
	tenants  map[string]*tenantMetrics // guarded by mu
	conns    int                       // guarded by mu; open client connections
	authFail int                       // guarded by mu; failed tenant handshakes
}

// tenantMetrics is one tenant's slice of the registry. All fields are
// guarded by the registry's mu.
type tenantMetrics struct {
	queriesOK  int
	queriesErr int
	shedRate   int
	shedQueue  int
	failovers  int
	latency    time.Duration
	latencyN   int
	queueDepth int
	inflight   int
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{tenants: make(map[string]*tenantMetrics)}
}

// tenantLocked returns (creating) a tenant's slice. Callers hold m.mu.
func (m *Metrics) tenantLocked(name string) *tenantMetrics {
	tm := m.tenants[name]
	if tm == nil {
		tm = &tenantMetrics{}
		m.tenants[name] = tm
	}
	return tm
}

// Register pre-creates a tenant's series so /metrics shows zeros from
// the first scrape instead of series popping into existence later.
func (m *Metrics) Register(name string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tenantLocked(name)
}

func (m *Metrics) connOpened() {
	m.mu.Lock()
	m.conns++
	m.mu.Unlock()
}

func (m *Metrics) connClosed() {
	m.mu.Lock()
	m.conns--
	m.mu.Unlock()
}

func (m *Metrics) authFailure() {
	m.mu.Lock()
	m.authFail++
	m.mu.Unlock()
}

func (m *Metrics) queryStarted(name string) {
	m.mu.Lock()
	m.tenantLocked(name).inflight++
	m.mu.Unlock()
}

func (m *Metrics) queryDone(name string, d time.Duration, failovers int, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	tm := m.tenantLocked(name)
	tm.inflight--
	tm.latency += d
	tm.latencyN++
	tm.failovers += failovers
	if err != nil {
		tm.queriesErr++
	} else {
		tm.queriesOK++
	}
}

func (m *Metrics) shed(name, reason string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	tm := m.tenantLocked(name)
	if reason == "rate" {
		tm.shedRate++
	} else {
		tm.shedQueue++
	}
}

func (m *Metrics) setQueueDepth(name string, depth int) {
	m.mu.Lock()
	m.tenantLocked(name).queueDepth = depth
	m.mu.Unlock()
}

// Snapshot is a point-in-time copy of one tenant's counters, for tests
// and programmatic health checks.
type Snapshot struct {
	QueriesOK, QueriesErr int
	ShedRate, ShedQueue   int
	Failovers             int
	LatencyCount          int
	QueueDepth, Inflight  int
}

// TenantSnapshot reads one tenant's counters.
func (m *Metrics) TenantSnapshot(name string) Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	tm := m.tenants[name]
	if tm == nil {
		return Snapshot{}
	}
	return Snapshot{
		QueriesOK: tm.queriesOK, QueriesErr: tm.queriesErr,
		ShedRate: tm.shedRate, ShedQueue: tm.shedQueue,
		Failovers: tm.failovers, LatencyCount: tm.latencyN,
		QueueDepth: tm.queueDepth, Inflight: tm.inflight,
	}
}

// ServeHTTP renders the registry in Prometheus text format.
func (m *Metrics) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, m.render())
}

// render produces the exposition text deterministically (tenants in
// name order), so scrapes and tests see a stable layout. The registry
// is copied under the lock and formatted outside it.
func (m *Metrics) render() string {
	type tenantRow struct {
		name string
		tm   tenantMetrics
	}
	m.mu.Lock()
	rows := make([]tenantRow, 0, len(m.tenants))
	for name, tm := range m.tenants {
		rows = append(rows, tenantRow{name, *tm})
	}
	conns, authFail := m.conns, m.authFail
	m.mu.Unlock()
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })

	var b strings.Builder
	series := func(help, typ, metric string, emit func()) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", metric, help, metric, typ)
		emit()
	}
	series("Queries finished, by tenant and outcome.", "counter", "sknn_gateway_queries_total", func() {
		for _, r := range rows {
			fmt.Fprintf(&b, "sknn_gateway_queries_total{tenant=%q,outcome=\"ok\"} %d\n", r.name, r.tm.queriesOK)
			fmt.Fprintf(&b, "sknn_gateway_queries_total{tenant=%q,outcome=\"error\"} %d\n", r.name, r.tm.queriesErr)
		}
	})
	series("Queries refused by admission control, by tenant and reason.", "counter", "sknn_gateway_shed_total", func() {
		for _, r := range rows {
			fmt.Fprintf(&b, "sknn_gateway_shed_total{tenant=%q,reason=\"rate\"} %d\n", r.name, r.tm.shedRate)
			fmt.Fprintf(&b, "sknn_gateway_shed_total{tenant=%q,reason=\"queue\"} %d\n", r.name, r.tm.shedQueue)
		}
	})
	series("Query latency, by tenant.", "summary", "sknn_gateway_query_seconds", func() {
		for _, r := range rows {
			fmt.Fprintf(&b, "sknn_gateway_query_seconds_sum{tenant=%q} %g\n", r.name, r.tm.latency.Seconds())
			fmt.Fprintf(&b, "sknn_gateway_query_seconds_count{tenant=%q} %d\n", r.name, r.tm.latencyN)
		}
	})
	series("Shard scans requeued onto a sibling replica, by tenant.", "counter", "sknn_gateway_failovers_total", func() {
		for _, r := range rows {
			fmt.Fprintf(&b, "sknn_gateway_failovers_total{tenant=%q} %d\n", r.name, r.tm.failovers)
		}
	})
	series("Admitted queries waiting for an inflight slot, by tenant.", "gauge", "sknn_gateway_queue_depth", func() {
		for _, r := range rows {
			fmt.Fprintf(&b, "sknn_gateway_queue_depth{tenant=%q} %d\n", r.name, r.tm.queueDepth)
		}
	})
	series("Queries currently executing, by tenant.", "gauge", "sknn_gateway_inflight", func() {
		for _, r := range rows {
			fmt.Fprintf(&b, "sknn_gateway_inflight{tenant=%q} %d\n", r.name, r.tm.inflight)
		}
	})
	series("Failed tenant handshakes (refused, or abandoned mid-handshake).", "counter", "sknn_gateway_auth_failures_total", func() {
		fmt.Fprintf(&b, "sknn_gateway_auth_failures_total %d\n", authFail)
	})
	series("Open client connections.", "gauge", "sknn_gateway_connections", func() {
		fmt.Fprintf(&b, "sknn_gateway_connections %d\n", conns)
	})
	return b.String()
}
