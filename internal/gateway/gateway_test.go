package gateway

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"sknn/internal/core"
	"sknn/internal/dataset"
	"sknn/internal/mpc"
	"sknn/internal/paillier"
	"sknn/internal/plainknn"
	"sknn/internal/testkit"
)

func TestValidTenantName(t *testing.T) {
	good := []string{"a", "alpha", "Tenant-2.prod_eu", strings.Repeat("x", maxTenantName)}
	for _, name := range good {
		if !ValidTenantName(name) {
			t.Errorf("ValidTenantName(%q) = false, want true", name)
		}
	}
	bad := []string{"", "has space", "has/slash", "naïve", strings.Repeat("x", maxTenantName+1)}
	for _, name := range bad {
		if ValidTenantName(name) {
			t.Errorf("ValidTenantName(%q) = true, want false", name)
		}
	}
}

func TestNewTenantValidation(t *testing.T) {
	be := &stubBackend{}
	cases := []TenantConfig{
		{Name: "", Token: "t"},
		{Name: "bad name", Token: "t"},
		{Name: "ok", Token: ""},
		{Name: "ok", Token: "t", RateQPS: -1},
		{Name: "ok", Token: "t", MaxInflight: -1},
		{Name: "ok", Token: "t", MaxQueue: -1},
	}
	for _, cfg := range cases {
		if _, err := newTenant(cfg, be); err == nil {
			t.Errorf("newTenant(%+v) accepted, want error", cfg)
		}
	}
	if _, err := newTenant(TenantConfig{Name: "ok", Token: "t"}, be); err != nil {
		t.Fatalf("minimal tenant rejected: %v", err)
	}
}

func TestAdmitRate(t *testing.T) {
	tn, err := newTenant(TenantConfig{Name: "a", Token: "t", RateQPS: 10, Burst: 2}, &stubBackend{})
	if err != nil {
		t.Fatal(err)
	}
	base := time.Unix(1000, 0)
	// Burst of 2 admits two back-to-back queries, then sheds.
	for i := 0; i < 2; i++ {
		if !tn.admitRate(base) {
			t.Fatalf("query %d shed within burst", i)
		}
	}
	if tn.admitRate(base) {
		t.Fatal("query admitted with empty bucket")
	}
	// 100ms at 10 qps refills exactly one token.
	if !tn.admitRate(base.Add(100 * time.Millisecond)) {
		t.Fatal("query shed after refill")
	}
	if tn.admitRate(base.Add(100 * time.Millisecond)) {
		t.Fatal("second query admitted from one refilled token")
	}
	// A long idle period refills only to the burst cap.
	later := base.Add(time.Hour)
	for i := 0; i < 2; i++ {
		if !tn.admitRate(later) {
			t.Fatalf("query %d shed after idle refill", i)
		}
	}
	if tn.admitRate(later) {
		t.Fatal("idle refill exceeded burst cap")
	}
}

func TestAdmitRateUnlimited(t *testing.T) {
	tn, err := newTenant(TenantConfig{Name: "a", Token: "t"}, &stubBackend{})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1000, 0)
	for i := 0; i < 100; i++ {
		if !tn.admitRate(now) {
			t.Fatalf("unlimited tenant shed query %d", i)
		}
	}
}

func TestAcquireSlotQueueFull(t *testing.T) {
	m := NewMetrics()
	tn, err := newTenant(TenantConfig{Name: "a", Token: "t", MaxInflight: 1, MaxQueue: 0}, &stubBackend{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tn.acquireSlot(m); err != nil {
		t.Fatalf("first slot: %v", err)
	}
	if err := tn.acquireSlot(m); !errors.Is(err, ErrShed) {
		t.Fatalf("saturated tenant with no queue: err = %v, want ErrShed", err)
	}
	tn.releaseSlot()
	if err := tn.acquireSlot(m); err != nil {
		t.Fatalf("slot after release: %v", err)
	}
	tn.releaseSlot()
}

func TestAcquireSlotQueues(t *testing.T) {
	m := NewMetrics()
	tn, err := newTenant(TenantConfig{Name: "a", Token: "t", MaxInflight: 1, MaxQueue: 1}, &stubBackend{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tn.acquireSlot(m); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		got <- tn.acquireSlot(m)
	}()
	// Wait for the queued acquirer to register, then free the slot.
	for tn.queueDepth() == 0 {
		time.Sleep(time.Millisecond)
	}
	tn.releaseSlot()
	if err := <-got; err != nil {
		t.Fatalf("queued acquire: %v", err)
	}
	tn.releaseSlot()
	if d := tn.queueDepth(); d != 0 {
		t.Fatalf("queue depth %d after drain, want 0", d)
	}
}

// stubBackend serves scripted results without any cryptography: masks
// are zero, "masked" attributes are the row values themselves, so
// Unmask recovers them under any key.
type stubBackend struct {
	pk    *paillier.PublicKey
	rows  [][]uint64 // served results, first k rows
	gate  chan struct{}
	fail  error
	svcFo int // failovers reported per secure query

	mu     sync.Mutex
	closed bool // guarded by mu
}

func (b *stubBackend) result(k int) (*core.MaskedResult, error) {
	m := b.Shape().M
	if k > len(b.rows) {
		k = len(b.rows)
	}
	masks := make([][]*big.Int, k)
	masked := make([][]*big.Int, k)
	ids := make([]uint64, k)
	for j := 0; j < k; j++ {
		masks[j] = make([]*big.Int, m)
		masked[j] = make([]*big.Int, m)
		for h := 0; h < m; h++ {
			masks[j][h] = big.NewInt(0)
			masked[j][h] = new(big.Int).SetUint64(b.rows[j][h])
		}
		ids[j] = uint64(100 + j)
	}
	return core.RestoreMaskedResult(b.pk, k, m, masks, masked, ids)
}

func (b *stubBackend) SecureQuery(_ context.Context, _ core.EncryptedQuery, k, _, _ int) (*core.MaskedResult, *core.SecureMetrics, error) {
	if b.gate != nil {
		<-b.gate
	}
	if b.fail != nil {
		return nil, nil, b.fail
	}
	res, err := b.result(k)
	if err != nil {
		return nil, nil, err
	}
	res.IDs = nil // SkNNm hides record identities
	return res, &core.SecureMetrics{Failovers: b.svcFo}, nil
}

func (b *stubBackend) BasicQuery(_ context.Context, _ core.EncryptedQuery, k int) (*core.MaskedResult, error) {
	if b.gate != nil {
		<-b.gate
	}
	if b.fail != nil {
		return nil, b.fail
	}
	return b.result(k)
}

func (b *stubBackend) N() int { return len(b.rows) }

func (b *stubBackend) Shape() dataset.Shape {
	if len(b.rows) == 0 {
		return dataset.Shape{M: 2, FeatureM: 2, AttrBits: 8}
	}
	return dataset.Shape{M: len(b.rows[0]), FeatureM: len(b.rows[0]), AttrBits: 8}
}

func (b *stubBackend) PK() *paillier.PublicKey { return b.pk }

func (b *stubBackend) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return fmt.Errorf("stub backend closed twice")
	}
	b.closed = true
	return nil
}

// newStubGateway builds a gateway over stub backends, one per config,
// and returns it with the shared test key.
func newStubGateway(t *testing.T, cfgs ...TenantConfig) (*Gateway, []*stubBackend, *paillier.PublicKey) {
	t.Helper()
	pk := &testkit.Key(256).PublicKey
	g := NewGateway()
	backends := make([]*stubBackend, len(cfgs))
	for i, cfg := range cfgs {
		backends[i] = &stubBackend{
			pk:   pk,
			rows: [][]uint64{{11, 21}, {12, 22}, {13, 23}},
		}
		if err := g.AddTenant(cfg, backends[i]); err != nil {
			t.Fatal(err)
		}
	}
	return g, backends, pk
}

// dialStub connects a TenantClient to the gateway over an in-memory
// pipe, with the serve loop's error delivered on the returned channel.
func dialStub(t *testing.T, g *Gateway, name, token string) (*TenantClient, chan error) {
	t.Helper()
	clientSide, serverSide := mpc.ChanPipe()
	served := make(chan error, 1)
	go func() {
		served <- g.HandleConn(serverSide)
	}()
	tc, err := DialTenant(clientSide, name, token)
	if err != nil {
		t.Fatalf("DialTenant(%s): %v", name, err)
	}
	return tc, served
}

func TestGatewayQueryRoundTrip(t *testing.T) {
	g, backends, _ := newStubGateway(t, TenantConfig{Name: "alpha", Token: "s3cret"})
	backends[0].svcFo = 2
	tc, served := dialStub(t, g, "alpha", "s3cret")

	if n := tc.N(); n != 3 {
		t.Fatalf("welcome declared n=%d, want 3", n)
	}
	if s := tc.Shape(); s.M != 2 || s.FeatureM != 2 || s.AttrBits != 8 {
		t.Fatalf("welcome declared table %+v, want 2/2 of 8-bit attributes", s)
	}

	rows, ids, err := tc.Query(context.Background(), []uint64{1, 2}, 2, true)
	if err != nil {
		t.Fatalf("secure query: %v", err)
	}
	if len(rows) != 2 || rows[0][0] != 11 || rows[1][1] != 22 {
		t.Fatalf("secure rows = %v", rows)
	}
	if ids != nil {
		t.Fatalf("secure query returned ids %v, want nil", ids)
	}

	rows, ids, err = tc.Query(context.Background(), []uint64{1, 2}, 1, false)
	if err != nil {
		t.Fatalf("basic query: %v", err)
	}
	if len(rows) != 1 || rows[0][0] != 11 {
		t.Fatalf("basic rows = %v", rows)
	}
	if len(ids) != 1 || ids[0] != 100 {
		t.Fatalf("basic ids = %v, want [100]", ids)
	}

	snap := g.Metrics().TenantSnapshot("alpha")
	if snap.QueriesOK != 2 || snap.QueriesErr != 0 {
		t.Fatalf("snapshot = %+v, want 2 ok", snap)
	}
	if snap.Failovers != 2 {
		t.Fatalf("snapshot failovers = %d, want 2", snap.Failovers)
	}

	// One client, several queries at once: each rides its own stream.
	const concurrent = 4
	errs := make(chan error, concurrent)
	for i := 1; i <= concurrent; i++ {
		k := 1 + i%3
		go func() {
			rows, _, err := tc.Query(context.Background(), []uint64{1, 2}, k, true)
			if err == nil && len(rows) != k {
				err = fmt.Errorf("k=%d: %d rows", k, len(rows))
			}
			errs <- err
		}()
	}
	for i := 0; i < concurrent; i++ {
		if err := <-errs; err != nil {
			t.Errorf("concurrent query: %v", err)
		}
	}

	if err := tc.Close(); err != nil {
		t.Fatalf("client close: %v", err)
	}
	if err := <-served; err != nil {
		t.Fatalf("serve loop: %v", err)
	}
}

func TestGatewayAuthRefusals(t *testing.T) {
	g, _, _ := newStubGateway(t, TenantConfig{Name: "alpha", Token: "s3cret"})
	cases := []struct {
		name, tenant, token string
	}{
		{"wrong token", "alpha", "wrong"},
		{"unknown tenant", "beta", "s3cret"},
		{"empty token", "alpha", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clientSide, serverSide := mpc.ChanPipe()
			served := make(chan error, 1)
			go func() {
				served <- g.HandleConn(serverSide)
			}()
			_, err := DialTenant(clientSide, tc.tenant, tc.token)
			if err == nil {
				t.Fatal("DialTenant succeeded, want refusal")
			}
			if !strings.Contains(err.Error(), "authentication required") {
				t.Fatalf("refusal error %q does not carry the uniform refusal", err)
			}
			if serr := <-served; !errors.Is(serr, ErrGateAuth) {
				t.Fatalf("serve loop error = %v, want ErrGateAuth", serr)
			}
		})
	}
	if got := g.Metrics().render(); !strings.Contains(got, "sknn_gateway_auth_failures_total 3") {
		t.Fatalf("auth failures not counted:\n%s", got)
	}
}

func TestGatewayNonHelloFirstFrameRefused(t *testing.T) {
	g, _, _ := newStubGateway(t, TenantConfig{Name: "alpha", Token: "s3cret"})
	clientSide, serverSide := mpc.ChanPipe()
	served := make(chan error, 1)
	go func() {
		served <- g.HandleConn(serverSide)
	}()
	_, err := mpc.RoundTrip(clientSide, &mpc.Message{Op: OpGateQuery, Ints: []*big.Int{big.NewInt(1)}})
	var remote *mpc.RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("pre-auth query error = %v, want remote refusal", err)
	}
	if serr := <-served; !errors.Is(serr, ErrGateAuth) {
		t.Fatalf("serve loop error = %v, want ErrGateAuth", serr)
	}
}

// TestGatewayMalformedQueryAfterAuth: on an authenticated connection, a
// query frame with k out of range, the wrong number of ciphertexts or a
// ciphertext outside the group is answered with an OpError carrying
// ErrBadFrame, never run against the backend (which would answer with
// its own failure here). Each counts as one failed query for the
// tenant, and the connection still serves the next well-formed query.
func TestGatewayMalformedQueryAfterAuth(t *testing.T) {
	g, backends, pk := newStubGateway(t, TenantConfig{Name: "alpha", Token: "s3cret"})
	backends[0].fail = errors.New("stub: the backend ran a malformed query")
	tc, _ := dialStub(t, g, "alpha", "s3cret")
	defer tc.Close()
	eq, err := tc.client.EncryptQuery([]uint64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	// query is a well-formed secure top-2 frame with edit applied.
	query := func(edit func([]*big.Int) []*big.Int) *mpc.Message {
		return &mpc.Message{Op: OpGateQuery, Ints: edit(encodeGateQuery(2, true, eq).Ints)}
	}
	set := func(i int, v *big.Int) func([]*big.Int) []*big.Int {
		return func(ints []*big.Int) []*big.Int { ints[i] = v; return ints }
	}
	cases := []struct {
		name string
		edit func([]*big.Int) []*big.Int
	}{
		{"k zero", set(0, big.NewInt(0))},
		{"k over the cap", set(0, big.NewInt(maxGateK+1))},
		{"ciphertext missing", func(ints []*big.Int) []*big.Int { return ints[:len(ints)-1] }},
		{"ciphertext trailing", func(ints []*big.Int) []*big.Int { return append(ints, ints[len(ints)-1]) }},
		{"ciphertext outside the group", set(2, new(big.Int).Set(pk.NSquared))},
	}
	for i, bad := range cases {
		conn, err := tc.link.OpenContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		_, err = mpc.RoundTrip(conn, query(bad.edit))
		conn.Close()
		var remote *mpc.RemoteError
		if !errors.As(err, &remote) || !strings.Contains(remote.Msg, mpc.ErrBadFrame.Error()) {
			t.Errorf("%s: err = %v, want an OpError carrying %q", bad.name, err, mpc.ErrBadFrame)
		}
		if snap := g.Metrics().TenantSnapshot("alpha"); snap.QueriesErr != i+1 || snap.QueriesOK != 0 || snap.Inflight != 0 {
			t.Errorf("%s: snapshot = %+v, want %d failed queries and none in flight", bad.name, snap, i+1)
		}
	}
	backends[0].fail = nil
	rows, _, err := tc.Query(context.Background(), []uint64{1, 2}, 2, true)
	if err != nil || len(rows) != 2 {
		t.Fatalf("well-formed query after the refusals: rows %v, err %v", rows, err)
	}
}

// tappedDial dials the gateway as name/token over a tapped pipe and
// returns the frames the client side saw, as "send op/ints" and
// "recv op/ints", with the dial's outcome.
func tappedDial(t *testing.T, g *Gateway, name, token string) ([]string, *TenantClient, error) {
	t.Helper()
	clientSide, serverSide := mpc.ChanPipe()
	go g.HandleConn(serverSide)
	var mu sync.Mutex
	var frames []string
	tapped := mpc.Tap(clientSide, func(d mpc.Direction, m *mpc.Message) {
		mu.Lock()
		frames = append(frames, fmt.Sprintf("%v %d/%d", d, m.Op, len(m.Ints)))
		mu.Unlock()
	})
	tc, err := DialTenant(tapped, name, token)
	mu.Lock()
	defer mu.Unlock()
	return frames, tc, err
}

// TestDialTenantTwoRoundTrips: the tenant handshake is mpc's two round
// trips, the welcome riding the accept frame.
func TestDialTenantTwoRoundTrips(t *testing.T) {
	g, _, _ := newStubGateway(t, TenantConfig{Name: "alpha", Token: "s3cret"})
	frames, tc, err := tappedDial(t, g, "alpha", "s3cret")
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	auth := int(mpc.OpAuth)
	want := fmt.Sprint([]string{
		fmt.Sprintf("send %d/1", auth), fmt.Sprintf("recv %d/1", auth),
		fmt.Sprintf("send %d/1", auth), fmt.Sprintf("recv %d/5", auth),
	})
	if got := fmt.Sprint(frames); got != want {
		t.Fatalf("DialTenant frames = %s, want %s", got, want)
	}
}

// TestGatewayUnknownTenantChallenged: a tenant the gateway has never
// heard of gets a challenge before its refusal — the same frames as a
// known tenant with the wrong token, so a prober cannot enumerate names.
func TestGatewayUnknownTenantChallenged(t *testing.T) {
	g, _, _ := newStubGateway(t, TenantConfig{Name: "alpha", Token: "s3cret"})
	auth, refusal := int(mpc.OpAuth), int(mpc.OpError)
	want := fmt.Sprint([]string{
		fmt.Sprintf("send %d/1", auth), fmt.Sprintf("recv %d/1", auth),
		fmt.Sprintf("send %d/1", auth), fmt.Sprintf("recv %d/0", refusal),
	})
	for _, c := range []struct{ name, token string }{{"nosuch", "s3cret"}, {"alpha", "wrong"}} {
		frames, _, err := tappedDial(t, g, c.name, c.token)
		if !errors.Is(err, ErrGateAuth) {
			t.Errorf("%s/%s: DialTenant = %v, want ErrGateAuth", c.name, c.token, err)
		}
		if got := fmt.Sprint(frames); got != want {
			t.Errorf("%s/%s: frames = %s, want %s", c.name, c.token, got, want)
		}
	}
}

func TestGatewayRateShed(t *testing.T) {
	g, _, _ := newStubGateway(t, TenantConfig{
		Name: "alpha", Token: "s3cret",
		RateQPS: 0.001, Burst: 1, // one query, then a very slow refill
	})
	tc, _ := dialStub(t, g, "alpha", "s3cret")
	defer tc.Close()

	if _, _, err := tc.Query(context.Background(), []uint64{1, 2}, 1, true); err != nil {
		t.Fatalf("first query: %v", err)
	}
	_, _, err := tc.Query(context.Background(), []uint64{1, 2}, 1, true)
	if err == nil || !strings.Contains(err.Error(), "shed") {
		t.Fatalf("over-rate query error = %v, want shed", err)
	}
	snap := g.Metrics().TenantSnapshot("alpha")
	if snap.ShedRate != 1 || snap.QueriesOK != 1 {
		t.Fatalf("snapshot = %+v, want 1 ok / 1 rate-shed", snap)
	}
}

func TestGatewayQueueShed(t *testing.T) {
	g, backends, _ := newStubGateway(t, TenantConfig{
		Name: "alpha", Token: "s3cret",
		MaxInflight: 1, MaxQueue: 0,
	})
	gate := make(chan struct{})
	backends[0].gate = gate

	first, _ := dialStub(t, g, "alpha", "s3cret")
	second, _ := dialStub(t, g, "alpha", "s3cret")
	defer first.Close()
	defer second.Close()

	firstDone := make(chan error, 1)
	go func() {
		_, _, err := first.Query(context.Background(), []uint64{1, 2}, 1, true)
		firstDone <- err
	}()
	// Wait for the first query to hold the only inflight slot.
	for g.Metrics().TenantSnapshot("alpha").Inflight == 0 {
		time.Sleep(time.Millisecond)
	}
	_, _, err := second.Query(context.Background(), []uint64{1, 2}, 1, true)
	if err == nil || !strings.Contains(err.Error(), "queue full") {
		t.Fatalf("saturated query error = %v, want queue-full shed", err)
	}
	close(gate)
	if err := <-firstDone; err != nil {
		t.Fatalf("first query: %v", err)
	}
	snap := g.Metrics().TenantSnapshot("alpha")
	if snap.ShedQueue != 1 || snap.QueriesOK != 1 {
		t.Fatalf("snapshot = %+v, want 1 ok / 1 queue-shed", snap)
	}
}

func TestGatewayBackendErrorKeepsConnection(t *testing.T) {
	g, backends, _ := newStubGateway(t, TenantConfig{Name: "alpha", Token: "s3cret"})
	tc, _ := dialStub(t, g, "alpha", "s3cret")
	defer tc.Close()

	backends[0].fail = fmt.Errorf("backend exploded")
	if _, _, err := tc.Query(context.Background(), []uint64{1, 2}, 1, true); err == nil {
		t.Fatal("query against failing backend succeeded")
	}
	backends[0].fail = nil
	if _, _, err := tc.Query(context.Background(), []uint64{1, 2}, 1, true); err != nil {
		t.Fatalf("query after backend recovery: %v", err)
	}
	snap := g.Metrics().TenantSnapshot("alpha")
	if snap.QueriesErr != 1 || snap.QueriesOK != 1 {
		t.Fatalf("snapshot = %+v, want 1 ok / 1 error", snap)
	}
}

func TestGatewayClientValidation(t *testing.T) {
	g, backends, _ := newStubGateway(t, TenantConfig{Name: "alpha", Token: "s3cret"})
	tc, _ := dialStub(t, g, "alpha", "s3cret")
	defer tc.Close()

	if _, _, err := tc.Query(context.Background(), []uint64{1}, 1, true); !errors.Is(err, core.ErrDimension) {
		t.Fatalf("short query error = %v, want ErrDimension", err)
	}
	if _, _, err := tc.Query(context.Background(), []uint64{1, 2}, 0, true); !errors.Is(err, core.ErrBadK) {
		t.Fatalf("k=0 error = %v, want ErrBadK", err)
	}
	// The stub welcomes with 8-bit attributes: SkNNm refuses 256, SkNNb
	// takes it.
	if _, _, err := tc.Query(context.Background(), []uint64{256, 2}, 1, true); !errors.Is(err, dataset.ErrValueTooLarge) {
		t.Fatalf("out-of-domain secure query error = %v, want ErrValueTooLarge", err)
	}
	if _, _, err := tc.Query(context.Background(), []uint64{256, 2}, 1, false); err != nil {
		t.Fatalf("out-of-domain basic query: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := tc.Query(ctx, []uint64{1, 2}, 1, true); !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("canceled query error = %v, want ErrCanceled", err)
	}

	// A query whose deadline passes while the gateway holds it stops
	// waiting; the gateway finishes it, and its late reply does not
	// disturb the client's next query.
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	defer release()
	backends[0].gate = gate
	ctx, cancel = context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, _, err := tc.Query(ctx, []uint64{1, 2}, 1, true)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, core.ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("query past its deadline = %v, want ErrCanceled wrapping context.DeadlineExceeded", err)
		}
	case <-time.After(1100 * time.Millisecond):
		t.Fatal("query still waiting 1 s after its 100 ms deadline")
	}
	release()
	rows, _, err := tc.Query(context.Background(), []uint64{1, 2}, 1, true)
	if err != nil || len(rows) != 1 || rows[0][0] != 11 {
		t.Fatalf("query after a canceled one = %v, %v; want [[11 21]]", rows, err)
	}
}

func TestGatewayCloseDrains(t *testing.T) {
	g, backends, _ := newStubGateway(t, TenantConfig{Name: "alpha", Token: "s3cret"})
	gate := make(chan struct{})
	backends[0].gate = gate
	tc, _ := dialStub(t, g, "alpha", "s3cret")

	queryDone := make(chan error, 1)
	go func() {
		_, _, err := tc.Query(context.Background(), []uint64{1, 2}, 1, true)
		queryDone <- err
	}()
	for g.Metrics().TenantSnapshot("alpha").Inflight == 0 {
		time.Sleep(time.Millisecond)
	}

	closeDone := make(chan error, 1)
	go func() {
		closeDone <- g.Close()
	}()
	// Close must wait for the in-flight query.
	select {
	case err := <-closeDone:
		t.Fatalf("Close returned %v with a query in flight", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(gate)
	if err := <-queryDone; err != nil {
		t.Fatalf("in-flight query during drain: %v", err)
	}
	if err := <-closeDone; err != nil {
		t.Fatalf("Close: %v", err)
	}
	backends[0].mu.Lock()
	closed := backends[0].closed
	backends[0].mu.Unlock()
	if !closed {
		t.Fatal("backend not closed by gateway Close")
	}

	// A drained gateway refuses new connections and tenants.
	clientSide, serverSide := mpc.ChanPipe()
	served := make(chan error, 1)
	go func() {
		served <- g.HandleConn(serverSide)
	}()
	if _, err := DialTenant(clientSide, "alpha", "s3cret"); err == nil {
		t.Fatal("DialTenant succeeded against a closed gateway")
	}
	if err := <-served; err == nil {
		t.Fatal("HandleConn accepted a connection after Close")
	}
	if err := g.AddTenant(TenantConfig{Name: "beta", Token: "x"}, &stubBackend{}); err == nil {
		t.Fatal("AddTenant succeeded after Close")
	}
	if err := g.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// heldSendConn delays every Send of a query reply until release closes,
// announcing on sending that the reply is ready to go out: the window
// between the backend answering and the client holding the answer.
type heldSendConn struct {
	mpc.Conn
	sending chan struct{}
	release chan struct{}
}

func (c *heldSendConn) Send(m *mpc.Message) error {
	if m.Op == OpGateQuery {
		c.sending <- struct{}{}
		<-c.release
	}
	return c.Conn.Send(m)
}

// TestGatewayCloseWaitsForReplySend pins the drain contract at its
// narrowest point: a query the backend has answered but whose reply is
// not yet on the wire is still in flight, so Close may not hang up on it.
func TestGatewayCloseWaitsForReplySend(t *testing.T) {
	g, _, _ := newStubGateway(t, TenantConfig{Name: "alpha", Token: "s3cret"})
	clientSide, serverSide := mpc.ChanPipe()
	held := &heldSendConn{Conn: serverSide, sending: make(chan struct{}), release: make(chan struct{})}
	served := make(chan error, 1)
	go func() {
		served <- g.HandleConn(held)
	}()
	tc, err := DialTenant(clientSide, "alpha", "s3cret")
	if err != nil {
		t.Fatal(err)
	}

	queryDone := make(chan error, 1)
	go func() {
		rows, _, err := tc.Query(context.Background(), []uint64{1, 2}, 1, true)
		if err == nil && len(rows) != 1 {
			err = fmt.Errorf("%d rows, want 1", len(rows))
		}
		queryDone <- err
	}()
	<-held.sending // the backend has answered; the reply is about to be sent

	closeDone := make(chan error, 1)
	go func() {
		closeDone <- g.Close()
	}()
	select {
	case err := <-closeDone:
		t.Fatalf("Close returned %v before the answered query's reply was sent", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(held.release)
	if err := <-queryDone; err != nil {
		t.Fatalf("answered query lost to the drain: %v", err)
	}
	if err := <-closeDone; err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := <-served; err != nil {
		t.Fatalf("serve loop: %v", err)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	g, _, _ := newStubGateway(t,
		TenantConfig{Name: "alpha", Token: "a"},
		TenantConfig{Name: "beta", Token: "b"},
	)
	tc, _ := dialStub(t, g, "alpha", "a")
	defer tc.Close()
	if _, _, err := tc.Query(context.Background(), []uint64{1, 2}, 1, true); err != nil {
		t.Fatal(err)
	}

	rec := httptest.NewRecorder()
	g.Metrics().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		`sknn_gateway_queries_total{tenant="alpha",outcome="ok"} 1`,
		`sknn_gateway_queries_total{tenant="beta",outcome="ok"} 0`,
		`sknn_gateway_query_seconds_count{tenant="alpha"} 1`,
		`sknn_gateway_shed_total{tenant="beta",reason="rate"} 0`,
		`sknn_gateway_failovers_total{tenant="alpha"} 0`,
		"# TYPE sknn_gateway_queue_depth gauge",
		"sknn_gateway_connections 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics body missing %q", want)
		}
	}
	// Tenants render in name order.
	if alpha, beta := strings.Index(body, `tenant="alpha"`), strings.Index(body, `tenant="beta"`); alpha > beta {
		t.Error("tenants not rendered in name order")
	}
}

// TestGatewayEndToEndCrypto runs the full stack once: two tenants with
// their own keys, tables, and one-shard backends behind one gateway,
// queried concurrently and checked against the plaintext oracle.
func TestGatewayEndToEndCrypto(t *testing.T) {
	const (
		n, m, attrBits = 10, 2, 4
		k              = 3
	)
	g := NewGateway()
	type tenantWorld struct {
		name, token string
		tbl         *dataset.Table
	}
	worlds := []tenantWorld{
		{name: "alpha", token: "alpha-secret"},
		{name: "beta", token: "beta-secret"},
	}
	// Closing the gateway closes every tenant's engine, which ends the C2
	// serve loops wg waits for; both are registered before anything can
	// fail, so a failing query ends the test instead of hanging it.
	var wg sync.WaitGroup
	t.Cleanup(wg.Wait)
	t.Cleanup(func() { g.Close() })
	for i := range worlds {
		w := &worlds[i]
		sk := testkit.Key(256)
		tbl, err := dataset.Generate(int64(300+i), n, m, attrBits)
		if err != nil {
			t.Fatal(err)
		}
		w.tbl = tbl
		encTable, err := core.EncryptTable(rand.Reader, &sk.PublicKey, tbl.Rows)
		if err != nil {
			t.Fatal(err)
		}
		c2 := core.NewCloudC2(sk, nil)
		eng, err := core.NewEngine(encTable, 1, func() ([]mpc.Conn, error) {
			c1Side, c2Side := mpc.ChanPipe()
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := c2.Serve(c2Side); err != nil {
					t.Errorf("tenant %s C2 serve: %v", w.name, err)
				}
			}()
			return []mpc.Conn{c1Side}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		err = g.AddTenant(TenantConfig{
			Name: w.name, Token: w.token,
			RateQPS: 1000, MaxInflight: 2, MaxQueue: 4,
		}, NewCoordinatorBackend(eng.ShardedC1, eng.Workers[0]))
		if err != nil {
			eng.Close()
			t.Fatal(err)
		}
	}

	type outcome struct {
		world int
		rows  [][]uint64
		err   error
	}
	results := make(chan outcome, len(worlds))
	for i := range worlds {
		w := worlds[i]
		clientSide, serverSide := mpc.ChanPipe()
		go func() {
			if err := g.HandleConn(serverSide); err != nil {
				t.Errorf("tenant %s serve: %v", w.name, err)
			}
		}()
		go func(i int) {
			tc, err := DialTenant(clientSide, w.name, w.token)
			if err != nil {
				results <- outcome{world: i, err: err}
				return
			}
			defer tc.Close()
			q := []uint64{3, 5}
			rows, _, err := tc.Query(context.Background(), q, k, true)
			results <- outcome{world: i, rows: rows, err: err}
		}(i)
	}
	for range worlds {
		got := <-results
		if got.err != nil {
			t.Fatalf("tenant %s query: %v", worlds[got.world].name, got.err)
		}
		q := []uint64{3, 5}
		wantDists, err := plainknn.KDistances(worlds[got.world].tbl.Rows, q, k)
		if err != nil {
			t.Fatal(err)
		}
		gotDists := make([]uint64, k)
		for j, row := range got.rows {
			gotDists[j], err = plainknn.SquaredDistance(row[:m], q)
			if err != nil {
				t.Fatal(err)
			}
		}
		sort.Slice(gotDists, func(a, b int) bool { return gotDists[a] < gotDists[b] })
		sort.Slice(wantDists, func(a, b int) bool { return wantDists[a] < wantDists[b] })
		for j := range wantDists {
			if gotDists[j] != wantDists[j] {
				t.Fatalf("tenant %s distances %v, oracle %v",
					worlds[got.world].name, gotDists, wantDists)
			}
		}
	}
	if err := g.Close(); err != nil {
		t.Fatalf("gateway close: %v", err)
	}
}
