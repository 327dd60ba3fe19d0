package core

import (
	"fmt"
	"io"
	"math"
	"math/big"
	"sort"

	"sknn/internal/mpc"
	"sknn/internal/paillier"
	"sknn/internal/smc"
)

// CloudC2 is the key cloud: it embeds the smc responder's packed kernels
// (packed SSED, the bit peel) and adds the protocol-level services of
// Algorithms 5 and 6. It serves exactly the frames the engine sends: the
// paper's SM, SBD and SMIN handlers and Algorithm 6's one-hot select are
// internal/reference's key cloud's alone. Rank and reveal decrypt
// through the responder's one door (smc.Responder.Decrypt), as the
// kernels do, asking it for no reply nonces: their replies are
// plaintext. It keeps no protocol state between requests — only its
// responder's reserve of reply nonces, its own randomness raised ahead
// of the requests — so one CloudC2 can serve any number of connections
// concurrently (the parallel variants rely on this).
type CloudC2 struct {
	resp *smc.Responder
	sk   *paillier.PrivateKey
}

// NewCloudC2 builds the key cloud from Alice's secret key, its reply
// nonces drawn from random (crypto/rand.Reader if nil).
func NewCloudC2(sk *paillier.PrivateKey, random io.Reader) *CloudC2 {
	return &CloudC2{resp: smc.NewResponder(sk, random), sk: sk}
}

// Mux returns a dispatcher with the smc kernel handlers and the protocol
// handlers registered.
func (c *CloudC2) Mux() *mpc.Mux {
	mux := mpc.NewMux()
	c.resp.RegisterKernels(mux)
	mux.Register(OpRank, mpc.HandlerFunc(c.handleRank))
	mux.Register(OpReveal, mpc.HandlerFunc(c.handleReveal))
	mux.Register(OpHello, mpc.HandlerFunc(c.handleHello))
	return mux
}

// handleHello verifies that C1's public modulus matches the key C2
// holds, so a mis-deployed session (wrong key file, stale table) fails
// immediately instead of producing garbage ciphertext arithmetic deep
// inside a query. Payload: [N]; reply: [N] echoed on success.
func (c *CloudC2) handleHello(req *mpc.Message) (*mpc.Message, error) {
	f := mpc.ReadFields(req.Ints)
	n := f.Big()
	if err := f.Done(); err != nil {
		return nil, fmt.Errorf("core: hello: %w", err)
	}
	if n.Cmp(c.sk.N) != 0 {
		return nil, ErrHello
	}
	return &mpc.Message{Op: OpHello, Ints: []*big.Int{new(big.Int).Set(c.sk.N)}}, nil
}

// Serve runs the responder loop on conn until the peer closes, up to
// serveInflight requests at once: the handlers share nothing but the
// reply-nonce reserve, which is safe for concurrent use.
func (c *CloudC2) Serve(conn mpc.Conn) error {
	return mpc.ServeConcurrent(conn, c.Mux(), serveInflight)
}

// handleRank implements step 3 of Algorithm 5 (SkNNb only): decrypt all
// encrypted distances, find the k smallest, and return their indices δ.
// This is precisely the step that leaks plaintext distances and access
// patterns to C2 — the reason SkNNm exists. Payload: [k, E(d₁),…,E(d_n)];
// reply: [i₁,…,i_k] (0-based, plaintext).
func (c *CloudC2) handleRank(req *mpc.Message) (*mpc.Message, error) {
	f := mpc.ReadFields(req.Ints)
	k := f.Int(math.MinInt, math.MaxInt)
	dists := mpc.ReadRest(f, c.sk.FromRaw)
	if err := f.Err(); err != nil {
		return nil, fmt.Errorf("core: rank payload: %w", err)
	}
	n := len(dists)
	if n == 0 {
		return nil, fmt.Errorf("%w: rank payload without distances", ErrBadFrame)
	}
	if err := validateK(k, n); err != nil {
		return nil, err
	}
	ms, _, err := c.resp.Decrypt(dists, nil, 0)
	if err != nil {
		return nil, fmt.Errorf("core: rank distances: %w", err)
	}
	type distIdx struct {
		d   *big.Int
		idx int
	}
	ds := make([]distIdx, n)
	for i, d := range ms {
		ds[i] = distIdx{d: d, idx: i}
	}
	// Stable sort keeps ties in record order, matching the sequential
	// scan a plaintext kNN oracle performs.
	sort.SliceStable(ds, func(a, b int) bool { return ds[a].d.Cmp(ds[b].d) < 0 })
	out := make([]*big.Int, k)
	for j := 0; j < k; j++ {
		out[j] = big.NewInt(int64(ds[j].idx))
	}
	//sknnlint:allow partyflow -- SkNNb's documented leak (Section 3.1): C2 learns and returns the k rank *positions* of blinded distances, not the distances or records themselves; SkNNm exists precisely to close this channel
	return &mpc.Message{Op: OpRank, Ints: out}, nil
}

// handleReveal implements step 5 of Algorithm 5 (shared by both
// protocols): decrypt each masked value γ_{j,g} — one row-packed chunk of
// a selected record's columns, or one attribute of it where the key packs
// none — and return the plaintext γ′_{j,g}, which is uniformly random
// thanks to C1's masks and destined for Bob. The clustered index's
// ranking sends the same frame with one element, a round's winning
// cluster id under C1's mask, whose γ′ goes back to C1. C2 cannot tell
// the kinds apart, nor needs to. Payload: [γ…]; reply: [γ′…].
func (c *CloudC2) handleReveal(req *mpc.Message) (*mpc.Message, error) {
	f := mpc.ReadFields(req.Ints)
	gammas := mpc.ReadRest(f, c.sk.FromRaw)
	if err := f.Err(); err != nil {
		return nil, fmt.Errorf("core: reveal payload: %w", err)
	}
	if len(gammas) == 0 {
		return nil, fmt.Errorf("%w: empty reveal payload", ErrBadFrame)
	}
	out, _, err := c.resp.Decrypt(gammas, nil, 0)
	if err != nil {
		return nil, fmt.Errorf("core: reveal γ: %w", err)
	}
	//sknnlint:allow partyflow -- Algorithm 5 step 5: each revealed γ′ is uniformly random in ℤ_N because C1 added a one-time full-range mask r_{j,g} to the attribute or row-packed record chunk before sending; only Bob, who receives γ′ and the masks, can unmask the value and split a chunk into its columns. The cluster ranking's reveal is the same frame over one masked cluster id, which C1 unmasks: the clustered index's documented leakage to C1 (docs/INVARIANTS.md), a uniform value to C2
	return &mpc.Message{Op: OpReveal, Ints: out}, nil
}
