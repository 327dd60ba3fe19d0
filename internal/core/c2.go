package core

import (
	"crypto/rand"
	"fmt"
	"io"
	"math/big"
	"sort"

	"sknn/internal/mpc"
	"sknn/internal/paillier"
	"sknn/internal/smc"
)

// CloudC2 is the key cloud: it embeds the smc responder (SM, SBD, SMIN
// steps, …) and adds the three protocol-level services of Algorithms 5
// and 6. It is stateless across requests, so one CloudC2 can serve any
// number of connections concurrently (the parallel variants rely on
// this).
type CloudC2 struct {
	resp   *smc.Responder
	sk     *paillier.PrivateKey
	random io.Reader
}

// NewCloudC2 builds the key cloud from Alice's secret key. If random is
// nil, crypto/rand.Reader is used.
func NewCloudC2(sk *paillier.PrivateKey, random io.Reader) *CloudC2 {
	if random == nil {
		random = rand.Reader
	}
	return &CloudC2{resp: smc.NewResponder(sk, random), sk: sk, random: random}
}

// Mux returns a dispatcher with both the smc primitive handlers and the
// protocol handlers registered.
func (c *CloudC2) Mux() *mpc.Mux {
	mux := c.resp.Mux()
	mux.Register(OpRank, mpc.HandlerFunc(c.handleRank))
	mux.Register(OpReveal, mpc.HandlerFunc(c.handleReveal))
	mux.Register(OpMinSelect, mpc.HandlerFunc(c.handleMinSelect))
	mux.Register(OpMinIndex, mpc.HandlerFunc(c.handleMinIndex))
	mux.Register(OpHello, mpc.HandlerFunc(c.handleHello))
	return mux
}

// handleHello verifies that C1's public modulus matches the key C2
// holds, so a mis-deployed session (wrong key file, stale table) fails
// immediately instead of producing garbage ciphertext arithmetic deep
// inside a query. Payload: [N]; reply: [N] echoed on success.
func (c *CloudC2) handleHello(req *mpc.Message) (*mpc.Message, error) {
	if len(req.Ints) != 1 || req.Ints[0] == nil {
		return nil, fmt.Errorf("%w: hello payload", ErrBadFrame)
	}
	if req.Ints[0].Cmp(c.sk.N) != 0 {
		return nil, ErrHello
	}
	return &mpc.Message{Op: OpHello, Ints: []*big.Int{new(big.Int).Set(c.sk.N)}}, nil
}

// Serve runs the responder loop on conn until the peer closes.
func (c *CloudC2) Serve(conn mpc.Conn) error {
	return mpc.Serve(conn, c.Mux())
}

// ServeConcurrent serves conn handling up to maxInflight interleaved
// requests at once. Use it when the peer multiplexes several query
// sessions over one link (mpc.Multiplexer): one session's heavyweight
// step then no longer delays the others' replies. All handlers are
// stateless, so concurrency needs no further coordination.
func (c *CloudC2) ServeConcurrent(conn mpc.Conn, maxInflight int) error {
	return mpc.ServeConcurrent(conn, c.Mux(), maxInflight)
}

// handleRank implements step 3 of Algorithm 5 (SkNNb only): decrypt all
// encrypted distances, find the k smallest, and return their indices δ.
// This is precisely the step that leaks plaintext distances and access
// patterns to C2 — the reason SkNNm exists. Payload: [k, E(d₁),…,E(d_n)];
// reply: [i₁,…,i_k] (0-based, plaintext).
func (c *CloudC2) handleRank(req *mpc.Message) (*mpc.Message, error) {
	if len(req.Ints) < 2 {
		return nil, fmt.Errorf("%w: rank payload of %d ints", ErrBadFrame, len(req.Ints))
	}
	if !req.Ints[0].IsInt64() {
		return nil, fmt.Errorf("%w: bad k", ErrBadFrame)
	}
	k := int(req.Ints[0].Int64())
	n := len(req.Ints) - 1
	if err := validateK(k, n); err != nil {
		return nil, err
	}
	type distIdx struct {
		d   *big.Int
		idx int
	}
	ds := make([]distIdx, n)
	err := paillier.ForEach(n, func(i int) error {
		d, err := c.decryptRaw(req.Ints[i+1])
		if err != nil {
			return fmt.Errorf("core: rank distance %d: %w", i, err)
		}
		ds[i] = distIdx{d: d, idx: i}
		return nil
	})
	if err != nil {
		return nil, err
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
// thanks to C1's masks and destined for Bob. C2 cannot tell the two
// kinds apart, nor needs to. Payload: [γ…]; reply: [γ′…].
func (c *CloudC2) handleReveal(req *mpc.Message) (*mpc.Message, error) {
	if len(req.Ints) == 0 {
		return nil, fmt.Errorf("%w: empty reveal payload", ErrBadFrame)
	}
	out := make([]*big.Int, len(req.Ints))
	err := paillier.ForEach(len(out), func(i int) error {
		m, err := c.decryptRaw(req.Ints[i])
		if err != nil {
			return fmt.Errorf("core: reveal γ[%d]: %w", i, err)
		}
		out[i] = m
		return nil
	})
	if err != nil {
		return nil, err
	}
	//sknnlint:allow partyflow -- Algorithm 5 step 5: each revealed γ′ is uniformly random in ℤ_N because C1 added a one-time full-range mask r_{j,g} to the attribute or row-packed record chunk before sending; only Bob, who receives γ′ and the masks, can unmask the value and split a chunk into its columns
	return &mpc.Message{Op: OpReveal, Ints: out}, nil
}

// handleMinSelect implements step 3(c) of Algorithm 6: decrypt the
// blinded, permuted distance differences β and return the one-hot vector
// U with E(1) at (one of) the zero position(s) and fresh E(0) elsewhere.
// If several entries are zero (tied minima), one is chosen uniformly at
// random, exactly as the paper prescribes. Payload: [β₁,…,β_n]; reply:
// [U₁,…,U_n].
func (c *CloudC2) handleMinSelect(req *mpc.Message) (*mpc.Message, error) {
	n := len(req.Ints)
	chosen, err := c.argminOfBlinded(req.Ints)
	if err != nil {
		return nil, err
	}

	// The tie-break above draws from the same reader as U's nonces, so
	// these are a second fan-out, not tasks beside the decryptions.
	bits := make([]*big.Int, n)
	for i := range bits {
		bits[i] = new(big.Int)
	}
	bits[chosen].SetInt64(1)
	u, err := c.sk.EncryptMany(c.random, bits)
	if err != nil {
		return nil, fmt.Errorf("core: min-select encrypt U: %w", err)
	}
	out := make([]*big.Int, n)
	for i, ct := range u {
		out[i] = ct.Raw()
	}
	return &mpc.Message{Op: OpMinSelect, Ints: out}, nil
}

// handleMinIndex is the clustered-index variant of min-select: same
// blinded, permuted payload, but the reply is the argmin *position in
// the clear* instead of an encrypted one-hot vector. C1 inverse-permutes
// the position to learn which cluster centroid is nearest — the
// deliberate, documented leakage the clustered index trades for pruning
// (C1 must know which clusters to scan). C2's view is unchanged from
// min-select: a fresh uniform permutation per round means the position
// it reports reveals nothing about which cluster it was. Payload:
// [β₁,…,β_c]; reply: [i] (0-based position, plaintext).
func (c *CloudC2) handleMinIndex(req *mpc.Message) (*mpc.Message, error) {
	chosen, err := c.argminOfBlinded(req.Ints)
	if err != nil {
		return nil, err
	}
	//sknnlint:allow partyflow -- the clustered index's documented trade (docs/INVARIANTS.md): C1 must learn which centroid is nearest to prune clusters, and C1's fresh per-round permutation makes the plaintext position meaningless to C2
	return &mpc.Message{Op: OpMinIndex, Ints: []*big.Int{big.NewInt(int64(chosen))}}, nil
}

// decryptRaw validates and decrypts one payload element.
func (c *CloudC2) decryptRaw(v *big.Int) (*big.Int, error) {
	ct, err := c.sk.FromRaw(v)
	if err != nil {
		return nil, err
	}
	return c.sk.Decrypt(ct)
}

// argminOfBlinded decrypts a blinded-difference vector β (βᵢ =
// rᵢ·(dmin−dᵢ), so exactly the minima decrypt to zero) and returns one
// zero position chosen uniformly at random — the tie-break rule the
// paper prescribes for step 3(c).
func (c *CloudC2) argminOfBlinded(ints []*big.Int) (int, error) {
	if len(ints) == 0 {
		return 0, fmt.Errorf("%w: empty min-select payload", ErrBadFrame)
	}
	isZero := make([]bool, len(ints))
	err := paillier.ForEach(len(ints), func(i int) error {
		m, err := c.decryptRaw(ints[i])
		if err != nil {
			return fmt.Errorf("core: min-select β[%d]: %w", i, err)
		}
		isZero[i] = m.Sign() == 0
		return nil
	})
	if err != nil {
		return 0, err
	}
	var zeros []int
	for i, z := range isZero {
		if z {
			zeros = append(zeros, i)
		}
	}
	if len(zeros) == 0 {
		return 0, ErrNoZeroInBeta
	}
	pickBig, err := rand.Int(c.random, big.NewInt(int64(len(zeros))))
	if err != nil {
		return 0, fmt.Errorf("core: min-select choice: %w", err)
	}
	return zeros[pickBig.Int64()], nil
}
