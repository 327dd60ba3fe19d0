package reference

import (
	"crypto/rand"
	"errors"
	"fmt"
	"math"
	"math/big"

	"sknn/internal/core"
	"sknn/internal/mpc"
	"sknn/internal/paillier"
	"sknn/internal/smc"
)

// OpMinSelect is step 3(c) of Algorithm 6 as printed: C1 sends the
// blinded, permuted distance differences β, C2 answers the one-hot U.
// The engine never sends it and no deployed C2 serves it; the number sits
// in core's opcode range (64+) because the paper's protocols share that
// layer.
const OpMinSelect mpc.Op = 66

// ErrNoZeroInBeta reports a min-select whose β holds no zero: no
// position decrypts to the minimum, so there is nothing to select.
var ErrNoZeroInBeta = errors.New("reference: no minimum found in blinded distance vector")

// KeyCloud is C2 for the printed protocols: the deployed key cloud's
// dispatcher (core.CloudC2.Mux) plus the handlers of the paper's SM, SBD
// and SMIN (Algorithms 1–3, smc.Responder.RegisterPaper) and of
// Algorithm 6's one-hot select, which no deployed C2 serves. It answers
// the engine too, so one key cloud serves both sides of a differential
// test.
func KeyCloud(sk *paillier.PrivateKey) *mpc.Mux {
	mux := core.NewCloudC2(sk, nil).Mux()
	rp := smc.NewResponder(sk, nil)
	rp.RegisterPaper(mux)
	sel := &minSelect{sk: sk, resp: rp}
	mux.Register(OpMinSelect, mpc.HandlerFunc(sel.handle))
	return mux
}

// minSelect is C2's half of step 3(c), drawing its reply nonces from
// the paper primitives' responder and its tie-breaks from crypto/rand.
type minSelect struct {
	sk   *paillier.PrivateKey
	resp *smc.Responder
}

// handle decrypts the blinded, permuted distance differences β and
// answers the one-hot U, E(1) at one of β's zeros — chosen uniformly at
// random where several tie, as the paper prescribes — and E(0)
// elsewhere, all fresh encryptions. Payload: [n, β₁…βₙ]; reply: U₁…Uₙ.
func (s *minSelect) handle(req *mpc.Message) (*mpc.Message, error) {
	f := mpc.ReadFields(req.Ints)
	n := f.Int(1, math.MaxInt)
	betas := mpc.ReadRest(f, s.sk.FromRaw)
	if err := f.Err(); err != nil {
		return nil, fmt.Errorf("reference: min-select: %w", err)
	}
	if len(betas) != n { // the header restates β's length
		return nil, fmt.Errorf("%w: min-select header names %d of %d β", core.ErrBadFrame, n, len(betas))
	}
	ms, nonces, err := s.resp.Decrypt(betas, nil, n)
	if err != nil {
		return nil, fmt.Errorf("reference: min-select β: %w", err)
	}
	w, err := argminOfBlinded(ms)
	if err != nil {
		return nil, err
	}
	out := make([]*big.Int, n)
	for j := range out {
		u := new(big.Int)
		if j == w {
			u.SetInt64(1)
		}
		out[j] = s.sk.EncryptWith(nonces[j], u).Raw()
	}
	return &mpc.Message{Op: OpMinSelect, Ints: out}, nil
}

// argminOfBlinded returns one of the zero positions of a decrypted
// blinded-difference vector β (βᵢ = rᵢ·(dmin−dᵢ), so exactly the minima
// decrypt to zero), chosen uniformly at random among them.
func argminOfBlinded(betas []*big.Int) (int, error) {
	var zeros []int
	for i, b := range betas {
		if b.Sign() == 0 {
			zeros = append(zeros, i)
		}
	}
	if len(zeros) == 0 {
		return 0, ErrNoZeroInBeta
	}
	pick, err := rand.Int(rand.Reader, big.NewInt(int64(len(zeros))))
	if err != nil {
		return 0, fmt.Errorf("reference: argmin choice: %w", err)
	}
	return zeros[pick.Int64()], nil
}
