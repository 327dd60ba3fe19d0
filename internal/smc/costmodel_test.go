package smc_test

import (
	"fmt"
	"testing"

	"sknn/internal/mpc"
	"sknn/internal/paillier"
	"sknn/internal/reference"
	"sknn/internal/smc"
)

// costCounter is C2's side of the paper's cost model, counted where it
// is paid: it wraps the genuine responder mux, tallies the elements of
// every request and reply by opcode (each is a ciphertext C2 is handed
// or hands back) and reads paillier.EncryptCalls across the inner
// Handle, which — C1 being blocked on the round trip — is exactly the
// fresh encryptions C2 made for that reply.
type costCounter struct {
	inner    mpc.Handler
	received map[mpc.Op]int
	replied  map[mpc.Op]int
	encrypts uint64
}

func (c *costCounter) Handle(req *mpc.Message) (*mpc.Message, error) {
	c.received[req.Op] += len(req.Ints)
	before := paillier.EncryptCalls()
	resp, err := c.inner.Handle(req)
	c.encrypts += paillier.EncryptCalls() - before
	if err == nil {
		c.replied[req.Op] += len(resp.Ints)
	}
	return resp, err
}

// decrypts is how many of the received ciphertexts the paper's C2
// decrypts: every element of an SM, SBD-LSB or SBD-verify frame, and the
// L′ half of an SMIN frame (Γ′ is exponentiated by α and re-randomized,
// never opened).
func (c *costCounter) decrypts() int {
	return c.received[smc.OpSM] + c.received[smc.OpSBDLsb] + c.received[smc.OpSBDVerify] + c.received[smc.OpSMIN]/2
}

// rerandomizes is how many ciphertexts C2 returned re-randomized rather
// than freshly encrypted (EncryptCalls does not see those): M′, every
// element of an SMIN reply but its last, E(α).
func (c *costCounter) rerandomizes() int {
	return max(0, c.replied[smc.OpSMIN]-1)
}

// TestPaperCostModel holds the paper primitives to the operation counts
// of the paper's own analysis — Algorithms 1–3 and the SBD of [21] — as
// functions of the dimension m and the bit length l, which the
// reference's cost model (reference.PaperCost) composes: rounds off the
// link's mpc.Stats, C2's decryptions, fresh encryptions and
// re-randomizations off costCounter. A primitive that drifts from its
// printed form (a packed uplink, a dropped verification round) fails
// here.
func TestPaperCostModel(t *testing.T) {
	sk := smc.TestKey()
	counter := &costCounter{inner: smc.NewResponder(sk, nil).Mux()}
	rq := smc.ServedBy(t, sk, counter)

	type costCase struct {
		name string
		run  func() error
		want reference.Cost
	}
	cases := []costCase{
		{"SM", func() error { _, err := rq.SM(smc.Enc(t, sk, 6), smc.Enc(t, sk, 7)); return err }, reference.SMCost()},
		{"SBOR", func() error { _, err := rq.SBOR(smc.Enc(t, sk, 0), smc.Enc(t, sk, 1)); return err }, reference.SBORCost()},
	}
	for _, m := range []int{2, 6} {
		x, y := make([]int64, m), make([]int64, m)
		for j := range x {
			x[j], y[j] = int64(3+j), int64(11-j)
		}
		cases = append(cases, costCase{fmt.Sprintf("SSED(m=%d)", m),
			func() error { _, err := rq.SSED(smc.EncVec(t, sk, x...), smc.EncVec(t, sk, y...)); return err },
			reference.SSEDCost(m)})
	}
	for _, l := range []int{6, 12} {
		cases = append(cases, costCase{fmt.Sprintf("SBD(l=%d)", l),
			func() error { _, err := rq.SBD(smc.Enc(t, sk, 45), l); return err },
			reference.SBDCost(l)})
		cases = append(cases, costCase{fmt.Sprintf("SMIN(l=%d)", l),
			func() error { _, err := rq.SMIN(smc.EncBits(t, sk, 45, l), smc.EncBits(t, sk, 58, l)); return err },
			reference.SMINCost(l)})
	}

	for _, tc := range cases {
		counter.received, counter.replied, counter.encrypts = map[mpc.Op]int{}, map[mpc.Op]int{}, 0
		rounds0 := smc.Rounds(rq)
		if err := tc.run(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := reference.Cost{
			Rounds:       int(smc.Rounds(rq) - rounds0),
			Decrypts:     counter.decrypts(),
			Encrypts:     int(counter.encrypts),
			Rerandomizes: counter.rerandomizes(),
		}
		if got != tc.want {
			t.Errorf("%s cost %+v, want %+v", tc.name, got, tc.want)
		}
		for op := range counter.received {
			if op != smc.OpSM && op != smc.OpSBDLsb && op != smc.OpSBDVerify && op != smc.OpSMIN {
				t.Errorf("%s sent opcode %d, not one of the paper's four", tc.name, op)
			}
		}
	}
}
