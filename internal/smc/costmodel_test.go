package smc

import (
	"fmt"
	"testing"

	"sknn/internal/mpc"
	"sknn/internal/paillier"
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
	return c.received[OpSM] + c.received[OpSBDLsb] + c.received[OpSBDVerify] + c.received[OpSMIN]/2
}

// rerandomizes is how many ciphertexts C2 returned re-randomized rather
// than freshly encrypted (EncryptCalls does not see those): M′, every
// element of an SMIN reply but its last, E(α).
func (c *costCounter) rerandomizes() int {
	return max(0, c.replied[OpSMIN]-1)
}

// TestPaperCostModel pins the paper primitives to the operation counts
// of the paper's own analysis — Algorithms 1–3 and the SBD of [21] — as
// functions of the dimension m and the bit length l: rounds off the
// link's mpc.Stats, C2's decryptions, fresh encryptions and
// re-randomizations off costCounter.
// These are the counts docs/PROTOCOLS.md tabulates and the reference
// SkNNm multiplies up; a primitive that drifts from its printed form
// (a packed uplink, a dropped verification round) fails here.
func TestPaperCostModel(t *testing.T) {
	sk := testKey()
	counter := &costCounter{inner: NewResponder(sk, nil).Mux()}
	rq := servedBy(t, sk, counter)

	type cost struct{ rounds, decrypts, encrypts, rerandomizes int }
	type costCase struct {
		name string
		run  func() error
		want cost
	}
	cases := []costCase{
		{"SM", func() error { _, err := rq.SM(enc(t, sk, 6), enc(t, sk, 7)); return err },
			cost{rounds: 1, decrypts: 2, encrypts: 1}},
		{"SBOR", func() error { _, err := rq.SBOR(enc(t, sk, 0), enc(t, sk, 1)); return err },
			cost{rounds: 1, decrypts: 2, encrypts: 1}},
	}
	for _, m := range []int{2, 6} {
		x, y := make([]int64, m), make([]int64, m)
		for j := range x {
			x[j], y[j] = int64(3+j), int64(11-j)
		}
		// One batched SM of the m differences: 2m blinded operands in, m
		// products out.
		cases = append(cases, costCase{fmt.Sprintf("SSED(m=%d)", m),
			func() error { _, err := rq.SSED(encVec(t, sk, x...), encVec(t, sk, y...)); return err },
			cost{rounds: 1, decrypts: 2 * m, encrypts: m}})
	}
	for _, l := range []int{6, 12} {
		// l LSB rounds of one decryption and one encrypted bit each, then
		// the verification's one decryption (its reply is a plain flag).
		cases = append(cases, costCase{fmt.Sprintf("SBD(l=%d)", l),
			func() error { _, err := rq.SBD(enc(t, sk, 45), l); return err },
			cost{rounds: l + 1, decrypts: l + 1, encrypts: l}})
		// Round one is the SM batch of the l bit products (2l in, l out);
		// round two opens L′ (l), returns M′ re-randomized (l) and E(α).
		cases = append(cases, costCase{fmt.Sprintf("SMIN(l=%d)", l),
			func() error { _, err := rq.SMIN(encBits(t, sk, 45, l), encBits(t, sk, 58, l)); return err },
			cost{rounds: 2, decrypts: 3 * l, encrypts: l + 1, rerandomizes: l}})
	}

	for _, tc := range cases {
		counter.received, counter.replied, counter.encrypts = map[mpc.Op]int{}, map[mpc.Op]int{}, 0
		rounds0 := rq.Conn().Stats().Rounds()
		if err := tc.run(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := cost{
			rounds:       int(rq.Conn().Stats().Rounds() - rounds0),
			decrypts:     counter.decrypts(),
			encrypts:     int(counter.encrypts),
			rerandomizes: counter.rerandomizes(),
		}
		if got != tc.want {
			t.Errorf("%s cost %+v, want %+v", tc.name, got, tc.want)
		}
		for op := range counter.received {
			if op != OpSM && op != OpSBDLsb && op != OpSBDVerify && op != OpSMIN {
				t.Errorf("%s sent opcode %d, not one of the paper's four", tc.name, op)
			}
		}
	}
}
