package reference

import (
	"crypto/rand"
	"fmt"
	"testing"

	"sknn/internal/core"
	"sknn/internal/dataset"
	"sknn/internal/mpc"
	"sknn/internal/paillier"
	"sknn/internal/smc"
	"sknn/internal/testkit"
)

// c2Meter is C2's side of the paper's cost model, counted where it is
// paid: across the inner Handle, with the one requester blocked on its
// reply, paillier's process-wide counters move by exactly C2's
// decryptions and fresh encryptions, and every element of an SMIN reply
// but its last, E(α), is M′ re-randomized.
type c2Meter struct {
	inner mpc.Handler
	got   Cost
}

func (c *c2Meter) Handle(req *mpc.Message) (*mpc.Message, error) {
	onePrime0, crt0 := paillier.DecryptCalls()
	encrypts0 := paillier.EncryptCalls()
	resp, err := c.inner.Handle(req)
	onePrime1, crt1 := paillier.DecryptCalls()
	c.got.Decrypts += int(onePrime1 - onePrime0 + crt1 - crt0)
	c.got.Encrypts += int(paillier.EncryptCalls() - encrypts0)
	if err == nil && req.Op == smc.OpSMIN {
		c.got.Rerandomizes += len(resp.Ints) - 1
	}
	return resp, err
}

// TestPaperCostCounted runs reference.SkNNm and reference.SkNNb at two
// small shapes, one with a payload column, and requires what they cost
// as they run — round trips off the link, the rest off c2Meter — to
// equal PaperCost.
func TestPaperCostCounted(t *testing.T) {
	sk := testkit.Key(256)
	pk := &sk.PublicKey
	for _, tc := range []struct{ n, m, f, b, k int }{
		{n: 4, m: 2, f: 2, b: 1, k: 2},
		{n: 5, m: 3, f: 2, b: 2, k: 1},
	} {
		t.Run(fmt.Sprintf("n=%d,m=%d,f=%d,b=%d,k=%d", tc.n, tc.m, tc.f, tc.b, tc.k), func(t *testing.T) {
			tbl, err := dataset.Generate(int64(tc.n), tc.n, tc.m, tc.b)
			if err != nil {
				t.Fatal(err)
			}
			q, err := dataset.GenerateQuery(int64(tc.m), tc.f, tc.b)
			if err != nil {
				t.Fatal(err)
			}
			table, err := core.EncryptTable(rand.Reader, pk, tbl.Rows)
			if err == nil {
				table, err = table.WithAttrBits(tc.b)
			}
			if err == nil {
				table, err = table.WithFeatureColumns(tc.f)
			}
			if err != nil {
				t.Fatal(err)
			}
			eq, err := core.NewClient(pk, nil).EncryptQuery(q)
			if err != nil {
				t.Fatal(err)
			}
			rows, l := table.Snapshot().Records, table.Shape().DomainBits()
			wantSecure, wantBasic := PaperCost(tc.n, tc.m, tc.f, tc.k, l)
			for _, p := range []struct {
				name string
				run  func(*smc.Requester) error
				want Cost
			}{
				{"SkNNm", func(rq *smc.Requester) error { _, err := SkNNm(rq, rows, eq, tc.k, l); return err }, wantSecure},
				{"SkNNb", func(rq *smc.Requester) error { _, err := SkNNb(rq, rows, eq, tc.k); return err }, wantBasic},
			} {
				meter := &c2Meter{inner: KeyCloud(sk)}
				c1Side, c2Side := mpc.ChanPipe()
				served := make(chan error, 1)
				go func() { served <- mpc.Serve(c2Side, meter) }()
				if err := p.run(smc.NewRequester(pk, c1Side, nil)); err != nil {
					t.Fatalf("%s: %v", p.name, err)
				}
				meter.got.Rounds = int(c1Side.Stats().Rounds())
				if err := mpc.SendClose(c1Side); err != nil {
					t.Fatal(err)
				}
				if err := <-served; err != nil {
					t.Fatalf("C2 serve loop: %v", err)
				}
				if meter.got != p.want {
					t.Errorf("%s cost %+v as it ran, PaperCost says %+v", p.name, meter.got, p.want)
				}
			}
		})
	}
}
