package reference

import (
	"sknn/internal/core"
	"sknn/internal/mpc"
	"sknn/internal/paillier"
)

// KeyCloud is C2 for the printed protocols: the deployed key cloud's
// dispatcher (core.CloudC2.Mux) plus the handlers of the paper's SM, SBD
// and SMIN (Algorithms 1–3) and of Algorithm 6's one-hot select, which no
// deployed C2 serves. It answers the engine too, so one key cloud serves
// both sides of a differential test.
func KeyCloud(sk *paillier.PrivateKey) *mpc.Mux {
	c2 := core.NewCloudC2(sk, nil)
	mux := c2.Mux()
	c2.RegisterPaper(mux)
	return mux
}
