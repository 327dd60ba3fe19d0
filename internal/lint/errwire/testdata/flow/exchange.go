package fixture

// Requester stands in for smc.Requester, whose exchange is one C1 → C2
// round trip with the reply decoded.
type Requester struct{ c *Conn }

func (rq *Requester) exchange(op int, want int) ([]int, error) { return nil, nil }

// exchangeChecked is the clean shape every kernel uses.
func exchangeChecked(rq *Requester) ([]int, error) {
	hs, err := rq.exchange(1, 2)
	if err != nil {
		return nil, err
	}
	return hs, nil
}

// exchangeBlanked drops a failed round and computes on a nil reply.
func exchangeBlanked(rq *Requester) []int {
	hs, _ := rq.exchange(1, 2) // want `error from exchange\(\) is assigned to _`
	return hs
}

// exchangeEscapes forgets the error on the early-exit path.
func exchangeEscapes(rq *Requester, b bool) error {
	_, err := rq.exchange(1, 2) // want `error from exchange\(\) can reach a return without being checked`
	if b {
		return nil
	}
	return err
}
