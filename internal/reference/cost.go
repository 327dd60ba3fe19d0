package reference

// Cost is what a printed protocol costs as it runs over its one link:
// round trips, and C2's decryptions, fresh encryptions and
// re-randomizations. It is the paper's own cost model, composed from the
// per-primitive costs of Algorithms 1–3, the SBD of [21] and the
// protocol-level rounds.
type Cost struct{ Rounds, Decrypts, Encrypts, Rerandomizes int }

// plus is c and times runs of o.
func (c Cost) plus(times int, o Cost) Cost {
	return Cost{
		Rounds:       c.Rounds + times*o.Rounds,
		Decrypts:     c.Decrypts + times*o.Decrypts,
		Encrypts:     c.Encrypts + times*o.Encrypts,
		Rerandomizes: c.Rerandomizes + times*o.Rerandomizes,
	}
}

// SMCost is one secure multiplication (Algorithm 1): C2 opens the two
// blinded operands and encrypts their product.
func SMCost() Cost { return Cost{Rounds: 1, Decrypts: 2, Encrypts: 1} }

// SBORCost is one secure bit-OR, o₁ + o₂ − SM(o₁, o₂): one SM.
func SBORCost() Cost { return SMCost() }

// SSEDCost is one squared Euclidean distance over m attributes
// (Algorithm 2): the m differences' SMs in one batch.
func SSEDCost(m int) Cost { return Cost{Rounds: 1, Decrypts: 2 * m, Encrypts: m} }

// SBDCost is one bit decomposition into L bits: L LSB rounds of one
// decryption and one encrypted bit each, then the verification's one
// decryption, answered by a plain flag.
func SBDCost(L int) Cost { return Cost{Rounds: L + 1, Decrypts: L + 1, Encrypts: L} }

// SMINCost is one secure minimum of two L-bit vectors (Algorithm 3): the
// batch of L bit products (2L opened, L encrypted), then C2 opens L′,
// returns M′ re-randomized and encrypts α.
func SMINCost(L int) Cost { return Cost{Rounds: 2, Decrypts: 3 * L, Encrypts: L + 1, Rerandomizes: L} }

// selectCost is step 3(c) of Algorithm 6: C2 opens the n blinded
// differences β and encrypts the one-hot U.
func selectCost(n int) Cost { return Cost{Rounds: 1, Decrypts: n, Encrypts: n} }

// rankCost is step 3 of Algorithm 5: C2 opens the n distances and names
// the winners in the clear.
func rankCost(n int) Cost { return Cost{Rounds: 1, Decrypts: n} }

// revealCost is steps 4–6 of Algorithm 5: C2 opens every masked value.
func revealCost(values int) Cost { return Cost{Rounds: 1, Decrypts: values} }

// PaperCost is what SkNNm and SkNNb cost as they run over n records of m
// attributes, ranking on the first featureM, for the k nearest at the
// table's domain l. SkNNm decomposes at L = l + 1:
//
//	n·SSED(featureM) + n·SBD(L) + k·[(n−1)·SMIN(L) + select(n) + n·m·SM + n·L·SBOR] + reveal(k·m)
//
// and SkNNb is n·SSED(featureM) + rank(n) + reveal(k·m).
func PaperCost(n, m, featureM, k, l int) (secure, basic Cost) {
	L := l + 1
	secure = Cost{}.plus(n, SSEDCost(featureM)).plus(n, SBDCost(L))
	iteration := Cost{}.plus(n-1, SMINCost(L)).plus(1, selectCost(n)).plus(n*m, SMCost()).plus(n*L, SBORCost())
	secure = secure.plus(k, iteration).plus(1, revealCost(k*m))
	basic = Cost{}.plus(n, SSEDCost(featureM)).plus(1, rankCost(n)).plus(1, revealCost(k*m))
	return secure, basic
}
