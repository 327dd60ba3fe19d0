// Package reference is the paper's query protocols written once, the way
// they are printed: SkNNb (Algorithm 5), SMINn (Algorithm 4) and SkNNm
// (Algorithm 6), straight-line, over a single link, one primitive call
// per line of pseudocode. It shares nothing with the production engine
// but the key cloud's protocol handlers — no sessions, no link pool, no
// packed SSED, no value-domain tournament, no row packing, no
// scatter-gather — which is what makes it an oracle: the differential
// suites (this package's, and the facade's) run a production query and
// this one over the same encrypted table and require the same neighbours
// as the plaintext kNN.
//
// Every primitive it calls is internal/smc's paper presentation — SSED,
// SBD, SMIN, SM, SBOR on an ordinary smc.Requester — so every frame
// speaks the paper's one-ciphertext-per-value wire format with
// full-range blinds. The connection must be served by KeyCloud over the
// table key's secret half: the deployed core.CloudC2 serves no such frame.
//
// Cost is the paper's, not the engine's: n SSEDs of m secure
// multiplications each and, for SkNNm, n SBDs and per selected neighbour
// n−1 SMINs, n·m secure multiplications and n·(l+1) SBORs, each its own
// round trip — PaperCost counts it. Keep n, k and l small.
package reference

import (
	"fmt"
	"math/big"

	"sknn/internal/core"
	"sknn/internal/mpc"
	"sknn/internal/paillier"
	"sknn/internal/smc"
)

// checkArgs vets what both protocols take — a rectangular table, k within
// it, a query no wider than a record — and returns the record arity m.
func checkArgs(rows []core.EncryptedRecord, q core.EncryptedQuery, k int) (int, error) {
	if k < 1 || k > len(rows) {
		return 0, fmt.Errorf("%w: k=%d, n=%d", core.ErrBadK, k, len(rows))
	}
	m := len(rows[0])
	if len(q) < 1 || len(q) > m {
		return 0, fmt.Errorf("%w: query has %d attributes, records have %d", core.ErrDimension, len(q), m)
	}
	for i, row := range rows {
		if len(row) != m {
			return 0, fmt.Errorf("%w: record %d has %d attributes, record 0 has %d", core.ErrDimension, i, len(row), m)
		}
	}
	return m, nil
}

// SkNNb is Algorithm 5 as printed, the paper's efficiency baseline: C2
// learns every distance and both clouds learn which records answer the
// query. rows is Alice's attribute-wise encrypted table E(T), q is Bob's
// E(Q) — it ranks on the first len(q) columns of every record, the rest
// ride along as payload — and k the number of neighbours. The result is
// the pair of shares of steps 4–6, which Bob unmasks with
// core.Client.Unmask, and names the winners by their position in rows.
func SkNNb(rq *smc.Requester, rows []core.EncryptedRecord, q core.EncryptedQuery, k int) (*core.MaskedResult, error) {
	if _, err := checkArgs(rows, q, k); err != nil {
		return nil, err
	}
	n := len(rows)

	// Step 2: E(dᵢ) ← SSED(E(Q), E(tᵢ)), record by record; C1 sends
	// ⟨i, E(dᵢ)⟩ for every i to C2.
	ds := make([]*paillier.Ciphertext, n)
	for i, row := range rows {
		d, err := rq.SSED(q, row[:len(q)])
		if err != nil {
			return nil, fmt.Errorf("reference: SSED of record %d: %w", i, err)
		}
		ds[i] = d
	}

	// Step 3: C2 decrypts the distances and answers δ = ⟨i₁,…,i_k⟩, the
	// indices of the k smallest.
	f, err := rq.RoundTrip(core.OpRank, []int{k}, ds)
	if err != nil {
		return nil, fmt.Errorf("reference: rank: %w", err)
	}
	selected := make([]core.EncryptedRecord, k)
	delta := make([]uint64, k)
	for j := range delta {
		delta[j] = uint64(f.Int(0, n-1))
		selected[j] = rows[delta[j]]
	}
	if err := f.Done(); err != nil {
		return nil, fmt.Errorf("reference: rank reply: %w", err)
	}
	return reveal(rq, selected, delta)
}

// SMINn computes [min(d₁,…,d_n)] from n bit-decomposed encrypted values
// (Algorithm 4). It plays a binary tournament bottom-up: each iteration
// halves the number of live values by pairwise SMIN, so ⌈log₂ n⌉
// iterations and n−1 SMIN invocations total. Only C1 learns the output;
// neither party learns any dᵢ or which input won.
func SMINn(rq *smc.Requester, ds [][]*paillier.Ciphertext) ([]*paillier.Ciphertext, error) {
	if len(ds) == 0 || len(ds[0]) == 0 {
		return nil, smc.ErrEmptyInput
	}
	for i, d := range ds {
		if len(d) != len(ds[0]) {
			return nil, fmt.Errorf("%w: vector %d has %d bits, vector 0 has %d",
				smc.ErrLengthMismatch, i, len(d), len(ds[0]))
		}
	}
	live := make([][]*paillier.Ciphertext, len(ds))
	copy(live, ds)
	for len(live) > 1 {
		next := make([][]*paillier.Ciphertext, 0, (len(live)+1)/2)
		for i := 0; i+1 < len(live); i += 2 {
			m, err := rq.SMIN(live[i], live[i+1])
			if err != nil {
				return nil, fmt.Errorf("reference: SMINn round of %d: %w", len(live), err)
			}
			next = append(next, m)
		}
		if len(live)%2 == 1 {
			next = append(next, live[len(live)-1])
		}
		live = next
	}
	return live[0], nil
}

// SkNNm is Algorithm 6 as printed. rows is Alice's attribute-wise
// encrypted table E(T), q is Bob's E(Q) — it ranks on the first len(q)
// columns of every record, the rest ride along as payload — k the number
// of neighbours and l the bit length of the squared-distance domain, the
// table's dataset.DomainBits that the engine compares in: every squared
// distance is below 2^l. Step 3(e) drives a selected record's distance to
// the all-ones sentinel, which every real distance must stay strictly
// below, and at the table's l one may equal 2^l − 1 (b = 1, m = 3). So
// the protocol decomposes into L = l + 1 bits, here and nowhere else.
// The result is the pair of shares of steps 4–6 of Algorithm 5, which
// Bob unmasks with core.Client.Unmask.
func SkNNm(rq *smc.Requester, rows []core.EncryptedRecord, q core.EncryptedQuery, k, l int) (*core.MaskedResult, error) {
	pk := rq.PK()
	n := len(rows)
	m, err := checkArgs(rows, q, k)
	if err != nil {
		return nil, err
	}
	if l < 1 {
		return nil, fmt.Errorf("%w: l=%d", core.ErrDomainBits, l)
	}
	L := l + 1 // the sentinel 2^L − 1 sits above every distance

	// Step 2: E(dᵢ) ← SSED(E(Q), E(tᵢ)) and [dᵢ] ← SBD(E(dᵢ)), record by
	// record.
	bits := make([][]*paillier.Ciphertext, n)
	for i, row := range rows {
		d, err := rq.SSED(q, row[:len(q)])
		if err != nil {
			return nil, fmt.Errorf("reference: SSED of record %d: %w", i, err)
		}
		if bits[i], err = rq.SBD(d, L); err != nil {
			return nil, fmt.Errorf("reference: SBD of record %d: %w", i, err)
		}
	}

	// Step 3: k rounds, each selecting the nearest record not yet taken.
	selected := make([]core.EncryptedRecord, 0, k)
	for s := 1; s <= k; s++ {
		// (a) [dmin] ← SMINn([d₁],…,[d_n]).
		minBits, err := SMINn(rq, bits)
		if err != nil {
			return nil, fmt.Errorf("reference: iteration %d: %w", s, err)
		}

		// (b) E(dmin) and every E(dᵢ) recomposed from their bits;
		// τᵢ = E(dmin − dᵢ), τ′ᵢ = τᵢ^rᵢ, β = π(τ′) goes to C2.
		encMin := smc.Recompose(pk, minBits)
		perm, err := smc.NewPermutation(rq.Rand(), n)
		if err != nil {
			return nil, fmt.Errorf("reference: iteration %d permutation: %w", s, err)
		}
		beta := make([]*paillier.Ciphertext, n)
		for i := range beta {
			tau := pk.Sub(encMin, smc.Recompose(pk, bits[perm[i]]))
			r, err := pk.RandomNonzeroZN(rq.Rand())
			if err != nil {
				return nil, fmt.Errorf("reference: iteration %d blind: %w", s, err)
			}
			beta[i] = pk.ScalarMul(tau, r)
		}

		// (c) C2 decrypts β and answers U: E(1) at one position where
		// β′ = 0, E(0) elsewhere. V = π⁻¹(U).
		f, err := rq.RoundTrip(OpMinSelect, []int{n}, beta)
		if err != nil {
			return nil, fmt.Errorf("reference: iteration %d min-select: %w", s, err)
		}
		v := make([]*paillier.Ciphertext, n)
		for i := range v {
			v[perm[i]] = mpc.Read(f, pk.FromRaw)
		}
		if err := f.Done(); err != nil {
			return nil, fmt.Errorf("reference: iteration %d min-select reply: %w", s, err)
		}

		// (d) V′ᵢ,ⱼ ← SM(Vᵢ, E(tᵢ,ⱼ)); E(t′ₛ,ⱼ) ← Πᵢ V′ᵢ,ⱼ.
		record := make(core.EncryptedRecord, m)
		for j := 0; j < m; j++ {
			prods := make([]*paillier.Ciphertext, n)
			for i := range rows {
				if prods[i], err = rq.SM(v[i], rows[i][j]); err != nil {
					return nil, fmt.Errorf("reference: iteration %d extraction (%d,%d): %w", s, i, j, err)
				}
			}
			record[j] = pk.Product(prods)
		}
		selected = append(selected, record)

		// (e) E(dᵢ,γ) ← SBOR(Vᵢ, E(dᵢ,γ)): the winner's distance becomes
		// 2^L − 1, every other one is unchanged.
		for i := range bits {
			for g := range bits[i] {
				if bits[i][g], err = rq.SBOR(v[i], bits[i][g]); err != nil {
					return nil, fmt.Errorf("reference: iteration %d SBOR (%d,%d): %w", s, i, g, err)
				}
			}
		}
	}

	return reveal(rq, selected, nil)
}

// reveal is steps 4–6 of Algorithm 5, which both protocols end on:
// γ_{j,h} = E(t′_{j,h}) · E(r_{j,h}) to C2 for every attribute of every
// selected record, γ′ = D(γ) and r to Bob. ids, when not nil, names the
// records for Bob.
func reveal(rq *smc.Requester, selected []core.EncryptedRecord, ids []uint64) (*core.MaskedResult, error) {
	pk := rq.PK()
	k, m := len(selected), len(selected[0])
	masks := make([][]*big.Int, k)
	gamma := make([]*paillier.Ciphertext, 0, k*m)
	for i, record := range selected {
		masks[i] = make([]*big.Int, m)
		for j, ct := range record {
			r, err := pk.RandomZN(rq.Rand())
			if err != nil {
				return nil, fmt.Errorf("reference: reveal mask: %w", err)
			}
			masks[i][j] = r
			gamma = append(gamma, pk.AddPlain(ct, r))
		}
	}
	f, err := rq.RoundTrip(core.OpReveal, nil, gamma)
	if err != nil {
		return nil, fmt.Errorf("reference: reveal: %w", err)
	}
	masked := make([][]*big.Int, k)
	for i := range masked {
		masked[i] = make([]*big.Int, m)
		for j := range masked[i] {
			masked[i][j] = mpc.Read(f, pk.Residue)
		}
	}
	if err := f.Done(); err != nil {
		return nil, fmt.Errorf("reference: reveal reply: %w", err)
	}
	return core.RestoreMaskedResult(pk, k, m, masks, masked, ids)
}
