package smc

import (
	"fmt"
	"math"
	"math/big"
	"sync/atomic"

	"sknn/internal/dataset"
	"sknn/internal/mpc"
	"sknn/internal/paillier"
)

// This file holds the slot-packed production kernels (see
// paillier.Packing): the two-party functionality of ssed.go, the bit peel
// the value-domain minimum needs, and the blinded operand uplink of the
// frames in which C2 multiplies by a selector it already knows, with the
// C1→C2 uplink carrying many blinded values per ciphertext, so C2 pays
// one decryption per slot group instead of one per value. Every value C2
// sees is still additively blinded — with short σ-statistical blinds sized to the slot
// headroom instead of full-width ones — so the leakage class is
// unchanged (see docs/PROTOCOLS.md). The paper's unpacked protocols are
// what internal/reference runs and what the differential tests compare
// these kernels against.

// smPackMaxCount bounds the element count a packed frame may declare:
// enough for any real batch, small enough that a hostile header cannot
// drive allocation.
const smPackMaxCount = 1 << 22

// packMaxValueBits mirrors the codec's own bound for header validation
// before NewPacking runs.
const packMaxValueBits = 512

// SMPackOperandBits is the widest row chunk core.RowLayout packs under
// a keyBits-bit key: two slots of that width plus headroom share one plaintext. It was
// the operand bound of the packed SM pair that extraction once rode, and
// it still sizes the layout — SkNNb's reveal and the shard wire keep
// theirs; the peel's output round carries a chunk difference, one bit
// wider, in a single slot, so every chunk this wide fits. Not positive
// when the key is too small to pack a pair at all.
func SMPackOperandBits(keyBits int) int {
	return (keyBits-2)/2 - paillier.PackHeadroom
}

// PackBlinded is the uplink of a frame in which C2 multiplies values by
// a selector it already knows in the clear. It takes count values
// E(xᵢ), xᵢ < 2^codec.ValueBits, already folded into groups in order,
// codec.Slots to a group by PackCiphertexts — a fold that reads no
// randomness, so it can run before the frame is due. Every value gains
// a fresh short blind ρᵢ — C2 decrypts xᵢ + ρᵢ, σ-statistically hidden
// — added to its slot with one AddPacked per group: the same group
// element as folding the blinded E(xᵢ + ρᵢ), since (1 + aN)^k ≡ 1 + kaN
// mod N². Every group is then re-randomized under a fresh nonce: C2 can
// recover a ciphertext's nonce with the factorisation, and a group
// folded from stored record ciphertexts would otherwise carry the same
// nonce in every round and query, naming its record behind any
// permutation. The blinds are drawn first, value by value, then the
// nonces. It returns the groups and the blinds, which the caller strips
// from C2's products as ρᵢ·E(selector).
func (rq *Requester) PackBlinded(folded []*paillier.Ciphertext, count int, codec *paillier.Packing) ([]*paillier.Ciphertext, []*big.Int, error) {
	if count < 1 || codec.Groups(count) != len(folded) {
		return nil, nil, fmt.Errorf("%w: %d values in %d groups of %d", ErrLengthMismatch, count, len(folded), codec.Slots)
	}
	rhos := make([]*big.Int, count)
	for i := range rhos {
		r, err := rq.shortBlind(codec.ValueBits)
		if err != nil {
			return nil, nil, err
		}
		rhos[i] = r
	}
	nonces, err := rq.pk.DrawNonces(rq.rand, len(folded))
	if err != nil {
		return nil, nil, fmt.Errorf("smc: blinded operands: %w", err)
	}
	groups := make([]*paillier.Ciphertext, len(folded))
	err = paillier.ForEach(len(groups), func(g int) error {
		lo := g * codec.Slots
		ct, err := codec.AddPacked(folded[g], rhos[lo:min(count, lo+codec.Slots)])
		if err != nil {
			return fmt.Errorf("smc: blinded operands, group %d: %w", g, err)
		}
		groups[g] = rq.pk.RerandomizeWith(nonces[g], ct)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return groups, rhos, nil
}

// packRuns folds each consecutive run of per ciphertexts (the last may
// be shorter) into one slot-packed ciphertext — (run−1)·Width squarings
// apiece — the runs spread over idle cores.
func packRuns(codec *paillier.Packing, cts []*paillier.Ciphertext, per int) ([]*paillier.Ciphertext, error) {
	groups := make([]*paillier.Ciphertext, (len(cts)+per-1)/per)
	err := paillier.ForEach(len(groups), func(g int) error {
		lo := g * per
		ct, err := codec.PackCiphertexts(cts[lo:min(len(cts), lo+per)])
		if err != nil {
			return fmt.Errorf("group %d: %w", g, err)
		}
		groups[g] = ct
		return nil
	})
	return groups, err
}

// PackedRows is a reusable slot-packed rendering of encrypted feature
// rows: Rows[i] holds row i's Groups(m) packed ciphertexts under Codec
// (see PackRow). Packing existing ciphertexts costs ~Width squarings per
// slot (Horner), so callers keep each row's rendering across queries
// (see core's table).
type PackedRows struct {
	Codec *paillier.Packing
	Rows  [][]*paillier.Ciphertext
}

// PackRow packs one row of encrypted values (all below 2^ValueBits)
// into the codec's slot groups: Groups(len(row)) ciphertexts, Slots
// values each. An empty row is an error, not an empty rendering.
func PackRow(codec *paillier.Packing, row []*paillier.Ciphertext) ([]*paillier.Ciphertext, error) {
	if len(row) == 0 {
		return nil, ErrEmptyInput
	}
	return packRuns(codec, row, codec.Slots)
}

// SSEDManyPacked computes E(|Q−tᵢ|²) for one query against many
// pre-packed record rows in one round trip: one uplink ciphertext per
// record slot group (where SSED sends m blinded pairs per record) and one
// downlink ciphertext per record. C1 sends, per record,
// the slotwise value yⱼ = qⱼ − tⱼ + 2^B + rⱼ (offset clears the
// subtraction's sign, short blind rⱼ hides the difference); C2 decrypts
// once per group, returns E(Σⱼ yⱼ²); C1 strips the known cross terms:
//
//	E(Σdⱼ²) = E(Σyⱼ²) · Πⱼ (Inv(E(qⱼ))·E(tⱼ))^(2cⱼ) · E(−Σcⱼ²),  cⱼ = 2^B + rⱼ
//
// The product over j is one m-base multi-exponentiation per record
// (paillier.MultiScalarMul) on exponents 2cⱼ < 2^(B+σ+2), one squaring
// chain shared by the record's attributes. rows must carry values below
// 2^(packed.Codec.ValueBits) — the dataset validation bound.
func (rq *Requester) SSEDManyPacked(q []*paillier.Ciphertext, rows [][]*paillier.Ciphertext, packed *PackedRows) ([]*paillier.Ciphertext, error) {
	if len(rows) == 0 {
		return nil, ErrEmptyInput
	}
	codec := packed.Codec
	m := len(q)
	n := len(rows)
	if len(packed.Rows) != n {
		return nil, fmt.Errorf("%w: %d packed rows for %d records", ErrLengthMismatch, len(packed.Rows), n)
	}
	groups := codec.Groups(m)
	for i, row := range rows {
		if len(row) != m {
			return nil, fmt.Errorf("%w: record %d has %d attributes, query has %d",
				ErrLengthMismatch, i, len(row), m)
		}
		if len(packed.Rows[i]) != groups {
			return nil, fmt.Errorf("%w: record %d has %d packed groups, want %d",
				ErrLengthMismatch, i, len(packed.Rows[i]), groups)
		}
	}
	B := codec.ValueBits

	// Pack the query once per group layout.
	packedQ, err := PackRow(codec, q)
	if err != nil {
		return nil, fmt.Errorf("smc: packing query: %w", err)
	}
	// Batch-invert the packed record groups (for the slotwise Sub) and
	// the query attributes (for the per-attribute unblind terms).
	flat := make([]*paillier.Ciphertext, 0, n*groups)
	for _, row := range packed.Rows {
		flat = append(flat, row...)
	}
	invT := rq.pk.InvMany(flat)
	invQ := rq.pk.InvMany(q)

	offset := new(big.Int).Lsh(oneBig, uint(B))
	cs := make([][]*big.Int, n) // per record, per attribute: cⱼ = 2^B + rⱼ
	payload := make([]*paillier.Ciphertext, 0, n*groups)
	for i := 0; i < n; i++ {
		cs[i] = make([]*big.Int, m)
		for g := 0; g < groups; g++ {
			lo := g * codec.Slots
			hi := min(m, lo+codec.Slots)
			slotVals := make([]*big.Int, hi-lo)
			for j := lo; j < hi; j++ {
				r, err := rq.shortBlind(B)
				if err != nil {
					return nil, err
				}
				c := new(big.Int).Add(offset, r)
				cs[i][j] = c
				slotVals[j-lo] = c
			}
			packedC, err := codec.Pack(slotVals)
			if err != nil {
				return nil, fmt.Errorf("smc: packed SSED offsets: %w", err)
			}
			diff := rq.pk.AddPlain(rq.pk.Add(packedQ[g], invT[i*groups+g]), packedC)
			payload = append(payload, diff)
		}
	}

	sums, err := rq.exchange(OpSSEDPack, []int{n, m, B}, payload, n)
	if err != nil {
		return nil, fmt.Errorf("smc: packed SSED round trip: %w", err)
	}

	out := make([]*paillier.Ciphertext, n)
	_ = paillier.ForEach(n, func(i int) error { // one multi-exponentiation per record; cannot fail
		bases := make([]*paillier.Ciphertext, m)
		exps := make([]*big.Int, m)
		sumC2 := new(big.Int)
		for j, c := range cs[i] {
			// (Inv(E(qⱼ))·E(tⱼ))^(2cⱼ) = E(dⱼ)^(−2cⱼ), short exponent.
			bases[j] = rq.pk.Add(invQ[j], rows[i][j])
			exps[j] = new(big.Int).Lsh(c, 1)
			sumC2.Add(sumC2, new(big.Int).Mul(c, c))
		}
		acc := rq.pk.Add(sums[i], rq.pk.MultiScalarMul(bases, exps))
		out[i] = rq.pk.AddPlain(acc, sumC2.Neg(sumC2))
		return nil
	})
	return out, nil
}

// handleSSEDPack is C2's half of the packed SSED: decrypt each record's
// slot groups, square and sum the blinded slot values, reply with one
// encryption per record. Frame: [count, m, valueBits, count·groups cts].
// The records are a table's feature rows at its attribute width, so m and
// valueBits must make a shape a table admits (dataset.Shape.Check).
func (rp *Responder) handleSSEDPack(req *mpc.Message) (*mpc.Message, error) {
	f := mpc.ReadFields(req.Ints)
	count, m, vb := f.Int(1, smPackMaxCount), f.Int(math.MinInt, math.MaxInt), f.Int(math.MinInt, math.MaxInt)
	body := mpc.ReadRest(f, rp.sk.FromRaw)
	if err := f.Err(); err != nil {
		return nil, fmt.Errorf("smc: packed SSED: %w", err)
	}
	if err := (dataset.Shape{M: m, FeatureM: m, AttrBits: vb}).Check(); err != nil {
		return nil, fmt.Errorf("%w: packed SSED: %w", ErrBadFrame, err)
	}
	codec, err := paillier.NewPacking(&rp.sk.PublicKey, vb)
	if err != nil {
		return nil, fmt.Errorf("%w: packed SSED: %v", ErrBadFrame, err)
	}
	groups := codec.Groups(m)
	if len(body) != count*groups {
		return nil, fmt.Errorf("%w: packed SSED payload of %d groups for %d records of %d groups",
			ErrBadFrame, len(body), count, groups)
	}
	// Group g of a record holds slots(g) attributes.
	slots := func(g int) int { return min(codec.Slots, m-g*codec.Slots) }
	bits := make([]int, len(body))
	for j := range bits {
		bits[j] = slots(j%groups) * codec.Width
	}
	ms, nonces, err := rp.Decrypt(body, bits, count)
	if err != nil {
		return nil, fmt.Errorf("smc: packed SSED: %w", err)
	}
	totals := make([]*big.Int, count)
	for i := range totals {
		total := new(big.Int)
		for g := 0; g < groups; g++ {
			vals, err := codec.Unpack(ms[i*groups+g], slots(g))
			if err != nil {
				return nil, fmt.Errorf("smc: packed SSED record %d group %d: %w", i, g, err)
			}
			for _, y := range vals {
				total.Add(total, new(big.Int).Mul(y, y))
			}
		}
		totals[i] = total.Mod(total, rp.sk.N)
	}
	return &mpc.Message{Op: OpSSEDPack, Ints: rp.encryptReply(nonces, totals)}, nil
}

// peeled is the bit peel's output on one value: Y = E(y) for the bit C2
// read in the output round, y = msb XOR Flip with Flip the low bit of the
// value's last peel blind, and YW[e] = E(y·(xₑ + Rho[e])) for each operand
// xₑ the round carried for the value under the short blind Rho[e].
type peeled struct {
	Y    *paillier.Ciphertext
	YW   []*paillier.Ciphertext
	Flip bool
	Rho  []*big.Int
}

// msbOncePacked extracts bit L−1 of each value's L-bit decomposition —
// the only bit the value-domain SMIN consumes — without ever halving the
// remainders and without an exponentiation on C1's side of the peeling
// rounds. The remainder keeps its scale and round j blinds bit j in
// place: the uplink adds rᵢ·2^j with rᵢ ← shortBlind(L−j), which is zero
// below bit j, so no carry enters the window and bit j of the decrypted
// slot is yᵢ = βᵢ XOR lsb(rᵢ), βᵢ the remainder's bit j. The shifted
// blind still fits a slot: rᵢ·2^j < 2^(L+σ) < 2^Width.
//
// In the peeling rounds j < L−1 C1 wants the bits only to take them out
// of C2's later windows, so C2 returns each where it belongs — Zᵢ =
// E(yᵢ·2^(s·Width+j)) for the value in slot s of its group, the same
// single encryption as E(yᵢ) — and C1 leaves bit j of the remainder
// equal to yᵢ, C2's own reply bit: where rᵢ is even yᵢ = βᵢ already, and
// where rᵢ is odd yᵢ = 1 − βᵢ, so C1 adds (2yᵢ − 1)·2^(s·Width+j):
//
//	rem ← rem · (Π_{rᵢ odd} Zᵢ)² · E(−Σ_{rᵢ odd} 2^(s·Width+j))
//
// a handful of modular products and one closed-form (1+mN) factor per
// group, and nothing at all for a group of even blinds. The bits above
// j are untouched, so the value's bit L−1 is still its msb.
//
// The output round j = L−1 also carries the
// operands xs[i] of every value — as many per value, each below
// 2^opBits — folded into slot groups on a goroutine of their own while
// the peeling rounds run, then blinded and re-randomized by PackBlinded
// when the output round is due: C2 already reads yᵢ
// there, so it returns E(yᵢ) and E(yᵢ·(x + ρ)) for each operand x, and
// the caller turns them into E(msbᵢ·x) with one short exponentiation
// apiece — the products that would otherwise cost a round of their own.
// C2 tells the rounds apart by the header it already receives
// (valueBits = L and shift = j), which is why L must be the codec's
// ValueBits; the output round's header adds the operand count per value
// and opBits. C2's view is slotwise short-blinded remainder windows
// whose bits below j are the bits y₀…y_(j−1) it returned for that slot
// itself, the operands, the public round index, and in the output round
// the coin-masked bit yᵢ, as in Algorithm 3; C1 sees nothing but fresh
// ciphertexts, and — unlike SBD's full-range blinds, which wrap mod N
// with probability ≈ 2^l/N — no slot ever wraps, so the pass is exact
// against an honest C2 and needs no verification round.
func (rq *Requester) msbOncePacked(zs []*paillier.Ciphertext, xs [][]*paillier.Ciphertext, opBits, L int, codec *paillier.Packing) ([]peeled, error) {
	if L != codec.ValueBits {
		return nil, fmt.Errorf("smc: MSB extraction of %d bits under a %d-bit codec", L, codec.ValueBits)
	}
	if len(xs) != len(zs) || len(xs) == 0 || len(xs[0]) == 0 {
		return nil, fmt.Errorf("%w: operands for %d values", ErrLengthMismatch, len(zs))
	}
	n, per := len(zs), len(xs[0])
	flat := make([]*paillier.Ciphertext, 0, n*per)
	for i, x := range xs {
		if len(x) != per {
			return nil, fmt.Errorf("%w: value %d carries %d operands, value 0 %d", ErrLengthMismatch, i, len(x), per)
		}
		flat = append(flat, x...)
	}
	packedRem, err := packRuns(codec, zs, codec.Slots)
	if err != nil {
		return nil, fmt.Errorf("smc: MSB packing: %w", err)
	}
	groups := len(packedRem)

	// The output round's operands are fixed already and their fold reads
	// no randomness, so it runs on its own goroutine while the peeling
	// rounds wait on C2, joined on every way out of here.
	opCodec, err := rq.packCodec(opBits)
	if err != nil {
		return nil, fmt.Errorf("smc: MSB operand codec: %w", err)
	}
	var (
		folded   []*paillier.Ciphertext
		foldErr  error
		foldDone = make(chan struct{})
		stop     atomic.Bool
	)
	go func() {
		defer close(foldDone)
		for lo := 0; lo < len(flat) && foldErr == nil && !stop.Load(); lo += opCodec.Slots {
			var g *paillier.Ciphertext
			g, foldErr = opCodec.PackCiphertexts(flat[lo:min(len(flat), lo+opCodec.Slots)])
			folded = append(folded, g)
		}
	}()
	defer func() {
		stop.Store(true)
		<-foldDone
	}()

	rs := make([]*big.Int, n)
	for j := 0; j < L; j++ {
		output := j == L-1
		header := []int{n, L, j}
		if output {
			header = append(header, per, opBits)
		}
		payload := make([]*paillier.Ciphertext, 0, 2*groups)
		for g := 0; g < groups; g++ {
			lo := g * codec.Slots
			hi := min(n, lo+codec.Slots)
			blinds := make([]*big.Int, hi-lo)
			for i := lo; i < hi; i++ {
				r, err := rq.shortBlind(L - j)
				if err != nil {
					return nil, err
				}
				rs[i] = r
				blinds[i-lo] = new(big.Int).Lsh(r, uint(j))
			}
			ct, err := codec.AddPacked(packedRem[g], blinds)
			if err != nil {
				return nil, fmt.Errorf("smc: MSB packed blind: %w", err)
			}
			payload = append(payload, ct)
		}
		want := n
		var rhos []*big.Int
		if output {
			<-foldDone
			if foldErr != nil {
				return nil, fmt.Errorf("smc: MSB operand packing: %w", foldErr)
			}
			var operands []*paillier.Ciphertext
			if operands, rhos, err = rq.PackBlinded(folded, len(flat), opCodec); err != nil {
				return nil, err
			}
			payload = append(payload, operands...)
			want += n * per
		}
		raw, err := rq.exchange(OpSBDPackBit, header, payload, want)
		if err != nil {
			return nil, fmt.Errorf("smc: packed MSB round %d: %w", j, err)
		}
		if output {
			out := make([]peeled, n)
			for i := range out {
				at := n + i*per
				out[i] = peeled{Y: raw[i], YW: raw[at : at+per], Flip: rs[i].Bit(0) == 1, Rho: rhos[i*per : (i+1)*per]}
			}
			return out, nil
		}
		for g := 0; g < groups; g++ {
			lo := g * codec.Slots
			hi := min(n, lo+codec.Slots)
			var odd []*paillier.Ciphertext
			oddPlaces := new(big.Int) // Σ over odd-blind slots of 2^(s·Width+j)
			for i := lo; i < hi; i++ {
				if rs[i].Bit(0) == 1 {
					odd = append(odd, raw[i])
					oddPlaces.SetBit(oddPlaces, (i-lo)*codec.Width+j, 1)
				}
			}
			if len(odd) > 0 {
				z := rq.pk.Product(odd)
				packedRem[g] = rq.pk.AddPlain(rq.pk.Add(packedRem[g], rq.pk.Add(z, z)), oddPlaces.Neg(oddPlaces))
			}
		}
	}
	return nil, fmt.Errorf("smc: MSB extraction of %d bits", L)
}

// handleSBDPackBit is C2's half of a shifted packed bit round: decrypt
// each slot group once and return bit `shift` of every slot as an
// individual fresh encryption — in place, E(bit·2^(s·Width+shift)) for
// the value in slot s of its group, while shift < valueBits−1 (C1 only
// clears those bits from its packed remainders), and as plain E(bit) in
// the output round shift = valueBits−1, which also carries per blinded
// operands w per value, packed at opBits, and answers E(bit·w) for each
// after the bits, value by value. Frame: [count, valueBits, shift, group
// ciphertexts], and in the output round [count, valueBits, shift, per,
// opBits, group ciphertexts, operand groups]; reply: count elements,
// count·(1 + per) in the output round.
func (rp *Responder) handleSBDPackBit(req *mpc.Message) (*mpc.Message, error) {
	f := mpc.ReadFields(req.Ints)
	count, vb := f.Int(1, smPackMaxCount), f.Int(1, packMaxValueBits)
	shift := f.Int(0, vb-1)
	// The output round adds [per, opBits]: at least one operand per value,
	// at most smPackMaxCount in the frame.
	output, per, ob := f.Err() == nil && shift == vb-1, 0, 0
	if output {
		per, ob = f.Int(1, smPackMaxCount/count), f.Int(1, packMaxValueBits)
	}
	body := mpc.ReadRest(f, rp.sk.FromRaw)
	if err := f.Err(); err != nil {
		return nil, fmt.Errorf("smc: packed SBD bit: %w", err)
	}
	codec, err := paillier.NewPacking(&rp.sk.PublicKey, vb)
	if err != nil {
		return nil, fmt.Errorf("%w: packed SBD bit: %v", ErrBadFrame, err)
	}
	groups, opGroups := codec.Groups(count), 0
	var opCodec *paillier.Packing
	if output {
		if opCodec, err = paillier.NewPacking(&rp.sk.PublicKey, ob); err != nil {
			return nil, fmt.Errorf("%w: packed SBD bit operands: %v", ErrBadFrame, err)
		}
		opGroups = opCodec.Groups(count * per)
	}
	if len(body) != groups+opGroups {
		return nil, fmt.Errorf("%w: packed SBD bit payload of %d groups for %d values at shift %d",
			ErrBadFrame, len(body), count, shift)
	}
	// Group g's codec and slot count: the remainders', then the operands'.
	group := func(g int) (*paillier.Packing, int) {
		if g < groups {
			return codec, min(codec.Slots, count-g*codec.Slots)
		}
		return opCodec, min(opCodec.Slots, count*per-(g-groups)*opCodec.Slots)
	}
	bits := make([]int, len(body))
	for g := range bits {
		c, cnt := group(g)
		bits[g] = cnt * c.Width
	}
	// One decryption per group and one reply encryption per element.
	plain, nonces, err := rp.Decrypt(body, bits, count*(1+per))
	if err != nil {
		return nil, fmt.Errorf("smc: packed SBD bit: %w", err)
	}
	vals := make([][]*big.Int, len(body))
	for g := range vals {
		c, cnt := group(g)
		if vals[g], err = c.Unpack(plain[g], cnt); err != nil {
			return nil, fmt.Errorf("smc: packed SBD bit group %d: %w", g, err)
		}
	}
	ms := make([]*big.Int, len(nonces))
	for i := 0; i < count; i++ {
		g, s := i/codec.Slots, i%codec.Slots
		m := new(big.Int).SetUint64(uint64(vals[g][s].Bit(shift)))
		for e := i * per; e < (i+1)*per; e++ {
			ms[count+e] = new(big.Int).Mul(m, vals[groups+e/opCodec.Slots][e%opCodec.Slots])
		}
		if !output {
			m.Lsh(m, uint(s*codec.Width+shift))
		}
		ms[i] = m
	}
	return &mpc.Message{Op: OpSBDPackBit, Ints: rp.encryptReply(nonces, ms)}, nil
}
