package smc

import (
	"fmt"
	"math/big"

	"sknn/internal/mpc"
	"sknn/internal/paillier"
)

// This file holds the slot-packed production kernels (see
// paillier.Packing): the two-party functionalities of sm.go and ssed.go,
// and the bit peel the value-domain minimum needs, with the C1→C2 uplink
// carrying many blinded values per ciphertext, so C2 pays one decryption
// per slot group instead of one per value. Every value C2 sees is still
// additively blinded — with short σ-statistical blinds sized to the slot
// headroom instead of full-width ones — so the leakage class is
// unchanged (see docs/PROTOCOLS.md). The paper's unpacked protocols are
// what internal/reference runs and what the differential tests compare
// these kernels against.

// smPackMaxCount bounds the element count a packed frame may declare:
// enough for any real batch, small enough that a hostile header cannot
// drive allocation.
const smPackMaxCount = 1 << 22

// smPackMaxAttrs bounds the record arity in a packed SSED frame,
// matching the shard-hello attribute cap.
const smPackMaxAttrs = 1 << 10

// packMaxValueBits mirrors the codec's own bound for header validation
// before NewPacking runs.
const packMaxValueBits = 512

// SMPackOperandBits is the widest operand bound under which
// SMBatchBounded still packs under pk: two slots of that width plus
// headroom must share one plaintext. Not positive when the key is too
// small to pack a pair at all.
func SMPackOperandBits(pk *paillier.PublicKey) int {
	return (pk.Bits()-2)/2 - paillier.PackHeadroom
}

// SMBatchBounded is SMBatch for inputs with known plaintext bounds:
// aᵢ < 2^aBits and bᵢ < 2^bBits. The blinded pairs ride the slot-packed
// uplink (OpSMPack) under short blinds; when the key cannot hold a pair
// of slots that wide it runs SMBatch. The bounds are a caller contract —
// correctness of the packed layout depends on them, and every call site
// derives them from dataset validation (attribute domains) or from bit
// arithmetic (values in {0,1}). The bounds need not be alike: SkNNm's
// record extraction multiplies a 1-bit selector into a whole row-packed
// record of up to SMPackOperandBits bits. Both operands of a pair take a
// slot of the wider bound, and the product h = (a+rₐ)(b+r_b) is reduced
// mod N like the classic SM's, so only the slot fit — not the width of
// the product — limits the operands.
func (rq *Requester) SMBatchBounded(as, bs []*paillier.Ciphertext, aBits, bBits int) ([]*paillier.Ciphertext, error) {
	if len(as) != len(bs) {
		return nil, fmt.Errorf("%w: %d vs %d", ErrLengthMismatch, len(as), len(bs))
	}
	if len(as) == 0 {
		return nil, ErrEmptyInput
	}
	if aBits < 1 || bBits < 1 {
		return nil, fmt.Errorf("smc: SM operand bounds of %d and %d bits", aBits, bBits)
	}
	vb := aBits
	if bBits > vb {
		vb = bBits
	}
	codec, err := rq.packCodec(vb)
	if err != nil || codec.Slots < 2 {
		// No pair of slots this wide fits the key: the paper's SM.
		return rq.SMBatch(as, bs)
	}
	n := len(as)
	pairsPerGroup := codec.Slots / 2

	ras := make([]*big.Int, n)
	rbs := make([]*big.Int, n)
	blinded := make([]*paillier.Ciphertext, 0, 2*n)
	for i := 0; i < n; i++ {
		ra, err := rq.shortBlind(aBits)
		if err != nil {
			return nil, err
		}
		rb, err := rq.shortBlind(bBits)
		if err != nil {
			return nil, err
		}
		ras[i], rbs[i] = ra, rb
		blinded = append(blinded, rq.pk.AddPlain(as[i], ra), rq.pk.AddPlain(bs[i], rb))
	}

	packed, err := packRuns(codec, blinded, 2*pairsPerGroup)
	if err != nil {
		return nil, fmt.Errorf("smc: packed SM: %w", err)
	}
	payload := make([]*big.Int, 0, 2+len(packed))
	payload = append(payload, big.NewInt(int64(n)), big.NewInt(int64(vb)))
	for _, ct := range packed {
		payload = append(payload, ct.Raw())
	}

	reply, err := rq.roundTrip(OpSMPack, payload, n)
	if err != nil {
		return nil, fmt.Errorf("smc: packed SM round trip: %w", err)
	}
	hs, err := rq.rawCiphertexts(reply)
	if err != nil {
		return nil, err
	}

	// Unblind with short positive exponents on the batch-inverted inputs:
	// E(ab) = E(h) · Inv(a)^(r_b) · Inv(b)^(rₐ) · E(−rₐ·r_b).
	invA := rq.pk.InvMany(as)
	invB := rq.pk.InvMany(bs)
	out := make([]*paillier.Ciphertext, n)
	_ = paillier.ForEach(n, func(i int) error { // two exponentiations per pair; cannot fail
		s := rq.pk.Add(hs[i], rq.pk.ScalarMul(invA[i], rbs[i]))
		s = rq.pk.Add(s, rq.pk.ScalarMul(invB[i], ras[i]))
		cross := new(big.Int).Mul(ras[i], rbs[i])
		out[i] = rq.pk.AddPlain(s, cross.Neg(cross))
		return nil
	})
	return out, nil
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

// unpackGroup validates and decrypts one slot group of a packed frame
// and splits it into count slot values.
func (rp *Responder) unpackGroup(codec *paillier.Packing, raw *big.Int, count int) ([]*big.Int, error) {
	ct, err := rp.sk.FromRaw(raw)
	if err != nil {
		return nil, err
	}
	return codec.UnpackDecrypt(rp.sk, ct, count)
}

// handleSMPack is C2's half of the packed SM uplink: decrypt each slot
// group once, multiply the blinded pairs, reply with one fresh
// encryption per product. Frame: [count, valueBits, group ciphertexts].
func (rp *Responder) handleSMPack(req *mpc.Message) (*mpc.Message, error) {
	count, codec, err := rp.packHeader(req.Ints, "SM")
	if err != nil {
		return nil, err
	}
	pairsPerGroup := codec.Slots / 2
	if pairsPerGroup < 1 {
		return nil, fmt.Errorf("%w: packed SM width leaves no pair slot", ErrBadFrame)
	}
	groups := (count + pairsPerGroup - 1) / pairsPerGroup
	if len(req.Ints) != 2+groups {
		return nil, fmt.Errorf("%w: packed SM payload of %d ints for %d pairs",
			ErrBadFrame, len(req.Ints), count)
	}
	// The reply's nonces are drawn here, serially; their powers and the
	// group decryptions are one task list.
	nonces, err := rp.sk.DrawNonces(rp.rand, count)
	if err != nil {
		return nil, fmt.Errorf("smc: packed SM encrypt: %w", err)
	}
	vals := make([][]*big.Int, groups)
	err = paillier.RaiseAlongside(nonces, groups, func(g int) error {
		pairs := min(pairsPerGroup, count-g*pairsPerGroup)
		v, err := rp.unpackGroup(codec, req.Ints[2+g], 2*pairs)
		if err != nil {
			return fmt.Errorf("smc: packed SM group %d: %w", g, err)
		}
		vals[g] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	hs := make([]*big.Int, count)
	for i := range hs {
		v, t := vals[i/pairsPerGroup], i%pairsPerGroup
		h := new(big.Int).Mul(v[2*t], v[2*t+1])
		hs[i] = h.Mod(h, rp.sk.N)
	}
	return &mpc.Message{Op: OpSMPack, Ints: rp.encryptReply(nonces, hs)}, nil
}

// isHeaderInt reports whether a frame element can be read as one of the
// packed frames' small header fields; an in-process peer can hand C2 a
// nil element, which the wire codec cannot.
func isHeaderInt(v *big.Int) bool { return v != nil && v.IsInt64() }

// packHeader validates the common [count, valueBits, ...] header of the
// packed frames and builds C2's view of the codec (identical to C1's:
// both derive it from valueBits and the shared modulus).
func (rp *Responder) packHeader(ints []*big.Int, what string) (int, *paillier.Packing, error) {
	if len(ints) < 2 || !isHeaderInt(ints[0]) || !isHeaderInt(ints[1]) {
		return 0, nil, fmt.Errorf("%w: packed %s header", ErrBadFrame, what)
	}
	count := int(ints[0].Int64())
	vb := int(ints[1].Int64())
	if count < 1 || count > smPackMaxCount || vb < 1 || vb > packMaxValueBits {
		return 0, nil, fmt.Errorf("%w: packed %s header count=%d valueBits=%d",
			ErrBadFrame, what, count, vb)
	}
	codec, err := paillier.NewPacking(&rp.sk.PublicKey, vb)
	if err != nil {
		return 0, nil, fmt.Errorf("%w: packed %s: %v", ErrBadFrame, what, err)
	}
	return count, codec, nil
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

// SSEDManyPacked is SSEDMany over pre-packed record rows: one uplink
// ciphertext per record slot group (instead of m blinded pairs per
// record) and one downlink ciphertext per record. C1 sends, per record,
// the slotwise value yⱼ = qⱼ − tⱼ + 2^B + rⱼ (offset clears the
// subtraction's sign, short blind rⱼ hides the difference); C2 decrypts
// once per group, returns E(Σⱼ yⱼ²); C1 strips the known cross terms:
//
//	E(Σdⱼ²) = E(Σyⱼ²) · Πⱼ (Inv(E(qⱼ))·E(tⱼ))^(2cⱼ) · E(−Σcⱼ²),  cⱼ = 2^B + rⱼ
//
// rows must carry values below 2^(packed.Codec.ValueBits) — the dataset
// validation bound.
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
	payload := make([]*big.Int, 0, 3+n*groups)
	payload = append(payload, big.NewInt(int64(n)), big.NewInt(int64(m)), big.NewInt(int64(B)))
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
			payload = append(payload, diff.Raw())
		}
	}

	reply, err := rq.roundTrip(OpSSEDPack, payload, n)
	if err != nil {
		return nil, fmt.Errorf("smc: packed SSED round trip: %w", err)
	}
	sums, err := rq.rawCiphertexts(reply)
	if err != nil {
		return nil, err
	}

	out := make([]*paillier.Ciphertext, n)
	_ = paillier.ForEach(n, func(i int) error { // m exponentiations per record; cannot fail
		acc := sums[i]
		sumC2 := new(big.Int)
		for j := 0; j < m; j++ {
			c2 := new(big.Int).Lsh(cs[i][j], 1) // 2cⱼ
			// (Inv(E(qⱼ))·E(tⱼ))^(2cⱼ) = E(dⱼ)^(−2cⱼ), short exponent.
			term := rq.pk.ScalarMul(rq.pk.Add(invQ[j], rows[i][j]), c2)
			acc = rq.pk.Add(acc, term)
			sumC2.Add(sumC2, new(big.Int).Mul(cs[i][j], cs[i][j]))
		}
		out[i] = rq.pk.AddPlain(acc, sumC2.Neg(sumC2))
		return nil
	})
	return out, nil
}

// handleSSEDPack is C2's half of the packed SSED: decrypt each record's
// slot groups, square and sum the blinded slot values, reply with one
// encryption per record. Frame: [count, m, valueBits, count·groups cts].
func (rp *Responder) handleSSEDPack(req *mpc.Message) (*mpc.Message, error) {
	if len(req.Ints) < 3 || !isHeaderInt(req.Ints[0]) || !isHeaderInt(req.Ints[1]) || !isHeaderInt(req.Ints[2]) {
		return nil, fmt.Errorf("%w: packed SSED header", ErrBadFrame)
	}
	count := int(req.Ints[0].Int64())
	m := int(req.Ints[1].Int64())
	vb := int(req.Ints[2].Int64())
	if count < 1 || count > smPackMaxCount || m < 1 || m > smPackMaxAttrs || vb < 1 || vb > packMaxValueBits {
		return nil, fmt.Errorf("%w: packed SSED header count=%d m=%d valueBits=%d",
			ErrBadFrame, count, m, vb)
	}
	codec, err := paillier.NewPacking(&rp.sk.PublicKey, vb)
	if err != nil {
		return nil, fmt.Errorf("%w: packed SSED: %v", ErrBadFrame, err)
	}
	groups := codec.Groups(m)
	if len(req.Ints) != 3+count*groups {
		return nil, fmt.Errorf("%w: packed SSED payload of %d ints for %d records of %d groups",
			ErrBadFrame, len(req.Ints), count, groups)
	}
	body := req.Ints[3:]
	nonces, err := rp.sk.DrawNonces(rp.rand, count)
	if err != nil {
		return nil, fmt.Errorf("smc: packed SSED encrypt: %w", err)
	}
	totals := make([]*big.Int, count)
	err = paillier.RaiseAlongside(nonces, count, func(i int) error {
		total := new(big.Int)
		for g := 0; g < groups; g++ {
			cnt := min(codec.Slots, m-g*codec.Slots)
			vals, err := rp.unpackGroup(codec, body[i*groups+g], cnt)
			if err != nil {
				return fmt.Errorf("smc: packed SSED record %d group %d: %w", i, g, err)
			}
			for _, y := range vals {
				total.Add(total, new(big.Int).Mul(y, y))
			}
		}
		totals[i] = total.Mod(total, rp.sk.N)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &mpc.Message{Op: OpSSEDPack, Ints: rp.encryptReply(nonces, totals)}, nil
}

// msbOncePacked extracts E(bit L−1) of each value's L-bit decomposition
// — the only bit the value-domain SMIN consumes — without ever halving
// the remainders and without an exponentiation on C1's side of the loop.
// The remainder keeps its scale and round j blinds bit j in place: the
// uplink adds rᵢ·2^j with rᵢ ← shortBlind(L−j), so the slot's low j bits
// (already peeled to zero) stay zero and bit j of the decrypted slot is
// yᵢ = βᵢ XOR lsb(rᵢ), βᵢ the remainder's bit j. The shifted blind still
// fits a slot: rᵢ·2^j < 2^(L+σ) < 2^Width.
//
// In the peeling rounds j < L−1 C1 wants the bits only to clear them,
// so C2 returns each where it belongs — Zᵢ = E(yᵢ·2^(s·Width+j)) for the
// value in slot s of its group, the same single encryption as E(yᵢ) —
// and C1 subtracts βᵢ·2^(s·Width+j), which is Zᵢ's plaintext where rᵢ
// is even and 2^(s·Width+j) minus it where rᵢ is odd:
//
//	rem ← rem · Π_{rᵢ odd} Zᵢ · (Π_{rᵢ even} Zᵢ)⁻¹ · E(−Σ_{rᵢ odd} 2^(s·Width+j))
//
// a handful of modular products, one inversion and one closed-form
// (1+mN) factor per group. Only the output round j = L−1 gets plain
// E(yᵢ) back and flips the odd-blind ones. C2 tells the rounds apart by
// the header it already receives (valueBits = L and shift = j), which is
// why L must be the codec's ValueBits. C2's view is slotwise
// short-blinded remainder windows and the public round index, C1 still
// sees nothing but fresh ciphertexts, and — unlike SBD's full-range
// blinds, which wrap mod N with probability ≈ 2^l/N — no slot ever
// wraps, so the pass is exact against an honest C2 and needs no
// verification round.
func (rq *Requester) msbOncePacked(zs []*paillier.Ciphertext, L int, codec *paillier.Packing) ([]*paillier.Ciphertext, error) {
	if L != codec.ValueBits {
		return nil, fmt.Errorf("smc: MSB extraction of %d bits under a %d-bit codec", L, codec.ValueBits)
	}
	n := len(zs)
	packedRem, err := packRuns(codec, zs, codec.Slots)
	if err != nil {
		return nil, fmt.Errorf("smc: MSB packing: %w", err)
	}
	groups := len(packedRem)

	rs := make([]*big.Int, n)
	for j := 0; j < L; j++ {
		payload := make([]*big.Int, 0, 3+groups)
		payload = append(payload, big.NewInt(int64(n)), big.NewInt(int64(L)), big.NewInt(int64(j)))
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
			payload = append(payload, ct.Raw())
		}
		reply, err := rq.roundTrip(OpSBDPackBit, payload, n)
		if err != nil {
			return nil, fmt.Errorf("smc: packed MSB round %d: %w", j, err)
		}
		raw, err := rq.rawCiphertexts(reply)
		if err != nil {
			return nil, err
		}
		if j == L-1 {
			// The output bits: flipped where the blind was odd, with the
			// inversions batched.
			var toFlip []*paillier.Ciphertext
			for i := 0; i < n; i++ {
				if rs[i].Bit(0) == 1 {
					toFlip = append(toFlip, raw[i])
				}
			}
			flipped := rq.pk.InvMany(toFlip)
			fi := 0
			for i := 0; i < n; i++ {
				if rs[i].Bit(0) == 1 {
					raw[i] = rq.pk.AddPlain(flipped[fi], oneBig)
					fi++
				}
			}
			return raw, nil
		}
		for g := 0; g < groups; g++ {
			lo := g * codec.Slots
			hi := min(n, lo+codec.Slots)
			var odd, even []*paillier.Ciphertext
			oddPlaces := new(big.Int) // Σ over odd-blind slots of 2^(s·Width+j)
			for i := lo; i < hi; i++ {
				if rs[i].Bit(0) == 1 {
					odd = append(odd, raw[i])
					oddPlaces.SetBit(oddPlaces, (i-lo)*codec.Width+j, 1)
				} else {
					even = append(even, raw[i])
				}
			}
			rem := packedRem[g]
			if len(odd) > 0 {
				rem = rq.pk.AddPlain(rq.pk.Add(rem, rq.pk.Product(odd)), oddPlaces.Neg(oddPlaces))
			}
			if len(even) > 0 {
				rem = rq.pk.Add(rem, rq.pk.Inv(rq.pk.Product(even)))
			}
			packedRem[g] = rem
		}
	}
	return nil, fmt.Errorf("smc: MSB extraction of %d bits", L)
}

// handleSBDPackBit is C2's half of a shifted packed bit round: decrypt
// each slot group once and return bit `shift` of every slot as an
// individual fresh encryption — in place, E(bit·2^(s·Width+shift)) for
// the value in slot s of its group, while shift < valueBits−1 (C1 only
// clears those bits from its packed remainders), and as plain E(bit) in
// the output round shift = valueBits−1. Frame: [count, valueBits, shift,
// group ciphertexts].
func (rp *Responder) handleSBDPackBit(req *mpc.Message) (*mpc.Message, error) {
	count, codec, err := rp.packHeader(req.Ints, "SBD bit")
	if err != nil {
		return nil, err
	}
	if len(req.Ints) < 3 || !isHeaderInt(req.Ints[2]) {
		return nil, fmt.Errorf("%w: packed SBD bit header", ErrBadFrame)
	}
	shift := int(req.Ints[2].Int64())
	if shift < 0 || shift >= codec.ValueBits {
		return nil, fmt.Errorf("%w: packed SBD bit shift=%d of %d", ErrBadFrame, shift, codec.ValueBits)
	}
	groups := codec.Groups(count)
	if len(req.Ints) != 3+groups {
		return nil, fmt.Errorf("%w: packed SBD bit payload of %d ints for %d values",
			ErrBadFrame, len(req.Ints), count)
	}
	inPlace := shift < codec.ValueBits-1
	// One group decryption and count reply encryptions per round: the
	// nonce powers do not wait for the decryption.
	nonces, err := rp.sk.DrawNonces(rp.rand, count)
	if err != nil {
		return nil, fmt.Errorf("smc: packed SBD bit encrypt: %w", err)
	}
	vals := make([][]*big.Int, groups)
	err = paillier.RaiseAlongside(nonces, groups, func(g int) error {
		cnt := min(codec.Slots, count-g*codec.Slots)
		v, err := rp.unpackGroup(codec, req.Ints[3+g], cnt)
		if err != nil {
			return fmt.Errorf("smc: packed SBD bit group %d: %w", g, err)
		}
		vals[g] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	bits := make([]*big.Int, count)
	for i := range bits {
		s := i % codec.Slots
		m := new(big.Int).SetUint64(uint64(vals[i/codec.Slots][s].Bit(shift)))
		if inPlace {
			m.Lsh(m, uint(s*codec.Width+shift))
		}
		bits[i] = m
	}
	return &mpc.Message{Op: OpSBDPackBit, Ints: rp.encryptReply(nonces, bits)}, nil
}
