package core

import (
	"fmt"

	"sknn/internal/dataset"
	"sknn/internal/mpc"
	"sknn/internal/paillier"
	"sknn/internal/smc"
)

// Cost is one query's price in the units the engine counts, for one
// protocol.
type Cost struct {
	// Rounds is every C1↔C2 round trip of the query over every link of
	// every pool, as SecureMetrics.Comm.Rounds counts them: the shards'
	// scans (ShardRounds, in shard order) and the coordinator's merge or
	// rank round and reveal (MergeRounds).
	Rounds      int
	ShardRounds []int
	MergeRounds int
	// Gates is how many comparators SkNNm's networks run, every shard's
	// and the merge's; SMINCount is what SecureMetrics.SMINCount reports,
	// k·(n−1) per network over n candidates.
	Gates     int
	SMINCount int
	// Encrypts is C2's fresh reply encryptions; OnePrime and CRT are its
	// decryptions by the path paillier.DecryptCalls counts.
	Encrypts      int
	OnePrime, CRT int
	// Uplink is what C1 sends C2, by opcode.
	Uplink map[mpc.Op]Traffic
}

// Traffic is one opcode's uplink: its frames, each one round trip, and
// the integers they carry, headers included.
type Traffic struct{ Frames, Ints int }

// QueryCost is one query's cost in both protocols.
type QueryCost struct{ Secure, Basic Cost }

// PredictCost is the engine's cost model: what core.NewEngine(table,
// shards, pool) spends on one query for the k nearest of n records of
// the given shape, a freshly outsourced table (ids 0 … n−1, no
// tombstones) under a keyBits-bit key of GenerateKey's balanced factors,
// every link pool links wide and idle, so each session spans all of it.
// It is a dry run of the engine's own plan — the id mod S split, the
// session's split of records and gates over links, topKNetwork, the row
// layout and the codecs' geometry — that counts frames, slot groups and
// reply ciphertexts instead of sending them. The cluster ranking is not
// modelled: its rounds depend on which clusters win.
func PredictCost(shape dataset.Shape, keyBits, n, k, shards, links int) (*QueryCost, error) {
	if err := shape.Check(); err != nil {
		return nil, err
	}
	if err := validateK(k, n); err != nil {
		return nil, err
	}
	if shards < 1 || links < 1 {
		return nil, fmt.Errorf("core: cost over %d shards of %d links", shards, links)
	}
	if n < shards {
		return nil, fmt.Errorf("%w: %d records over %d shards", ErrEmptyShard, n, shards)
	}
	l := shape.DomainBits()
	if err := checkDomainBits(keyBits, l); err != nil {
		return nil, err
	}
	layout := rowLayoutFor(keyBits, shape)
	m := &costModel{shape: shape, l: l, links: links, onePrime: paillier.OnePrimeBits(keyBits),
		chunks: layout.Chunks(shape.M)}
	var err error
	if m.ssed, err = paillier.LayoutFor(keyBits, shape.AttrBits); err != nil {
		return nil, err
	}
	if m.peel, err = paillier.LayoutFor(keyBits, l+1); err != nil {
		return nil, err
	}
	// The output round packs the distance operand and the record chunks
	// at SMINValuePairsBatch's width.
	if m.operands, err = paillier.LayoutFor(keyBits, max(l+1, layout.Cols*layout.Bits+1)); err != nil {
		return nil, err
	}
	sizes := make([]int, shards)
	for id := range n {
		sizes[shardOf(uint64(id), shards)]++
	}
	return &QueryCost{Secure: m.secure(sizes, k), Basic: m.basic(sizes, k)}, nil
}

// costModel is PredictCost's plan of one table shape under one key.
type costModel struct {
	shape    dataset.Shape
	l, links int
	onePrime int // paillier.OnePrimeBits of the key
	chunks   int // ciphertexts per record in the row layout
	// The codecs' geometry: the SSED's at the attribute width, the peel's
	// at l + 1 bits and the output round's operands.
	ssed, peel, operands paillier.SlotLayout
}

// secure is SkNNm: every shard scans (SSED and the network over its
// records) and, over more than one shard, the coordinator merges the
// shards' min(k, nᵢ)-sets with one more network; then it reveals.
func (m *costModel) secure(sizes []int, k int) Cost {
	c := Cost{Uplink: map[mpc.Op]Traffic{}}
	gathered := 0
	for _, n := range sizes {
		before := c.Rounds
		m.distances(&c, n)
		m.network(&c, n, min(k, n))
		c.ShardRounds = append(c.ShardRounds, c.Rounds-before)
		gathered += min(k, n)
	}
	before := c.Rounds
	if len(sizes) > 1 {
		m.network(&c, gathered, k)
	}
	m.reveal(&c, k)
	c.MergeRounds = c.Rounds - before
	return c
}

// basic is SkNNb: every shard's SSED and rank round, the coordinator's
// rank of the gathered sets over more than one shard, and the reveal.
func (m *costModel) basic(sizes []int, k int) Cost {
	c := Cost{Uplink: map[mpc.Op]Traffic{}}
	gathered := 0
	for _, n := range sizes {
		before := c.Rounds
		m.distances(&c, n)
		m.rank(&c, n)
		c.ShardRounds = append(c.ShardRounds, c.Rounds-before)
		gathered += min(k, n)
	}
	before := c.Rounds
	if len(sizes) > 1 {
		m.rank(&c, gathered)
	}
	m.reveal(&c, k)
	c.MergeRounds = c.Rounds - before
	return c
}

// frame is one round trip carrying ints integers up.
func (c *Cost) frame(op mpc.Op, ints int) {
	c.Rounds++
	t := c.Uplink[op]
	c.Uplink[op] = Traffic{Frames: t.Frames + 1, Ints: t.Ints + ints}
}

// decrypt is C2 opening values packed under s, one group at a time, each
// on the path its declared width count·Width takes; it returns the groups.
func (m *costModel) decrypt(c *Cost, s paillier.SlotLayout, values int) int {
	groups := s.Groups(values)
	for g := range groups {
		if min(s.Slots, values-g*s.Slots)*s.Width <= m.onePrime {
			c.OnePrime++
		} else {
			c.CRT++
		}
	}
	return groups
}

// distances is the packed SSED over n records, one frame per link's
// chunk: [count, m, valueBits, every record's slot groups] up, one
// encrypted distance per record down.
func (m *costModel) distances(c *Cost, n int) {
	for _, ck := range splitChunks(n, m.links) {
		ints := 3
		for range ck.hi - ck.lo {
			ints += m.decrypt(c, m.ssed, m.shape.FeatureM)
		}
		c.Encrypts += ck.hi - ck.lo
		c.frame(smc.OpSSEDPack, ints)
	}
}

// network is the selection network over n candidates keeping k: per
// layer, each link's chunk of g gates takes the peel's l + 1 rounds of
// [count, valueBits, shift, groups] up and g bits down, and the last of
// them also carries [per, opBits] and g·per blinded operands up — the
// gap and the record's chunks — and their g·per products down.
func (m *costModel) network(c *Cost, n, k int) {
	c.SMINCount += k * (n - 1)
	per := 1 + m.chunks
	for _, layer := range topKNetwork(n, k) {
		c.Gates += len(layer)
		for _, ck := range splitChunks(len(layer), m.links) {
			g := ck.hi - ck.lo
			for j := 0; j <= m.l; j++ {
				ints := 3 + m.decrypt(c, m.peel, g)
				c.Encrypts += g
				if j == m.l {
					ints += 2 + m.decrypt(c, m.operands, g*per)
					c.Encrypts += g * per
				}
				c.frame(smc.OpSBDPackBit, ints)
			}
		}
	}
}

// rank is SkNNb's decrypt-and-rank of n distances: [k, n distances] up,
// every one opened through the CRT, plaintext positions down.
func (m *costModel) rank(c *Cost, n int) {
	c.CRT += n
	c.frame(OpRank, 1+n)
}

// reveal is the masked delivery of k records: each chunk under a
// full-range mask, opened through the CRT, plaintexts down.
func (m *costModel) reveal(c *Cost, k int) {
	c.CRT += k * m.chunks
	c.frame(OpReveal, k*m.chunks)
}
