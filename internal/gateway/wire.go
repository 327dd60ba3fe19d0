package gateway

import (
	"fmt"
	"math"
	"math/big"

	"sknn/internal/core"
	"sknn/internal/dataset"
	"sknn/internal/mpc"
	"sknn/internal/paillier"
)

// The client↔gateway wire protocol: mpc's token handshake naming the
// tenant (mpc/auth.go), whose accept frame is the welcome, then query
// frames, strictly client-first like every other exchange in this stack:
//
//	mpc.OpAuth   req: [name] → rep: [nonce]
//	mpc.OpAuth   req: [HMAC-SHA256(token, nonce‖name)]
//	             rep: [pkN, n, m, featureM, attrBits]   (the welcome)
//	OpGateQuery  req: [k, mode, E(q₁)…E(q_f)]   (mode 0 basic, 1 secure)
//	             rep: [k, m, idFlag, cols, bits,
//	                   k·c mask ints, k·c masked ints, idFlag·k ids]
//	                  (c = ⌈m/cols⌉ shares per record: core.RowLayout)
//
// The query reply relays the masked-result shares — each share alone is
// uniformly random, so the gateway-to-Bob hop carries nothing the
// reveal step didn't already grant Bob. Query ciphertexts and result
// shares are range-checked against the tenant's key on both ends; every
// count that feeds an allocation is bounded here first.

// Opcodes 96+ belong to the gateway tier (mpc owns 0–15, smc 16–63,
// core 64–95). They travel client↔gateway only, never toward C2. 96 and
// 97, the gateway's own tenant hello and proof before it used mpc's
// handshake, are retired and never reused.
const OpGateQuery mpc.Op = 98 // one k-NN query under the authenticated tenant

// Bounds on what a frame may declare before it parameterizes an
// allocation; the welcome's table shape is bounded by dataset.Shape.Check.
const (
	maxTenantName = 64   // bytes of tenant name
	maxGateK      = 4096 // neighbors per query
)

// ErrGateAuth reports a failed tenant handshake. The refusal frame
// sent to the peer never says which step failed.
var ErrGateAuth = fmt.Errorf("gateway: tenant authentication failed")

// ValidTenantName reports whether a tenant name is well-formed:
// 1–64 bytes of [a-zA-Z0-9._-], so names survive the big.Int transport
// (no leading zero bytes to drop) and embed safely in metric labels.
func ValidTenantName(name string) bool {
	if len(name) == 0 || len(name) > maxTenantName {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' ||
			c == '.' || c == '_' || c == '-') {
			return false
		}
	}
	return true
}

// encodeGateWelcome lays out the handshake's accept payload: the
// tenant's public key and table shape, everything Bob's edge needs to
// encrypt and bound queries and unmask results.
func encodeGateWelcome(pkN *big.Int, n int, shape dataset.Shape) []*big.Int {
	return []*big.Int{
		new(big.Int).Set(pkN), big.NewInt(int64(n)),
		big.NewInt(int64(shape.M)), big.NewInt(int64(shape.FeatureM)), big.NewInt(int64(shape.AttrBits)),
	}
}

// gateWelcome is the decoded accept payload.
type gateWelcome struct {
	pk    *paillier.PublicKey
	n     int
	shape dataset.Shape
}

// decodeGateWelcome validates and unpacks an accept payload. The shape
// sizes the client's encrypt/unmask work, so it is checked as a shard
// hello's is.
func decodeGateWelcome(ints []*big.Int) (gateWelcome, error) {
	var w gateWelcome
	f := mpc.ReadFields(ints)
	modulus := f.Big()
	w.n = f.Int(0, math.MaxInt)
	w.shape.M = f.Int(math.MinInt, math.MaxInt)
	w.shape.FeatureM = f.Int(math.MinInt, math.MaxInt)
	w.shape.AttrBits = f.Int(math.MinInt, math.MaxInt)
	if err := f.Done(); err != nil {
		return w, fmt.Errorf("gateway: welcome: %w", err)
	}
	if err := w.shape.Check(); err != nil {
		return w, fmt.Errorf("%w: welcome: %w", core.ErrBadFrame, err)
	}
	// Last, once the cheap fields hold: the key's nonce kernel costs an
	// exponentiation.
	pk, err := paillier.NewPublicKey(modulus)
	if err != nil {
		return w, fmt.Errorf("%w: implausible tenant public modulus: %v", core.ErrBadFrame, err)
	}
	w.pk = pk
	return w, nil
}

// Query modes.
const (
	modeBasic  = 0 // SkNNb: faster, reveals access patterns to the clouds
	modeSecure = 1 // SkNNm: fully oblivious
)

// encodeGateQuery lays out one query request.
func encodeGateQuery(k int, secure bool, q core.EncryptedQuery) *mpc.Message {
	mode := int64(modeBasic)
	if secure {
		mode = modeSecure
	}
	ints := make([]*big.Int, 0, 2+len(q))
	ints = append(ints, big.NewInt(int64(k)), big.NewInt(mode))
	for _, ct := range q {
		ints = append(ints, ct.Raw())
	}
	return &mpc.Message{Op: OpGateQuery, Ints: ints}
}

// decodeGateQuery validates and unpacks a query request against the
// tenant's table shape: k within the global cap (the backend still checks
// it against the live count), refused before the rest is read as ErrBadK
// and ErrBadFrame both, then exactly featureM ciphertexts under its key.
func decodeGateQuery(pk *paillier.PublicKey, featureM int, req *mpc.Message) (k int, secure bool, q core.EncryptedQuery, err error) {
	f := mpc.ReadFields(req.Ints)
	if k = f.Int(math.MinInt, math.MaxInt); f.Err() == nil && (k < 1 || k > maxGateK) {
		return 0, false, nil, fmt.Errorf("%w: %w: k=%d (cap %d)", core.ErrBadFrame, core.ErrBadK, k, maxGateK)
	}
	secure = f.Int(modeBasic, modeSecure) == modeSecure
	q = make(core.EncryptedQuery, featureM)
	for i := range q {
		q[i] = mpc.Read(f, pk.FromRaw)
	}
	if err := f.Done(); err != nil {
		return 0, false, nil, fmt.Errorf("gateway: query: %w", err)
	}
	return k, secure, q, nil
}

// encodeGateResult lays out a query reply from the masked-result
// shares.
func encodeGateResult(res *core.MaskedResult) *mpc.Message {
	idFlag := int64(0)
	if res.IDs != nil {
		idFlag = 1
	}
	shares := 0 // per record and kind
	if len(res.Masks) > 0 {
		shares = len(res.Masks[0])
	}
	ints := make([]*big.Int, 0, gateResultHead+2*res.K*shares+len(res.IDs))
	ints = append(ints, big.NewInt(int64(res.K)), big.NewInt(int64(res.M)), big.NewInt(idFlag),
		big.NewInt(int64(res.Layout.Cols)), big.NewInt(int64(res.Layout.Bits)))
	for _, row := range res.Masks {
		ints = append(ints, row...)
	}
	for _, row := range res.Masked {
		ints = append(ints, row...)
	}
	for _, id := range res.IDs {
		ints = append(ints, new(big.Int).SetUint64(id))
	}
	return &mpc.Message{Op: OpGateQuery, Ints: ints}
}

// gateResultHead is the result frame's header length: k, m, idFlag and
// the row layout's cols and bits.
const gateResultHead = 5

// decodeGateResult validates and unpacks a query reply against the
// request the client actually sent: at most k results of exactly m
// attributes in a row layout that fits m and the tenant's key, every
// share a canonical residue mod the tenant's N. The declared count and
// layout are bounded before any allocation depends on them.
func decodeGateResult(pk *paillier.PublicKey, k, m int, resp *mpc.Message) (*core.MaskedResult, error) {
	f := mpc.ReadFields(resp.Ints)
	gotK, gotM, idFlag := f.Int(1, k), f.Int(m, m), f.Int(0, 1)
	layout := core.RowLayout{Cols: f.Int(1, m), Bits: f.Int(math.MinInt, math.MaxInt)}
	rows := func() [][]*big.Int {
		out := make([][]*big.Int, gotK)
		for j := 0; j < gotK && f.Err() == nil; j++ { // no Chunks of a failed header; a short frame allocates no further
			out[j] = make([]*big.Int, layout.Chunks(m))
			for h := range out[j] {
				out[j][h] = mpc.Read(f, pk.Residue)
			}
		}
		return out
	}
	masks, masked := rows(), rows()
	var ids []uint64
	if idFlag == 1 {
		ids = make([]uint64, gotK)
		for j := range ids {
			ids[j] = f.Uint64()
		}
	}
	if err := f.Done(); err != nil {
		return nil, fmt.Errorf("gateway: query result: %w", err)
	}
	// RestoreMaskedRows vets the slot width against the key.
	return core.RestoreMaskedRows(pk, gotK, gotM, layout, masks, masked, ids)
}
