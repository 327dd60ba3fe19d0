package gateway

import (
	"crypto/hmac"
	"crypto/sha256"
	"fmt"
	"math/big"

	"sknn/internal/core"
	"sknn/internal/mpc"
	"sknn/internal/paillier"
)

// The client↔gateway wire protocol. A tenant's Bob-side edge speaks
// four frames, strictly client-first like every other exchange in this
// stack:
//
//	OpGateHello  req: [name]                 (tenant name as UTF-8 bytes)
//	             rep: [nonce]                (32 random bytes)
//	OpGateAuth   req: [HMAC-SHA256(token, nonce‖name)]
//	             rep: [pkN, n, m, featureM]  (the tenant's table shape)
//	OpGateQuery  req: [k, mode, E(q₁)…E(q_f)]   (mode 0 basic, 1 secure)
//	             rep: [k, m, idFlag, cols, bits,
//	                   k·c mask ints, k·c masked ints, idFlag·k ids]
//	                  (c = ⌈m/cols⌉ shares per record: core.RowLayout)
//
// The hello/auth pair is the tenant-level counterpart of mpc's
// connection auth: the token proves the dialer may act as that tenant,
// the MAC binds the proof to this connection's nonce AND the claimed
// name (so a recorded proof replays against neither a fresh nonce nor a
// sibling tenant). The query reply relays the masked-result shares —
// each share alone is uniformly random, so the gateway-to-Bob hop
// carries nothing the reveal step didn't already grant Bob. Query
// ciphertexts and result shares are range-checked against the tenant's
// key on both ends; every count that feeds an allocation is bounded
// here first.

// Opcodes 96+ belong to the gateway tier (mpc owns 0–15, smc 16–63,
// core 64–95). They travel client↔gateway only, never toward C2.
const (
	OpGateHello mpc.Op = 96 // tenant hello: claim a name, receive a nonce
	OpGateAuth  mpc.Op = 97 // tenant proof: MAC over nonce‖name, receive table shape
	OpGateQuery mpc.Op = 98 // one k-NN query under the authenticated tenant
)

// Bounds on what a frame may declare before it parameterizes an
// allocation.
const (
	maxTenantName = 64      // bytes of tenant name
	maxGateK      = 4096    // neighbors per query
	maxGateM      = 1 << 12 // attributes per record (mirrors core's shard cap)
	gateNonceLen  = 32
)

// ErrGateAuth reports a refused tenant handshake. The refusal frame
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

// tenantMAC is the tenant-auth proof: HMAC-SHA256 keyed by the
// tenant's token over nonce‖name.
func tenantMAC(token string, nonce []byte, name string) []byte {
	mac := hmac.New(sha256.New, []byte(token))
	mac.Write(nonce)
	mac.Write([]byte(name))
	return mac.Sum(nil)
}

// fixedBytes rebuilds a fixed-width byte string from its wire integer
// (big.Int drops leading zero bytes). Implausible values yield the
// all-zero string, which fails closed against any real MAC or nonce.
func fixedBytes(v *big.Int, width int) []byte {
	out := make([]byte, width)
	if v == nil || v.Sign() < 0 || v.BitLen() > 8*width {
		return out
	}
	v.FillBytes(out)
	return out
}

// encodeGateHello lays out the tenant hello request.
func encodeGateHello(name string) *mpc.Message {
	return &mpc.Message{Op: OpGateHello, Ints: []*big.Int{new(big.Int).SetBytes([]byte(name))}}
}

// decodeGateHello validates and unpacks a tenant hello.
func decodeGateHello(req *mpc.Message) (string, error) {
	if len(req.Ints) != 1 || req.Ints[0] == nil || req.Ints[0].Sign() < 0 ||
		req.Ints[0].BitLen() > 8*maxTenantName {
		return "", fmt.Errorf("%w: malformed hello frame", ErrGateAuth)
	}
	name := string(req.Ints[0].Bytes())
	if !ValidTenantName(name) {
		return "", fmt.Errorf("%w: malformed tenant name", ErrGateAuth)
	}
	return name, nil
}

// encodeGateChallenge lays out the hello reply carrying the nonce.
func encodeGateChallenge(nonce []byte) *mpc.Message {
	return &mpc.Message{Op: OpGateHello, Ints: []*big.Int{new(big.Int).SetBytes(nonce)}}
}

// decodeGateChallenge unpacks the nonce from a hello reply.
func decodeGateChallenge(resp *mpc.Message) ([]byte, error) {
	if len(resp.Ints) != 1 || resp.Ints[0] == nil || resp.Ints[0].Sign() < 0 ||
		resp.Ints[0].BitLen() > 8*gateNonceLen {
		return nil, fmt.Errorf("%w: malformed challenge frame", ErrGateAuth)
	}
	return fixedBytes(resp.Ints[0], gateNonceLen), nil
}

// encodeGateProof lays out the tenant's MAC proof.
func encodeGateProof(mac []byte) *mpc.Message {
	return &mpc.Message{Op: OpGateAuth, Ints: []*big.Int{new(big.Int).SetBytes(mac)}}
}

// decodeGateProof rebuilds the fixed-width MAC from a proof frame.
func decodeGateProof(req *mpc.Message) ([]byte, error) {
	if len(req.Ints) != 1 {
		return nil, fmt.Errorf("%w: malformed proof frame", ErrGateAuth)
	}
	return fixedBytes(req.Ints[0], sha256.Size), nil
}

// encodeGateWelcome lays out the auth reply: the tenant's public key
// and table shape, everything Bob's edge needs to encrypt queries and
// unmask results.
func encodeGateWelcome(pkN *big.Int, n, m, featureM int) *mpc.Message {
	return &mpc.Message{Op: OpGateAuth, Ints: []*big.Int{
		new(big.Int).Set(pkN),
		big.NewInt(int64(n)), big.NewInt(int64(m)), big.NewInt(int64(featureM)),
	}}
}

// gateWelcome is the decoded auth reply.
type gateWelcome struct {
	pk       *paillier.PublicKey
	n        int
	m        int
	featureM int
}

// decodeGateWelcome validates and unpacks an auth reply. The shape
// fields size the client's encrypt/unmask work, so they are bounded
// like a shard hello's.
func decodeGateWelcome(resp *mpc.Message) (gateWelcome, error) {
	var w gateWelcome
	if len(resp.Ints) != 4 {
		return w, fmt.Errorf("%w: gateway welcome has %d ints, want 4", core.ErrBadFrame, len(resp.Ints))
	}
	for i := 1; i < 4; i++ {
		if resp.Ints[i] == nil || !resp.Ints[i].IsInt64() {
			return w, fmt.Errorf("%w: gateway welcome field %d", core.ErrBadFrame, i)
		}
	}
	w.n = int(resp.Ints[1].Int64())
	w.m = int(resp.Ints[2].Int64())
	w.featureM = int(resp.Ints[3].Int64())
	if w.n < 0 || w.m < 1 || w.m > maxGateM || w.featureM < 1 || w.featureM > w.m {
		return w, fmt.Errorf("%w: gateway welcome declares n=%d table %d/%d",
			core.ErrBadFrame, w.n, w.m, w.featureM)
	}
	// Last, once the cheap fields hold: the key's nonce kernel costs an
	// exponentiation.
	pk, err := paillier.NewPublicKey(resp.Ints[0])
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
// tenant's table shape: exactly featureM ciphertexts under the
// tenant's key, k within the global cap (the backend still validates
// it against the live record count).
func decodeGateQuery(pk *paillier.PublicKey, featureM int, req *mpc.Message) (k int, secure bool, q core.EncryptedQuery, err error) {
	if len(req.Ints) != 2+featureM {
		return 0, false, nil, fmt.Errorf("%w: query frame has %d ints, want %d",
			core.ErrBadFrame, len(req.Ints), 2+featureM)
	}
	for i := 0; i < 2; i++ {
		if req.Ints[i] == nil || !req.Ints[i].IsInt64() {
			return 0, false, nil, fmt.Errorf("%w: query header field %d", core.ErrBadFrame, i)
		}
	}
	k = int(req.Ints[0].Int64())
	mode := req.Ints[1].Int64()
	if k < 1 || k > maxGateK {
		return 0, false, nil, fmt.Errorf("%w: k=%d (cap %d)", core.ErrBadK, k, maxGateK)
	}
	if mode != modeBasic && mode != modeSecure {
		return 0, false, nil, fmt.Errorf("%w: unknown query mode %d", core.ErrBadFrame, mode)
	}
	q = make(core.EncryptedQuery, featureM)
	for i := range q {
		if q[i], err = pk.FromRaw(req.Ints[2+i]); err != nil {
			return 0, false, nil, fmt.Errorf("gateway: query attribute %d: %w", i, err)
		}
	}
	return k, mode == modeSecure, q, nil
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
	if len(resp.Ints) < gateResultHead {
		return nil, fmt.Errorf("%w: result frame has %d ints", core.ErrBadFrame, len(resp.Ints))
	}
	for i := 0; i < gateResultHead; i++ {
		if resp.Ints[i] == nil || !resp.Ints[i].IsInt64() {
			return nil, fmt.Errorf("%w: result header field %d", core.ErrBadFrame, i)
		}
	}
	gotK := int(resp.Ints[0].Int64())
	gotM := int(resp.Ints[1].Int64())
	idFlag := resp.Ints[2].Int64()
	layout := core.RowLayout{Cols: int(resp.Ints[3].Int64()), Bits: int(resp.Ints[4].Int64())}
	if gotK < 1 || gotK > k || gotM != m || idFlag < 0 || idFlag > 1 || layout.Cols < 1 || layout.Cols > m {
		return nil, fmt.Errorf("%w: result declares %d×%d in chunks of %d columns (idFlag %d), asked k=%d m=%d",
			core.ErrBadFrame, gotK, gotM, layout.Cols, idFlag, k, m)
	}
	chunks := layout.Chunks(m)
	want := gateResultHead + 2*gotK*chunks + int(idFlag)*gotK
	if len(resp.Ints) != want {
		return nil, fmt.Errorf("%w: result frame has %d ints, want %d", core.ErrBadFrame, len(resp.Ints), want)
	}
	share := func(pos int) (*big.Int, error) {
		v := resp.Ints[pos]
		if v == nil || v.Sign() < 0 || v.Cmp(pk.N) >= 0 {
			return nil, fmt.Errorf("%w: result share %d out of range", core.ErrBadFrame, pos)
		}
		return v, nil
	}
	pos := gateResultHead
	readRows := func() ([][]*big.Int, error) {
		rows := make([][]*big.Int, gotK)
		for j := range rows {
			row := make([]*big.Int, chunks)
			for h := range row {
				v, err := share(pos)
				if err != nil {
					return nil, err
				}
				row[h] = v
				pos++
			}
			rows[j] = row
		}
		return rows, nil
	}
	masks, err := readRows()
	if err != nil {
		return nil, err
	}
	masked, err := readRows()
	if err != nil {
		return nil, err
	}
	var ids []uint64
	if idFlag == 1 {
		ids = make([]uint64, gotK)
		for j := range ids {
			if resp.Ints[pos] == nil || !resp.Ints[pos].IsUint64() {
				return nil, fmt.Errorf("%w: result id %d", core.ErrBadFrame, j)
			}
			ids[j] = resp.Ints[pos].Uint64()
			pos++
		}
	}
	// RestoreMaskedRows vets the slot width against the key.
	return core.RestoreMaskedRows(pk, gotK, gotM, layout, masks, masked, ids)
}
