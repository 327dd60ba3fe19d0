//sknnlint:role c2

// Package fixture exercises partyflow's taint rules in a C2-role file:
// decrypted plaintext must be blinded or re-encrypted before any wire
// sink, with per-package summaries extending the reach through helper
// calls.
package fixture

// PrivateKey stands in for paillier.PrivateKey.
type PrivateKey struct{ N int }

func (k *PrivateKey) Decrypt(c int) int { return c }
func (k *PrivateKey) Encrypt(m int) int { return m }

// Nonce stands in for paillier.Nonce, the message-independent half of an
// encryption; EncryptWith and EncryptMany are the halves that touch the
// message.
type Nonce struct{}

func (n *Nonce) Raise()                               {}
func (k *PrivateKey) DrawNonces(count int) []*Nonce   { return make([]*Nonce, count) }
func (k *PrivateKey) EncryptWith(n *Nonce, m int) int { return m }
func (k *PrivateKey) EncryptMany(ms []int) []int      { return ms }

// Message stands in for mpc.Message.
type Message struct {
	Op   int
	Ints []int
}

func Send(m *Message) error   { return nil }
func blind(v int) int         { return v }
func encodeReply(vs ...int)   {}
func use(v int)               {}
func helper(vals []int) []int { return vals }

// leakComposite ships a raw plaintext in a reply message.
func leakComposite(k *PrivateKey, c int) *Message {
	d := k.Decrypt(c)
	return &Message{Op: 1, Ints: []int{d}} // want `reaches wire sink Message.Ints`
}

// leakSend passes decrypted data to Send.
func leakSend(k *PrivateKey, c int) error {
	d := k.Decrypt(c)
	m := &Message{Op: 1}
	m.Ints = []int{d} // want `reaches wire sink Message.Ints`
	return Send(m)    // want `reaches wire sink Send\(\)`
}

// leakEncode reaches an encode sink through derived arithmetic.
func leakEncode(k *PrivateKey, c int) {
	d := k.Decrypt(c) * 2
	encodeReply(d) // want `reaches wire sink encodeReply\(\)`
}

// reencrypted launders the plaintext through a fresh encryption — the
// sanctioned idiom.
func reencrypted(k *PrivateKey, c int) *Message {
	d := k.Decrypt(c)
	return &Message{Op: 1, Ints: []int{k.Encrypt(d)}}
}

// splitEncrypted launders through the split encryption: the nonce is
// drawn and raised apart from the message, EncryptWith assembles.
func splitEncrypted(k *PrivateKey, c int) *Message {
	nc := k.DrawNonces(1)
	d := k.Decrypt(c)
	nc[0].Raise()
	return &Message{Op: 1, Ints: []int{k.EncryptWith(nc[0], d)}}
}

// batchEncrypted launders a whole reply through EncryptMany.
func batchEncrypted(k *PrivateKey, c int) *Message {
	d := k.Decrypt(c)
	return &Message{Op: 1, Ints: k.EncryptMany([]int{d, d + 1})}
}

// leakBesideNonce raises a nonce and then ships the plaintext anyway:
// only the assembling call sanitizes, not having a nonce at hand.
func leakBesideNonce(k *PrivateKey, c int) *Message {
	nc := k.DrawNonces(1)
	d := k.Decrypt(c)
	nc[0].Raise()
	return &Message{Op: 1, Ints: []int{d}} // want `reaches wire sink Message.Ints`
}

// blinded launders through the blinding sanitizer.
func blinded(k *PrivateKey, c int) *Message {
	d := k.Decrypt(c)
	u := blind(d)
	return &Message{Op: 1, Ints: []int{u}}
}

// argmin returns a position that is control-dependent on decrypted
// values: no data flows, but the summary still marks it
// decrypt-derived.
func argmin(k *PrivateKey, cs []int) int {
	best := 0
	for i, c := range cs {
		if k.Decrypt(c) == 0 {
			best = i
		}
	}
	return best
}

// leakViaSummary sinks the helper's control-dependent result.
func leakViaSummary(k *PrivateKey, cs []int) *Message {
	pos := argmin(k, cs)
	return &Message{Op: 2, Ints: []int{pos}} // want `reaches wire sink Message.Ints`
}

// allowedLeak is a documented protocol leak with its justification.
func allowedLeak(k *PrivateKey, c int) *Message {
	d := k.Decrypt(c)
	//sknnlint:allow partyflow -- fixture stand-in for the paper's documented reveal step
	return &Message{Op: 3, Ints: []int{d}}
}

// unjustified has the annotation but no reason, which is itself a
// finding.
func unjustified(k *PrivateKey, c int) *Message {
	d := k.Decrypt(c)
	//sknnlint:allow partyflow // want `lacks a justification`
	return &Message{Op: 3, Ints: []int{d}}
}

// cleanTraffic never decrypts; arbitrary ints may flow to the wire.
func cleanTraffic(vals []int) *Message {
	return &Message{Op: 4, Ints: helper(vals)}
}
