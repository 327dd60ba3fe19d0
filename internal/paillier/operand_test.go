package paillier

import (
	"crypto/rand"
	"math/big"
	"reflect"
	"sort"
	"testing"
)

// operandCase calls one method on fresh ciphertext operands; the method
// must leave every operand as it found it.
type operandCase struct {
	method   string // Type.Method, as ciphertextMethods names it
	name     string // the case, when a method has several
	operands int
	call     func(t *testing.T, sk *PrivateKey, cts []*Ciphertext)
}

// mustNil fails the test on a call's error.
func mustNil(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// rowPacking is a headroom-free codec of 4 slots of 20 bits under sk: a
// one-slot group (20 bits) decrypts under the smaller factor alone, a
// full group (80 bits) through both CRT halves, at a 256-bit key.
func rowPacking(t *testing.T, sk *PrivateKey) *Packing {
	t.Helper()
	p, err := NewRowPacking(&sk.PublicKey, 20, 4)
	mustNil(t, err)
	return p
}

// unpackOn decrypts cts[0] as a group of count slots and requires the
// wanted decryption path, so each row pins the path it claims.
func unpackOn(count int, onePrime bool) func(t *testing.T, sk *PrivateKey, cts []*Ciphertext) {
	return onPath(onePrime, func(t *testing.T, sk *PrivateKey, ct *Ciphertext) error {
		_, err := rowPacking(t, sk).UnpackDecrypt(sk, ct, count)
		return err
	})
}

// decryptBelowOn decrypts cts[0] declared at bits bits and requires the
// wanted decryption path.
func decryptBelowOn(bits int, onePrime bool) func(t *testing.T, sk *PrivateKey, cts []*Ciphertext) {
	return onPath(onePrime, func(t *testing.T, sk *PrivateKey, ct *Ciphertext) error {
		_, err := sk.DecryptBelow(ct, bits)
		return err
	})
}

// onPath runs decrypt on cts[0] and requires exactly one decryption, on
// the wanted path.
func onPath(onePrime bool, decrypt func(t *testing.T, sk *PrivateKey, ct *Ciphertext) error) func(t *testing.T, sk *PrivateKey, cts []*Ciphertext) {
	return func(t *testing.T, sk *PrivateKey, cts []*Ciphertext) {
		var err error
		o, c := decryptPaths(func() { err = decrypt(t, sk, cts[0]) })
		mustNil(t, err)
		if (o == 1) != onePrime || o+c != 1 {
			t.Fatalf("%d one-prime and %d CRT decryptions, want one-prime = %v", o, c, onePrime)
		}
	}
}

var operandCases = []operandCase{
	{"PublicKey.Add", "", 2, func(t *testing.T, sk *PrivateKey, cts []*Ciphertext) { sk.Add(cts[0], cts[1]) }},
	{"PublicKey.AddPlain", "", 1, func(t *testing.T, sk *PrivateKey, cts []*Ciphertext) { sk.AddPlain(cts[0], big.NewInt(7)) }},
	{"PublicKey.Sub", "", 2, func(t *testing.T, sk *PrivateKey, cts []*Ciphertext) { sk.Sub(cts[0], cts[1]) }},
	{"PublicKey.Neg", "", 1, func(t *testing.T, sk *PrivateKey, cts []*Ciphertext) { sk.Neg(cts[0]) }},
	{"PublicKey.Inv", "", 1, func(t *testing.T, sk *PrivateKey, cts []*Ciphertext) { sk.Inv(cts[0]) }},
	{"PublicKey.InvMany", "", 3, func(t *testing.T, sk *PrivateKey, cts []*Ciphertext) { sk.InvMany(cts) }},
	{"PublicKey.ScalarMul", "positive", 1, func(t *testing.T, sk *PrivateKey, cts []*Ciphertext) { sk.ScalarMul(cts[0], big.NewInt(5)) }},
	{"PublicKey.ScalarMul", "negative", 1, func(t *testing.T, sk *PrivateKey, cts []*Ciphertext) { sk.ScalarMul(cts[0], big.NewInt(-5)) }},
	{"PublicKey.ScalarMulInt64", "", 1, func(t *testing.T, sk *PrivateKey, cts []*Ciphertext) { sk.ScalarMulInt64(cts[0], 3) }},
	{"PublicKey.Rerandomize", "", 1, func(t *testing.T, sk *PrivateKey, cts []*Ciphertext) {
		_, err := sk.Rerandomize(rand.Reader, cts[0])
		mustNil(t, err)
	}},
	{"PublicKey.RerandomizeWith", "", 1, func(t *testing.T, sk *PrivateKey, cts []*Ciphertext) {
		nonces, err := sk.DrawNonces(rand.Reader, 1)
		mustNil(t, err)
		sk.RerandomizeWith(nonces[0], cts[0])
	}},
	{"PublicKey.Product", "one operand", 1, func(t *testing.T, sk *PrivateKey, cts []*Ciphertext) { sk.Product(cts) }},
	{"PublicKey.Product", "several", 3, func(t *testing.T, sk *PrivateKey, cts []*Ciphertext) { sk.Product(cts) }},
	{"PublicKey.MultiScalarMul", "", 3, func(t *testing.T, sk *PrivateKey, cts []*Ciphertext) {
		sk.MultiScalarMul(cts, []*big.Int{big.NewInt(3), big.NewInt(-2), big.NewInt(1 << 40)})
	}},
	{"Packing.PackCiphertexts", "", 3, func(t *testing.T, sk *PrivateKey, cts []*Ciphertext) {
		_, err := rowPacking(t, sk).PackCiphertexts(cts)
		mustNil(t, err)
	}},
	{"Packing.AddPacked", "", 1, func(t *testing.T, sk *PrivateKey, cts []*Ciphertext) {
		_, err := rowPacking(t, sk).AddPacked(cts[0], []*big.Int{big.NewInt(1), big.NewInt(2)})
		mustNil(t, err)
	}},
	{"Packing.UnpackDecrypt", "one prime", 1, unpackOn(1, true)},
	{"Packing.UnpackDecrypt", "crt", 1, unpackOn(4, false)},
	{"PrivateKey.Decrypt", "", 1, func(t *testing.T, sk *PrivateKey, cts []*Ciphertext) {
		_, err := sk.Decrypt(cts[0])
		mustNil(t, err)
	}},
	{"PrivateKey.DecryptBelow", "one prime", 1, decryptBelowOn(20, true)},
	{"PrivateKey.DecryptBelow", "crt", 1, decryptBelowOn(256, false)},
	{"PrivateKey.DecryptSigned", "", 1, func(t *testing.T, sk *PrivateKey, cts []*Ciphertext) {
		_, err := sk.DecryptSigned(cts[0])
		mustNil(t, err)
	}},
	{"PrivateKey.DecryptNoCRT", "", 1, func(t *testing.T, sk *PrivateKey, cts []*Ciphertext) {
		_, err := sk.DecryptNoCRT(cts[0])
		mustNil(t, err)
	}},
}

// ciphertextMethods lists, as Type.Method, every method of *PublicKey,
// *PrivateKey and *Packing with a *Ciphertext or []*Ciphertext
// parameter (test-only exports included). *PrivateKey's methods promoted
// from its PublicKey are listed once, under PublicKey.
func ciphertextMethods() []string {
	ct := reflect.TypeOf((*Ciphertext)(nil))
	pub := reflect.TypeOf((*PublicKey)(nil))
	var out []string
	for _, typ := range []reflect.Type{pub, reflect.TypeOf((*PrivateKey)(nil)), reflect.TypeOf((*Packing)(nil))} {
		for i := 0; i < typ.NumMethod(); i++ {
			m := typ.Method(i)
			if _, promoted := pub.MethodByName(m.Name); promoted && typ != pub {
				continue
			}
			for j := 1; j < m.Type.NumIn(); j++ { // In(0) is the receiver
				if in := m.Type.In(j); in == ct || in == reflect.SliceOf(ct) {
					out = append(out, typ.Elem().Name()+"."+m.Name)
					break
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// TestOperationsLeaveOperandsUnchanged holds the Ciphertext contract:
// every operation allocates its result and writes no operand. One
// ciphertext is shared by concurrent sessions and by the cached table,
// so an operation that accumulated into its first operand (Product into
// cts[0], decryptNoCRT raising ct in place) would corrupt a value its
// other holders still read, with no error anywhere. Each case snapshots
// its operands' Raw() before the call and compares after; the method
// table must name every method that takes a ciphertext, so a new one
// fails here until it has a case.
func TestOperationsLeaveOperandsUnchanged(t *testing.T) {
	tabled := make(map[string]bool)
	for _, c := range operandCases {
		tabled[c.method] = true
	}
	methods := ciphertextMethods()
	for _, m := range methods {
		if !tabled[m] {
			t.Errorf("%s takes a ciphertext but has no case in operandCases", m)
		}
		delete(tabled, m)
	}
	for m := range tabled {
		t.Errorf("operandCases names %s, which takes no ciphertext (methods: %v)", m, methods)
	}

	sk := testKey()
	for _, c := range operandCases {
		name := c.method
		if c.name != "" {
			name += "/" + c.name
		}
		t.Run(name, func(t *testing.T) {
			cts := make([]*Ciphertext, c.operands)
			before := make([]*big.Int, c.operands)
			for i := range cts {
				ct, err := sk.Encrypt(rand.Reader, big.NewInt(int64(11*i+2)))
				mustNil(t, err)
				cts[i], before[i] = ct, ct.Raw()
			}
			c.call(t, sk, cts)
			for i, ct := range cts {
				if ct.Raw().Cmp(before[i]) != 0 {
					t.Errorf("operand %d written in place", i)
				}
			}
		})
	}
}
