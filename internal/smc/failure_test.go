package smc

import (
	"crypto/rand"
	"errors"
	"math/big"
	"runtime"
	"sync"
	"testing"
	"time"

	"sknn/internal/mpc"
	"sknn/internal/paillier"
)

// corruptingMux wraps the genuine responder mux and tampers with replies
// according to a programmable hook — the failure-injection harness for
// the requester-side defenses.
type corruptingMux struct {
	inner   *mpc.Mux
	corrupt func(req, resp *mpc.Message) *mpc.Message
}

func (c *corruptingMux) Handle(req *mpc.Message) (*mpc.Message, error) {
	resp, err := c.inner.Handle(req)
	if err != nil {
		return nil, err
	}
	return c.corrupt(req, resp), nil
}

// corruptedPair wires a Requester against a tampering responder.
func corruptedPair(t *testing.T, corrupt func(req, resp *mpc.Message) *mpc.Message) (*Requester, *paillier.PrivateKey) {
	t.Helper()
	sk := testKey()
	return servedBy(t, sk, &corruptingMux{inner: NewResponder(sk, nil).Mux(), corrupt: corrupt}), sk
}

// TestSBDRecoversFromCorruptedRound injects one wrong LSB reply: the
// decomposition fails verification, the verify-and-retry loop kicks in,
// and the final answer is still correct — the probabilistic-SBD recovery
// path of [21] exercised end to end.
func TestSBDRecoversFromCorruptedRound(t *testing.T) {
	var once sync.Once
	sk := testKey()
	rq, _ := corruptedPair(t, func(req, resp *mpc.Message) *mpc.Message {
		if req.Op == OpSBDLsb {
			once.Do(func() {
				// Flip the first returned bit by homomorphically adding 1.
				ct, err := sk.FromRaw(resp.Ints[0])
				if err != nil {
					t.Errorf("tamper: %v", err)
					return
				}
				resp.Ints[0] = sk.AddPlain(ct, big.NewInt(1)).Raw()
			})
		}
		return resp
	})
	bits, err := rq.SBD(enc(t, sk, 45), 6)
	if err != nil {
		t.Fatalf("SBD did not recover: %v", err)
	}
	if got := decBits(t, sk, bits); got != 45 {
		t.Errorf("recovered decomposition = %d, want 45", got)
	}
}

// TestSBDGivesUpAfterPersistentCorruption verifies the retry loop is
// bounded: a peer that always lies makes SBD fail with ErrSBDVerify
// instead of looping forever.
func TestSBDGivesUpAfterPersistentCorruption(t *testing.T) {
	sk := testKey()
	rq, _ := corruptedPair(t, func(req, resp *mpc.Message) *mpc.Message {
		if req.Op == OpSBDLsb {
			ct, err := sk.FromRaw(resp.Ints[0])
			if err == nil {
				resp.Ints[0] = sk.AddPlain(ct, big.NewInt(1)).Raw()
			}
		}
		return resp
	})
	_, err := rq.SBD(enc(t, sk, 45), 6)
	if !errors.Is(err, ErrSBDVerify) {
		t.Errorf("persistent corruption error = %v, want ErrSBDVerify", err)
	}
}

// TestRequesterRejectsShortReply covers the frame-shape validation: a
// responder that drops payload elements triggers ErrBadFrame, not a
// panic or a silent wrong answer.
func TestRequesterRejectsShortReply(t *testing.T) {
	rq, sk := corruptedPair(t, func(req, resp *mpc.Message) *mpc.Message {
		if req.Op == OpSM {
			resp.Ints = resp.Ints[:0]
		}
		return resp
	})
	_, err := rq.SM(enc(t, sk, 2), enc(t, sk, 3))
	if !errors.Is(err, ErrBadFrame) {
		t.Errorf("short reply error = %v, want ErrBadFrame", err)
	}
}

// TestRequesterRejectsInvalidCiphertext covers group-membership checks
// on replies: out-of-group values are refused at the boundary.
func TestRequesterRejectsInvalidCiphertext(t *testing.T) {
	rq, sk := corruptedPair(t, func(req, resp *mpc.Message) *mpc.Message {
		if req.Op == OpSM {
			resp.Ints[0] = big.NewInt(0) // 0 is not in Z*_{N²}
		}
		return resp
	})
	_, err := rq.SM(enc(t, sk, 2), enc(t, sk, 3))
	if err == nil || !errors.Is(err, paillier.ErrInvalidCiphertext) {
		t.Errorf("invalid ciphertext error = %v", err)
	}
}

// malformedFrames are request frames C2 must refuse; they also seed
// FuzzResponderFrame.
var malformedFrames = []struct {
	name string
	msg  *mpc.Message
}{
	{"SM odd payload", &mpc.Message{Op: OpSM, Ints: []*big.Int{big.NewInt(1)}}},
	{"SM empty", &mpc.Message{Op: OpSM}},
	{"SM garbage ciphertext", &mpc.Message{Op: OpSM, Ints: []*big.Int{big.NewInt(0), big.NewInt(0)}}},
	{"SBD empty", &mpc.Message{Op: OpSBDLsb}},
	{"SBD verify empty", &mpc.Message{Op: OpSBDVerify}},
	{"SMIN odd payload", &mpc.Message{Op: OpSMIN, Ints: []*big.Int{big.NewInt(1)}}},
	{"SMIN empty", &mpc.Message{Op: OpSMIN}},
}

// TestResponderRejectsMalformedFrames drives C2's validation directly.
func TestResponderRejectsMalformedFrames(t *testing.T) {
	mux := NewResponder(testKey(), nil).Mux()
	for _, tc := range malformedFrames {
		if _, err := mux.Handle(tc.msg); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestPackedFrameBadMiddleGroup: the packed handlers decrypt their slot
// groups and raise the reply's nonces as one fan-out, so a frame whose
// header checks out but whose middle group is outside the ciphertext
// group, or decrypts to more slots than it declares, must still come
// back as that group's error — with every helper goroutine gone by the
// time the handler returns.
func TestPackedFrameBadMiddleGroup(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	sk := testKey()
	rp := NewResponder(sk, nil)
	const vb = 8
	codec, err := paillier.NewPacking(&sk.PublicKey, vb)
	if err != nil {
		t.Fatal(err)
	}
	// group encrypts a slot group of `slots` ones.
	group := func(slots int) *big.Int {
		ones := make([]*big.Int, slots)
		for i := range ones {
			ones[i] = big.NewInt(1)
		}
		ct, err := codec.PackEncrypt(rand.Reader, ones)
		if err != nil {
			t.Fatal(err)
		}
		return ct.Raw()
	}
	const groups = 5
	frames := []struct {
		name  string
		op    mpc.Op
		slots int // per group
		head  []*big.Int
	}{
		{"SMPack", OpSMPack, 2 * (codec.Slots / 2), []*big.Int{big.NewInt(int64(groups * (codec.Slots / 2))), big.NewInt(vb)}},
		{"SBDPackBit", OpSBDPackBit, codec.Slots, []*big.Int{big.NewInt(int64(groups * codec.Slots)), big.NewInt(vb), big.NewInt(3)}},
	}
	bad := []struct {
		name string
		v    *big.Int
		want error
	}{
		{"outside the group", new(big.Int).Set(sk.NSquared), paillier.ErrInvalidCiphertext},
		{"zero", new(big.Int), paillier.ErrInvalidCiphertext},
	}
	for _, fr := range frames {
		for _, b := range bad {
			ints := append([]*big.Int(nil), fr.head...)
			for g := 0; g < groups; g++ {
				if g == groups/2 {
					ints = append(ints, b.v)
				} else {
					ints = append(ints, group(fr.slots))
				}
			}
			before := runtime.NumGoroutine()
			_, err := rp.Mux().Handle(&mpc.Message{Op: fr.op, Ints: ints})
			if !errors.Is(err, b.want) {
				t.Errorf("%s, middle group %s: got %v, want %v", fr.name, b.name, err, b.want)
			}
			// wg.Done runs a moment before a helper's goroutine is gone.
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				runtime.Gosched()
			}
			if after := runtime.NumGoroutine(); after > before {
				t.Errorf("%s, middle group %s: %d goroutines before the frame, %d after", fr.name, b.name, before, after)
			}
		}
	}
	// A short last group that decrypts to more slots than the count
	// leaves it is the codec's range error, found on whichever goroutine
	// took that group.
	ints := []*big.Int{big.NewInt(int64(codec.Slots + 1)), big.NewInt(vb), big.NewInt(0), group(codec.Slots), group(codec.Slots)}
	if _, err := rp.Mux().Handle(&mpc.Message{Op: OpSBDPackBit, Ints: ints}); !errors.Is(err, paillier.ErrPackRange) {
		t.Errorf("overfull last group: got %v, want %v", err, paillier.ErrPackRange)
	}
}

// TestConcurrentRequestersShareOneResponder exercises the parallel
// topology: several requesters with independent connections served by
// one stateless Responder, all multiplying concurrently.
func TestConcurrentRequestersShareOneResponder(t *testing.T) {
	sk := testKey()
	rp := NewResponder(sk, nil)
	const workers, reps = 4, 5
	// Pre-encrypt all inputs on the test goroutine (the enc helper may
	// call t.Fatal, which must not run inside worker goroutines).
	as := make([][]*paillier.Ciphertext, workers)
	bs := make([][]*paillier.Ciphertext, workers)
	for w := 0; w < workers; w++ {
		for i := 0; i < reps; i++ {
			as[w] = append(as[w], enc(t, sk, int64(w+2)))
			bs[w] = append(bs[w], enc(t, sk, int64(i+3)))
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		c1Conn, c2Conn := mpc.ChanPipe()
		go func() {
			_ = mpc.Serve(c2Conn, rp.Mux())
		}()
		wg.Add(1)
		go func(w int, conn mpc.Conn) {
			defer wg.Done()
			defer mpc.SendClose(conn)
			rq := NewRequester(&sk.PublicKey, conn, nil)
			for i := 0; i < reps; i++ {
				got, err := rq.SM(as[w][i], bs[w][i])
				if err != nil {
					errs[w] = err
					return
				}
				m, err := sk.Decrypt(got)
				if err != nil {
					errs[w] = err
					return
				}
				if m.Int64() != int64((w+2)*(i+3)) {
					errs[w] = errors.New("wrong product")
					return
				}
			}
		}(w, c1Conn)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Errorf("worker %d: %v", w, err)
		}
	}
}
