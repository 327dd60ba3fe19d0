package main

import (
	"bytes"
	"crypto/rand"
	"fmt"
	"math/big"
	"net"
	"time"

	"sknn/internal/cluster"
	"sknn/internal/core"
	"sknn/internal/mpc"
	"sknn/internal/paillier"
	"sknn/internal/smc"
)

// Micro-loops over the public functions of the lower layers, at the
// benchmark's key size. They run in the traced run only and give the
// per-layer ledger its kernel, codec and sub-protocol lines; each line
// is the median of individually timed iterations, so one preempted
// iteration does not move it.

// microScale sets the iteration counts; the smoke test shrinks them.
type microScale struct {
	kernel int // paillier kernels and ping round trips
	smc    int // SM, SSED, SBOR
	heavy  int // SBD, SMIN, fixed-base set-up, EncryptTable, k-means
	sminn  int // the 16-value tournament
	keygen int
}

var fullMicro = microScale{kernel: 200, smc: 20, heavy: 10, sminn: 3, keygen: 3}

// The sub-protocol loops use the secure_scan record shape.
const (
	microM = 6
	microL = 12
)

// timeEach runs fn iters times and returns the median duration of one
// call; batch > 1 times that many calls together, for operations too
// short to time singly.
func timeEach(iters, batch int, fn func() error) (time.Duration, error) {
	ds := make([]float64, iters)
	for i := range ds {
		start := time.Now()
		for b := 0; b < batch; b++ {
			if err := fn(); err != nil {
				return 0, err
			}
		}
		ds[i] = float64(time.Since(start)) / float64(batch)
	}
	return time.Duration(median(ds)), nil
}

type ledger map[string]float64

func microPaillier(keyPath string, sc microScale, out ledger) error {
	plain, err := loadKey(keyPath)
	if err != nil {
		return err
	}
	pk0 := &plain.PublicKey
	d, err := timeEach(sc.kernel, 1, func() error {
		_, err := pk0.Encrypt(rand.Reader, big.NewInt(1234567))
		return err
	})
	if err != nil {
		return err
	}
	out["paillier.encrypt_plain_us"] = us(d)

	// Fixed-base set-up needs a key without tables each time; only the
	// table build is timed, not the key load.
	fb := make([]float64, sc.heavy)
	for i := range fb {
		fresh, err := loadKey(keyPath)
		if err != nil {
			return err
		}
		start := time.Now()
		if err := fresh.EnableFixedBase(rand.Reader); err != nil {
			return err
		}
		fb[i] = ms(time.Since(start))
	}
	out["paillier.fixedbase_setup_ms"] = median(fb)

	sk, err := loadKey(keyPath)
	if err != nil {
		return err
	}
	if err := sk.EnableFixedBase(rand.Reader); err != nil {
		return err
	}
	pk := &sk.PublicKey
	msg := big.NewInt(1234567)
	ct, err := pk.Encrypt(rand.Reader, msg)
	if err != nil {
		return err
	}
	ct2, err := pk.Encrypt(rand.Reader, big.NewInt(7654321))
	if err != nil {
		return err
	}
	exp, err := pk.RandomZN(rand.Reader)
	if err != nil {
		return err
	}
	codec, err := paillier.NewPacking(pk, microL+1)
	if err != nil {
		return err
	}
	vals := make([]*big.Int, codec.Slots)
	for i := range vals {
		vals[i] = big.NewInt(int64(i + 1))
	}
	packed, err := codec.PackEncrypt(rand.Reader, vals)
	if err != nil {
		return err
	}

	kernels := []struct {
		name  string
		batch int
		fn    func() error
	}{
		{"paillier.encrypt_us", 1, func() error { _, err := pk.Encrypt(rand.Reader, msg); return err }},
		{"paillier.decrypt_us", 1, func() error { _, err := sk.Decrypt(ct); return err }},
		{"paillier.rerandomize_us", 1, func() error { _, err := pk.Rerandomize(rand.Reader, ct); return err }},
		{"paillier.scalarmul_us", 1, func() error { sink = pk.ScalarMul(ct, exp); return nil }},
		{"paillier.add_us", 16, func() error { sink = pk.Add(ct, ct2); return nil }},
		{"paillier.pack_encrypt_us", 1, func() error { _, err := codec.PackEncrypt(rand.Reader, vals); return err }},
		{"paillier.unpack_decrypt_us", 1, func() error { _, err := codec.UnpackDecrypt(sk, packed, len(vals)); return err }},
	}
	for _, k := range kernels {
		d, err := timeEach(sc.kernel, k.batch, k.fn)
		if err != nil {
			return fmt.Errorf("%s: %w", k.name, err)
		}
		out[k.name] = us(d)
	}

	d, err = timeEach(sc.keygen, 1, func() error {
		_, err := paillier.GenerateKey(rand.Reader, pk.Bits())
		return err
	})
	if err != nil {
		return err
	}
	out["paillier.keygen_ms"] = ms(d)
	return nil
}

// sink keeps results alive so the compiler cannot drop the timed call.
var sink *paillier.Ciphertext

// bufPipe is an in-memory byte stream: what Send writes, Recv reads
// back, on one goroutine — the codec with no socket under it.
type bufPipe struct{ bytes.Buffer }

func (*bufPipe) Close() error { return nil }

func ciphertextFrame(pk *paillier.PublicKey, n int) (*mpc.Message, error) {
	msg := &mpc.Message{Op: mpc.OpPing, Tag: 1, Ints: make([]*big.Int, n)}
	for i := range msg.Ints {
		ct, err := pk.Encrypt(rand.Reader, big.NewInt(int64(i)))
		if err != nil {
			return nil, err
		}
		msg.Ints[i] = ct.Raw()
	}
	return msg, nil
}

// pingRTT is the median OpPing echo over conn, served by an empty Mux.
func pingRTT(client mpc.Conn, iters int) (time.Duration, error) {
	req := &mpc.Message{Op: mpc.OpPing, Ints: []*big.Int{big.NewInt(1)}}
	return timeEach(iters, 1, func() error {
		_, err := mpc.RoundTrip(client, req)
		return err
	})
}

func microMPC(pk *paillier.PublicKey, sc microScale, out ledger) error {
	for _, n := range []int{1, 64} {
		msg, err := ciphertextFrame(pk, n)
		if err != nil {
			return err
		}
		pipe := &bufPipe{}
		conn := mpc.WrapNet(pipe)
		frameBytes := 0
		d, err := timeEach(sc.kernel, 1, func() error {
			if err := conn.Send(msg); err != nil {
				return err
			}
			frameBytes = pipe.Len()
			_, err := conn.Recv()
			return err
		})
		if err != nil {
			return err
		}
		out[fmt.Sprintf("mpc.frame%d_codec_us", n)] = us(d)
		if n == 64 {
			out["mpc.socket_bytes_per_ciphertext"] = float64(frameBytes) / float64(n)
		}
	}

	a, b := mpc.ChanPipe()
	done := make(chan error, 1)
	go func() { done <- mpc.Serve(b, mpc.NewMux()) }()
	d, err := pingRTT(a, sc.kernel)
	a.Close()
	if serr := <-done; err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	out["mpc.chanpipe_rtt_us"] = us(d)

	srv, err := serveTCP(func(c net.Conn) { _ = mpc.Serve(mpc.WrapNet(c), mpc.NewMux()) })
	if err != nil {
		return err
	}
	client, err := mpc.Dial(srv.addr())
	if err != nil {
		srv.close()
		return err
	}
	d, err = pingRTT(client, sc.kernel)
	client.Close()
	srv.close()
	if err != nil {
		return err
	}
	out["mpc.loopback_rtt_us"] = us(d)
	return nil
}

// microSMC times each sub-protocol between one Requester and one
// Responder over an in-process pipe, and reads its exact round and byte
// cost off the link's mpc.Stats.
func microSMC(sk *paillier.PrivateKey, sc microScale, out ledger) error {
	c1, c2 := mpc.ChanPipe()
	done := make(chan error, 1)
	go func() { done <- mpc.Serve(c2, smc.NewResponder(sk, nil).Mux()) }()
	err := smcLoops(sk, c1, sc, out)
	c1.Close()
	if serr := <-done; err == nil {
		err = serr
	}
	return err
}

func smcLoops(sk *paillier.PrivateKey, c1 mpc.Conn, sc microScale, out ledger) error {
	pk := &sk.PublicKey
	rq := smc.NewRequester(pk, c1, nil)

	var encErr error
	enc := func(v uint64) *paillier.Ciphertext {
		ct, err := pk.EncryptUint64(rand.Reader, v)
		if err != nil && encErr == nil {
			encErr = err
		}
		return ct
	}
	x, y := make([]*paillier.Ciphertext, microM), make([]*paillier.Ciphertext, microM)
	for i := range x {
		x[i], y[i] = enc(uint64(3+i)), enc(uint64(11-i))
	}
	vals := make([]*paillier.Ciphertext, 16)
	for i := range vals {
		vals[i] = enc(uint64(100 + 37*i))
	}
	zs := []*paillier.Ciphertext{enc(1234), enc(2345)}
	if encErr != nil {
		return encErr
	}

	u, err := rq.SBD(zs[0], microL)
	if err != nil {
		return err
	}
	v, err := rq.SBD(zs[1], microL)
	if err != nil {
		return err
	}

	prims := []struct {
		name  string
		iters int
		cost  bool // also report rounds (and bytes where the issue asks)
		bytes bool
		fn    func() error
	}{
		{"sm", sc.smc, false, false, func() error { _, err := rq.SM(x[0], y[0]); return err }},
		{"ssed", sc.smc, true, false, func() error { _, err := rq.SSED(x, y); return err }},
		{"sbd", sc.heavy, true, true, func() error { _, err := rq.SBD(x[0], microL); return err }},
		{"smin", sc.heavy, true, true, func() error { _, err := rq.SMIN(u, v); return err }},
		{"sminn_values16", sc.sminn, true, false, func() error { _, err := rq.SMINnValues(vals, microL); return err }},
		{"sbor", sc.smc, false, false, func() error { _, err := rq.SBOR(u[0], v[0]); return err }},
	}
	for _, p := range prims {
		before := c1.Stats().Snapshot()
		d, err := timeEach(p.iters, 1, p.fn)
		if err != nil {
			return fmt.Errorf("smc %s: %w", p.name, err)
		}
		delta := c1.Stats().Snapshot().Sub(before)
		out["smc."+p.name+"_ms"] = ms(d)
		if p.cost {
			out["smc."+p.name+"_rounds"] = float64(delta.Rounds) / float64(p.iters)
		}
		if p.bytes {
			out["smc."+p.name+"_bytes"] = float64(delta.BytesSent+delta.BytesReceived) / float64(p.iters)
		}
	}
	return nil
}

// microOwner times the data owner's set-up work on this workload's rows.
func microOwner(sk *paillier.PrivateKey, rows [][]uint64, clusters int, sc microScale, out ledger) error {
	d, err := timeEach(sc.heavy, 1, func() error {
		_, err := core.EncryptTable(rand.Reader, &sk.PublicKey, rows)
		return err
	})
	if err != nil {
		return err
	}
	out["core.encrypt_table_ms"] = ms(d)
	if clusters == 0 {
		clusters = cluster.DefaultClusters(len(rows))
	}
	d, err = timeEach(sc.heavy, 1, func() error {
		_, err := cluster.KMeans(rows, clusters, 1)
		return err
	})
	if err != nil {
		return err
	}
	out["cluster.kmeans_ms"] = ms(d)
	return nil
}

// runMicro fills the workload-independent ledger lines plus the owner
// lines for this workload's table.
func runMicro(keyPath string, sc microScale, rows [][]uint64, clusters int) (ledger, error) {
	out := ledger{}
	if err := microPaillier(keyPath, sc, out); err != nil {
		return nil, err
	}
	sk, err := loadKey(keyPath)
	if err != nil {
		return nil, err
	}
	if err := sk.EnableFixedBase(rand.Reader); err != nil {
		return nil, err
	}
	if err := microMPC(&sk.PublicKey, sc, out); err != nil {
		return nil, err
	}
	if err := microSMC(sk, sc, out); err != nil {
		return nil, err
	}
	if err := microOwner(sk, rows, clusters, sc, out); err != nil {
		return nil, err
	}
	return out, nil
}
