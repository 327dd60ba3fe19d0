package paillier_test

import (
	"bytes"
	"context"
	"crypto/rand"
	"errors"
	"math/big"
	"path/filepath"
	"testing"

	"sknn/internal/core"
	"sknn/internal/dataset"
	"sknn/internal/gateway"
	"sknn/internal/mpc"
	"sknn/internal/paillier"
	"sknn/internal/store"
)

// captureBackend is a gateway tenant backend that keeps the encrypted
// query it is handed and answers nothing.
type captureBackend struct {
	pk  *paillier.PublicKey
	got core.EncryptedQuery
}

var errCaptured = errors.New("captured")

func (b *captureBackend) SecureQuery(context.Context, core.EncryptedQuery, int, int, int) (*core.MaskedResult, *core.SecureMetrics, error) {
	return nil, nil, errCaptured
}
func (b *captureBackend) BasicQuery(_ context.Context, q core.EncryptedQuery, _ int) (*core.MaskedResult, error) {
	b.got = q
	return nil, errCaptured
}
func (b *captureBackend) N() int                  { return 4 }
func (b *captureBackend) Shape() dataset.Shape    { return dataset.Shape{M: 2, FeatureM: 2, AttrBits: 8} }
func (b *captureBackend) PK() *paillier.PublicKey { return b.pk }
func (b *captureBackend) Close() error            { return nil }

// TestEveryKeySourceEncryptsThroughTheComb: whichever way a process
// comes by a key — generating it, rebuilding it from its factors,
// building one from a published modulus, reading a key file, a snapshot header, a shard hello or a gateway
// welcome — the key encrypts and re-randomises through its comb, the
// private key decrypts the result, and no nonce anywhere is raised by a
// full-width exponentiation (each key paid one, for its generator, when
// it was built).
func TestEveryKeySourceEncryptsThroughTheComb(t *testing.T) {
	sk, err := paillier.GenerateKey(rand.Reader, 256)
	if err != nil {
		t.Fatal(err)
	}
	public := map[string]*paillier.PublicKey{"GenerateKey": &sk.PublicKey}
	private := map[string]*paillier.PrivateKey{"GenerateKey": sk}

	if private["NewPrivateKey"], err = paillier.NewPrivateKey(sk.Factors()); err != nil {
		t.Fatal(err)
	}
	if public["NewPublicKey"], err = paillier.NewPublicKey(sk.N); err != nil {
		t.Fatal(err)
	}

	keyPath := filepath.Join(t.TempDir(), "alice.key")
	if err := store.WriteKeyFile(keyPath, sk); err != nil {
		t.Fatal(err)
	}
	if private["store.ReadKeyFile"], err = store.ReadKeyFile(keyPath); err != nil {
		t.Fatal(err)
	}

	table, err := core.EncryptTable(rand.Reader, &sk.PublicKey, [][]uint64{{1, 2}, {3, 4}, {5, 6}, {7, 0}})
	if err != nil {
		t.Fatal(err)
	}
	var snapshot bytes.Buffer
	if err := store.Write(&snapshot, &sk.PublicKey, table.Snapshot()); err != nil {
		t.Fatal(err)
	}
	snap, err := store.Read(&snapshot)
	if err != nil {
		t.Fatal(err)
	}
	public["snapshot header"] = snap.PK

	// A shard worker over the table, its C2 link and its coordinator link
	// both in-process pipes.
	c1ToC2, c2Side := mpc.ChanPipe()
	c2 := core.NewCloudC2(sk, nil)
	c2Done := make(chan error, 1)
	go func() { c2Done <- c2.Serve(c2Side) }()
	c1, err := core.NewCloudC1(table, []mpc.Conn{c1ToC2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	shardServer, err := core.NewShardServer(c1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	coordSide, shardSide := mpc.ChanPipe()
	shardDone := make(chan error, 1)
	go func() { shardDone <- shardServer.Serve(shardSide) }()
	shard, err := core.DialShard(coordSide)
	if err != nil {
		t.Fatal(err)
	}
	public["shard hello"] = shard.PK()

	// A tenant client welcomed by a gateway: its key is reachable only
	// through Query, so the backend keeps what the client encrypted.
	backend := &captureBackend{pk: &sk.PublicKey}
	gw := gateway.NewGateway()
	if err := gw.AddTenant(gateway.TenantConfig{Name: "alice", Token: "token"}, backend); err != nil {
		t.Fatal(err)
	}
	tenantSide, gatewaySide := mpc.ChanPipe()
	gwDone := make(chan error, 1)
	go func() { gwDone <- gw.HandleConn(gatewaySide) }()
	tenant, err := gateway.DialTenant(tenantSide, "alice", "token")
	if err != nil {
		t.Fatal(err)
	}

	raisesBefore := paillier.FullExpRaises()
	decrypts := func(source string, ct *paillier.Ciphertext, want int64) {
		t.Helper()
		if got, err := sk.Decrypt(ct); err != nil || got.Int64() != want {
			t.Errorf("%s: decrypts to %v (err %v), want %d", source, got, err, want)
		}
	}
	for source, pk := range public {
		ct, err := pk.Encrypt(rand.Reader, big.NewInt(41))
		if err != nil {
			t.Fatalf("%s: %v", source, err)
		}
		rr, err := pk.Rerandomize(rand.Reader, ct)
		if err != nil {
			t.Fatalf("%s: %v", source, err)
		}
		if rr.Equal(ct) {
			t.Errorf("%s: Rerandomize returned the identical element", source)
		}
		decrypts(source, ct, 41)
		decrypts(source, rr, 41)
	}
	for source, key := range private {
		ct, err := key.Encrypt(rand.Reader, big.NewInt(43))
		if err != nil {
			t.Fatalf("%s: %v", source, err)
		}
		rr, err := key.Rerandomize(rand.Reader, ct)
		if err != nil {
			t.Fatalf("%s: %v", source, err)
		}
		decrypts(source, rr, 43)
		if got, err := key.Decrypt(rr); err != nil || got.Int64() != 43 {
			t.Errorf("%s: its own Decrypt gives %v (err %v), want 43", source, got, err)
		}
	}
	if _, _, err := tenant.Query(context.Background(), []uint64{5, 9}, 1, false); err == nil {
		t.Error("gateway welcome: the capturing backend answered")
	}
	if len(backend.got) != 2 {
		t.Fatalf("gateway welcome: backend saw %d query ciphertexts, want 2", len(backend.got))
	}
	decrypts("gateway welcome", backend.got[0], 5)
	decrypts("gateway welcome", backend.got[1], 9)
	if raised := paillier.FullExpRaises() - raisesBefore; raised != 0 {
		t.Errorf("%d nonce powers were raised by a full-width Exp", raised)
	}

	// Hang up leaf first; every serve loop ends on its peer's close.
	tenant.Close()
	<-gwDone
	gw.Close()
	shard.Close()
	<-shardDone
	c1.Close()
	<-c2Done
}
