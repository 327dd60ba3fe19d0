package core

import (
	"context"
	"crypto/rand"
	mrand "math/rand"
	"testing"

	"sknn/internal/dataset"
	"sknn/internal/mpc"
	"sknn/internal/paillier"
	"sknn/internal/testkit"
)

// testKey is the shared 256-bit key for the core suite, drawn from the
// cross-package keyring.
func testKey() *paillier.PrivateKey { return testkit.Key(256) }

// newSystem outsources tbl to a fresh federated cloud — the paper's
// deployment, one C1 worker and one C2, behind the coordinator every
// query enters through — with the given number of C1↔C2 connections per
// link pool and returns the engine plus Bob's client. All goroutines
// and connections are torn down via t.Cleanup.
func newSystem(t *testing.T, tbl *dataset.Table, workers int) (*Engine, *Client) {
	t.Helper()
	sk := testKey()
	return newSystemOver(t, sk, encryptDataset(t, sk, tbl), workers)
}

// encryptDataset outsources tbl under sk at its declared attribute
// width, as sknn.New does, so the table's l is tbl.DomainBits() — the
// domain its queries are drawn from — whatever its widest value.
func encryptDataset(t *testing.T, sk *paillier.PrivateKey, tbl *dataset.Table) *EncryptedTable {
	t.Helper()
	if err := tbl.Validate(); err != nil {
		t.Fatal(err)
	}
	encTable, err := EncryptTable(rand.Reader, &sk.PublicKey, tbl.Rows)
	if err == nil {
		encTable, err = encTable.WithAttrBits(tbl.AttrBits)
	}
	if err != nil {
		t.Fatal(err)
	}
	return encTable
}

// newSystemOver is newSystem for a table already encrypted under sk.
func newSystemOver(t *testing.T, sk *paillier.PrivateKey, encTable *EncryptedTable, workers int) (*Engine, *Client) {
	t.Helper()
	c2 := NewCloudC2(sk, nil)
	return newEngine(t, encTable, 1, func() []mpc.Conn { return pipesTo(t, c2, workers) }), NewClient(&sk.PublicKey, nil)
}

// newEngine is NewEngine with every link pool from links, closed via
// t.Cleanup.
func newEngine(t *testing.T, encTable *EncryptedTable, shards int, links func() []mpc.Conn) *Engine {
	t.Helper()
	e, err := NewEngine(encTable, shards, func() ([]mpc.Conn, error) { return links(), nil })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := e.Close(); err != nil {
			t.Errorf("closing engine: %v", err)
		}
	})
	return e
}

// seedLinks gives every link of e a seeded stream of its own, seeds
// 0, 1, … in engine order: each worker's links in shard order, then the
// coordinator's. With one link per pool, worker i reads seed i and the
// coordinator seed S. NewEngine's hellos carry only N and read no
// randomness, so a session's every draw is a function of the seeds.
func seedLinks(e *Engine) {
	pools := []*linkPool{}
	for _, w := range e.Workers {
		pools = append(pools, w.pool)
	}
	var seed int64
	for _, p := range append(pools, e.ShardedC1.pool) {
		for i := range p.randoms {
			p.randoms[i] = mrand.New(mrand.NewSource(seed))
			seed++
		}
	}
}

// pipeTo returns C1's end of a fresh in-process link to c2. The test
// fails if c2's serve loop ends in an error, and ends only once it has
// returned.
func pipeTo(t *testing.T, c2 *CloudC2) mpc.Conn { return pipeServedBy(t, c2.Serve) }

// pipesTo is n fresh links to c2, one link pool's worth.
func pipesTo(t *testing.T, c2 *CloudC2, n int) []mpc.Conn {
	conns := make([]mpc.Conn, n)
	for i := range conns {
		conns[i] = pipeTo(t, c2)
	}
	return conns
}

// pipeServedBy is pipeTo with the caller's serve loop on the far end: a
// wrapped C2 handler, a tapped conn, a concurrent loop, a shard server.
func pipeServedBy(t *testing.T, serve func(mpc.Conn) error) mpc.Conn {
	near, far := mpc.ChanPipe()
	served := make(chan struct{})
	go func() {
		defer close(served)
		if err := serve(far); err != nil {
			t.Errorf("serve loop: %v", err)
		}
	}()
	t.Cleanup(func() { <-served })
	return near
}

// dialShardPipe serves c1 as shard index of count on a fresh in-process
// link and dials it: the coordinator's RemoteShard and its end of the
// link, which a test closes to sever the shard. Both close via
// t.Cleanup, and the test ends only once the shard's serve loop has.
func dialShardPipe(t *testing.T, c1 *CloudC1, index, count int) (*RemoteShard, mpc.Conn) {
	t.Helper()
	srv, err := NewShardServer(c1, index, count)
	if err != nil {
		t.Fatal(err)
	}
	conn := pipeServedBy(t, srv.Serve)
	t.Cleanup(func() { conn.Close() })
	rsh, err := DialShard(conn)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rsh.Close() })
	return rsh, conn
}

// runBasic executes SkNNb end-to-end and returns Bob's unmasked records.
func runBasic(t *testing.T, c1 *Engine, bob *Client, q []uint64, k int) [][]uint64 {
	t.Helper()
	eq, err := bob.EncryptQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := c1.BasicQuery(context.Background(), eq, k)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := bob.Unmask(res)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// runSecure executes SkNNm end-to-end and returns Bob's unmasked records.
func runSecure(t *testing.T, c1 *Engine, bob *Client, q []uint64, k int) [][]uint64 {
	t.Helper()
	eq, err := bob.EncryptQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := c1.SecureQuery(context.Background(), eq, k, 0)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := bob.Unmask(res)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}
