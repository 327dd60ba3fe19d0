package core

import (
	"context"
	"crypto/rand"
	"sync"
	"testing"

	"sknn/internal/dataset"
	"sknn/internal/mpc"
	"sknn/internal/paillier"
	"sknn/internal/testkit"
)

// testKey is the shared 256-bit key for the core suite, drawn from the
// cross-package keyring.
func testKey() *paillier.PrivateKey { return testkit.Key(256) }

// testCloud is the paper's deployment — one C1, one C2 — the way every
// query reaches it: a one-shard coordinator over the worker holding the
// table. The embedded coordinator answers queries; C1 is the worker,
// for tests that inspect its table, sessions or scans.
type testCloud struct {
	*ShardedC1
	C1 *CloudC1
}

// CommStats sums the worker's scan traffic and the coordinator's.
func (c *testCloud) CommStats() mpc.StatsSnapshot {
	return c.C1.CommStats().Add(c.ShardedC1.CommStats())
}

// newSystem outsources tbl to a fresh federated cloud with the given
// number of C1↔C2 connections per link pool and returns the engine plus
// Bob's client. All goroutines and connections are torn down via
// t.Cleanup.
func newSystem(t *testing.T, tbl *dataset.Table, workers int) (*testCloud, *Client) {
	t.Helper()
	sk := testKey()
	if err := tbl.Validate(); err != nil {
		t.Fatal(err)
	}
	encTable, err := EncryptTable(rand.Reader, &sk.PublicKey, tbl.Rows)
	if err != nil {
		t.Fatal(err)
	}
	return newSystemOver(t, sk, encTable, workers)
}

// newSystemOver is newSystem for a table already encrypted under sk.
func newSystemOver(t *testing.T, sk *paillier.PrivateKey, encTable *EncryptedTable, workers int) (*testCloud, *Client) {
	t.Helper()
	return newObservedSystemOver(t, sk, encTable, workers, nil)
}

// newObservedSystemOver is newSystemOver with every C1↔C2 link, worker's
// and coordinator's, tapped on C1's side by observe (mpc.Tap) unless it
// is nil.
func newObservedSystemOver(t *testing.T, sk *paillier.PrivateKey, encTable *EncryptedTable, workers int, observe func(mpc.Direction, *mpc.Message)) (*testCloud, *Client) {
	t.Helper()
	c2 := NewCloudC2(sk, nil)
	var wg sync.WaitGroup
	newConns := func() []mpc.Conn {
		conns := make([]mpc.Conn, workers)
		for i := range conns {
			c1Side, c2Side := mpc.ChanPipe()
			conns[i] = c1Side
			if observe != nil {
				conns[i] = mpc.Tap(c1Side, observe)
			}
			wg.Add(1)
			go func(conn mpc.Conn) {
				defer wg.Done()
				if err := c2.Serve(conn); err != nil {
					t.Errorf("C2 serve loop: %v", err)
				}
			}(c2Side)
		}
		return conns
	}
	c1, err := NewCloudC1(encTable, newConns(), nil)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewShardedC1([]Shard{&LocalShard{C1: c1, Count: 1}}, newConns(), &sk.PublicKey, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := coord.Close(); err != nil {
			t.Errorf("closing coordinator: %v", err)
		}
		if err := c1.Close(); err != nil {
			t.Errorf("closing C1: %v", err)
		}
		wg.Wait()
	})
	return &testCloud{ShardedC1: coord, C1: c1}, NewClient(&sk.PublicKey, nil)
}

// runBasic executes SkNNb end-to-end and returns Bob's unmasked records.
func runBasic(t *testing.T, c1 *testCloud, bob *Client, q []uint64, k int) [][]uint64 {
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
func runSecure(t *testing.T, c1 *testCloud, bob *Client, q []uint64, k, l int) [][]uint64 {
	t.Helper()
	eq, err := bob.EncryptQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := c1.SecureQuery(context.Background(), eq, k, l, 0)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := bob.Unmask(res)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}
