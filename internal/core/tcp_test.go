package core

import (
	"context"
	"crypto/rand"
	"net"
	"testing"

	"sknn/internal/dataset"
	"sknn/internal/mpc"
)

// TestProtocolsOverTCP runs both protocols through the real wire
// transport (binary frames over loopback TCP) with multiple worker sessions — the
// deployment topology of cmd/sknnd, verified against the oracle.
func TestProtocolsOverTCP(t *testing.T) {
	sk := testKey()
	tbl, err := dataset.Generate(201, 8, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	encTable, err := EncryptTable(rand.Reader, &sk.PublicKey, tbl.Rows)
	if err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	c2 := NewCloudC2(sk, nil)
	acceptDone := make(chan struct{})
	go func() {
		defer close(acceptDone)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				if err := c2.Serve(mpc.WrapNet(conn)); err != nil {
					t.Errorf("C2 session: %v", err)
				}
			}()
		}
	}()

	const workers = 2
	dial := func() []mpc.Conn {
		conns := make([]mpc.Conn, workers)
		for i := range conns {
			conn, err := mpc.Dial(ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			conns[i] = conn
		}
		return conns
	}
	c1, err := NewCloudC1(encTable, dial(), nil)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewShardedC1([]Shard{&LocalShard{C1: c1, Count: 1}}, dial(), &sk.PublicKey, nil)
	if err != nil {
		t.Fatal(err)
	}
	bob := NewClient(&sk.PublicKey, nil)
	q, _ := dataset.GenerateQuery(202, 2, 3)
	eq, err := bob.EncryptQuery(q)
	if err != nil {
		t.Fatal(err)
	}

	// SkNNb over the wire.
	res, _, err := coord.BasicQuery(context.Background(), eq, 3)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := bob.Unmask(res)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesOracle(t, tbl, q, 3, rows)

	// SkNNm over the wire.
	res, _, err = coord.SecureQuery(context.Background(), eq, 2, tbl.DomainBits(), 0)
	if err != nil {
		t.Fatal(err)
	}
	rows, err = bob.Unmask(res)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesOracle(t, tbl, q, 2, rows)

	if c1.CommStats().BytesSent == 0 || coord.CommStats().BytesSent == 0 {
		t.Error("no TCP traffic accounted")
	}
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}
	ln.Close()
	<-acceptDone
}
