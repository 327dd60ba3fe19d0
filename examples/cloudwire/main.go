// Cloudwire: the federated cloud over real TCP sockets. C2 (the key
// cloud) listens on a loopback port; C1 (the data cloud) dials it, runs
// both protocols over binary wire frames, and reports the measured
// network traffic. This is the same wiring cmd/sknnd uses across
// machines, compressed into one process for a runnable demo.
//
// Usage: go run ./examples/cloudwire
package main

import (
	"context"
	"crypto/rand"
	"fmt"
	"log"
	"net"

	"sknn/internal/core"
	"sknn/internal/dataset"
	"sknn/internal/mpc"
	"sknn/internal/paillier"
)

func main() {
	log.SetFlags(0)

	tbl, err := dataset.Generate(3, 10, 2, 4)
	if err != nil {
		log.Fatal(err)
	}
	q, err := dataset.GenerateQuery(4, 2, 4)
	if err != nil {
		log.Fatal(err)
	}

	sk, err := paillier.GenerateKey(rand.Reader, 256)
	if err != nil {
		log.Fatal(err)
	}

	// C2: the key cloud daemon.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer ln.Close()
	c2 := core.NewCloudC2(sk, nil)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				if err := c2.Serve(mpc.WrapNet(conn)); err != nil {
					log.Printf("C2 session: %v", err)
				}
			}()
		}
	}()
	fmt.Printf("C2 (key cloud) listening on %s\n", ln.Addr())

	// C1: the data cloud dials C2 twice — one link for the worker that
	// holds the encrypted table and scans it, one for the coordinator
	// every query enters through (here with a single shard to gather, so
	// it only reveals). The table remembers how wide its attributes are —
	// EncryptTable saw the plaintext, WithAttrBits widens that to the
	// declared domain — which is what lets SkNNb below run on the packed
	// kernels: one slot-packed ciphertext per record each way for the
	// distances, one row-packed share per neighbour for the reveal.
	encTable, err := core.EncryptTable(rand.Reader, &sk.PublicKey, tbl.Rows)
	if err != nil {
		log.Fatal(err)
	}
	if encTable, err = encTable.WithAttrBits(tbl.AttrBits); err != nil {
		log.Fatal(err)
	}
	dial := func() []mpc.Conn {
		conn, err := mpc.Dial(ln.Addr().String())
		if err != nil {
			log.Fatal(err)
		}
		return []mpc.Conn{conn}
	}
	worker, err := core.NewCloudC1(encTable, dial(), nil)
	if err != nil {
		log.Fatal(err)
	}
	defer worker.Close()
	c1, err := core.NewShardedC1([]core.Shard{&core.LocalShard{C1: worker, Count: 1}}, dial(), &sk.PublicKey, nil)
	if err != nil {
		log.Fatal(err)
	}
	defer c1.Close()

	// Bob queries through the wire.
	bob := core.NewClient(&sk.PublicKey, nil)
	eq, err := bob.EncryptQuery(q)
	if err != nil {
		log.Fatal(err)
	}

	res, bm, err := c1.BasicQuery(context.Background(), eq, 3)
	if err != nil {
		log.Fatal(err)
	}
	rows, err := bob.Unmask(res)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nSkNNb over TCP: %v\n", rows)
	fmt.Printf("  time %v, traffic %s\n", bm.Total.Round(1e6), bm.Comm)

	res, sm, err := c1.SecureQuery(context.Background(), eq, 2, tbl.DomainBits(), 0)
	if err != nil {
		log.Fatal(err)
	}
	rows, err = bob.Unmask(res)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nSkNNm over TCP: %v\n", rows)
	fmt.Printf("  time %v, traffic %s (SMINn share %.0f%%)\n",
		sm.Total.Round(1e6), sm.Comm, 100*sm.SMINnShare())
}
