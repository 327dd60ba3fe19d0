// Accesspatterns: a wire-level demonstration of the security difference
// between the two protocols. We tap C1's connections to C2 and inspect
// every frame:
//
//   - under SkNNb, the rank reply (opcode 64) carries the top-k record
//     indices IN PLAINTEXT — anyone holding C2's end (or C2 itself)
//     learns exactly which records answer every query, and C2 also
//     decrypts every distance;
//   - under SkNNm, every frame is either a Paillier ciphertext or a
//     uniformly blinded value; the tap (and C2) sees nothing but noise,
//     and no plaintext indices ever cross the wire.
//
// Usage: go run ./examples/accesspatterns
package main

import (
	"context"
	"crypto/rand"
	"fmt"
	"log"
	"sync"

	"sknn/internal/core"
	"sknn/internal/dataset"
	"sknn/internal/mpc"
	"sknn/internal/paillier"
	"sknn/internal/plainknn"
)

func main() {
	log.SetFlags(0)

	tbl, err := dataset.Generate(99, 12, 2, 4)
	if err != nil {
		log.Fatal(err)
	}
	q, err := dataset.GenerateQuery(100, 2, 4)
	if err != nil {
		log.Fatal(err)
	}
	const k = 3

	sk, err := paillier.GenerateKey(rand.Reader, 256)
	if err != nil {
		log.Fatal(err)
	}
	encTable, err := core.EncryptTable(rand.Reader, &sk.PublicKey, tbl.Rows)
	if err != nil {
		log.Fatal(err)
	}

	// Wiretap: record plaintext index lists observed in rank replies and
	// count frames per opcode.
	var leakedIndices [][]int64
	opCount := map[mpc.Op]int{}
	c2 := core.NewCloudC2(sk, nil)
	var done sync.WaitGroup
	// tappedLink is one C1↔C2 link with the wiretap on C1's end.
	// core.NewEngine asks for two: the link of the worker that holds the
	// table and scans it, and the link of the coordinator every query
	// enters through, which here has one shard to gather and so only
	// reveals.
	tappedLink := func() ([]mpc.Conn, error) {
		c1Side, c2Side := mpc.ChanPipe()
		done.Add(1)
		go func() {
			defer done.Done()
			if err := c2.Serve(c2Side); err != nil {
				log.Printf("C2: %v", err)
			}
		}()
		return []mpc.Conn{mpc.Tap(c1Side, func(dir mpc.Direction, m *mpc.Message) {
			opCount[m.Op]++
			if dir == mpc.DirRecv && m.Op == core.OpRank {
				idx := make([]int64, len(m.Ints))
				for i, v := range m.Ints {
					idx[i] = v.Int64()
				}
				leakedIndices = append(leakedIndices, idx)
			}
		})}, nil
	}

	c1, err := core.NewEngine(encTable, 1, tappedLink)
	if err != nil {
		log.Fatal(err)
	}
	bob := core.NewClient(&sk.PublicKey, nil)
	eq, err := bob.EncryptQuery(q)
	if err != nil {
		log.Fatal(err)
	}

	// --- SkNNb ---
	if _, _, err := c1.BasicQuery(context.Background(), eq, k); err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== SkNNb (basic protocol) ===")
	fmt.Printf("frames on the wire by opcode: %v\n", opCount)
	fmt.Printf("PLAINTEXT top-%d indices observed by the tap: %v\n", k, leakedIndices)
	want, _ := plainknn.KNN(tbl.Rows, q, k)
	fmt.Printf("ground truth (what an attacker now knows):     %v\n", wantIdx(want))

	// --- SkNNm ---
	leakedIndices = nil
	opCount = map[mpc.Op]int{}
	if _, _, err := c1.SecureQuery(context.Background(), eq, k, 0); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n=== SkNNm (fully secure protocol) ===")
	fmt.Printf("frames on the wire by opcode: %v\n", opCount)
	fmt.Printf("plaintext indices observed by the tap: %v (opcode %d never used)\n",
		leakedIndices, core.OpRank)
	fmt.Println("every payload is a Paillier ciphertext or a blinded random value;")
	fmt.Println("the records answering the query are never identified on the wire.")

	if err := c1.Close(); err != nil {
		log.Fatal(err)
	}
	done.Wait()
}

func wantIdx(nbrs []plainknn.Neighbor) []int64 {
	out := make([]int64, len(nbrs))
	for i, nb := range nbrs {
		out[i] = int64(nb.Index)
	}
	return out
}
