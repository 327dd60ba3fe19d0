package core

import (
	"crypto/rand"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"sknn/internal/dataset"
	"sknn/internal/mpc"
	"sknn/internal/paillier"
)

// closeTracked is a link that remembers whether it was closed.
type closeTracked struct {
	mpc.Conn
	closed atomic.Bool
}

func (c *closeTracked) Close() error {
	c.closed.Store(true)
	return c.Conn.Close()
}

// TestNewEngineFailureClosesEverything drives NewEngine's failure path at
// S = 3, where it asks pool for four link pools: the three workers', then
// the coordinator's. For every k from 1 to 4 the k-th call either fails
// or hands out a link to a key cloud holding a different key, so that
// pool's hello — NewCloudC1's or NewShardedC1's — fails. NewEngine must
// return the error, having closed every link pool gave it, so that every
// serve loop behind them ends.
func TestNewEngineFailureClosesEverything(t *testing.T) {
	sk := testKey()
	foreign, err := paillier.GenerateKey(rand.Reader, 128)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := dataset.Generate(5, 9, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	encTable, err := EncryptTable(rand.Reader, &sk.PublicKey, tbl.Rows)
	if err != nil {
		t.Fatal(err)
	}
	errPool := errors.New("pool exhausted")
	for _, wrongKey := range []bool{false, true} {
		for k := 1; k <= 4; k++ {
			var served sync.WaitGroup
			var links []*closeTracked
			calls := 0
			e, err := NewEngine(encTable, 3, func() ([]mpc.Conn, error) {
				calls++
				c2 := NewCloudC2(sk, nil)
				if calls == k {
					if !wrongKey {
						return nil, errPool
					}
					c2 = NewCloudC2(foreign, nil)
				}
				c1Side, c2Side := mpc.ChanPipe()
				links = append(links, &closeTracked{Conn: c1Side})
				served.Add(1)
				go func() {
					defer served.Done()
					_ = c2.Serve(c2Side) // a link dropped after a failed hello ends it in an error
				}()
				return []mpc.Conn{links[len(links)-1]}, nil
			})
			if err == nil {
				e.Close()
			}
			if wrongKey && (err == nil || !strings.Contains(err.Error(), ErrHello.Error())) { // C2's refusal, as text
				t.Errorf("wrong key at k=%d: err = %v, want a key mismatch", k, err)
			} else if !wrongKey && !errors.Is(err, errPool) {
				t.Errorf("pool failing at k=%d: err = %v, want the pool's", k, err)
			}
			if calls != k {
				t.Errorf("wrongKey=%v, k=%d: pool called %d times, want %d", wrongKey, k, calls, k)
			}
			for i, link := range links {
				if !link.closed.Load() {
					t.Fatalf("wrongKey=%v, k=%d: link %d left open", wrongKey, k, i)
				}
			}
			served.Wait() // every link closed, so every serve loop ends
		}
	}
}
