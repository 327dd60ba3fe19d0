package core

import (
	"context"
	"crypto/rand"
	"fmt"
	"sync"
	"testing"

	"sknn/internal/dataset"
	"sknn/internal/mpc"
)

// secureComm runs one SkNNm query and returns the traffic delta.
func secureComm(t *testing.T, tbl *dataset.Table, q []uint64, k int) mpc.StatsSnapshot {
	t.Helper()
	c1, bob := newSystem(t, tbl, 1)
	eq, err := bob.EncryptQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	before := c1.CommStats()
	if _, _, err := c1.SecureQuery(context.Background(), eq, k, 0); err != nil {
		t.Fatal(err)
	}
	return c1.CommStats().Sub(before)
}

// TestSkNNmControlFlowIsDataIndependent pins down the property that
// makes access-pattern hiding possible at all: the number of rounds,
// frames, and ciphertexts SkNNm exchanges depends only on the public
// parameters (n, m, l, k) — never on the data values or the query
// location. A cloud timing or counting messages learns nothing about
// which records are close. (SkNNb and the SVD baseline both fail the
// analogous property: their transcripts name indices/tags outright.)
func TestSkNNmControlFlowIsDataIndependent(t *testing.T) {
	const n, m, bits, k = 6, 2, 3, 2
	tblA, err := dataset.Generate(301, n, m, bits)
	if err != nil {
		t.Fatal(err)
	}
	tblB, err := dataset.Generate(302, n, m, bits) // different data
	if err != nil {
		t.Fatal(err)
	}

	commA := secureComm(t, tblA, []uint64{0, 0}, k) // query at a corner
	commB := secureComm(t, tblA, []uint64{7, 7}, k) // opposite corner
	commC := secureComm(t, tblB, []uint64{3, 4}, k) // different table
	for name, comm := range map[string]mpc.StatsSnapshot{"B": commB, "C": commC} {
		if comm.Rounds != commA.Rounds {
			t.Errorf("run %s: %d rounds vs %d — transcript shape depends on data",
				name, comm.Rounds, commA.Rounds)
		}
		if comm.MessagesSent != commA.MessagesSent || comm.MessagesReceived != commA.MessagesReceived {
			t.Errorf("run %s: message counts differ (%v vs %v)", name, comm, commA)
		}
	}
}

// TestSkNNmCommGrowsWithParamsOnly sanity-checks the complexity model:
// raising k strictly raises the round count (the network sorts chunks of
// k′ = 4 before it merges, where k = 1 only merges), again independent
// of the data.
func TestSkNNmCommGrowsWithParamsOnly(t *testing.T) {
	tbl, err := dataset.Generate(303, 6, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	c1 := secureComm(t, tbl, []uint64{1, 1}, 1)
	c3 := secureComm(t, tbl, []uint64{1, 1}, 3)
	if c3.Rounds <= c1.Rounds {
		t.Errorf("rounds k=3 (%d) not greater than k=1 (%d)", c3.Rounds, c1.Rounds)
	}
}

// transcriptCloud stands up a coordinator over `shards` local workers (one
// worker holding the whole table when shards = 1), every C1↔C2 link tapped
// at C2's end, and returns it with Bob and a function that hands back —
// and then forgets — what each link carried since the last call: one
// entry per frame, the opcode with its direction and element count.
// Links are listed in construction order (each worker's, then the
// coordinator's), so two clouds built alike can be compared link by link.
func transcriptCloud(t *testing.T, tbl *dataset.Table, shards int) (*ShardedC1, *Client, func() [][]string) {
	t.Helper()
	sk := testKey()
	encTable, err := EncryptTable(rand.Reader, &sk.PublicKey, tbl.Rows)
	if err != nil {
		t.Fatal(err)
	}
	c2 := NewCloudC2(sk, nil)
	var wg sync.WaitGroup
	t.Cleanup(wg.Wait) // after the engine's own cleanup has closed every link
	var mu sync.Mutex
	var links [][]string
	coord := newEngine(t, encTable, shards, func() []mpc.Conn {
		c1Side, c2Side := mpc.ChanPipe()
		mu.Lock()
		id := len(links)
		links = append(links, nil)
		mu.Unlock()
		tapped := mpc.Tap(c2Side, func(dir mpc.Direction, m *mpc.Message) {
			mu.Lock()
			defer mu.Unlock()
			links[id] = append(links[id], fmt.Sprintf("%v op=%d ints=%d", dir, m.Op, len(m.Ints)))
		})
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := c2.Serve(tapped); err != nil {
				t.Errorf("C2 serve loop: %v", err)
			}
		}()
		return []mpc.Conn{c1Side}
	})
	take := func() [][]string {
		mu.Lock()
		defer mu.Unlock()
		out := links
		links = make([][]string, len(out))
		return out
	}
	take() // the handshakes
	return coord.ShardedC1, NewClient(&sk.PublicKey, nil), take
}

// TestSkNNmTranscriptShapeIsDataIndependent pins the transcript itself,
// not just its totals: on every C1↔C2 link, the sequence of frames —
// opcode, direction and element count, round by round — is the same for
// two tables and for queries at opposite corners of the domain. It covers
// the shapes where the selection network branches: an odd n, whose last
// chunk is short and drops its gates onto missing wires; k = n, which
// runs no gate at all; k = 3, where k′ = 4 > k and the root sorts and
// drops a wire; and 2- and 3-shard merges, the latter over lists of
// uneven length, one of them a shard smaller than k. An operand count or
// a frame that depended on the data — on which record won a gate — would
// show up here.
func TestSkNNmTranscriptShapeIsDataIndependent(t *testing.T) {
	const m, bits = 2, 3
	cases := []struct {
		name      string
		n, k, shr int
	}{
		{"odd n", 5, 2, 1},
		{"k = n", 4, 4, 1},
		{"k = 3, the root sorts and drops", 7, 3, 1},
		{"2-shard merge", 7, 3, 2},
		{"3-shard merge, uneven lists", 7, 3, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var want [][]string
			for _, run := range []struct {
				seed int64
				q    []uint64
			}{
				{901, []uint64{0, 0}},
				{901, []uint64{7, 7}},
				{902, []uint64{3, 4}},
			} {
				tbl, err := dataset.Generate(run.seed, tc.n, m, bits)
				if err != nil {
					t.Fatal(err)
				}
				coord, bob, take := transcriptCloud(t, tbl, tc.shr)
				eq, err := bob.EncryptQuery(run.q)
				if err != nil {
					t.Fatal(err)
				}
				res, _, err := coord.SecureQuery(context.Background(), eq, tc.k, 0)
				if err != nil {
					t.Fatal(err)
				}
				rows, err := bob.Unmask(res)
				if err != nil {
					t.Fatal(err)
				}
				assertMatchesOracle(t, tbl, run.q, tc.k, rows)
				got := take()
				if want == nil {
					want = got
					continue
				}
				for l := range want {
					if fmt.Sprint(got[l]) != fmt.Sprint(want[l]) {
						t.Errorf("table %d, query %v: link %d carried\n%v\nwant\n%v", run.seed, run.q, l, got[l], want[l])
					}
				}
			}
		})
	}
}
