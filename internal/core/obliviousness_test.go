package core

import (
	"context"
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
	if _, _, err := c1.SecureQuery(context.Background(), eq, k, tbl.DomainBits(), 0); err != nil {
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
// raising k strictly raises the round count (each iteration re-runs
// SMINn + selection + exclusion), again independent of the data.
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
