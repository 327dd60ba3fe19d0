package sknn

import (
	"context"
	"crypto/rand"
	"testing"

	"sknn/internal/core"
	"sknn/internal/dataset"
	"sknn/internal/mpc"
	"sknn/internal/paillier"
	"sknn/internal/reference"
	"sknn/internal/smc"
)

// queryRows drives the v2 Query API in the v1 call shape — rows only,
// no deadline — so the pre-existing suites keep their assertions while
// exercising the one query path everything now funnels through.
func queryRows(s *System, q []uint64, k int, mode Mode) ([][]uint64, error) {
	res, err := s.Query(context.Background(), q, WithK(k), WithMode(mode))
	if err != nil {
		return nil, err
	}
	return res.Rows, nil
}

// queryBatchRows is queryRows for batches: results[i] is nil exactly
// when queries[i] failed, like the v1 QueryBatch.
func queryBatchRows(s *System, queries [][]uint64, k int, mode Mode) ([][][]uint64, error) {
	results, err := s.QueryBatch(context.Background(), queries, WithK(k), WithMode(mode))
	if results == nil {
		return nil, err
	}
	rows := make([][][]uint64, len(results))
	for i, r := range results {
		if r != nil {
			rows[i] = r.Rows
		}
	}
	return rows, err
}

// referenceRows answers q with the paper's printed SkNNm
// (internal/reference) over its own encryption of rows under sk, against
// a key cloud of its own: the oracle that shares no engine code with the
// System under test. f is the feature-column count; l follows from it
// and attrBits the way New derives it.
func referenceRows(t *testing.T, sk *paillier.PrivateKey, rows [][]uint64, attrBits, f int, q []uint64, k int) [][]uint64 {
	t.Helper()
	pk := &sk.PublicKey
	table, err := core.EncryptTable(rand.Reader, pk, rows)
	if err != nil {
		t.Fatal(err)
	}
	c1Side, c2Side := mpc.ChanPipe()
	served := make(chan error, 1)
	go func() { served <- core.NewCloudC2(sk, nil).Serve(c2Side) }()
	defer func() {
		if err := mpc.SendClose(c1Side); err != nil {
			t.Errorf("closing reference link: %v", err)
		}
		c1Side.Close()
		if err := <-served; err != nil {
			t.Errorf("reference C2 serve loop: %v", err)
		}
	}()
	bob := core.NewClient(pk, nil)
	eq, err := bob.EncryptQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := reference.SkNNm(smc.NewRequester(pk, c1Side, nil), table.Snapshot().Records, eq, k, dataset.DomainBits(attrBits, f))
	if err != nil {
		t.Fatalf("reference SkNNm: %v", err)
	}
	got, err := bob.Unmask(res)
	if err != nil {
		t.Fatal(err)
	}
	return got
}
