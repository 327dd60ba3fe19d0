package core

import (
	"context"
	"errors"
	"testing"

	"sknn/internal/dataset"
)

// TestSessionScheduler checks lease widths: idle pools give a query
// every link, busy pools narrow sessions down to one link each.
func TestSessionScheduler(t *testing.T) {
	tbl, _ := dataset.Generate(501, 6, 2, 3)
	c1, _ := newSystem(t, tbl, 4)

	s1, err := c1.Workers[0].NewSession(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if s1.Workers() != 4 {
		t.Errorf("idle-pool session spans %d links, want 4", s1.Workers())
	}
	// One session is already open, so the next auto session gets an even
	// share of the pool: 4/(1+1) = 2 links.
	s2, err := c1.Workers[0].NewSession(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if s2.Workers() != 2 {
		t.Errorf("busy-pool session spans %d links, want 2", s2.Workers())
	}
	// Two open sessions: the next narrows to 4/(2+1) = 1 link.
	s2b, err := c1.Workers[0].NewSession(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if s2b.Workers() != 1 {
		t.Errorf("third session spans %d links, want 1", s2b.Workers())
	}
	s2b.Close()
	s1.Close()
	s2.Close()
	s2.Close() // idempotent
	// Every session closed: the pool is idle again and the next session
	// spans it whole.
	s3, err := c1.Workers[0].NewSession(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if s3.Workers() != 4 {
		t.Errorf("session on a drained pool spans %d links, want 4", s3.Workers())
	}
	s3.Close()
}

// TestSessionReuse runs several queries through one session spanning
// both links of a 2-link pool.
func TestSessionReuse(t *testing.T) {
	tbl, _ := dataset.Generate(511, 8, 2, 3)
	c1, bob := newSystem(t, tbl, 2)
	s, err := c1.Workers[0].NewSession(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Workers() != 2 {
		t.Fatalf("session spans %d links, want 2", s.Workers())
	}
	q, _ := dataset.GenerateQuery(512, 2, 3)
	eq, err := bob.EncryptQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		res, _, err := s.BasicQueryMetered(eq, 3)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := bob.Unmask(res)
		if err != nil {
			t.Fatal(err)
		}
		assertMatchesOracle(t, tbl, q, 3, rows)
	}
	if s.CommStats().Rounds == 0 {
		t.Error("session accounted no rounds")
	}
}

// TestCloudClosedSessions checks the pool refuses leases after Close and
// that Close drains an in-flight session instead of cutting its link.
func TestCloudClosedSessions(t *testing.T) {
	tbl, _ := dataset.Generate(521, 8, 2, 3)
	c1, bob := newSystem(t, tbl, 1)
	q, _ := dataset.GenerateQuery(522, 2, 3)
	eq, err := bob.EncryptQuery(q)
	if err != nil {
		t.Fatal(err)
	}

	s, err := c1.Workers[0].NewSession(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	closeDone := make(chan error, 1)
	queryDone := make(chan error, 1)
	go func() {
		res, _, err := s.BasicQueryMetered(eq, 2)
		if err == nil {
			_, err = bob.Unmask(res)
		}
		s.Close()
		queryDone <- err
	}()
	go func() { closeDone <- c1.Workers[0].Close() }()

	if err := <-queryDone; err != nil {
		t.Errorf("in-flight query during Close: %v", err)
	}
	if err := <-closeDone; err != nil {
		t.Errorf("Close: %v", err)
	}
	if _, err := c1.Workers[0].NewSession(context.Background()); !errors.Is(err, ErrCloudClosed) {
		t.Errorf("NewSession after Close = %v, want ErrCloudClosed", err)
	}
	if _, _, err := c1.BasicQuery(context.Background(), eq, 1); !errors.Is(err, ErrCloudClosed) {
		t.Errorf("query after Close = %v, want ErrCloudClosed", err)
	}
}
