package core

import (
	"context"
	"errors"
	"testing"

	"sknn/internal/dataset"
)

// TestSessionScheduler checks lease widths: idle pools give a query
// every link, busy pools narrow sessions down to one link each, and an
// explicit width wins over the heuristic.
func TestSessionScheduler(t *testing.T) {
	tbl, _ := dataset.Generate(501, 6, 2, 3)
	c1, _ := newSystem(t, tbl, 4)

	s1, err := c1.C1.NewSession(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Workers() != 4 {
		t.Errorf("idle-pool session spans %d links, want 4", s1.Workers())
	}
	// One session is already open, so the next auto session gets an even
	// share of the pool: 4/(1+1) = 2 links.
	s2, err := c1.C1.NewSession(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Workers() != 2 {
		t.Errorf("busy-pool session spans %d links, want 2", s2.Workers())
	}
	// Two open sessions: the next narrows to 4/(2+1) = 1 link.
	s2b, err := c1.C1.NewSession(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if s2b.Workers() != 1 {
		t.Errorf("third session spans %d links, want 1", s2b.Workers())
	}
	s2b.Close()
	s3, err := c1.C1.NewSession(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if s3.Workers() != 2 {
		t.Errorf("explicit-width session spans %d links, want 2", s3.Workers())
	}
	s4, err := c1.C1.NewSession(context.Background(), 99)
	if err != nil {
		t.Fatal(err)
	}
	if s4.Workers() != 4 {
		t.Errorf("oversized width spans %d links, want 4 (clamped)", s4.Workers())
	}
	s1.Close()
	s2.Close()
	s3.Close()
	s4.Close()
	s4.Close() // idempotent
}

// TestSessionReuse runs several queries through one explicit session.
func TestSessionReuse(t *testing.T) {
	tbl, _ := dataset.Generate(511, 8, 2, 3)
	c1, bob := newSystem(t, tbl, 2)
	s, err := c1.C1.NewSession(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
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
	c1, bob := newSystem(t, tbl, 2)
	q, _ := dataset.GenerateQuery(522, 2, 3)
	eq, err := bob.EncryptQuery(q)
	if err != nil {
		t.Fatal(err)
	}

	s, err := c1.C1.NewSession(context.Background(), 1)
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
	go func() { closeDone <- c1.C1.Close() }()

	if err := <-queryDone; err != nil {
		t.Errorf("in-flight query during Close: %v", err)
	}
	if err := <-closeDone; err != nil {
		t.Errorf("Close: %v", err)
	}
	if _, err := c1.C1.NewSession(context.Background(), 1); !errors.Is(err, ErrCloudClosed) {
		t.Errorf("NewSession after Close = %v, want ErrCloudClosed", err)
	}
	if _, _, err := c1.BasicQuery(context.Background(), eq, 1); !errors.Is(err, ErrCloudClosed) {
		t.Errorf("query after Close = %v, want ErrCloudClosed", err)
	}
}
