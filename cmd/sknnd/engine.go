package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"sknn/internal/core"
	"sknn/internal/mpc"
	"sknn/internal/paillier"
	"sknn/internal/plainknn"
	"sknn/internal/store"
)

// engine is the query engine the c1, coord and gateway subcommands all
// run: a coordinator over one local worker or over dialled shard
// workers, with what a caller needs to put queries to it.
type engine struct {
	// coord is the coordinator, with the in-process worker holding the
	// table when it is local; its CommStats is what this process
	// exchanges with C2.
	coord     *core.Engine
	dials     []io.Closer // the shard workers dialled, closed after coord
	clustered bool        // some shard carries a cluster index
	desc      string      // one line for the start-up log
}

// buildEngine stands an engine up from the topology half of a tenant
// spec (the c1 and coord subcommands fill one in from their flags): a
// whole-table snapshot served by one worker in this process, or shard
// workers to dial, and C2 with Workers connections for every link pool
// this process owns — the local worker's, and the coordinator's for the
// merge and reveal. Dialled workers must agree on the key; the
// coordinator checks the rest of the topology, and the table shape it
// agrees on fixes l.
func buildEngine(spec tenantSpec) (_ *engine, err error) {
	if (spec.Table == "") == (len(spec.Shards) == 0) {
		return nil, fmt.Errorf(`exactly one of "table" and "shards" must be set`)
	}
	if spec.C2 == "" {
		return nil, fmt.Errorf(`missing "c2" address`)
	}
	pool := func() ([]mpc.Conn, error) { return dialC2(spec.C2, spec.C2Token, spec.Workers) }
	if spec.Table != "" {
		snap, table, err := openTable(spec.Table)
		if err != nil {
			return nil, err
		}
		if snap.Sharded() {
			return nil, fmt.Errorf("%s is shard %d of %d, not a whole table; serve it with sknnd shard",
				spec.Table, snap.ShardIndex, snap.ShardCount)
		}
		coord, err := core.NewEngine(table, 1, pool)
		if err != nil {
			return nil, err
		}
		return &engine{coord: coord, clustered: table.Clustered(),
			desc: fmt.Sprintf("local table %s (clustered=%v), C2 at %s, n=%d", spec.Table, table.Clustered(), spec.C2, coord.N())}, nil
	}

	e := &engine{}
	defer func() {
		if err != nil {
			e.Close()
		}
	}()
	var pk *paillier.PublicKey
	flat := make([]core.Shard, 0, len(spec.Shards))
	for i, addr := range spec.Shards {
		addr = strings.TrimSpace(addr)
		conn, err := mpc.DialAuth(addr, spec.ShardToken)
		if err != nil {
			return nil, fmt.Errorf("shard %s: %w", addr, err)
		}
		rs, err := core.DialShard(conn)
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("shard %s: %w", addr, err)
		}
		e.dials = append(e.dials, rs)
		if i == 0 {
			pk = rs.PK()
		}
		if rs.PK().N.Cmp(pk.N) != 0 {
			return nil, fmt.Errorf("worker %d serves a different public key", i)
		}
		e.clustered = e.clustered || rs.Info().Clustered
		flat = append(flat, rs)
	}
	// Workers announcing the same shard index fold into one replicated
	// partition with coordinator-side load balancing and failover;
	// unreplicated deployments pass through unchanged.
	shards, err := core.GroupReplicas(flat)
	if err != nil {
		return nil, err
	}
	mergeConns, err := pool()
	if err != nil {
		return nil, err
	}
	coord, err := core.NewShardedC1(shards, mergeConns, pk, nil) // owns mergeConns even on failure
	if err != nil {
		return nil, err
	}
	e.coord = &core.Engine{ShardedC1: coord}
	e.desc = fmt.Sprintf("%d workers → %d partitions, C2 at %s, n=%d", len(flat), len(shards), spec.C2, coord.N())
	return e, nil
}

// openTable reads the snapshot at path through store.ReadFile — the one
// gate a snapshot passes before a C1 serves it — and restores its table.
// Whether the file must be a whole table or a shard is the caller's
// check.
func openTable(path string) (*store.Snapshot, *core.EncryptedTable, error) {
	snap, err := store.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	table, err := core.RestoreTable(snap.PK, snap.Table)
	if err != nil {
		return nil, nil, err
	}
	return snap, table, nil
}

// dialC2 opens max(workers, 1) connections to C2, closing them all if
// any dial fails.
func dialC2(addr, token string, workers int) ([]mpc.Conn, error) {
	conns := make([]mpc.Conn, 0, max(workers, 1))
	for len(conns) < cap(conns) {
		conn, err := mpc.DialAuth(addr, token)
		if err != nil {
			for _, c := range conns {
				c.Close()
			}
			return nil, fmt.Errorf("C2 %s: %w", addr, err)
		}
		conns = append(conns, conn)
	}
	return conns, nil
}

// Close tears the coordinator down, then what it ran on.
func (e *engine) Close() error {
	var first error
	if e.coord != nil {
		first = e.coord.Close()
	}
	for _, c := range e.dials {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// query answers one query, playing Bob around the engine: admit q
// against the table shape, encrypt, run the protocol mode names, and
// finish — unmask, and for SkNNm, whose answer is a set, rank the rows
// nearest first. An SkNNm query with an attribute outside the table's
// domain is refused before encryption (dataset.ErrValueTooLarge). A
// positive target selects the pruned scan on clustered shards; a
// positive timeout bounds the whole scatter and merge — expiry cancels
// every outstanding shard scan within one protocol round.
func (e *engine) query(base context.Context, bob *core.Client, q []uint64, k int, mode string, target int, timeout time.Duration) ([][]uint64, error) {
	secure := mode == "secure"
	if !secure && mode != "basic" {
		return nil, fmt.Errorf("unknown -mode %q", mode)
	}
	if err := e.coord.Shape().CheckQuery(q, secure); err != nil {
		return nil, err
	}
	eq, err := bob.EncryptQuery(q)
	if err != nil {
		return nil, err
	}
	ctx, cancel := queryContext(base, timeout)
	defer cancel()
	var res *core.MaskedResult
	if secure {
		res, _, err = e.coord.SecureQuery(ctx, eq, k, target)
	} else {
		res, _, err = e.coord.BasicQuery(ctx, eq, k)
	}
	if err != nil {
		return nil, err
	}
	return bob.Finish(q, res, secure)
}

// runQueries is the batch subcommands' query loop: every query answered
// concurrently — at most inflight at once, 0 meaning all of them — and
// printed in query order in the format c1, coord and query share, with
// a throughput and traffic summary on stderr. An operator interrupt
// cancels every in-flight round cleanly; the first failed query ends the
// process.
func (e *engine) runQueries(queries [][]uint64, k int, mode string, coverage float64, inflight int, timeout time.Duration) {
	bob := core.NewClient(e.coord.PK(), nil)
	target := 0
	if e.clustered {
		target = core.CoverageTarget(coverage, k)
		fmt.Fprintf(os.Stderr, "clustered index: pruned SkNNm (pool ≥ %d per shard)\n", target)
	}
	base, stop := signalContext()
	defer stop()
	if inflight <= 0 || inflight > len(queries) {
		inflight = len(queries)
	}
	sem := make(chan struct{}, inflight)
	rows := make([][][]uint64, len(queries))
	errs := make([]error, len(queries))
	start := time.Now()
	var wg sync.WaitGroup
	for i, q := range queries {
		wg.Add(1)
		go func(i int, q []uint64) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			rows[i], errs[i] = e.query(base, bob, q, k, mode, target, timeout)
		}(i, q)
	}
	wg.Wait()
	elapsed := time.Since(start)

	for i, q := range queries {
		if errs[i] != nil {
			fatalQueryErr(i+1, q, errs[i])
		}
		if len(queries) > 1 {
			fmt.Printf("query %d: %v\n", i+1, q)
		}
		printRows(rows[i], q)
	}
	// Traffic is what this process exchanged with C2: the merge and
	// reveal, plus the scans when the worker is local.
	traffic := e.coord.CommStats()
	fmt.Fprintf(os.Stderr, "%d %s queries over %d shards in %v (%.2f QPS), traffic %s\n",
		len(queries), mode, e.coord.Shards(), elapsed.Round(1e6),
		float64(len(queries))/elapsed.Seconds(), traffic)
}

// printRows prints one answer, a neighbor per line with its squared
// distance from q.
func printRows(rows [][]uint64, q []uint64) {
	for j, row := range rows {
		d, _ := plainknn.SquaredDistance(row, q)
		fmt.Printf("#%d dist²=%d %v\n", j+1, d, row)
	}
}
