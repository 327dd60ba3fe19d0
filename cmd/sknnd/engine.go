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
	coord      *core.ShardedC1
	domainBits int
	clustered  bool   // some shard carries a cluster index
	desc       string // one line for the start-up log
	// worker is the in-process worker holding the table (nil when the
	// shards are dialled); owned is everything to close after the
	// coordinator — the worker, or the shard dials.
	worker *core.CloudC1
	owned  []io.Closer
}

// buildEngine stands an engine up from the topology half of a tenant
// spec (the c1 and coord subcommands fill one in from their flags): a
// whole-table snapshot served by one worker in this process, or shard
// workers to dial, and C2 with Workers connections for every link pool
// this process owns — the local worker's, and the coordinator's for the
// merge and reveal. Dialled workers must agree on the key and on l; the
// coordinator checks the rest of the topology.
func buildEngine(spec tenantSpec) (_ *engine, err error) {
	if (spec.Table == "") == (len(spec.Shards) == 0) {
		return nil, fmt.Errorf(`exactly one of "table" and "shards" must be set`)
	}
	if spec.C2 == "" {
		return nil, fmt.Errorf(`missing "c2" address`)
	}
	workers := max(spec.Workers, 1)
	dialC2 := func() ([]mpc.Conn, error) {
		conns := make([]mpc.Conn, 0, workers)
		for len(conns) < workers {
			conn, err := mpc.DialAuth(spec.C2, spec.C2Token)
			if err != nil {
				for _, c := range conns {
					c.Close()
				}
				return nil, fmt.Errorf("C2 %s: %w", spec.C2, err)
			}
			conns = append(conns, conn)
		}
		return conns, nil
	}
	e := &engine{}
	defer func() {
		if err != nil {
			e.Close()
		}
	}()

	var shards []core.Shard
	var pk *paillier.PublicKey
	if spec.Table != "" {
		snap, err := store.ReadFile(spec.Table)
		if err != nil {
			return nil, err
		}
		table, err := core.RestoreTable(snap.PK, snap.Table)
		if err != nil {
			return nil, err
		}
		conns, err := dialC2()
		if err != nil {
			return nil, err
		}
		c1, err := core.NewCloudC1(table, conns, nil) // owns conns even on failure
		if err != nil {
			return nil, err
		}
		e.worker, e.owned = c1, []io.Closer{c1}
		pk, e.domainBits, e.clustered = snap.PK, snap.DomainBits, table.Clustered()
		shards = []core.Shard{&core.LocalShard{C1: c1, Count: 1}}
		e.desc = fmt.Sprintf("local table %s (clustered=%v)", spec.Table, e.clustered)
	} else {
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
			e.owned = append(e.owned, rs)
			if i == 0 {
				pk, e.domainBits = rs.PK(), rs.DomainBits()
			}
			if rs.PK().N.Cmp(pk.N) != 0 {
				return nil, fmt.Errorf("worker %d serves a different public key", i)
			}
			if rs.DomainBits() != e.domainBits {
				return nil, fmt.Errorf("worker %d disagrees on the distance domain (l=%d vs %d)", i, rs.DomainBits(), e.domainBits)
			}
			e.clustered = e.clustered || rs.Info().Clustered
			flat = append(flat, rs)
		}
		// Workers announcing the same shard index fold into one replicated
		// partition with coordinator-side load balancing and failover;
		// unreplicated deployments pass through unchanged.
		if shards, err = core.GroupReplicas(flat); err != nil {
			return nil, err
		}
		e.desc = fmt.Sprintf("%d workers → %d partitions", len(flat), len(shards))
	}
	mergeConns, err := dialC2()
	if err != nil {
		return nil, err
	}
	if e.coord, err = core.NewShardedC1(shards, mergeConns, pk, nil); err != nil { // owns mergeConns even on failure
		return nil, err
	}
	e.desc += fmt.Sprintf(", C2 at %s, n=%d", spec.C2, e.coord.N())
	return e, nil
}

// Close tears the coordinator down, then what it ran on.
func (e *engine) Close() error {
	var first error
	if e.coord != nil {
		first = e.coord.Close()
	}
	for _, c := range e.owned {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// query answers one query, playing Bob around the engine: encrypt,
// run the protocol mode names, unmask. A positive target selects the
// pruned scan on clustered shards; a positive timeout bounds the whole
// scatter and merge — expiry cancels every outstanding shard scan within
// one protocol round.
func (e *engine) query(base context.Context, bob *core.Client, q []uint64, k int, mode string, target int, timeout time.Duration) ([][]uint64, error) {
	eq, err := bob.EncryptQuery(q)
	if err != nil {
		return nil, err
	}
	ctx, cancel := queryContext(base, timeout)
	defer cancel()
	var res *core.MaskedResult
	switch mode {
	case "basic":
		res, _, err = e.coord.BasicQuery(ctx, eq, k)
	case "secure":
		res, _, err = e.coord.SecureQuery(ctx, eq, k, e.domainBits, target)
	default:
		return nil, fmt.Errorf("unknown -mode %q", mode)
	}
	if err != nil {
		return nil, err
	}
	return bob.Unmask(res)
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
	if e.worker != nil {
		traffic = traffic.Add(e.worker.CommStats())
	}
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
