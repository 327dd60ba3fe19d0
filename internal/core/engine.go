package core

import (
	"fmt"

	"sknn/internal/mpc"
)

// Engine is the data cloud stood up in one process: the coordinator
// every query enters through, over S workers each holding one partition
// of the table with its own link pool to C2. Workers[i] owns the record
// ids ≡ i mod S. Its methods are the coordinator's, except CommStats and
// Close, which take in the workers too.
type Engine struct {
	*ShardedC1
	Workers []*CloudC1
}

// NewEngine serves table from shards workers and a coordinator over
// them. One shard serves table as it stands — no copy, and the packed
// renderings it has memoized stay warm; more split it by stable id mod
// shards (TableSnapshot.Split), pure ciphertext-pointer shuffling. Every
// link pool — each worker's in shard order, then the coordinator's —
// comes from one call of pool, and every connection it returns must be
// served by one CloudC2 holding table's key: pool is where a caller
// chooses in-process pipes, dialled sockets or tapped links. On any
// error NewEngine closes every connection it was handed, so the peer's
// serve loops end, and returns the error.
func NewEngine(table *EncryptedTable, shards int, pool func() ([]mpc.Conn, error)) (*Engine, error) {
	tables := []*EncryptedTable{table}
	if shards != 1 {
		parts, err := table.Snapshot().Split(shards)
		if err != nil {
			return nil, fmt.Errorf("core: sharding table: %w", err)
		}
		tables = make([]*EncryptedTable, shards)
		for i, part := range parts {
			if tables[i], err = RestoreTable(table.pk, part); err != nil {
				return nil, fmt.Errorf("core: shard %d table: %w", i, err)
			}
		}
	}
	e := &Engine{}
	fail := func(err error) (*Engine, error) {
		for _, w := range e.Workers {
			w.Close()
		}
		return nil, err
	}
	local := make([]Shard, len(tables))
	for i, t := range tables {
		conns, err := pool()
		if err != nil {
			return fail(fmt.Errorf("core: links of worker %d: %w", i, err))
		}
		w, err := NewCloudC1(t, conns, nil) // owns conns even on failure
		if err != nil {
			return fail(fmt.Errorf("core: worker %d: %w", i, err))
		}
		e.Workers = append(e.Workers, w)
		local[i] = &LocalShard{C1: w, Index: i, Count: len(tables)}
	}
	conns, err := pool()
	if err != nil {
		return fail(fmt.Errorf("core: links of the coordinator: %w", err))
	}
	if e.ShardedC1, err = NewShardedC1(local, conns, table.pk, nil); err != nil { // owns conns even on failure
		return fail(fmt.Errorf("core: coordinator: %w", err))
	}
	return e, nil
}

// CommStats sums the traffic of every link pool: the coordinator's merge
// and reveal, and every worker's scans.
func (e *Engine) CommStats() mpc.StatsSnapshot {
	total := e.ShardedC1.CommStats()
	for _, w := range e.Workers {
		total = total.Add(w.CommStats())
	}
	return total
}

// Close tears the coordinator down, then the workers, each after
// draining its in-flight sessions, and returns the first error.
func (e *Engine) Close() error {
	first := e.ShardedC1.Close()
	for _, w := range e.Workers {
		if err := w.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
