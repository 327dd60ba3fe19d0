package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"
)

// This file is SkNNm's entry point and its gather. The shards deliver
// their encrypted top-k into a channel the moment each scan completes,
// and the coordinator folds arrivals into an incremental value-domain
// tournament while the stragglers are still scanning: by the time the
// last shard lands, most of the merge is already done and only one fold
// over ~2k candidates remains. (Waiting for every shard first would make
// the gather's wall clock the slowest shard plus the full merge.)
//
// Two properties make the overlap exact rather than approximate. First,
// every fold is the full selection protocol (mergeCandidates — the same
// selectTopK engine the shards ran), so a fold's output is a
// rank-ordered candidate set carrying fresh E(dmin) values that can
// feed the next fold; the final result is therefore the same top-k
// multiset whatever the arrival order. Second, each tournament level
// travels as a constant number of bulk frames
// (smc.SMINValuePairsBatch: l+2 round trips however many pairs), so
// merging s·k candidates costs O(log s) round trips, not O(s·k).
//
// One shard is the degenerate case, not a different path: its single
// rank-ordered k-set is already the answer, so no fold and no tail merge
// run and the coordinator only reveals.
//
// Link lending rides on the same arrival signal: a local shard whose
// scan just finished has an idle pool of C2 links, and the merge is
// exactly the phase that wants more parallelism. The coordinator
// borrows those links (linkPool.lend), attaches one stream per borrowed
// link to its merge session, and reclaims them before the query
// returns. Remote shards keep their links — they terminate on the
// worker's machine, not the coordinator's.
//
// Leakage: completion order is data-dependent timing (a pruned shard
// scan finishes earlier when its clusters prune harder), which both
// clouds can observe from the per-shard traffic anyway; the fold
// schedule reveals nothing beyond that order. Merge frames carry
// composed blinded values, never candidate bit vectors. See
// docs/PROTOCOLS.md.

// shardArrival is one shard scan's result, delivered as it completes.
// at is stamped at delivery, not at absorption: the coordinator may be
// mid-fold when the last shard lands, and the Scatter/Merge split must
// not credit that fold's remainder to the scatter.
type shardArrival struct {
	index int
	cands []Candidate
	sm    *SecureMetrics
	err   error
	at    time.Time
}

// loan records links borrowed from a shard pool, owed back via reclaim.
type loan struct {
	pool *linkPool
	idx  []int
}

// launch starts every shard's scan under sctx and returns the channel
// the results arrive on, one per shard, each the moment its scan
// completes; a failed scan cancels the rest. The channel buffers every
// shard, so scan goroutines never block on delivery: even if the
// coordinator bails early, each sends its (likely canceled) result and
// exits.
//
// Local scans all burn this process's CPUs, so running more of them at
// once than there are cores adds no parallelism — round-robin
// time-slicing only synchronizes their completions into one burst at the
// end, the worst case for a pipeline that wants to fold early arrivals
// while stragglers scan. Capping in-flight local scans at GOMAXPROCS
// keeps the machine exactly as busy and staggers the arrivals. Remote
// shards burn the worker's CPUs, not ours, and are never throttled.
func (c *ShardedC1) launch(sctx context.Context, cancel context.CancelFunc, q EncryptedQuery, k, domainBits, target int, secure bool) <-chan shardArrival {
	arrivals := make(chan shardArrival, len(c.shards))
	localSlots := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i, sh := range c.shards {
		go func(i int, sh Shard) {
			if _, local := sh.Local(); local {
				select {
				case localSlots <- struct{}{}:
					defer func() { <-localSlots }()
				case <-sctx.Done():
					arrivals <- shardArrival{index: i, err: ctxErr(sctx), at: time.Now()}
					return
				}
			}
			cands, sm, err := sh.TopK(sctx, q, k, domainBits, target, secure)
			if err != nil {
				cancel() // one failed shard aborts the whole scatter
			}
			arrivals <- shardArrival{index: i, cands: cands, sm: sm, err: err, at: time.Now()}
		}(i, sh)
	}
	return arrivals
}

// firstFailure keeps the error a failed query reports: a real failure
// beats the knock-on ErrCanceled the surviving shards report after the
// scatter-wide cancel (when the caller itself canceled, every error is
// an ErrCanceled and the first one wins).
func firstFailure(first, err error) error {
	if first == nil || (errors.Is(first, ErrCanceled) && !errors.Is(err, ErrCanceled)) {
		return err
	}
	return first
}

// SecureQuery runs SkNNm (Algorithm 6), the fully secure protocol: data
// confidentiality, query privacy, and access-pattern hiding against both
// clouds. Every shard runs the scan and the k selection rounds over its
// partition — pruned to the nearest clusters' records when the shard is
// clustered and target > 0 (the per-shard candidate-pool floor), full
// otherwise — and the streaming merge below picks the global top-k,
// which the coordinator reveals to Bob via masking.
//
// domainBits is l, the bit length of the squared-distance domain: all
// |Q−tᵢ|² must be strictly below 2^l − 1 (the all-ones disqualification
// sentinel of step 3(e)). dataset.DomainBits derives it — including the
// sentinel headroom bit — from the attribute domain and dimension. Every
// column of every record, payload columns included, must be below
// 2^(l/2): packed SSED slots the feature columns that wide and the row
// layout (rowLayoutFor) every column. A table validated against the
// attrBits that l was derived from satisfies both. l itself must fit
// the key (CheckDomainBits: l ≤ K − 69); anything wider is ErrDomainBits.
//
// The pruned scan trades a documented leak for its speed: C1 learns
// which clusters (not which records) a query touches — the SVD-style
// relaxation of access-pattern hiding. C2's view is unchanged.
//
// The metrics aggregate the query: per-shard counters summed, the
// coordinator's merge traffic in Comm (on top of the shard scans'), and
// the wall clock split at the last shard arrival — Scatter is start→last
// arrival (the folds running inside it are free overlap), Merge is the
// tail the query still pays after the slowest shard. Canceling ctx
// cancels every outstanding shard scan and aborts the merge.
func (c *ShardedC1) SecureQuery(ctx context.Context, q EncryptedQuery, k, domainBits, target int) (*MaskedResult, *SecureMetrics, error) {
	n, err := c.checkArgs(q, k)
	if err != nil {
		return nil, nil, err
	}
	if err := CheckDomainBits(c.pk, domainBits); err != nil {
		return nil, nil, err
	}
	metrics := &SecureMetrics{Shards: c.partitions()}
	start := time.Now()
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()

	arrivals := c.launch(sctx, cancel, q, k, domainBits, target, true)

	// The merge session opens before the first arrival so fold one can
	// start the instant the second shard lands. Unwind order matters:
	// the session's streams — including those on borrowed links — close
	// before the loans are reclaimed, and the scatter context dies last.
	var loans []loan
	defer func() {
		for _, ln := range loans {
			ln.pool.reclaim(ln.idx)
		}
	}()
	s, err := c.mergeSession(sctx)
	if err != nil {
		return nil, nil, err
	}
	defer s.Close()

	var pending [][]Candidate // arrived or folded candidate sets, oldest first
	var firstErr error
	total := 0 // candidates gathered before any folding
	mm := &SecureMetrics{}
	lastArrival := start

	absorb := func(arr shardArrival) {
		if arr.err != nil {
			firstErr = firstFailure(firstErr, fmt.Errorf("core: shard %d scan: %w", arr.index, arr.err))
			return
		}
		if arr.at.After(lastArrival) {
			lastArrival = arr.at
		}
		if arr.sm != nil {
			metrics.add(arr.sm)
		}
		if len(arr.cands) > 0 {
			pending = append(pending, arr.cands)
			total += len(arr.cands)
		}
		// A lone shard leaves nothing to merge, so nothing to widen.
		if firstErr == nil && len(c.shards) > 1 {
			if lender, _ := c.shards[arr.index].Local(); lender != nil {
				c.borrowFrom(s, lender.pool, &loans)
			}
		}
	}

	for received := 0; received < len(c.shards); {
		arr := <-arrivals
		received++
		absorb(arr)
		// Fold while shards are still out: each pass merges everything
		// pending down to one top-k set, draining any arrivals that
		// landed mid-fold first so a burst coalesces into one larger
		// (cheaper per candidate) tournament. Folding is lazy — a
		// tournament costs k selection rounds however few candidates it
		// covers, so small backlogs wait for company — except once only
		// one shard is still out: collapsing the backlog then guarantees
		// the post-arrival tail is a ~2k-candidate fold however the last
		// scan lands.
		for firstErr == nil {
			for drained := true; drained && received < len(c.shards); {
				select {
				case arr := <-arrivals:
					received++
					absorb(arr)
				default:
					drained = false
				}
			}
			if received >= len(c.shards) || len(pending) < 2 {
				break
			}
			if len(pending) < 3 && received < len(c.shards)-1 {
				break
			}
			union := make([]Candidate, 0, total)
			for _, p := range pending {
				union = append(union, p...)
			}
			kk := k
			if kk > len(union) {
				kk = len(union)
			}
			folded, err := s.mergeCandidates(union, kk, domainBits, mm)
			if err != nil {
				firstErr = firstFailure(firstErr, fmt.Errorf("core: merge fold: %w", err))
				cancel()
				break
			}
			pending = append(pending[:0], folded)
		}
	}
	if firstErr != nil {
		return nil, nil, firstErr
	}
	metrics.Scatter = lastArrival.Sub(start)
	if err := c.checkGathered(k, total, n); err != nil {
		return nil, nil, err
	}

	// Tail merge: one fold over whatever is still pending (at most the
	// last arrival against the running fold, ~2k candidates when the
	// arrivals spread out). Skipped when the pipeline already holds a
	// single rank-ordered set of exactly k.
	union := pending[0]
	for _, p := range pending[1:] {
		union = append(union, p...)
	}
	selected := union
	if len(pending) > 1 || len(union) > k {
		selected, err = s.mergeCandidates(union, k, domainBits, mm)
		if err != nil {
			return nil, nil, fmt.Errorf("core: merge: %w", err)
		}
	}
	metrics.add(mm)

	phase := time.Now()
	res, err := s.reveal(candidateRecords(selected), s.rowLayout(domainBits))
	if err != nil {
		return nil, nil, err
	}
	metrics.Reveal = time.Since(phase)
	metrics.Merge = time.Since(lastArrival)
	metrics.Total = time.Since(start)
	metrics.Comm = metrics.Comm.Add(s.CommStats())
	return res, metrics, nil
}

// borrowFrom moves a finished local shard's idle C2 links under the
// merge session: one new stream per borrowed link, widening every
// subsequent fold's parallelOverRecords fan-out. Only called between
// folds on the single merge goroutine, so attaching is race-free. Links
// whose stream fails to open go straight back; the rest are owed to the
// shard pool until the query's unwind reclaims them (after the session
// closed their streams). Shards without a lender never reach here —
// a remote worker's links terminate on its machine, so there is nothing
// transferable.
func (c *ShardedC1) borrowFrom(s *QuerySession, pool *linkPool, loans *[]loan) {
	idx, links := pool.lend(pool.workers())
	if len(idx) == 0 {
		return
	}
	kept := idx[:0]
	for j, link := range links {
		conn, err := link.OpenContext(s.ctx)
		if err != nil {
			pool.reclaim([]int{idx[j]})
			continue
		}
		s.attach(conn)
		kept = append(kept, idx[j])
	}
	if len(kept) > 0 {
		*loans = append(*loans, loan{pool: pool, idx: kept})
	}
}
