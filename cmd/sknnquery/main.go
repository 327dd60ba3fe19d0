// Command sknnquery runs end-to-end secure kNN queries, standing up the
// whole federated cloud in-process. It is the interactive face of the
// library and speaks both table formats:
//
//	sknngen -n 200 -m 6 -bits 8 -o data.csv
//	sknnquery -data data.csv -bits 8 -q 17,201,90,44,3,250 -k 5 -mode secure
//
//	sknnd keygen -bits 512 -out t.snap.key
//	sknnd encrypt -key t.snap.key -data data.csv -bits 8 -out t.snap -clusters 14
//	sknnquery -table t.snap -q 17,201,90,44,3,250 -k 5
//
// -data re-runs Alice's setup (key generation + attribute-wise
// encryption) every time; -table loads a snapshot written by sknnd
// encrypt or a previous -save, skipping both — encrypt once, query many.
//
// The table is live: -delete tombstones records by stable id and
// -insert appends freshly encrypted rows (routed obliviously to their
// nearest cluster on an indexed table) before any query runs; -save
// persists the mutated table for the next run.
//
// -mode basic selects SkNNb (fast, leaks to the clouds); -mode secure
// selects SkNNm (full protection). -index clustered prunes SkNNm with
// the clustered secure index (faster, leaks which clusters the query
// touches; -clusters and -coverage tune it). -verify cross-checks the
// result against the plaintext oracle (reconstructed by owner-side
// decryption, so it works on snapshots too).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"sknn"
	"sknn/internal/dataset"
	"sknn/internal/plainknn"
	"sknn/internal/store"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sknnquery: ")
	var (
		dataPath  = flag.String("data", "", "CSV dataset (encrypts from scratch; mutually exclusive with -table)")
		tablePath = flag.String("table", "", "encrypted table snapshot from sknnd encrypt or -save (skips re-encryption)")
		keyPath   = flag.String("key", "", "private key file for -table (default: <table>.key)")
		bits      = flag.Int("bits", 8, "attribute domain size in bits (-data only; snapshots carry their own)")
		queryStr  = flag.String("q", "", "comma-separated query attributes (optional when only mutating with -save)")
		k         = flag.Int("k", 5, "number of neighbors")
		mode      = flag.String("mode", "secure", `protocol: "basic" (SkNNb) or "secure" (SkNNm)`)
		index     = flag.String("index", "", `SkNNm scan strategy: "none" (full scan) or "clustered" (partition-pruned); default "none" for -data, the snapshot's own index for -table`)
		clusters  = flag.Int("clusters", 0, "cluster count for -index clustered (0 = ⌈√n⌉)")
		coverage  = flag.Float64("coverage", 0, "candidate-pool factor for -index clustered (0 = default)")
		keyBits   = flag.Int("keybits", 512, "Paillier key size (-data only)")
		workers   = flag.Int("workers", 1, "parallel C1↔C2 connections per link pool")
		shards    = flag.Int("shards", 0, "split the table across this many in-process shard workers (0 or 1 = one worker holds the whole table)")
		insertStr = flag.String("insert", "", "rows to insert before querying: 'a,b,c;d,e,f'")
		deleteStr = flag.String("delete", "", "stable record ids to delete before querying: '0,5,9'")
		savePath  = flag.String("save", "", "write the (possibly mutated) table snapshot here before exiting")
		verify    = flag.Bool("verify", false, "cross-check against the plaintext oracle")
		timeout   = flag.Duration("timeout", 0, "per-query deadline (e.g. 30s); 0 = none. On expiry the query aborts within one protocol round")
	)
	flag.Parse()

	// Validate every flag before the expensive dataset load and key
	// generation, so a typo costs milliseconds instead of a setup run.
	if (*dataPath == "") == (*tablePath == "") {
		fmt.Fprintln(os.Stderr, "exactly one of -data or -table is required")
		flag.Usage()
		os.Exit(2)
	}
	if *queryStr == "" && *savePath == "" {
		fmt.Fprintln(os.Stderr, "nothing to do: give -q, or mutate with -insert/-delete and -save")
		flag.Usage()
		os.Exit(2)
	}
	var protocolMode sknn.Mode
	switch *mode {
	case "basic":
		protocolMode = sknn.ModeBasic
	case "secure":
		protocolMode = sknn.ModeSecure
	default:
		log.Fatalf(`unknown -mode %q (want "basic" or "secure")`, *mode)
	}
	indexMode := sknn.IndexNone
	switch *index {
	case "", "none":
	case "clustered":
		indexMode = sknn.IndexClustered
	default:
		log.Fatalf(`unknown -index %q (want "none" or "clustered")`, *index)
	}
	if protocolMode == sknn.ModeBasic && indexMode == sknn.IndexClustered {
		log.Fatal(`-index clustered only applies to -mode secure (SkNNb ignores the index)`)
	}
	if *k < 1 {
		log.Fatalf("-k must be ≥ 1, got %d", *k)
	}
	if *workers < 1 {
		log.Fatalf("-workers must be ≥ 1, got %d", *workers)
	}
	if *clusters < 0 {
		log.Fatalf("-clusters must be ≥ 0, got %d", *clusters)
	}
	if *shards < 0 {
		log.Fatalf("-shards must be ≥ 0, got %d", *shards)
	}
	if *coverage < 0 {
		log.Fatalf("-coverage must be ≥ 0, got %g", *coverage)
	}
	if *timeout < 0 {
		log.Fatalf("-timeout must be ≥ 0, got %v", *timeout)
	}
	var q []uint64
	if *queryStr != "" {
		var err error
		q, err = parseQuery(*queryStr)
		if err != nil {
			log.Fatal(err)
		}
	}
	inserts, err := parseRows(*insertStr)
	if err != nil {
		log.Fatal(err)
	}
	deletes, err := parseIDs(*deleteStr)
	if err != nil {
		log.Fatal(err)
	}

	cfg := sknn.Config{
		KeyBits:  *keyBits,
		Workers:  *workers,
		Shards:   *shards,
		Index:    indexMode,
		Clusters: *clusters,
		Coverage: *coverage,
	}
	var sys *sknn.System
	if *tablePath != "" {
		kp := *keyPath
		if kp == "" {
			kp = *tablePath + ".key"
		}
		sk, err := store.ReadKeyFile(kp)
		if err != nil {
			log.Fatal(err)
		}
		f, err := os.Open(*tablePath)
		if err != nil {
			log.Fatal(err)
		}
		sys, err = sknn.LoadTable(f, sk, cfg)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		// The index rides in the file; an explicit contradiction is a
		// privacy decision we must not silently override (the pruned path
		// leaks query-to-cluster linkage a full scan would not).
		if *index == "none" && sys.Index() == sknn.IndexClustered {
			log.Fatal("-index none requested but the snapshot carries a cluster index; " +
				"clustered snapshots are always queried pruned — re-encrypt from CSV " +
				"(sknnquery -data, or sknnd encrypt without -clusters) for a full-scan table")
		}
		fmt.Fprintf(os.Stderr, "loaded %d×%d snapshot (no re-encryption, index %s)\n",
			sys.N(), sys.M(), sys.Index())
	} else {
		f, err := os.Open(*dataPath)
		if err != nil {
			log.Fatal(err)
		}
		tbl, err := dataset.ReadCSV(f, *bits)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "outsourcing %d×%d table (K=%d bits, %d workers, index %s)...\n",
			tbl.N(), tbl.M(), *keyBits, *workers, indexMode)
		sys, err = sknn.New(tbl.Rows, tbl.AttrBits, cfg)
		if err != nil {
			log.Fatal(err)
		}
	}
	defer sys.Close()
	if q != nil && len(q) != sys.FeatureM() {
		log.Fatalf("query has %d attributes, table has %d feature columns", len(q), sys.FeatureM())
	}

	// Mutations: deletes first (ids are stable, so order only matters
	// when deleting a row inserted in the same run).
	for _, id := range deletes {
		if err := sys.Delete(id); err != nil {
			log.Fatal(err)
		}
	}
	for _, row := range inserts {
		id, err := sys.Insert(row)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "inserted record id %d\n", id)
	}
	if len(deletes) > 0 {
		fmt.Fprintf(os.Stderr, "deleted %d records (dirty fraction now %.2f)\n",
			len(deletes), sys.DirtyFraction())
	}

	if q != nil {
		runQuery(sys, q, *k, protocolMode, *verify, *timeout)
	}

	if *savePath != "" {
		f, err := os.Create(*savePath)
		if err != nil {
			log.Fatal(err)
		}
		if err := sys.SaveTable(f); err != nil {
			f.Close()
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "saved %d-record table to %s\n", sys.N(), *savePath)
	}
}

// runQuery answers one query through the v2 context API, prints the
// neighbors, and optionally verifies them against the plaintext oracle
// reconstructed by owner-side decryption (which makes -verify
// independent of any CSV). A positive timeout arms a deadline; on
// expiry the error class is reported by name (sknn.ErrCanceled /
// context.DeadlineExceeded) rather than as an opaque string.
func runQuery(sys *sknn.System, q []uint64, k int, protocolMode sknn.Mode, verify bool, timeout time.Duration) {
	fmt.Fprintf(os.Stderr, "running %s query, k=%d...\n", protocolMode, k)
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	res, err := sys.Query(ctx, q, sknn.WithK(k), sknn.WithMode(protocolMode))
	if err != nil {
		fatalQueryErr(err, timeout)
	}
	rows := res.Rows
	switch protocolMode {
	case sknn.ModeBasic:
		metrics := res.Metrics.Basic
		fmt.Fprintf(os.Stderr, "done in %v (distance %v, rank %v, reveal %v), traffic %s\n",
			metrics.Total.Round(1e6), metrics.Distance.Round(1e6),
			metrics.Rank.Round(1e6), metrics.Reveal.Round(1e6), metrics.Comm)
		fmt.Fprintf(os.Stderr, "record ids: %v\n", res.IDs)
	case sknn.ModeSecure:
		metrics := res.Metrics.Secure
		fmt.Fprintf(os.Stderr, "done in %v (SMINn share %.0f%%, %d SMINs), traffic %s\n",
			metrics.Total.Round(1e6), 100*metrics.SMINnShare(), metrics.SMINCount, metrics.Comm)
		if metrics.Shards > 1 {
			fmt.Fprintf(os.Stderr, "sharded: scattered to %d shards (%v), secure merge %v\n",
				metrics.Shards, metrics.Scatter.Round(1e6), metrics.Merge.Round(1e6))
		}
		if sys.Index() == sknn.IndexClustered {
			fmt.Fprintf(os.Stderr, "index: scanned %d/%d records across %d/%d clusters (full scan: %d SMINs)\n",
				metrics.Candidates, sys.N(), metrics.ClustersProbed, sys.Clusters(), k*(sys.N()-1))
		}
	}

	for i, row := range rows {
		d, err := plainknn.SquaredDistance(row, q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("#%d dist²=%d %v\n", i+1, d, row)
	}

	if verify {
		oracle, err := sys.DecryptTable()
		if err != nil {
			log.Fatal(err)
		}
		want, err := plainknn.KDistances(oracle, q, k)
		if err != nil {
			log.Fatal(err)
		}
		got := make([]uint64, len(rows))
		for i, row := range rows {
			got[i], _ = plainknn.SquaredDistance(row, q)
		}
		// SkNNm ties are returned in random order; compare sorted.
		sortUint64(got)
		ok := true
		for i := range want {
			if got[i] != want[i] {
				ok = false
			}
		}
		if !ok {
			log.Fatalf("VERIFY FAILED: distances %v, oracle %v", got, want)
		}
		fmt.Fprintln(os.Stderr, "verify: matches plaintext oracle")
	}
}

// fatalQueryErr reports a failed query, naming the typed error class
// when the failure was a cancellation or a bad request instead of
// echoing an opaque string.
func fatalQueryErr(err error, timeout time.Duration) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		log.Fatalf("query aborted: sknn.ErrCanceled (context.DeadlineExceeded after -timeout %v)", timeout)
	case errors.Is(err, sknn.ErrCanceled):
		log.Fatalf("query aborted: sknn.ErrCanceled (%v)", err)
	case errors.Is(err, sknn.ErrBadQuery):
		log.Fatalf("query rejected: sknn.ErrBadQuery (%v)", err)
	default:
		log.Fatal(err)
	}
}

func parseQuery(s string) ([]uint64, error) {
	parts := strings.Split(s, ",")
	out := make([]uint64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseUint(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("query attribute %d: %w", i, err)
		}
		out[i] = v
	}
	return out, nil
}

// parseRows parses ';'-separated comma-lists into rows to insert.
func parseRows(s string) ([][]uint64, error) {
	if s == "" {
		return nil, nil
	}
	var out [][]uint64
	for _, part := range strings.Split(s, ";") {
		if strings.TrimSpace(part) == "" {
			continue
		}
		row, err := parseQuery(part)
		if err != nil {
			return nil, fmt.Errorf("-insert: %w", err)
		}
		out = append(out, row)
	}
	return out, nil
}

// parseIDs parses a comma-list of stable record ids.
func parseIDs(s string) ([]uint64, error) {
	if s == "" {
		return nil, nil
	}
	var out []uint64
	for _, part := range strings.Split(s, ",") {
		if strings.TrimSpace(part) == "" {
			continue
		}
		v, err := strconv.ParseUint(strings.TrimSpace(part), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("-delete: %w", err)
		}
		out = append(out, v)
	}
	return out, nil
}

func sortUint64(s []uint64) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
