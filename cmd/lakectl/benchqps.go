package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tablehound/internal/core"
	"tablehound/internal/datagen"
	"tablehound/internal/discover"
	"tablehound/internal/lake"
	"tablehound/internal/table"
)

// cmdBenchQPS builds a discovery system and measures query throughput
// on each search surface under concurrent load. With no -lake it
// generates the same 500-table synthetic lake the Go benchmarks use,
// so numbers are comparable with `make bench-query`.
//
// With -addr the bench runs over HTTP against running lakeserved
// daemons instead: each comma-separated address is benched alone, and
// several addresses get a final aggregate pass driving all of them
// concurrently (per-shard vs fleet throughput). Remote mode takes its
// queries from -q, -values, and -table.
func cmdBenchQPS(args []string) error {
	fs := flag.NewFlagSet("bench-qps", flag.ExitOnError)
	dir := fs.String("lake", "", "lake directory (omit for the 500-table synthetic lake)")
	queries := fs.Int("queries", 200, "queries per surface")
	goroutines := fs.Int("goroutines", 4, "concurrent client goroutines")
	k := fs.Int("k", 10, "top-k per query")
	qpar := fs.Int("qparallel", 1, "per-query scoring workers (0 = all CPUs)")
	addrFlag := fs.String("addr", "", "comma-separated lakeserved addresses (remote mode; replaces -lake)")
	q := fs.String("q", "", "keyword query (remote mode)")
	valuesFlag := fs.String("values", "", "comma-separated join query values (remote mode)")
	tableID := fs.String("table", "", "union query table ID (remote mode)")
	bf := addBuildFlags(fs)
	fs.Parse(args)

	if *addrFlag != "" {
		var addrs []string
		for _, a := range strings.Split(*addrFlag, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
		var values []string
		for _, v := range strings.Split(*valuesFlag, ",") {
			if v = strings.TrimSpace(v); v != "" {
				values = append(values, v)
			}
		}
		return benchRemote(addrs, *queries, *goroutines, *k, *q, values, *tableID)
	}

	var (
		cat  *lake.Catalog
		opts core.Options
		err  error
	)
	if *dir == "" {
		gen := datagen.Generate(datagen.Config{
			Seed:              41,
			NumDomains:        20,
			DomainSize:        80,
			NumTemplates:      10,
			TablesPerTemplate: 50,
		})
		cat = lake.NewCatalog()
		if err := cat.AddBatch(gen.Tables); err != nil {
			return err
		}
		opts = core.Options{KB: gen.BuildKB(0.8), Seed: 7, SkipGraph: true}
	} else {
		cat, err = bf.loadCatalog(*dir)
		if err != nil {
			return err
		}
	}
	opts.Parallelism = *bf.parallel
	opts.QueryParallelism = *qpar

	buildStart := time.Now()
	sys, err := core.Build(cat, opts)
	if err != nil {
		return err
	}
	if *bf.timing {
		fmt.Fprint(os.Stderr, sys.BuildStats.Report())
	}
	fmt.Printf("lake: %d tables, built in %v\n", cat.Len(), time.Since(buildStart).Round(time.Millisecond))
	fmt.Printf("load: %d queries/surface, %d goroutines, k=%d, qparallel=%d\n\n",
		*queries, *goroutines, *k, *qpar)

	tbls := cat.Tables()
	qt := tbls[len(tbls)/2]
	var vals []string
	for _, c := range qt.Columns {
		if c.Type == table.TypeString && len(c.Values) > len(vals) {
			vals = c.Values
		}
	}
	if len(vals) == 0 {
		vals = qt.Columns[0].Values
	}
	kw := qt.Name

	// The ranked surfaces run the way the server runs them: one compiled
	// discover plan per query.
	plan := func(q discover.Query) func() error {
		return func() error { _, err := executePlan(sys, q); return err }
	}
	surfaces := []struct {
		name string
		run  func() error
	}{
		{"keyword", func() error { _, err := sys.KeywordSearch(kw, *k); return err }},
		{"join-overlap", plan(discover.Query{Values: vals, Relation: "join", K: *k})},
		{"containment", plan(discover.Query{Values: vals, Relation: "join", Mode: "containment", K: *k})},
		{"union-tus", plan(discover.Query{Seed: qt, Relation: "union", K: *k})},
	}
	fmt.Printf("%-14s %10s %12s %12s\n", "surface", "queries", "qps", "mean")
	for _, s := range surfaces {
		var next int64
		var wg sync.WaitGroup
		var once sync.Once
		var firstErr error
		start := time.Now()
		for g := 0; g < *goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for atomic.AddInt64(&next, 1) <= int64(*queries) {
					if err := s.run(); err != nil {
						once.Do(func() { firstErr = err })
						return
					}
				}
			}()
		}
		wg.Wait()
		if firstErr != nil {
			return fmt.Errorf("bench-qps: %s: %w", s.name, firstErr)
		}
		elapsed := time.Since(start)
		qps := float64(*queries) / elapsed.Seconds()
		mean := elapsed / time.Duration(*queries)
		fmt.Printf("%-14s %10d %12.1f %12v\n", s.name, *queries, qps, mean.Round(time.Microsecond))
	}
	return nil
}
