// Command lakectl is the command-line interface to the tablehound
// table-discovery system: generate a synthetic data lake, inspect it,
// run keyword/joinable/unionable searches and navigation over it, and
// regenerate the reproduction experiments indexed in DESIGN.md.
//
// Usage:
//
//	lakectl gen -out DIR [-templates N] [-tables N] [-seed S]
//	lakectl build -lake DIR -o FILE.snap [-shards N]
//	lakectl add -base FILE.snap [-deltas D1,D2] -o DELTA.thdb FILE.csv...
//	lakectl remove -base FILE.snap [-deltas D1,D2] -ids ID1,ID2 -o DELTA.thdb
//	lakectl compact -base FILE.snap -deltas D1,D2 -o NEW.snap
//	lakectl stats -lake DIR | -snapshot FILE.snap [-deltas D1,D2] | -addr HOST:PORT
//	lakectl query <search|vsearch|join|union> -addr HOST:PORT [flags]
//	lakectl search -lake DIR -q "topic keywords" [-k 10]
//	lakectl join -lake DIR -table ID -column NAME [-k 10]
//	lakectl union -lake DIR -table ID [-k 10] [-method tus|santos|starmie]
//	lakectl discover -lake DIR|-addr HOST:PORT -table ID|-values V1,V2
//	        [-relation join|union|any] [-k 10] [-col-names A,B] [-min-rows N]
//	        [-keywords "topic"] [-pred-values V1,V2] [-explain]
//	lakectl navigate -lake DIR -topic WORD
//	lakectl exp ID|all
//
// Every command that builds a discovery system accepts -parallel N
// (construction worker count; 0 = all CPUs, 1 = sequential), -timing
// (print the per-stage build report to stderr), and -snapshot FILE
// (load a prebuilt system from a `lakectl build -o` snapshot instead
// of rebuilding from CSVs) plus -deltas D1,D2 (delta snapshots from
// `lakectl add`/`lakectl remove`, applied on top of -snapshot in
// order; globs allowed), and -vec-mode auto|heap|mmap (how a loaded
// snapshot materializes its shared vector block; mmap is zero-copy).
//
// A lake is a directory of CSV files (one table per file).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"tablehound/internal/core"
	"tablehound/internal/datagen"
	"tablehound/internal/discover"
	"tablehound/internal/exp"
	"tablehound/internal/lake"
	"tablehound/internal/profile"
	"tablehound/internal/table"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "build":
		err = cmdBuild(os.Args[2:])
	case "add":
		err = cmdAdd(os.Args[2:])
	case "remove":
		err = cmdRemove(os.Args[2:])
	case "compact":
		err = cmdCompact(os.Args[2:])
	case "stats":
		err = cmdStats(os.Args[2:])
	case "search":
		err = cmdSearch(os.Args[2:])
	case "join":
		err = cmdJoin(os.Args[2:])
	case "union":
		err = cmdUnion(os.Args[2:])
	case "discover":
		err = cmdDiscover(os.Args[2:])
	case "navigate":
		err = cmdNavigate(os.Args[2:])
	case "vsearch":
		err = cmdVSearch(os.Args[2:])
	case "profile":
		err = cmdProfile(os.Args[2:])
	case "match":
		err = cmdMatch(os.Args[2:])
	case "joinpath":
		err = cmdJoinPath(os.Args[2:])
	case "query":
		err = cmdQuery(os.Args[2:])
	case "memstats":
		err = cmdMemStats(os.Args[2:])
	case "exp":
		err = cmdExp(os.Args[2:])
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "lakectl: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lakectl:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: lakectl <command> [flags]

commands:
  gen       generate a synthetic data lake as a directory of CSVs
  build     build the discovery system and save it as a snapshot file
            (-shards N partitions into N shard snapshots + a manifest)
  add       index new CSV tables as a delta snapshot chained to a base
            (no rebuild; query with -snapshot BASE -deltas DELTA,...)
  remove    tombstone tables as a delta snapshot chained to a base
  compact   fold a delta chain into a fresh full base snapshot
  stats     print catalog statistics for a lake, a snapshot and its
            deltas, or (-addr) a daemon
  query     run a search against a running lakeserved daemon
  search    keyword search over table metadata
  join      find joinable columns for a query column
  union     find unionable tables for a query table
  discover  conditional discovery: seed + relation + predicates,
            compiled into a staged plan (-addr for client mode,
            -explain for the per-stage breakdown)
  navigate  descend the lake organization toward a topic
  vsearch   keyword search over cell values, clustered by schema
  profile   print a table's Auctus-style data profile
  match     align the schemas of two tables
  joinpath  find a chain of joins connecting two tables
  memstats  report per-index memory footprint vs the string forms
  exp       run a reproduction experiment (e1..e23 or "all")`)
}

// buildFlags carries the system-construction flags shared by every
// command that builds a discovery system.
type buildFlags struct {
	parallel *int
	timing   *bool
	snapshot *string
	deltas   *string
	vecMode  *string
}

func addBuildFlags(fs *flag.FlagSet) buildFlags {
	return buildFlags{
		parallel: fs.Int("parallel", 0, "construction workers (0 = all CPUs, 1 = sequential)"),
		timing:   fs.Bool("timing", false, "print per-stage build timing to stderr"),
		snapshot: fs.String("snapshot", "", "load the system from a snapshot file instead of building from -lake"),
		deltas:   fs.String("deltas", "", "comma-separated delta snapshots (globs allowed) applied on top of -snapshot, in order"),
		vecMode:  fs.String("vec-mode", "auto", "snapshot vector materialization: auto | heap | mmap"),
	}
}

func (bf buildFlags) deltaPaths() ([]string, error) { return core.ExpandDeltas(*bf.deltas) }

func (bf buildFlags) options() core.Options {
	return core.Options{
		Parallelism: *bf.parallel,
		VecMode:     *bf.vecMode,
	}
}

func (bf buildFlags) loadCatalog(dir string) (*lake.Catalog, error) {
	if dir == "" {
		return nil, fmt.Errorf("missing -lake directory")
	}
	return lake.LoadCSVDirN(dir, *bf.parallel)
}

func (bf buildFlags) buildSystem(dir string) (*core.System, error) {
	var sys *core.System
	if *bf.snapshot != "" {
		chain, err := bf.deltaPaths()
		if err != nil {
			return nil, err
		}
		sys, err = core.LoadChainFiles(*bf.snapshot, chain, bf.options())
		if err != nil {
			return nil, err
		}
	} else if *bf.deltas != "" {
		return nil, fmt.Errorf("-deltas requires -snapshot (deltas chain onto a base snapshot)")
	} else {
		cat, err := bf.loadCatalog(dir)
		if err != nil {
			return nil, err
		}
		sys, err = core.Build(cat, bf.options())
		if err != nil {
			return nil, err
		}
	}
	if *bf.timing {
		fmt.Fprint(os.Stderr, sys.BuildStats.Report())
	}
	return sys, nil
}

func cmdBuild(args []string) error {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	dir := fs.String("lake", "", "lake directory")
	out := fs.String("o", "", "output snapshot file (required)")
	shards := fs.Int("shards", 1, "partition the lake into N shard snapshots plus a manifest")
	bf := addBuildFlags(fs)
	fs.Parse(args)
	if *out == "" {
		return fmt.Errorf("build: -o is required")
	}
	if *shards > 1 {
		return buildSharded(*dir, *out, *shards, bf)
	}
	start := time.Now()
	sys, err := bf.buildSystem(*dir)
	if err != nil {
		return err
	}
	built := time.Since(start)
	if err := sys.SaveFile(*out); err != nil {
		return err
	}
	fi, err := os.Stat(*out)
	if err != nil {
		return err
	}
	st := sys.Catalog.Stats()
	fmt.Printf("built %d tables (%d columns, %d distinct values) in %v\nwrote %s (%.1f MiB) in %v\n",
		st.Tables, st.Columns, st.DistinctValues, built.Round(time.Millisecond),
		*out, float64(fi.Size())/(1<<20), time.Since(start).Round(time.Millisecond)-built.Round(time.Millisecond))
	return nil
}

// csvTableID derives a table ID from a CSV path the same way
// lake.LoadCSVDir does: base name minus extension, dots to dashes. A
// table added incrementally gets the ID a from-scratch directory build
// would give it.
func csvTableID(path string) string {
	name := filepath.Base(path)
	return strings.ReplaceAll(strings.TrimSuffix(name, filepath.Ext(name)), ".", "-")
}

func cmdAdd(args []string) error {
	fs := flag.NewFlagSet("add", flag.ExitOnError)
	base := fs.String("base", "", "base snapshot file (required)")
	deltas := fs.String("deltas", "", "delta snapshots already chained onto -base, in order (globs allowed)")
	out := fs.String("o", "", "output delta file (required)")
	parallel := fs.Int("parallel", 0, "analysis workers (0 = all CPUs)")
	fs.Parse(args)
	if *base == "" || *out == "" {
		return fmt.Errorf("add: -base and -o are required")
	}
	csvs := fs.Args()
	if len(csvs) == 0 {
		return fmt.Errorf("add: no CSV files given")
	}
	chain, err := core.ExpandDeltas(*deltas)
	if err != nil {
		return err
	}
	tables := make([]*table.Table, 0, len(csvs))
	for _, path := range csvs {
		t, err := table.FromCSVFile(csvTableID(path), path)
		if err != nil {
			return fmt.Errorf("add: load %s: %w", path, err)
		}
		tables = append(tables, t)
	}
	start := time.Now()
	d, err := core.BuildDelta(*base, chain, tables, nil, core.Options{Parallelism: *parallel})
	if err != nil {
		return err
	}
	if err := d.SaveFile(*out); err != nil {
		return err
	}
	fi, err := os.Stat(*out)
	if err != nil {
		return err
	}
	fmt.Printf("delta %s: +%d tables, %d new values, gen %016x -> %016x (%s) in %v\n",
		*out, len(tables), len(d.NewValues), d.ParentGen, d.ResultGen,
		memBytes(fi.Size()), time.Since(start).Round(time.Millisecond))
	return nil
}

func cmdRemove(args []string) error {
	fs := flag.NewFlagSet("remove", flag.ExitOnError)
	base := fs.String("base", "", "base snapshot file (required)")
	deltas := fs.String("deltas", "", "delta snapshots already chained onto -base, in order (globs allowed)")
	ids := fs.String("ids", "", "comma-separated table IDs to remove (required)")
	out := fs.String("o", "", "output delta file (required)")
	fs.Parse(args)
	if *base == "" || *out == "" || *ids == "" {
		return fmt.Errorf("remove: -base, -ids, and -o are required")
	}
	chain, err := core.ExpandDeltas(*deltas)
	if err != nil {
		return err
	}
	var remove []string
	for _, id := range strings.Split(*ids, ",") {
		if id = strings.TrimSpace(id); id != "" {
			remove = append(remove, id)
		}
	}
	d, err := core.BuildDelta(*base, chain, nil, remove, core.Options{})
	if err != nil {
		return err
	}
	if err := d.SaveFile(*out); err != nil {
		return err
	}
	fmt.Printf("delta %s: -%d tables (tombstones), gen %016x -> %016x\n",
		*out, len(d.Tombstones), d.ParentGen, d.ResultGen)
	return nil
}

func cmdCompact(args []string) error {
	fs := flag.NewFlagSet("compact", flag.ExitOnError)
	base := fs.String("base", "", "base snapshot file (required)")
	deltas := fs.String("deltas", "", "delta chain to fold in, in order (required; globs allowed)")
	out := fs.String("o", "", "output snapshot file (required)")
	parallel := fs.Int("parallel", 0, "merge workers (0 = all CPUs)")
	fs.Parse(args)
	if *base == "" || *out == "" {
		return fmt.Errorf("compact: -base and -o are required")
	}
	chain, err := core.ExpandDeltas(*deltas)
	if err != nil {
		return err
	}
	if len(chain) == 0 {
		return fmt.Errorf("compact: -deltas matched no files (nothing to fold)")
	}
	start := time.Now()
	sys, err := core.CompactFiles(*base, chain, *out, core.Options{Parallelism: *parallel})
	if err != nil {
		return err
	}
	fi, err := os.Stat(*out)
	if err != nil {
		return err
	}
	st := sys.Catalog.Stats()
	fmt.Printf("compacted %d deltas into %s: %d tables, gen %016x (%s) in %v\n",
		len(chain), *out, st.Tables, sys.Lineage.Gen,
		memBytes(fi.Size()), time.Since(start).Round(time.Millisecond))
	return nil
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	out := fs.String("out", "", "output directory (required)")
	templates := fs.Int("templates", 8, "number of table templates")
	tables := fs.Int("tables", 5, "tables per template")
	domains := fs.Int("domains", 16, "number of value domains")
	seed := fs.Int64("seed", 1, "generation seed")
	fs.Parse(args)
	if *out == "" {
		return fmt.Errorf("gen: -out is required")
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	gen := datagen.Generate(datagen.Config{
		Seed:              *seed,
		NumDomains:        *domains,
		NumTemplates:      *templates,
		TablesPerTemplate: *tables,
	})
	for _, t := range gen.Tables {
		f, err := os.Create(filepath.Join(*out, t.ID+".csv"))
		if err != nil {
			return err
		}
		if err := t.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	fmt.Printf("wrote %d tables to %s\n", len(gen.Tables), *out)
	return nil
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	dir := fs.String("lake", "", "lake directory")
	addr := fs.String("addr", "", "running lakeserved address (replaces -lake)")
	bf := addBuildFlags(fs)
	fs.Parse(args)
	if *addr != "" {
		return remoteStats(*addr)
	}
	var cat *lake.Catalog
	if *bf.snapshot != "" || *bf.deltas != "" {
		// The catalog a snapshot (and its delta chain) holds: the chain
		// is loaded as every system command loads it.
		sys, err := bf.buildSystem(*dir)
		if err != nil {
			return err
		}
		cat = sys.Catalog
	} else {
		var err error
		if cat, err = bf.loadCatalog(*dir); err != nil {
			return err
		}
	}
	s := cat.Stats()
	fmt.Printf("tables:          %d\ncolumns:         %d\nrows:            %d\ndistinct values: %d\n",
		s.Tables, s.Columns, s.Rows, s.DistinctValues)
	return nil
}

func cmdMemStats(args []string) error {
	fs := flag.NewFlagSet("memstats", flag.ExitOnError)
	dir := fs.String("lake", "", "lake directory")
	bf := addBuildFlags(fs)
	fs.Parse(args)
	sys, err := bf.buildSystem(*dir)
	if err != nil {
		return err
	}
	fmt.Printf("value dictionary: %d distinct values\n", sys.Dict.Size())
	if lin := sys.Lineage; lin.Depth() > 0 {
		fmt.Printf("delta chain:      depth %d, %d tombstones, base gen %016x, live gen %016x\n",
			lin.Depth(), lin.TombstoneCount(), lin.LastCompactGen(), lin.Gen)
		for i, di := range lin.Deltas {
			fmt.Printf("  delta %d: %-32s +%d tables, %d tombstones, %s on disk, gen %016x\n",
				i+1, filepath.Base(di.Path), di.Tables, di.Tombstones, memBytes(di.Bytes), di.Gen)
		}
	}
	if lin := sys.Lineage; lin != nil && len(lin.Folded) > 0 {
		fmt.Printf("already folded:   %d delta file(s) skipped (inside the base; safe to delete):\n", len(lin.Folded))
		for _, p := range lin.Folded {
			fmt.Printf("  %s\n", filepath.Base(p))
		}
	}
	if v := sys.Vecs; v != nil {
		// A merged chain over a mapped base is "mixed": its model rows
		// alias the base's file, its Starmie rows live on the heap.
		residency := v.Residency()
		switch residency {
		case "mmap":
			residency = "mmap (file-backed, zero-copy)"
		case "mixed":
			residency = fmt.Sprintf("mixed (%s on the heap, the rest file-backed)", memBytes(v.HeapBytes()))
		}
		fmt.Printf("vector block:     %d vectors x %d dims in %d segments, %s on disk, residency %s\n",
			v.Count(), v.Dim(), len(v.Segments()), memBytes(v.DataBytes()+v.NormBytes()), residency)
	}
	fmt.Print(sys.MemStats().Report())
	return nil
}

// memBytes renders a byte count like the memstats table does.
func memBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%dB", n)
}

func cmdSearch(args []string) error {
	fs := flag.NewFlagSet("search", flag.ExitOnError)
	dir := fs.String("lake", "", "lake directory")
	q := fs.String("q", "", "query keywords")
	k := fs.Int("k", 10, "results")
	bf := addBuildFlags(fs)
	fs.Parse(args)
	if *q == "" {
		return fmt.Errorf("search: -q is required")
	}
	sys, err := bf.buildSystem(*dir)
	if err != nil {
		return err
	}
	res, err := sys.KeywordSearch(*q, *k)
	if err != nil {
		return err
	}
	for i, r := range res {
		t := sys.Catalog.Table(r.TableID)
		fmt.Printf("%2d. %-20s %6.2f  %s\n", i+1, r.TableID, r.Score, t.Name)
	}
	return nil
}

func cmdJoin(args []string) error {
	fs := flag.NewFlagSet("join", flag.ExitOnError)
	dir := fs.String("lake", "", "lake directory")
	tableID := fs.String("table", "", "query table ID")
	column := fs.String("column", "", "query column name")
	k := fs.Int("k", 10, "results")
	bf := addBuildFlags(fs)
	fs.Parse(args)
	sys, err := bf.buildSystem(*dir)
	if err != nil {
		return err
	}
	t := sys.Catalog.Table(*tableID)
	if t == nil {
		return fmt.Errorf("join: no table %q", *tableID)
	}
	return runPlan(sys, discover.Query{Seed: t, Column: *column, Relation: "join", K: *k}, false)
}

func cmdUnion(args []string) error {
	fs := flag.NewFlagSet("union", flag.ExitOnError)
	dir := fs.String("lake", "", "lake directory")
	tableID := fs.String("table", "", "query table ID")
	k := fs.Int("k", 10, "results")
	method := fs.String("method", "tus", "tus | santos | starmie | d3l")
	bf := addBuildFlags(fs)
	fs.Parse(args)
	sys, err := bf.buildSystem(*dir)
	if err != nil {
		return err
	}
	t := sys.Catalog.Table(*tableID)
	if t == nil {
		return fmt.Errorf("union: no table %q", *tableID)
	}
	return runPlan(sys, discover.Query{Seed: t, Relation: "union", Method: *method, K: *k}, false)
}

func cmdNavigate(args []string) error {
	fs := flag.NewFlagSet("navigate", flag.ExitOnError)
	dir := fs.String("lake", "", "lake directory")
	topic := fs.String("topic", "", "topic keyword")
	bf := addBuildFlags(fs)
	fs.Parse(args)
	if *topic == "" {
		return fmt.Errorf("navigate: -topic is required")
	}
	sys, err := bf.buildSystem(*dir)
	if err != nil {
		return err
	}
	labels, tableID, err := sys.Navigate(*topic)
	if err != nil {
		return err
	}
	fmt.Printf("path:   %s\nreached: %s\n", strings.Join(labels, " > "), tableID)
	return nil
}

func cmdVSearch(args []string) error {
	fs := flag.NewFlagSet("vsearch", flag.ExitOnError)
	dir := fs.String("lake", "", "lake directory")
	q := fs.String("q", "", "query keywords")
	k := fs.Int("k", 10, "max tables")
	bf := addBuildFlags(fs)
	fs.Parse(args)
	if *q == "" {
		return fmt.Errorf("vsearch: -q is required")
	}
	sys, err := bf.buildSystem(*dir)
	if err != nil {
		return err
	}
	clusters, err := sys.ValueSearch(*q, *k)
	if err != nil {
		return err
	}
	for i, cl := range clusters {
		fmt.Printf("cluster %d (score %.2f, schema [%s]):\n", i+1, cl.Score, strings.Join(cl.Schema, ", "))
		for _, id := range cl.TableIDs {
			fmt.Printf("  %s\n", id)
		}
	}
	return nil
}

func cmdProfile(args []string) error {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	dir := fs.String("lake", "", "lake directory")
	tableID := fs.String("table", "", "table ID")
	bf := addBuildFlags(fs)
	fs.Parse(args)
	sys, err := bf.buildSystem(*dir)
	if err != nil {
		return err
	}
	// A profile reads only its own table.
	t := sys.Catalog.Table(*tableID)
	if t == nil {
		return fmt.Errorf("profile: no table %q", *tableID)
	}
	fmt.Print(profile.Build(t).FormatSummary())
	return nil
}

func cmdMatch(args []string) error {
	fs := flag.NewFlagSet("match", flag.ExitOnError)
	dir := fs.String("lake", "", "lake directory")
	src := fs.String("src", "", "source table ID")
	dst := fs.String("dst", "", "target table ID")
	threshold := fs.Float64("threshold", 0.4, "minimum correspondence score")
	bf := addBuildFlags(fs)
	fs.Parse(args)
	sys, err := bf.buildSystem(*dir)
	if err != nil {
		return err
	}
	st := sys.Catalog.Table(*src)
	dt := sys.Catalog.Table(*dst)
	if st == nil || dt == nil {
		return fmt.Errorf("match: tables %q, %q not both found", *src, *dst)
	}
	for _, c := range sys.MatchSchemas(st, dt, *threshold) {
		fmt.Printf("%-20s <-> %-20s %.3f\n", c.Source, c.Target, c.Score)
	}
	return nil
}

func cmdJoinPath(args []string) error {
	fs := flag.NewFlagSet("joinpath", flag.ExitOnError)
	dir := fs.String("lake", "", "lake directory")
	from := fs.String("from", "", "source table ID")
	to := fs.String("to", "", "target table ID")
	hops := fs.Int("hops", 4, "maximum join hops")
	bf := addBuildFlags(fs)
	fs.Parse(args)
	sys, err := bf.buildSystem(*dir)
	if err != nil {
		return err
	}
	path := sys.JoinPath(*from, *to, *hops)
	if path == nil {
		fmt.Printf("no join path from %s to %s within %d hops\n", *from, *to, *hops)
		return nil
	}
	for i, h := range path {
		fmt.Printf("%d. %s  JOIN  %s  (%s, %.2f)\n", i+1, h.FromColumn, h.ToColumn, h.Kind, h.Weight)
	}
	return nil
}

func cmdExp(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("exp: usage: lakectl exp <%s|all>", strings.Join(exp.IDs(), "|"))
	}
	id := strings.ToLower(args[0])
	if id == "all" {
		for _, eid := range exp.IDs() {
			fmt.Println(exp.Registry[eid]())
		}
		return nil
	}
	run, ok := exp.Registry[id]
	if !ok {
		return fmt.Errorf("exp: unknown experiment %q (have %s)", id, strings.Join(exp.IDs(), ", "))
	}
	fmt.Println(run())
	return nil
}
