// The index-construction pipeline: its stage list, the one stage table
// every way of making a System runs (Build, a load's rebuild-on-load
// half, a delta merge, delta analysis), and the per-stage timing record
// attached to every System. See DESIGN.md "Build pipeline & concurrency
// contracts" for the stage DAG and the types each stage may share.
package core

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"time"

	"tablehound/internal/aurum"
	"tablehound/internal/join"
	"tablehound/internal/keyword"
	"tablehound/internal/navigation"
	"tablehound/internal/parallel"
	"tablehound/internal/starmie"
	"tablehound/internal/union"
)

// Stage indices. stageModel and stageDict are the shared dependencies
// and always run first (model, then the value dictionary); every other
// stage reads only the catalog, the trained model, the dictionary, and
// the optional KB, so the scheduler may run them in any order or
// concurrently.
const (
	stageModel = iota
	stageDict
	stageKeyword
	stageJoin
	stageFuzzy
	stageTUS
	stageSantos
	stageD3L
	stageStarmie
	stageOrg
	stageGraph
	stageStats
	stageVecs
	numStages
)

var stageNames = [numStages]string{
	"model", "dict", "keyword", "join", "fuzzy", "tus", "santos", "d3l",
	"starmie", "org", "graph", "stats", "vecs",
}

// Stage subsets: what a load rebuilds over a decoded snapshot, and what
// delta analysis runs over the tables a delta adds.
var (
	derivedStages = []int{stageFuzzy, stageStats}
	engineStages  = []int{stageJoin, stageTUS, stageSantos, stageD3L, stageStarmie}
)

// loadedItems is StageTiming.Items of a stage a load decoded.
const loadedItems = -1

// storedStages are the stages whose state snapshot sections hold: a
// load decodes them and derives derivedStages, so the two lists are
// every stage.
var storedStages = []int{stageModel, stageDict, stageKeyword, stageJoin, stageTUS,
	stageSantos, stageD3L, stageStarmie, stageOrg, stageGraph, stageVecs}

// stage is one entry of the stage table: it reads the system's shared
// foundations (catalog, model, dictionary, KB) and writes one System
// field, so the stages may run in any order or at once.
type stage struct {
	id   int
	skip bool
	run  func() (int, error)
}

// pipeline is one run of the stage table over a system whose Catalog,
// Model, Dict, KB and BuildStats are set.
type pipeline struct {
	s    *System
	opts Options
	// parts, when non-nil, are a delta merge's folded per-engine parts:
	// the five engine stages reassemble from them instead of analysing
	// the catalog's tables.
	parts *mergedParts
	// partsOnly marks delta analysis: the engine stages take the tables
	// only as far as each engine's Parts needs, and a join engine with
	// no column to index stays nil instead of failing the run.
	partsOnly bool
}

// run runs the stages named by ids on a pool of opts.Parallelism
// workers in table order (exactly sequentially at Parallelism 1),
// recording each in s.BuildStats; a stage the options skip is marked
// skipped whether named or not. With no ids it runs the whole table and
// then the vector store, which must observe every stage. Serving
// systems' engines then take the per-query fan-out budget: this is the
// one place it is handed to them.
func (p pipeline) run(ids ...int) error {
	s, stats := p.s, p.s.BuildStats
	var todo []stage
	for _, st := range p.stages() {
		switch {
		case st.skip:
			stats.skip(st.id)
		case len(ids) == 0 || slices.Contains(ids, st.id):
			todo = append(todo, st)
		}
	}
	if err := parallel.ForEach(len(todo), p.opts.Parallelism, func(i int) error {
		return stats.time(todo[i].id, todo[i].run)
	}); err != nil {
		return err
	}
	if len(ids) == 0 {
		if err := stats.time(stageVecs, func() (int, error) { return buildVecStore(s, p.opts) }); err != nil {
			return err
		}
	}
	if !p.partsOnly {
		q := p.opts.QueryParallelism
		s.Join.QueryParallelism, s.TUS.QueryParallelism, s.Santos.QueryParallelism = q, q, q
		if s.Fuzzy != nil {
			s.Fuzzy.QueryParallelism = q
		}
	}
	return nil
}

// stages returns the stage table over s's catalog, in stage-ID order.
func (p pipeline) stages() []stage {
	s, opts, tables := p.s, p.opts, p.s.Catalog.Tables()
	return []stage{
		{stageKeyword, false, func() (int, error) {
			// Keyword search over metadata and over cell values
			// (OCTOPUS-style).
			s.Keyword, s.Values = keyword.NewIndex(tables), keyword.NewValueIndex(tables)
			return len(tables), nil
		}},
		{stageJoin, false, p.join},
		{stageFuzzy, opts.SkipFuzzy, func() (int, error) {
			return buildFuzzy(s, tables, opts)
		}},
		{stageTUS, false, p.tus},
		{stageSantos, false, p.santos},
		{stageD3L, false, p.d3l},
		{stageStarmie, false, p.starmie},
		{stageOrg, opts.SkipOrganization, func() (int, error) {
			s.Org = navigation.Organize(tables, s.Model, navigation.Config{Fanout: orgFanout, Seed: opts.Seed})
			return len(tables), nil
		}},
		{stageGraph, opts.SkipGraph, func() (int, error) {
			// Aurum-style discovery graph for linkage navigation and
			// join paths. Lakes without usable string columns simply
			// have none (the build error is deliberately swallowed).
			if g, err := aurum.Build(tables, aurum.Config{}); err == nil {
				s.Graph = g
			}
			return len(tables), nil
		}},
		{stageStats, false, func() (int, error) {
			// Catalog statistics for the discover planner's cost model.
			s.Stats = BuildCatalogStats(tables)
			return len(tables), nil
		}},
	}
}

// join builds the joinable-search engine: exact overlap and
// containment indexes, encoded against the lake dictionary.
func (p pipeline) join() (int, error) {
	s := p.s
	var eng *join.Engine
	var err error
	if mp := p.parts; mp != nil {
		eng, err = join.NewEngineFromParts(s.Dict, mp.joinSets, mp.numHashes, mp.numPartitions, p.opts.Parallelism)
	} else {
		jb := join.NewBuilder(minJoinCardinality)
		jb.UseDict(s.Dict)
		for _, t := range s.Catalog.Tables() {
			jb.AddTable(t)
		}
		if p.partsOnly && jb.NumStaged() == 0 {
			return 0, nil
		}
		eng, err = jb.Build()
	}
	if err != nil {
		return 0, fmt.Errorf("core: join index: %w", err)
	}
	s.Join = eng
	return eng.NumColumns(), nil
}

// tus builds the TUS union engine; column analysis fans out per table,
// and its Parts encode what AddTables staged.
func (p pipeline) tus() (int, error) {
	s := p.s
	cfg := union.TUSConfig{Model: s.Model, KB: s.KB, Dict: s.Dict, NumHashes: 128}
	var tus *union.TUS
	var err error
	if p.parts != nil {
		tus, err = union.NewTUSFromParts(cfg, p.parts.tus, s.Catalog.Table)
	} else if tus, err = union.NewTUS(cfg); err == nil {
		tus.AddTables(s.Catalog.Tables(), p.opts.Parallelism)
		if !p.partsOnly {
			err = tus.Build()
		}
	}
	if err != nil {
		return 0, err
	}
	s.TUS = tus
	return tus.NumTables(), nil
}

// santos builds the SANTOS union engine. It has nothing to freeze
// without a table, and its Parts read what AddTable staged.
func (p pipeline) santos() (int, error) {
	s := p.s
	var santos *union.Santos
	var err error
	if p.parts != nil {
		santos, err = union.NewSantosFromParts(s.KB, p.parts.santos, s.Catalog.Table)
	} else {
		santos = union.NewSantos(s.KB)
		for _, t := range s.Catalog.Tables() {
			santos.AddTable(t)
		}
		if santos.NumTables() > 0 && !p.partsOnly {
			err = santos.Build()
		}
	}
	if err != nil {
		return 0, err
	}
	s.Santos = santos
	return santos.NumTables(), nil
}

// d3l builds the D3L union engine; its Parts read what AddTable staged.
func (p pipeline) d3l() (int, error) {
	s := p.s
	var d3l *union.D3L
	var err error
	if p.parts != nil {
		d3l, err = union.NewD3LFromParts(s.Model, s.Dict, p.parts.d3l, s.Catalog.Table)
	} else if d3l, err = union.NewD3L(s.Model, s.Dict); err == nil {
		for _, t := range s.Catalog.Tables() {
			d3l.AddTable(t)
		}
		if !p.partsOnly {
			d3l.Build()
		}
	}
	if err != nil {
		return 0, err
	}
	s.D3L = d3l
	return d3l.NumTables(), nil
}

// starmie builds the Starmie contextual-retrieval index: encoding fans
// out per table, and its Parts read the staged vectors.
func (p pipeline) starmie() (int, error) {
	s := p.s
	enc := starmie.NewEncoder(s.Model, contextWeight)
	var ix *starmie.Index
	var err error
	if p.parts != nil {
		ix, err = starmie.NewIndexFromParts(enc, p.parts.starmie, s.Catalog.Table)
	} else {
		ix = starmie.NewIndex(enc)
		ix.AddTables(s.Catalog.Tables(), p.opts.Parallelism)
		if !p.partsOnly {
			err = ix.Build()
		}
	}
	if err != nil {
		return 0, err
	}
	s.Starmie = ix
	return ix.NumColumns(), nil
}

// StageTiming records one pipeline stage's work.
type StageTiming struct {
	Name    string
	Skipped bool
	// Items is the stage's unit count: tables for per-table stages,
	// columns for column indexes; loadedItems (-1) for a stage whose
	// state was decoded from a snapshot rather than built, whose Wall
	// is then zero.
	Items int
	// Wall is the stage's own elapsed time. Stages overlap when
	// Parallelism > 1, so stage walls can sum to more than Total.
	Wall time.Duration
}

// BuildStats is the observability record of one System construction —
// what each pipeline stage did and how long it took.
type BuildStats struct {
	// Parallelism is the worker budget the build ran with.
	Parallelism int
	// Total is the end-to-end build wall time.
	Total time.Duration
	// Stages lists every stage in canonical order (model first).
	Stages []StageTiming
}

func newBuildStats(parallelism int) *BuildStats {
	bs := &BuildStats{Parallelism: parallelism, Stages: make([]StageTiming, numStages)}
	for i := range bs.Stages {
		bs.Stages[i].Name = stageNames[i]
	}
	return bs
}

// time runs one stage and records its wall time and item count in the
// stage's own slot; distinct stages may therefore record concurrently.
func (bs *BuildStats) time(stage int, run func() (int, error)) error {
	start := time.Now()
	items, err := run()
	bs.Stages[stage].Wall = time.Since(start)
	bs.Stages[stage].Items = items
	return err
}

// skip marks a stage skipped, also one a load marked loaded: a stage
// the build skipped stored no state.
func (bs *BuildStats) skip(stage int) {
	bs.Stages[stage].Skipped, bs.Stages[stage].Items = true, 0
}

// Stage returns the timing record for a named stage.
func (bs *BuildStats) Stage(name string) (StageTiming, bool) {
	for _, st := range bs.Stages {
		if st.Name == name {
			return st, true
		}
	}
	return StageTiming{}, false
}

// Report renders the per-stage timing table, slowest stage first.
func (bs *BuildStats) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "build: total %v, parallelism %d\n", bs.Total.Round(time.Microsecond), bs.Parallelism)
	stages := slices.Clone(bs.Stages)
	slices.SortStableFunc(stages, func(a, b StageTiming) int { return cmp.Compare(b.Wall, a.Wall) })
	fmt.Fprintf(&b, "  %-10s %8s %12s\n", "stage", "items", "wall")
	for _, st := range stages {
		items, wall := fmt.Sprint(st.Items), st.Wall.Round(time.Microsecond).String()
		switch {
		case st.Skipped:
			items, wall = "-", "skipped"
		case st.Items == loadedItems:
			items, wall = "-", "loaded"
		}
		fmt.Fprintf(&b, "  %-10s %8s %12s\n", st.Name, items, wall)
	}
	return b.String()
}
