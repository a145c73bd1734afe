// The index-construction pipeline: its stage list, the one stage table
// every way of making a System runs (Build, a load's rebuild-on-load
// half, a delta merge), and the per-stage timing record
// attached to every System. See DESIGN.md "Build pipeline & concurrency
// contracts" for the stage DAG and the types each stage may share.
package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"tablehound/internal/join"
	"tablehound/internal/keyword"
	"tablehound/internal/parallel"
	"tablehound/internal/starmie"
	"tablehound/internal/union"
)

// Stage indices. stageModel and stageDict are the shared dependencies
// and always run first (model, then the value dictionary); every other
// stage reads only the catalog, the trained model, the dictionary, and
// the optional KB, so the scheduler may run them in any order or
// concurrently. The fuzzy index, the organization and the discovery
// graph are no stages: each is built by its first reader (System.Fuzzy,
// Org, Graph).
const (
	stageModel = iota
	stageDict
	stageKeyword
	stageJoin
	stageTUS
	stageSantos
	stageD3L
	stageStarmie
	stageStats
	stageVecs
	numStages
)

var stageNames = [numStages]string{
	"model", "dict", "keyword", "join", "tus", "santos", "d3l",
	"starmie", "stats", "vecs",
}

// loadedItems is StageTiming.Items of a stage a load decoded.
const loadedItems = -1

// stage is one entry of the stage table: it reads the system's shared
// foundations (catalog, model, dictionary, KB) and writes one System
// field, so the stages may run in any order or at once.
type stage struct {
	id  int
	run func() (int, error)
}

// pipeline is one run of the stage table over a system whose Catalog,
// Model, Dict, KB and BuildStats are set.
type pipeline struct {
	s    *System
	opts Options
	// parts, when non-nil, are a delta merge's folded per-engine parts:
	// the five engine stages assemble from them instead of from a
	// builder's analysis of the catalog's tables.
	parts *mergedParts
}

// run runs the stages named by ids on a pool of opts.Parallelism
// workers in table order (exactly sequentially at Parallelism 1),
// recording each in s.BuildStats. With no ids it runs the whole table
// and then the vector store, which must observe every stage. Serving
// systems' engines then take the per-query fan-out budget: this is the
// one place it is handed to them (the fuzzy joiner takes it when it is
// built).
func (p pipeline) run(ids ...int) error {
	s, stats := p.s, p.s.BuildStats
	var todo []stage
	for _, st := range p.stages() {
		if len(ids) == 0 || slices.Contains(ids, st.id) {
			todo = append(todo, st)
		}
	}
	if err := parallel.ForEach(len(todo), p.opts.Parallelism, func(i int) error {
		return stats.time(todo[i].id, todo[i].run)
	}); err != nil {
		return err
	}
	if len(ids) == 0 {
		if err := stats.time(stageVecs, func() (int, error) { return buildVecStore(s) }); err != nil {
			return err
		}
	}
	q := p.opts.QueryParallelism
	s.Join.QueryParallelism, s.TUS.QueryParallelism, s.Santos.QueryParallelism = q, q, q
	return nil
}

// stages returns the stage table over s's catalog, in stage-ID order.
func (p pipeline) stages() []stage {
	s, tables := p.s, p.s.Catalog.Tables()
	return []stage{
		{stageKeyword, p.keyword},
		{stageJoin, p.join},
		{stageTUS, p.tus},
		{stageSantos, p.santos},
		{stageD3L, p.d3l},
		{stageStarmie, p.starmie},
		{stageStats, func() (int, error) {
			// Catalog statistics for the discover planner's cost model.
			s.Stats = BuildCatalogStats(tables)
			return len(tables), nil
		}},
	}
}

// keyword builds keyword search over metadata and over cell values
// (OCTOPUS-style). A merge folds the base's indexes, so only the tables
// the chain added are tokenized.
func (p pipeline) keyword() (int, error) {
	s, tables := p.s, p.s.Catalog.Tables()
	mp := p.parts
	if mp == nil {
		s.Keyword, s.Values = keyword.NewIndex(tables), keyword.NewValueIndex(tables)
		return len(tables), nil
	}
	docs := make([]string, len(tables))
	for i, t := range tables {
		docs[i] = t.ID
	}
	var err error
	if s.Keyword, err = mp.keyword.Fold(docs, mp.added); err == nil {
		s.Values, err = mp.values.Fold(docs, mp.added)
	}
	return len(tables), corruptParts(err)
}

// join builds the joinable-search engine: exact overlap and
// containment indexes, encoded against the lake dictionary.
func (p pipeline) join() (int, error) {
	s := p.s
	var eng *join.Engine
	var err error
	if mp := p.parts; mp != nil {
		eng, err = join.NewEngineFromParts(s.Dict, mp.join)
		err = corruptParts(err)
	} else {
		jb := join.NewBuilder(minJoinCardinality)
		jb.UseDict(s.Dict)
		for _, t := range s.Catalog.Tables() {
			jb.AddTable(t)
		}
		eng, err = jb.Build()
	}
	if err != nil {
		return 0, fmt.Errorf("core: join index: %w", err)
	}
	s.Join = eng
	return eng.NumColumns(), nil
}

// corruptParts marks an error of assembling an engine from a merge's
// folded parts as corruption: every part was decoded from a snapshot or
// a delta file, so parts that do not assemble are damaged input.
func corruptParts(err error) error {
	if err == nil || errors.Is(err, ErrCorruptSnapshot) {
		return err
	}
	return fmt.Errorf("%w: %w", ErrCorruptSnapshot, err)
}

// assembled passes on an error of an engine stage's one assembly call,
// marked as corruption when the parts were a merge's (see corruptParts).
func (p pipeline) assembled(err error) error {
	if p.parts != nil {
		return corruptParts(err)
	}
	return err
}

// tus assembles the TUS union engine from a merge's parts or from a
// builder's, whose column analysis fans out per table.
func (p pipeline) tus() (int, error) {
	s := p.s
	cfg := union.TUSConfig{Model: s.Model, KB: s.KB, Dict: s.Dict}
	var parts []union.TUSTableParts
	var g graphFold // a build's: fresh graphs over every table
	if p.parts != nil {
		parts, g = p.parts.tus, p.parts.graphs
	} else {
		b, err := union.NewTUSBuilder(cfg)
		if err != nil {
			return 0, err
		}
		b.AddTables(s.Catalog.Tables(), p.opts.Parallelism)
		cfg.Dict, parts = b.Parts()
	}
	tus, err := union.NewTUSFromParts(cfg, parts, g.tus, g.batches, s.Catalog.Table)
	if err != nil {
		return 0, p.assembled(err)
	}
	s.TUS = tus
	return tus.NumTables(), nil
}

// santos assembles the SANTOS union engine from a merge's parts, in
// the system dictionary, or from a builder's; without a table it is
// empty.
func (p pipeline) santos() (int, error) {
	s := p.s
	values, parts := s.Dict, union.SantosParts{}
	if p.parts != nil {
		parts = p.parts.santos
	} else {
		b := union.NewSantosBuilder(s.KB, s.Dict)
		b.AddTables(s.Catalog.Tables(), p.opts.Parallelism)
		values, parts = b.Parts()
	}
	santos, err := union.NewSantosFromParts(s.KB, values, parts, s.Catalog.Table)
	if err != nil {
		return 0, p.assembled(err)
	}
	s.Santos = santos
	return santos.NumTables(), nil
}

// d3l assembles the D3L union engine from a merge's parts, in the
// system dictionary, or from a builder's.
func (p pipeline) d3l() (int, error) {
	s := p.s
	values, parts := s.Dict, union.D3LParts{}
	if p.parts != nil {
		parts = p.parts.d3l
	} else {
		b, err := union.NewD3LBuilder(s.Model, s.Dict)
		if err != nil {
			return 0, err
		}
		b.AddTables(s.Catalog.Tables(), p.opts.Parallelism)
		values, parts = b.Parts()
	}
	d3l, err := union.NewD3LFromParts(s.Model, values, parts, s.Catalog.Table)
	if err != nil {
		return 0, p.assembled(err)
	}
	s.D3L = d3l
	return d3l.NumTables(), nil
}

// starmie assembles the Starmie contextual-retrieval index from a
// merge's parts or from a builder's, whose encoding fans out per table.
func (p pipeline) starmie() (int, error) {
	s := p.s
	enc := starmie.NewEncoder(s.Model, contextWeight)
	var parts []starmie.TableParts
	var g graphFold // a build's: a fresh graph over every table
	if p.parts != nil {
		parts, g = p.parts.starmie, p.parts.graphs
	} else {
		b := starmie.NewBuilder(enc)
		b.AddTables(s.Catalog.Tables(), p.opts.Parallelism)
		parts = b.Parts()
	}
	ix, err := starmie.NewIndexFromParts(enc, parts, g.starmie, g.batches, s.Catalog.Table)
	if err != nil {
		return 0, p.assembled(err)
	}
	s.Starmie = ix
	return ix.NumColumns(), nil
}

// StageTiming records one pipeline stage's work.
type StageTiming struct {
	Name string
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
		if st.Items == loadedItems {
			items, wall = "-", "loaded"
		}
		fmt.Fprintf(&b, "  %-10s %8s %12s\n", st.Name, items, wall)
	}
	return b.String()
}
