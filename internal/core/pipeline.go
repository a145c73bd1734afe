// The index-construction pipeline: its stage list, the one stage table
// every way of making a System runs (Build, a load's rebuild-on-load
// half, a delta merge, delta analysis), and the per-stage timing record
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

	"tablehound/internal/dict"
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

// engineStages are what delta analysis runs over the tables a delta
// adds. A load decodes every other stage but stageStats, which it
// derives (see System.derive).
var engineStages = []int{stageJoin, stageTUS, stageSantos, stageD3L, stageStarmie}

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
	// the five engine stages reassemble from them instead of analysing
	// the catalog's tables.
	parts *mergedParts
	// partsOnly marks delta analysis: the engine stages take the tables
	// only as far as each engine's Parts needs. The join stage builds no
	// engine: it encodes the staged columns into joinSets, which stays
	// empty when no column qualifies.
	partsOnly bool
	joinSets  map[string]dict.IDSet
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
	if !p.partsOnly {
		q := p.opts.QueryParallelism
		s.Join.QueryParallelism, s.TUS.QueryParallelism, s.Santos.QueryParallelism = q, q, q
	}
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
		if p.partsOnly {
			return p.encodeJoin(jb)
		}
		eng, err = jb.Build()
	}
	if err != nil {
		return 0, fmt.Errorf("core: join index: %w", err)
	}
	s.Join = eng
	return eng.NumColumns(), nil
}

// encodeJoin is a delta's join stage: the staged columns' ID sets, into
// p.joinSets. They must be encoded in the system's dictionary, which
// the delta extended by every value of its tables.
func (p pipeline) encodeJoin(jb *join.Builder) (int, error) {
	if jb.NumStaged() == 0 {
		return 0, nil
	}
	d, keys, sets, err := jb.Encode()
	if err != nil {
		return 0, fmt.Errorf("core: join index: %w", err)
	}
	if d != p.s.Dict {
		return 0, errors.New("core: join index: a delta column holds a value outside the extended dictionary")
	}
	for i, key := range keys {
		p.joinSets[key] = sets[i]
	}
	return len(keys), nil
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

// tus builds the TUS union engine; column analysis fans out per table,
// and its Parts encode what AddTables staged.
func (p pipeline) tus() (int, error) {
	s := p.s
	cfg := union.TUSConfig{Model: s.Model, KB: s.KB, Dict: s.Dict, NumHashes: 128}
	var tus *union.TUS
	var err error
	if p.parts != nil {
		g := p.parts.graphs
		tus, err = union.NewTUSFromParts(cfg, p.parts.tus, g.tus, g.batches, s.Catalog.Table)
		err = corruptParts(err)
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
		err = corruptParts(err)
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
		err = corruptParts(err)
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
		g := p.parts.graphs
		ix, err = starmie.NewIndexFromParts(enc, p.parts.starmie, g.starmie, g.batches, s.Catalog.Table)
		err = corruptParts(err)
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
