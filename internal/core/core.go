// Package core assembles the serving table-discovery system of the
// tutorial's Figure 1: table understanding (embeddings), indexing (set,
// vector, sketch, inverted), the table search engine (keyword,
// joinable, unionable) and navigation — behind one System facade built
// over a lake catalog. It holds what the serving endpoints read. The
// other Figure 1 engines (MATE, QCR, profiles, semantic annotation,
// entity augmentation) are library packages that take a table set;
// internal/exp and lakectl build them on demand.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"tablehound/internal/aurum"
	"tablehound/internal/dict"
	"tablehound/internal/embedding"
	"tablehound/internal/join"
	"tablehound/internal/kb"
	"tablehound/internal/keyword"
	"tablehound/internal/lake"
	"tablehound/internal/navigation"
	"tablehound/internal/parallel"
	"tablehound/internal/schema"
	"tablehound/internal/starmie"
	"tablehound/internal/table"
	"tablehound/internal/tokenize"
	"tablehound/internal/union"
	"tablehound/internal/vecstore"
)

// Build parameters every caller runs with.
const (
	embeddingDim       = 64  // dense vector width
	minJoinCardinality = 3   // distinct values a string column needs to be join-indexed
	contextWeight      = 0.3 // Starmie encoder's context mix
	orgFanout          = 4   // navigation fanout
)

// Options configures system construction. The zero value is usable.
type Options struct {
	// Seed drives every randomized structure (default 1).
	Seed int64
	// KB is an optional curated knowledge base for semantic measures.
	KB *kb.KB
	// Model, when non-nil, pins the embedding model instead of training
	// one from the catalog. Delta builds use it to encode new tables
	// against a base snapshot's frozen model (training is globally
	// corpus-coupled, so retraining would invalidate every base vector).
	// Build clones it, so the caller's copy is never rebound.
	Model *embedding.Model
	// SkipOrganization skips hierarchy building (it is the most
	// expensive optional step on large lakes).
	SkipOrganization bool
	// SkipFuzzy skips the fuzzy join index (vector per value).
	SkipFuzzy bool
	// SkipGraph skips the Aurum-style discovery graph, whose schema
	// linking is quadratic in the column count.
	SkipGraph bool
	// Parallelism bounds the worker pool of the construction pipeline:
	// after the shared embedding model is trained, the independent
	// index families build concurrently, and the heaviest stages fan
	// out per table or per column under the same budget. 0 means
	// runtime.GOMAXPROCS(0); 1 (or any negative value) runs the exact
	// sequential build, for reproducibility. Search results are
	// identical at every setting — only wall time changes.
	Parallelism int
	// QueryParallelism bounds the per-query fan-out inside a single
	// search call (TUS/Santos candidate scoring, join candidate
	// verification and exact scans, PEXESO matching). Same convention
	// as Parallelism: 0 = GOMAXPROCS, 1 or negative = sequential.
	// Results are bit-identical at every setting — only per-query
	// latency changes. When serving many concurrent queries, 1 is
	// usually right (the queries themselves saturate the cores);
	// larger values cut the latency of isolated queries.
	QueryParallelism int
	// VecMode selects how LoadFile materializes the snapshot's vector
	// blob: "auto" (default) memory-maps it where the platform
	// supports zero-copy mapping and falls back to a heap read
	// elsewhere; "mmap" requires the mapping; "heap" forces the
	// portable read. Ignored by Build and by Load from a plain reader
	// (always heap).
	VecMode string
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	o.Parallelism = parallel.Resolve(o.Parallelism)
	o.QueryParallelism = parallel.Resolve(o.QueryParallelism)
	return o
}

// System is a fully wired table discovery system over one catalog.
type System struct {
	Catalog *lake.Catalog
	Model   *embedding.Model
	KB      *kb.KB
	// Dict is the lake-wide value dictionary: every distinct normalized
	// cell value interned to a dense uint32 ID. The set-based indexes
	// (Join, TUS, Fuzzy) encode their columns against it.
	Dict *dict.Dict
	// Vecs is the flat vector block behind the embedding model and the
	// Starmie column index: one contiguous float32 blob plus
	// precomputed norms, carved into named segments. After Build or
	// Load, Model and Starmie alias rows of this store (which may
	// itself alias an mmap'd snapshot region — see Options.VecMode).
	Vecs *vecstore.Store

	Keyword *keyword.Index
	Values  *keyword.ValueIndex
	Join    *join.Engine
	Fuzzy   *join.FuzzyJoiner
	TUS     *union.TUS
	Santos  *union.Santos
	D3L     *union.D3L
	Starmie *starmie.Index
	Org     *navigation.Organization
	Graph   *aurum.Graph

	// Stats is the catalog statistics block the discover planner's
	// cost model reads: per-table shape distributions and column
	// name/type document frequencies. A pure function of the catalog,
	// so a load rebuilds it rather than reading it from the snapshot.
	Stats *CatalogStats

	// BuildStats records per-stage wall time and item counts for the
	// construction pipeline that produced this system.
	BuildStats *BuildStats

	// Lineage records where this system's table membership came from:
	// the base snapshot's generation, the delta chain applied on top
	// (empty when loaded directly or freshly built), and the resulting
	// generation. Nil on a fresh Build; set by Load and LoadChain.
	Lineage *Lineage

	// buildOpts is the resolved Options the system was constructed
	// with; Save persists it so Load can replay the rebuild-on-load
	// stages with the same parameters.
	buildOpts Options
}

// Build indexes the catalog into a System.
//
// Construction is a two-phase pipeline: the embedding model — the one
// dependency every index family shares — trains first, then the
// independent stages (keyword, join, fuzzy, union, Starmie,
// navigation, graph, ...) run on a bounded worker pool of
// Options.Parallelism goroutines, with per-table/per-column fan-out
// inside the heaviest stages. Every stage reads shared state only
// (catalog tables, the trained model, the KB) and writes its own
// System field, so results are identical at every parallelism level;
// per-stage wall times land in System.BuildStats.
func Build(catalog *lake.Catalog, opts Options) (*System, error) {
	opts = opts.withDefaults()
	tables := catalog.Tables()
	if len(tables) == 0 {
		return nil, errors.New("core: empty catalog")
	}
	stats := newBuildStats(opts.Parallelism)
	s := &System{Catalog: catalog, KB: opts.KB, BuildStats: stats, buildOpts: opts}
	start := time.Now()

	// Table understanding: train embeddings on the lake's columns.
	// Every downstream stage reads this model, so it builds first.
	if err := stats.time(stageModel, func() (int, error) {
		if opts.Model != nil {
			s.Model = opts.Model.Clone()
			return s.Model.VocabSize(), nil
		}
		var contexts [][]string
		for _, t := range tables {
			for _, c := range t.Columns {
				if c.Type == table.TypeString || c.Type == table.TypeUnknown {
					contexts = append(contexts, c.Distinct())
				}
			}
		}
		s.Model = embedding.Train(contexts, embedding.Config{Dim: embeddingDim, Seed: uint64(opts.Seed)})
		return len(contexts), nil
	}); err != nil {
		return nil, err
	}

	// The lake-wide value dictionary is the second shared dependency:
	// every set index encodes its columns against it. Per-table value
	// extraction fans out; the dictionary build itself sorts once and
	// is deterministic regardless of accumulation order.
	if err := stats.time(stageDict, func() (int, error) {
		var derr error
		s.Dict, derr = buildDict(tables, opts.Parallelism)
		if derr != nil {
			return 0, derr
		}
		return s.Dict.Size(), nil
	}); err != nil {
		return nil, err
	}

	// The remaining stages are mutually independent: each reads the
	// catalog, model, dictionary and KB, and writes one System field.
	// After them the vector store consolidates the model and Starmie
	// vectors — both frozen by then — into one flat block.
	if err := (pipeline{s: s, opts: opts}).run(); err != nil {
		return nil, err
	}
	stats.Total = time.Since(start)
	return s, nil
}

// buildVecStore consolidates the trained model's token vectors and the
// Starmie index's column vectors into one contiguous vecstore block and
// rebinds both owners onto the block. Vector values are copied
// bit-for-bit, so every search surface is unchanged; only the backing
// memory moves — which is what makes snapshot reload O(1) and lets
// replicas share pages via mmap.
func buildVecStore(s *System) (int, error) {
	b := vecstore.NewBuilder(s.Model.Dim())
	tokens, colKeys := s.Model.Tokens(), s.Starmie.ColumnKeys()
	b.Grow(len(tokens) + len(colKeys))
	for _, tok := range tokens {
		b.Append("model", s.Model.TokenVector(tok))
	}
	for _, key := range colKeys {
		b.Append("starmie", s.Starmie.VectorOf(key))
	}
	store, err := b.Build()
	if err != nil {
		return 0, err
	}
	if mv, ok := store.View("model"); ok {
		if err := s.Model.Rebind(mv.Vec, mv.Len()); err != nil {
			return 0, err
		}
	}
	if sv, ok := store.View("starmie"); ok {
		if err := s.Starmie.Bind(sv); err != nil {
			return 0, err
		}
	}
	s.Vecs = store
	return store.Count(), nil
}

// JoinPath returns a chain of joinable-column hops connecting two
// tables via the discovery graph, or nil when none exists within
// maxHops.
func (s *System) JoinPath(fromTable, toTable string, maxHops int) []aurum.JoinHop {
	if s.Graph == nil {
		return nil
	}
	return s.Graph.JoinPath(fromTable, toTable, aurum.ContentSim, maxHops)
}

// buildDict constructs the lake-wide value dictionary over a table
// set: every distinct normalized cell value, IDs assigned in
// lexicographic order. Shared by Build's stageDict and by the delta
// merge path, which re-derives the dictionary over the merged catalog
// (the extended dictionary is only the deltas' transport encoding).
func buildDict(tables []*table.Table, parallelism int) (*dict.Dict, error) {
	perTable, err := parallel.Map(len(tables), parallelism, func(i int) ([]string, error) {
		var vals []string
		for _, c := range tables[i].Columns {
			vals = append(vals, tokenize.NormalizeSet(c.Values)...)
		}
		return vals, nil
	})
	if err != nil {
		return nil, err
	}
	db := dict.NewBuilder()
	for _, vals := range perTable {
		db.Add(vals...)
	}
	return db.Build(), nil
}

// buildFuzzy constructs the fuzzy join index (PEXESO-style) over the
// catalog. Embedding a vector per value makes it the single heaviest
// stage, so it fans out per column; a load re-derives it from the
// decoded model, dictionary and catalog rather than storing a vector
// per value on disk.
func buildFuzzy(s *System, tables []*table.Table, opts Options) (int, error) {
	s.Fuzzy = join.NewFuzzyJoiner(s.Model, 4)
	s.Fuzzy.UseDict(s.Dict)
	var batch []join.FuzzyColumn
	for _, t := range tables {
		for _, c := range t.Columns {
			if c.Type == table.TypeString && c.Cardinality() >= minJoinCardinality {
				batch = append(batch, join.FuzzyColumn{Key: table.ColumnKey(t.ID, c.Name), Values: c.Values})
			}
		}
	}
	if err := s.Fuzzy.AddColumns(batch, opts.Parallelism); err != nil {
		return 0, err
	}
	// Coarse-quantize the shared value vectors so queries can skip
	// whole clusters under the tau threshold (lossless, PEXESO-style
	// results unchanged): k ≈ √n clusters, capped at 128, once there
	// are enough vectors that an exhaustive scan stops being cheap.
	// Seeding from the key-set hash makes the centroids a pure
	// function of the indexed lake.
	if slots, _ := s.Fuzzy.VectorStats(); slots >= 1024 {
		k := min(int(math.Sqrt(float64(slots))), 128)
		keys := make([]string, len(batch))
		for i, c := range batch {
			keys[i] = c.Key
		}
		s.Fuzzy.BuildCentroids(k, vecstore.HashStrings(keys), opts.Parallelism)
	}
	return len(batch), nil
}

// Query-path concurrency contract: once Build has returned, every
// search surface on System — KeywordSearch, ValueSearch,
// JoinableColumns, ContainmentSearch, UnionableTables, Navigate,
// MatchSchemas, and the engines reachable through the exported fields
// (Join, Fuzzy, TUS, Santos, D3L, Starmie, Org) — is a pure
// read over frozen state and safe for unbounded concurrent use.
// Options.QueryParallelism bounds the fan-out *inside* one query;
// results are bit-identical at every setting.

// KeywordSearch ranks tables by metadata relevance. A query with no
// content wraps table.ErrBadQuery instead of silently matching
// nothing.
func (s *System) KeywordSearch(query string, k int) ([]keyword.Result, error) {
	if strings.TrimSpace(query) == "" {
		return nil, fmt.Errorf("core: empty keyword query: %w", table.ErrBadQuery)
	}
	return s.Keyword.Search(query, k), nil
}

// JoinableColumns returns the top-k columns by exact value overlap
// with the query column values. A query column that is empty after
// normalization (no values, or whitespace-only values) wraps
// table.ErrBadQuery instead of silently returning no matches.
func (s *System) JoinableColumns(values []string, k int) ([]join.Match, error) {
	ms, _, err := s.Join.TopKOverlap(context.TODO(), s.Join.EncodeQuery(values), k, nil)
	return ms, err
}

// ContainmentSearch returns columns whose containment of the query
// column is likely >= threshold (LSH Ensemble candidates, exactly
// verified).
func (s *System) ContainmentSearch(values []string, threshold float64, k int) ([]join.Match, error) {
	ms, err := s.Join.ContainmentSearch(context.TODO(), s.Join.EncodeQuery(values), threshold)
	if len(ms) > k {
		ms = ms[:k]
	}
	return ms, err
}

// UnionableTables returns the top-k unionable tables (TUS ensemble).
func (s *System) UnionableTables(query *table.Table, k int) ([]union.Result, error) {
	return s.TUS.Search(context.TODO(), query, k, union.EnsembleMeasure)
}

// Navigate descends the organization toward a topic described by
// keywords, returning the visited labels and the reached table.
func (s *System) Navigate(topic string) (labels []string, tableID string, err error) {
	if s.Org == nil {
		return nil, "", errors.New("core: organization not built")
	}
	vec := s.Model.ColumnVector([]string{topic})
	labels, tableID = s.Org.Navigate(vec)
	return labels, tableID, nil
}

// ValueSearch ranks tables by keyword hits in cell values and groups
// the results into same-schema clusters (the OCTOPUS SEARCH shape).
// A query with no content wraps table.ErrBadQuery.
func (s *System) ValueSearch(query string, k int) ([]keyword.Cluster, error) {
	if strings.TrimSpace(query) == "" {
		return nil, fmt.Errorf("core: empty value-search query: %w", table.ErrBadQuery)
	}
	return s.Values.SearchClusters(query, k), nil
}

// MatchSchemas aligns the columns of two tables with the combined
// (name + instance + embedding) matcher.
func (s *System) MatchSchemas(src, dst *table.Table, threshold float64) []schema.Correspondence {
	m := schema.CombinedMatcher{
		Instance:   schema.InstanceMatcher{Model: s.Model},
		NameWeight: 0.3, // lake headers are unreliable; trust content
	}
	return schema.Match(src, dst, m, threshold)
}
