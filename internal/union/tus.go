package union

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"tablehound/internal/dict"
	"tablehound/internal/embedding"
	"tablehound/internal/hnsw"
	"tablehound/internal/kb"
	"tablehound/internal/lsh"
	"tablehound/internal/minhash"
	"tablehound/internal/parallel"
	"tablehound/internal/table"
	"tablehound/internal/tokenize"
)

// TUSConfig wires the resources TUS's measures need.
type TUSConfig struct {
	// Model supplies value embeddings for the NL measure; required.
	Model *embedding.Model
	// KB supplies the ontology for the semantic measure; optional —
	// without it the semantic measure scores 0 everywhere.
	KB *kb.KB
	// Dict is the lake-wide value dictionary; optional. When it covers
	// every staged value, columns are encoded through it so the set
	// measure shares the lake ID space; otherwise Build falls back to a
	// self-built dictionary over the staged universe.
	Dict *dict.Dict
	// Exhaustive disables index-based candidate generation and scores
	// every table (the accuracy ceiling; slow).
	Exhaustive bool
	// NumHashes is the MinHash signature length (default 128).
	NumHashes int
}

// TUS is a table union search engine. Add tables, Build, then Search.
// Search is read-only and safe for concurrent use once Build has
// returned; AddTable/AddTables/Build must not run concurrently with
// each other or with Search.
type TUS struct {
	cfg     TUSConfig
	tables  map[string]*tusTable
	ids     []string
	univ    map[string]bool // distinct value universe (for set measure)
	dict    *dict.Dict      // dictionary the columns are encoded in
	setLSH  *lsh.Index
	owner   []int32 // setLSH ordinal (a column, tables in ids order) -> position in ids of its table
	nlIndex *hnsw.Graph
	hasher  *minhash.Hasher
	lfact   logFactTable // ln n! cache for the hypergeometric CDF
	built   bool

	// QueryParallelism bounds the per-query candidate-scoring fan-out
	// in Search: 0 = GOMAXPROCS, negative or 1 = sequential. Results
	// are bit-identical at every setting. Set before serving queries;
	// it must not change while searches are in flight.
	QueryParallelism int
}

type tusTable struct {
	tbl  *table.Table
	cols []*tusColumn
	idx  int32 // position in TUS.ids, set when the indexes are frozen
}

type tusColumn struct {
	name string
	// values holds the distinct normalized values between staging and
	// Build; Build encodes them into ids and clears the slice. Query
	// columns are encoded immediately and never carry values.
	values []string
	ids    dict.IDSet // same values as sorted dictionary IDs
	sig    minhash.Signature
	vec    embedding.Vector
	// norm is vec.Norm(), computed once where the column is made so the
	// NL measure costs one dot product per matrix cell. Derived, never
	// persisted.
	norm float64
	// Semantic annotation (dominant ontology type), when covered.
	semType  string
	semCover float64
}

// NewTUS creates an engine.
func NewTUS(cfg TUSConfig) (*TUS, error) {
	if cfg.Model == nil {
		return nil, errors.New("union: TUSConfig.Model is required")
	}
	if cfg.NumHashes <= 0 {
		cfg.NumHashes = 128
	}
	return &TUS{
		cfg:    cfg,
		tables: make(map[string]*tusTable),
		univ:   make(map[string]bool),
		hasher: minhash.NewHasher(cfg.NumHashes, 7),
	}, nil
}

// AddTable stages a table for indexing.
func (t *TUS) AddTable(tbl *table.Table) {
	if _, dup := t.tables[tbl.ID]; dup {
		return
	}
	entry := &tusTable{tbl: tbl}
	for _, c := range stringColumns(tbl) {
		tc := t.makeColumn(c)
		entry.cols = append(entry.cols, tc)
		for _, v := range tc.values {
			t.univ[t.cfg.Dict.Intern(v)] = true
		}
	}
	if len(entry.cols) == 0 {
		return
	}
	t.tables[tbl.ID] = entry
	t.ids = append(t.ids, tbl.ID)
	t.built = false
}

// AddTables stages a batch of tables using up to workers goroutines.
// Column analysis (normalization, MinHash signing, embedding, KB
// annotation) — the dominant cost — fans out per table; registration
// (universe accumulation, ID ordering) commits sequentially in batch
// order, so the engine state is identical at any worker count. The
// hasher, model, and KB are only read.
func (t *TUS) AddTables(tbls []*table.Table, workers int) {
	entries, _ := parallel.Map(len(tbls), workers, func(i int) (*tusTable, error) {
		entry := &tusTable{tbl: tbls[i]}
		for _, c := range stringColumns(tbls[i]) {
			entry.cols = append(entry.cols, t.makeColumn(c))
		}
		return entry, nil
	})
	for _, entry := range entries {
		if _, dup := t.tables[entry.tbl.ID]; dup {
			continue
		}
		if len(entry.cols) == 0 {
			continue
		}
		for _, tc := range entry.cols {
			for _, v := range tc.values {
				t.univ[t.cfg.Dict.Intern(v)] = true
			}
		}
		t.tables[entry.tbl.ID] = entry
		t.ids = append(t.ids, entry.tbl.ID)
		t.built = false
	}
}

func (t *TUS) makeColumn(c *table.Column) *tusColumn {
	values := tokenize.NormalizeSet(c.Values)
	tc := &tusColumn{
		name:   c.Name,
		values: values,
		sig:    t.hasher.Sign(values),
		vec:    t.cfg.Model.ColumnVector(values),
	}
	tc.norm = tc.vec.Norm()
	if t.cfg.KB != nil {
		if typ, cover, ok := t.cfg.KB.DominantType(values, 0.5); ok {
			tc.semType, tc.semCover = typ, cover
		}
	}
	return tc
}

// queryColumn analyzes an ad-hoc column and encodes it through enc.
// Out-of-vocabulary values get ephemeral IDs shared across columns of
// the same encoder, so two query columns still see their mutual
// overlap even off the lake vocabulary.
func (t *TUS) queryColumn(c *table.Column, enc *dict.Encoder) *tusColumn {
	tc := t.makeColumn(c)
	tc.ids = enc.Encode(tc.values)
	tc.values = nil
	return tc
}

// Build freezes the candidate-generation indexes.
func (t *TUS) Build() error {
	if len(t.tables) == 0 {
		return errors.New("union: no tables added")
	}
	t.encodeColumns()
	if err := t.buildSetLSH(); err != nil {
		return err
	}
	t.nlIndex = hnsw.New(hnsw.Config{M: 12, EfConstruction: 80, Seed: 11})
	for _, id := range t.ids {
		for _, c := range t.tables[id].cols {
			if err := t.nlIndex.Add(table.ColumnKey(id, c.name), c.vec); err != nil {
				return err
			}
		}
	}
	// Freeze the ln n! cache for the hypergeometric CDF: every
	// logChoose argument is at most d+1 where d = len(t.univ) (query
	// columns larger than the universe fall back to math.Lgamma).
	t.lfact = newLogFactTable(len(t.univ) + 1)
	t.built = true
	return nil
}

// buildSetLSH freezes the candidate-generation LSH over every staged
// column, tables in ids order. The threshold is low: candidate columns
// need only weak set overlap; scoring decides.
func (t *TUS) buildSetLSH() error {
	b, r := lsh.OptimalParams(0.3, t.cfg.NumHashes, 0.8, 0.2)
	t.setLSH = lsh.New(b, r)
	t.owner = t.owner[:0]
	for ti, id := range t.ids {
		entry := t.tables[id]
		entry.idx = int32(ti)
		for _, c := range entry.cols {
			if err := t.setLSH.Add(c.sig); err != nil {
				return err
			}
			t.owner = append(t.owner, entry.idx)
		}
	}
	t.setLSH.Build()
	return nil
}

// encodeColumns sorts the table IDs, picks the dictionary for this
// build and encodes every column's values into sorted ID sets — the
// half of Build that Parts also needs. The configured lake dictionary
// is used when it covers the whole staged universe; otherwise a
// dictionary is built over the universe itself. When the dictionary
// changes between builds (the self-built one grows with new tables),
// previously encoded columns are re-encoded — IDs from different
// dictionaries must never mix, or cross-column overlap breaks.
func (t *TUS) encodeColumns() {
	sort.Strings(t.ids)
	d := t.cfg.Dict
	covered := d != nil
	if covered {
		for v := range t.univ {
			if _, ok := d.ID(v); !ok {
				covered = false
				break
			}
		}
	}
	if !covered {
		db := dict.NewBuilder()
		for v := range t.univ {
			db.Add(v)
		}
		d = db.Build()
	}
	rebuild := d != t.dict
	for _, id := range t.ids {
		for _, c := range t.tables[id].cols {
			if c.ids != nil && !rebuild {
				continue
			}
			if c.values == nil {
				c.values = t.dict.Decode(c.ids)
			}
			c.ids, _ = d.EncodeKnown(c.values)
			c.values = nil
		}
	}
	t.dict = d
}

// NumTables returns the number of indexed tables.
func (t *TUS) NumTables() int { return len(t.tables) }

// Dict returns the dictionary the engine's columns are encoded in
// (nil before the first Build).
func (t *TUS) Dict() *dict.Dict { return t.dict }

// SetsFootprint reports the resident cost of the ID-encoded column
// sets next to an estimate of the per-column string maps they
// replaced.
func (t *TUS) SetsFootprint() dict.Footprint {
	var f dict.Footprint
	for _, id := range t.ids {
		for _, c := range t.tables[id].cols {
			f.Accumulate(t.dict.SetFootprint(c.ids))
		}
	}
	return f
}

// ColumnUnionability scores two value sets under a measure; exported
// for benchmarking the measures in isolation. Inputs are raw values
// (normalized internally).
func (t *TUS) ColumnUnionability(a, b []string, m Measure) float64 {
	enc := t.dict.Encoder()
	ca := t.queryColumn(table.NewColumn("a", a), enc)
	cb := t.queryColumn(table.NewColumn("b", b), enc)
	return t.columnScore(ca, cb, dict.Overlap(ca.ids, cb.ids), m)
}

// columnScore scores two columns that share overlap values under m.
func (t *TUS) columnScore(a, b *tusColumn, overlap int, m Measure) float64 {
	switch m {
	case SetMeasure:
		return t.setUnionability(a, b, overlap)
	case SemMeasure:
		return t.semUnionability(a, b)
	case NLMeasure:
		return nlUnionability(a, b)
	default:
		s := t.setUnionability(a, b, overlap)
		if v := t.semUnionability(a, b); v > s {
			s = v
		}
		if v := nlUnionability(a, b); v > s {
			s = v
		}
		return s
	}
}

// setUnionability is the TUS set measure: the probability that two
// random draws of |A| and |B| values from the universe share at most
// the observed overlap — i.e. the hypergeometric CDF at the overlap.
// High observed overlap relative to chance drives the score to 1.
func (t *TUS) setUnionability(a, b *tusColumn, overlap int) float64 {
	if overlap == 0 {
		return 0
	}
	d := len(t.univ)
	na, nb := len(a.ids), len(b.ids)
	if d < na+nb { // universe estimate too small for a valid model
		d = na + nb
	}
	return t.lfact.hypergeomCDF(overlap-1, d, na, nb)
}

// logFactTable caches ln(n!) = Lgamma(n+1) for n in [0, len). Indexes
// beyond the table (or a nil table) fall back to math.Lgamma, so every
// lookup is bit-identical to the uncached computation. Read-only after
// construction; safe for concurrent use.
type logFactTable []float64

func newLogFactTable(maxN int) logFactTable {
	lf := make(logFactTable, maxN+1)
	for i := range lf {
		lf[i], _ = math.Lgamma(float64(i + 1))
	}
	return lf
}

func (lf logFactTable) logFact(n int) float64 {
	if n >= 0 && n < len(lf) {
		return lf[n]
	}
	v, _ := math.Lgamma(float64(n + 1))
	return v
}

func (lf logFactTable) logChoose(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	return lf.logFact(n) - lf.logFact(k) - lf.logFact(n-k)
}

// hypergeomCDF returns P[X <= k] for X ~ Hypergeom(D, na, nb).
func (lf logFactTable) hypergeomCDF(k, d, na, nb int) float64 {
	lo := na + nb - d
	if lo < 0 {
		lo = 0
	}
	hi := na
	if nb < hi {
		hi = nb
	}
	if k >= hi {
		return 1
	}
	denom := lf.logChoose(d, nb)
	var cdf float64
	for x := lo; x <= k; x++ {
		cdf += math.Exp(lf.logChoose(na, x) + lf.logChoose(d-na, nb-x) - denom)
	}
	if cdf > 1 {
		cdf = 1
	}
	return cdf
}

// hypergeomCDF is the uncached variant (reference for tests).
func hypergeomCDF(k, d, na, nb int) float64 {
	return logFactTable(nil).hypergeomCDF(k, d, na, nb)
}

// semUnionability scores by ontology: Wu-Palmer similarity of the
// columns' dominant types, damped by annotation coverage. Uncovered
// columns score 0 — the KB precision/coverage trade-off surfaces here.
func (t *TUS) semUnionability(a, b *tusColumn) float64 {
	if t.cfg.KB == nil || a.semType == "" || b.semType == "" {
		return 0
	}
	sim := t.cfg.KB.TypeSimilarity(a.semType, b.semType)
	cover := a.semCover
	if b.semCover < cover {
		cover = b.semCover
	}
	return sim * cover
}

// nlUnionability maps embedding cosine from [-1, 1] to [0, 1].
func nlUnionability(a, b *tusColumn) float64 {
	return (embedding.CosineWithNorms(a.vec, b.vec, a.norm, b.norm) + 1) / 2
}

// ErrNotBuilt is returned by Search when the index has pending tables
// that Build has not frozen yet.
var ErrNotBuilt = errors.New("union: index not built (call Build after adding tables)")

// Search returns the k tables most unionable with the query under the
// measure. The query need not be indexed. Search is a pure read: it
// requires a prior Build (ErrNotBuilt otherwise, never an implicit
// rebuild) and is safe for concurrent use. Candidate scoring — the
// bipartite-matching + hypergeometric hot loop — fans out over
// QueryParallelism workers into indexed slots, so results are
// bit-identical to the sequential scan; it checks ctx between candidate
// tables, and a cancelled context returns ctx.Err() instead of
// finishing the scan. A query without usable string columns wraps
// table.ErrBadQuery.
func (t *TUS) Search(ctx context.Context, query *table.Table, k int, m Measure) ([]Result, error) {
	pq, err := t.Prepare(query)
	if err != nil {
		return nil, err
	}
	return t.ScoreAmong(ctx, pq, t.Candidates(pq), k, m)
}

// TUSQuery is a query table pre-encoded against the frozen index —
// the table-level analogue of join.EncodeQuery. Prepare once, then
// reuse across Candidates and ScoreAmong so staged planners do not
// re-encode per stage.
type TUSQuery struct {
	id    string
	qcols []*tusColumn
}

// Prepare encodes a query table's string columns against the frozen
// dictionary; a query that is a staged table reuses its staged columns
// (every staged value is in the dictionary, so they are what encoding
// would produce). A query without usable string columns wraps
// table.ErrBadQuery.
func (t *TUS) Prepare(query *table.Table) (*TUSQuery, error) {
	if !t.built {
		return nil, ErrNotBuilt
	}
	if entry := t.tables[query.ID]; entry != nil && entry.tbl == query {
		return &TUSQuery{id: query.ID, qcols: entry.cols}, nil
	}
	enc := t.dict.Encoder()
	qcols := make([]*tusColumn, 0)
	for _, c := range stringColumns(query) {
		qcols = append(qcols, t.queryColumn(c, enc))
	}
	if len(qcols) == 0 {
		return nil, fmt.Errorf("union: query table has no usable string columns: %w", table.ErrBadQuery)
	}
	return &TUSQuery{id: query.ID, qcols: qcols}, nil
}

// Candidates returns the sorted candidate table IDs the sketch
// indexes generate for a prepared query (all tables when exhaustive).
func (t *TUS) Candidates(pq *TUSQuery) []string {
	return t.candidateTables(pq.qcols)
}

// ScoreAmong exactly scores the given candidate tables and returns
// the top k. Because per-candidate scores are independent and the
// final order is a total order, restricting ids before scoring yields
// exactly the results Search would after dropping the same tables;
// with ids = Candidates(pq) it is bit-identical to Search. Each of the
// QueryParallelism workers scores the tables it takes with its own
// reused scratch, reading each candidate column's value IDs once
// against every query column (see queryMarks), so allocations do not
// grow with len(ids).
func (t *TUS) ScoreAmong(ctx context.Context, pq *TUSQuery, ids []string, k int, m Measure) ([]Result, error) {
	var marks *queryMarks // only the set measure reads overlaps
	if m == SetMeasure || m == EnsembleMeasure {
		marks = newQueryMarks(t.dict.Size())
		defer marks.release()
		for i, qc := range pq.qcols {
			marks.add(i, qc.ids, nil)
		}
	}
	scores := make([]float64, len(ids))
	workers := min(parallel.Resolve(t.QueryParallelism), len(ids))
	var next atomic.Int64
	err := parallel.ForEach(workers, workers, func(int) error {
		sc := newScanScratch(len(pq.qcols))
		defer freeScratch.put(sc)
		for i := int(next.Add(1) - 1); i < len(ids); i = int(next.Add(1) - 1) {
			if err := ctx.Err(); err != nil {
				return err
			}
			if ids[i] != pq.id {
				scores[i] = t.tableScore(marks, pq.qcols, t.tables[ids[i]].cols, m, sc)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	top := newTopK(k, len(ids))
	for i, id := range ids {
		if id != pq.id && scores[i] > 0 {
			top.offer(Result{TableID: id, Score: scores[i]})
		}
	}
	return top.results(), nil
}

// tableScore aligns query columns to candidate columns by maximum-
// weight bipartite matching and normalizes by query column count.
// marks, nil under the measures that ignore overlap, count each
// candidate column's overlap with every query column in one pass.
func (t *TUS) tableScore(marks *queryMarks, qcols, ccols []*tusColumn, m Measure, sc *scanScratch) float64 {
	nq, nc := len(qcols), len(ccols)
	w := sc.matrix(nq, nc)
	for j, cc := range ccols {
		if marks != nil {
			marks.overlaps(cc.ids, sc.inter)
		}
		for i, qc := range qcols {
			w[i*nc+j] = t.columnScore(qc, cc, int(sc.inter[i]), m)
		}
	}
	return sc.matcher.MaxWeight(w, nq, nc) / float64(nq)
}

// candidateScratch is the working memory of one candidateTables call.
// It holds ordinals only, so the pool is shared by all engines.
type candidateScratch struct {
	cols, tables lsh.Seen
	ords         []int32
}

var candidateScratchPool = sync.Pool{New: func() any { return new(candidateScratch) }}

// candidateTables returns table IDs to score: all tables when
// exhaustive, otherwise tables owning columns retrieved by the set-LSH
// or the NL vector index.
func (t *TUS) candidateTables(qcols []*tusColumn) []string {
	if t.cfg.Exhaustive {
		return t.ids
	}
	sc := candidateScratchPool.Get().(*candidateScratch)
	defer candidateScratchPool.Put(sc)
	sc.cols.Reset(len(t.owner))
	sc.tables.Reset(len(t.ids))
	bands, _ := t.setLSH.Params()
	var out []string
	for _, qc := range qcols {
		sc.ords = t.setLSH.Query(sc.ords[:0], qc.sig, bands, &sc.cols)
		for _, o := range sc.ords {
			if ti := t.owner[o]; sc.tables.Add(ti) {
				out = append(out, t.ids[ti])
			}
		}
		for _, r := range t.nlIndex.Search(qc.vec, 10, 60) {
			id, _ := table.SplitColumnKey(r.Key)
			if ti := t.tables[id].idx; sc.tables.Add(ti) {
				out = append(out, t.ids[ti])
			}
		}
	}
	sort.Strings(out)
	return out
}

// LSHFootprint reports the resident cost of the set-LSH band tables
// next to an estimate of the map-per-band form they replaced.
func (t *TUS) LSHFootprint() dict.Footprint {
	f := t.setLSH.Footprint()
	f.Bytes += int64(len(t.owner)) * 4
	return f
}
