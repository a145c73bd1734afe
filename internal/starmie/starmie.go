// Package starmie implements contextualized column representations for
// dataset discovery in the style of Starmie (Fan et al., 2022). Where
// context-free encoders embed a column from its values alone, the
// encoder here mixes in the rest of the table — other columns' content
// and headers — so the same values in different table contexts get
// different vectors. That is the property Starmie's contrastive
// training buys: homograph columns stop colliding and retrieval
// reflects the table's intent. Retrieval runs over an HNSW graph
// (approximate) or a linear scan (exact baseline), and table-level
// scores aggregate column similarities by bipartite matching.
package starmie

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"

	"tablehound/internal/embedding"
	"tablehound/internal/graph"
	"tablehound/internal/hnsw"
	"tablehound/internal/parallel"
	"tablehound/internal/table"
	"tablehound/internal/tokenize"
	"tablehound/internal/vecstore"
)

// Encoder turns table columns into context-aware vectors.
type Encoder struct {
	model *embedding.Model
	// ContextWeight in [0, 1) controls how much of the vector comes
	// from the surrounding table rather than the column itself.
	contextWeight float64
}

// NewEncoder creates an encoder. contextWeight 0 reproduces the
// context-free baseline; Starmie-like behavior sits around 0.3.
func NewEncoder(model *embedding.Model, contextWeight float64) *Encoder {
	if contextWeight < 0 {
		contextWeight = 0
	}
	if contextWeight > 0.9 {
		contextWeight = 0.9
	}
	return &Encoder{model: model, contextWeight: contextWeight}
}

// contentVector embeds a column from its own values and header.
func (e *Encoder) contentVector(c *table.Column) embedding.Vector {
	v := e.model.ColumnVector(c.Values)
	// Header words contribute lightly: lake headers are unreliable.
	words := tokenize.Words(c.Name)
	if len(words) > 0 {
		hv := embedding.Zero(e.model.Dim())
		for _, w := range words {
			hv.Add(e.model.TokenVector(w))
		}
		hv.Normalize()
		v.AddScaled(hv, 0.2)
	}
	return v.Normalize()
}

// EncodeColumns returns a context-aware vector per column, keyed by
// column name (ordered as in the table).
func (e *Encoder) EncodeColumns(t *table.Table) []embedding.Vector {
	cols := t.Columns
	content := make([]embedding.Vector, len(cols))
	for i, c := range cols {
		content[i] = e.contentVector(c)
	}
	if e.contextWeight == 0 || len(cols) < 2 {
		return content
	}
	out := make([]embedding.Vector, len(cols))
	for i := range cols {
		ctx := embedding.Zero(e.model.Dim())
		for j := range cols {
			if j != i {
				ctx.Add(content[j])
			}
		}
		ctx.Normalize()
		v := content[i].Clone()
		v.Scale(1 - e.contextWeight)
		v.AddScaled(ctx, e.contextWeight)
		out[i] = v.Normalize()
	}
	return out
}

// Result is one ranked unionable table.
type Result struct {
	TableID string
	Score   float64
}

// Builder encodes tables for an Index: add tables, then take their
// Parts (a delta's analysis) or Build the index from them. It must not
// be used concurrently.
type Builder struct {
	enc    *Encoder
	tables map[string]*table.Table
	parts  []TableParts // empty, not nil, without tables: as the codec reads them back
}

// NewBuilder creates a builder over the encoder.
func NewBuilder(enc *Encoder) *Builder {
	return &Builder{enc: enc, tables: make(map[string]*table.Table), parts: []TableParts{}}
}

// AddTables stages a batch of tables using up to workers goroutines.
// Contextual encoding — the dominant cost — fans out per table;
// registration commits sequentially in batch order, so the staged
// state is identical at any worker count. The encoder's model is only
// read. A table already staged is skipped.
func (b *Builder) AddTables(tables []*table.Table, workers int) {
	encoded, _ := parallel.Map(len(tables), workers, func(i int) ([]embedding.Vector, error) {
		return b.enc.EncodeColumns(tables[i]), nil
	})
	for i, t := range tables {
		if _, dup := b.tables[t.ID]; dup {
			continue
		}
		keys := make([]string, len(t.Columns))
		for j, c := range t.Columns {
			keys[j] = table.ColumnKey(t.ID, c.Name)
		}
		b.tables[t.ID] = t
		b.parts = append(b.parts, TableParts{ID: t.ID, Keys: keys, Vecs: encoded[i]})
	}
}

// Parts returns the staged tables' column vectors, tables in sorted-ID
// order. Slices alias the builder's state; do not mutate.
func (b *Builder) Parts() []TableParts {
	slices.SortFunc(b.parts, func(x, y TableParts) int { return strings.Compare(x.ID, y.ID) })
	return b.parts
}

// Build assembles the index over the staged tables from their Parts,
// its graph holding every column inserted in sorted key order.
func (b *Builder) Build() (*Index, error) {
	return NewIndexFromParts(b.enc, b.Parts(), nil, nil, func(id string) *table.Table { return b.tables[id] })
}

// Index retrieves unionable tables by contextualized column vectors. It
// is built by a Builder or assembled from parts (NewIndexFromParts);
// every search is a pure read, safe for concurrent use.
type Index struct {
	enc     *Encoder
	graph   *hnsw.Graph
	colKeys []string
	vecs    map[string]embedding.Vector
	byTable map[string][]string // table ID -> column keys
	// indexed maps a table ID to the table whose columns were encoded
	// under it (the catalog lookup of an assembly or a decode). A query
	// that is that very table — the same pointer, not merely the same
	// ID — is answered from the indexed vectors instead of being
	// encoded again (see PrepareTable).
	indexed map[string]*table.Table

	// Bound vector-store state (see Bind): row i of view backs
	// colKeys[i], and rowOf inverts that for norm lookups.
	view    vecstore.View
	rowOf   map[string]int
	hasView bool
}

func newIndex(enc *Encoder) *Index {
	return &Index{
		enc:     enc,
		vecs:    make(map[string]embedding.Vector),
		byTable: make(map[string][]string),
		indexed: make(map[string]*table.Table),
	}
}

// GraphConfig shapes the column graph.
var GraphConfig = hnsw.Config{M: 12, EfConstruction: 100, Seed: 23}

// insert adds to the graph, in sorted order, each of keys the graph
// lacks, and appends it to colKeys, which so stays the graph's node
// order. It is the one insertion loop of every assembly (see
// NewIndexFromParts); keys is sorted in place.
func (ix *Index) insert(keys []string) error {
	sort.Strings(keys)
	for _, k := range keys {
		if _, ok := ix.graph.Vector(k); ok {
			continue
		}
		if err := ix.graph.Add(k, ix.vecs[k]); err != nil {
			return err
		}
		ix.colKeys = append(ix.colKeys, k)
	}
	return nil
}

// NumColumns returns the number of indexed column vectors.
func (ix *Index) NumColumns() int { return len(ix.colKeys) }

// ColumnKeys returns the indexed column keys in the graph's node order
// — the row order of the index's vector-store segment. A build inserts
// in sorted order; a merge that grew a loaded graph appends each
// delta's keys after the ones it loaded. The slice is the index's own;
// callers must not mutate it.
func (ix *Index) ColumnKeys() []string { return ix.colKeys }

// Graph returns the column graph.
func (ix *Index) Graph() *hnsw.Graph { return ix.graph }

// VectorOf returns the indexed vector for a column key, or nil.
func (ix *Index) VectorOf(key string) embedding.Vector { return ix.vecs[key] }

// Bind aliases the index onto a vector-store view whose row i holds
// colKeys[i]'s vector (bit-identical values — only the backing
// memory moves). It enables norm-precomputed cosine in SearchTables.
func (ix *Index) Bind(view vecstore.View) error {
	if view.Len() != len(ix.colKeys) {
		return fmt.Errorf("starmie: bind over %d rows, index has %d columns", view.Len(), len(ix.colKeys))
	}
	rowOf := make(map[string]int, len(ix.colKeys))
	for i, k := range ix.colKeys {
		ix.vecs[k] = embedding.Vector(view.Vec(i))
		rowOf[k] = i
	}
	if err := ix.graph.RebindVecs(func(k string) (embedding.Vector, bool) {
		v, ok := ix.vecs[k]
		return v, ok
	}); err != nil {
		return err
	}
	ix.view, ix.rowOf, ix.hasView = view, rowOf, true
	return nil
}

// SearchColumns returns the k nearest indexed columns to a vector.
// Approximate (HNSW) unless exact is set, which linearly scans.
func (ix *Index) SearchColumns(v embedding.Vector, k, efSearch int, exact bool) []hnsw.Result {
	if exact {
		return ix.graph.BruteForce(v, k)
	}
	return ix.graph.Search(v, k, efSearch)
}

// SearchTables returns the k tables most unionable with the query:
// each query column retrieves its nearest indexed columns, candidate
// tables are scored by bipartite matching of column cosines, top k
// returned. exact switches retrieval to the linear-scan baseline.
// Scoring checks ctx between candidate tables; a cancelled context
// returns ctx.Err().
func (ix *Index) SearchTables(ctx context.Context, query *table.Table, k, efSearch int, exact bool) ([]Result, error) {
	pq, err := ix.PrepareTable(query)
	if err != nil {
		return nil, err
	}
	return ix.ScoreTablesAmong(ctx, pq, ix.CandidateTables(pq, efSearch, exact), k)
}

// TableQuery is a query table's encoded column vectors with
// precomputed norms. Prepare once, then reuse across CandidateTables
// and ScoreTablesAmong so staged planners do not re-encode per stage.
type TableQuery struct {
	id string
	qv []embedding.Vector
	qn []float64
}

// PrepareTable encodes a query table's columns; a query that is an
// indexed table reuses its indexed vectors and norms, which are the
// encoder's output bit for bit. A query without columns wraps
// table.ErrBadQuery.
func (ix *Index) PrepareTable(query *table.Table) (*TableQuery, error) {
	pq := &TableQuery{id: query.ID}
	if ix.indexed[query.ID] == query {
		keys := ix.byTable[query.ID]
		pq.qv = make([]embedding.Vector, len(keys))
		pq.qn = make([]float64, len(keys))
		for i, k := range keys {
			pq.qv[i], pq.qn[i] = ix.vecs[k], ix.norm(k)
		}
	} else {
		// Query-column norms once per query; indexed-column norms come
		// precomputed from the vector store when bound, so each matrix
		// cell in scoring is a single dot product.
		pq.qv = ix.enc.EncodeColumns(query)
		pq.qn = make([]float64, len(pq.qv))
		for i, v := range pq.qv {
			pq.qn[i] = v.Norm()
		}
	}
	if len(pq.qv) == 0 {
		return nil, fmt.Errorf("starmie: query table has no columns: %w", table.ErrBadQuery)
	}
	return pq, nil
}

// CandidateTables returns the sorted candidate table IDs from
// per-column retrieval, excluding the query's own ID.
func (ix *Index) CandidateTables(pq *TableQuery, efSearch int, exact bool) []string {
	seen := make(map[string]bool)
	var cands []string
	for _, v := range pq.qv {
		for _, r := range ix.SearchColumns(v, 8, efSearch, exact) {
			id, _ := table.SplitColumnKey(r.Key)
			if !seen[id] && id != pq.id {
				seen[id] = true
				cands = append(cands, id)
			}
		}
	}
	sort.Strings(cands)
	return cands
}

// ScoreTablesAmong scores the given candidate tables by bipartite
// matching of column cosines and returns the top k; with ids =
// CandidateTables(pq, efSearch, exact) it is bit-identical to
// SearchTables. One weight matrix and one matcher serve every
// candidate; ctx is checked between candidates.
func (ix *Index) ScoreTablesAmong(ctx context.Context, pq *TableQuery, ids []string, k int) ([]Result, error) {
	var (
		res     []Result
		buf     []float64
		matcher graph.Matcher
	)
	nq := len(pq.qv)
	for _, id := range ids {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if id == pq.id {
			continue
		}
		ckeys := ix.byTable[id]
		nc := len(ckeys)
		// One buffer holds the matrix and, past it, the row of a
		// candidate column's dot products with the query columns.
		if cap(buf) < nq*nc+nq {
			buf = make([]float64, nq*nc+nq)
		}
		w, dots := buf[:nq*nc], buf[nq*nc:nq*nc+nq]
		for j, ck := range ckeys {
			cv, cn := ix.vecs[ck], ix.norm(ck)
			embedding.DotMany(cv, pq.qv, dots)
			for i := range pq.qv {
				w[i*nc+j] = 0
				if c := embedding.CosineOfDot(dots[i], pq.qn[i], cn); c > 0 {
					w[i*nc+j] = c
				}
			}
		}
		res = append(res, Result{TableID: id, Score: matcher.MaxWeight(w, nq, nc) / float64(nq)})
	}
	sort.Slice(res, func(i, j int) bool {
		if res[i].Score != res[j].Score {
			return res[i].Score > res[j].Score
		}
		return res[i].TableID < res[j].TableID
	})
	if len(res) > k {
		res = res[:k]
	}
	return res, nil
}

// norm returns an indexed column's norm: the store's precomputed one
// when a view is bound, the same value computed on the spot otherwise.
func (ix *Index) norm(ck string) float64 {
	if ix.hasView {
		if row, ok := ix.rowOf[ck]; ok {
			return ix.view.Norm(row)
		}
	}
	return ix.vecs[ck].Norm()
}
