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
	"errors"
	"fmt"
	"sort"

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
	v := e.model.ColumnVector(c.Values).Clone()
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

// Index retrieves unionable tables by contextualized column vectors.
type Index struct {
	enc     *Encoder
	graph   *hnsw.Graph
	colKeys []string
	vecs    map[string]embedding.Vector
	byTable map[string][]string // table ID -> column keys
	// staged maps a table ID to the table whose columns were encoded
	// under it (AddTable/AddTables, or the catalog lookup of a decoded or
	// reassembled index). A query that is that very table — the same
	// pointer, not merely the same ID — is answered from the indexed
	// vectors instead of being encoded again (see PrepareTable).
	staged map[string]*table.Table
	built  bool

	// Bound vector-store state (see Bind): row i of view backs
	// colKeys[i], rowOf inverts that for norm lookups, and nprobe
	// limits centroid-pruned exact search (0 = all = exhaustive-
	// identical).
	view    vecstore.View
	rowOf   map[string]int
	hasView bool
	nprobe  int
}

// NewIndex creates an index over the encoder.
func NewIndex(enc *Encoder) *Index {
	return &Index{
		enc:     enc,
		vecs:    make(map[string]embedding.Vector),
		byTable: make(map[string][]string),
		staged:  make(map[string]*table.Table),
	}
}

// AddTable encodes and stages a table's columns.
func (ix *Index) AddTable(t *table.Table) {
	if _, dup := ix.byTable[t.ID]; dup {
		return
	}
	vecs := ix.enc.EncodeColumns(t)
	var keys []string
	for i, c := range t.Columns {
		key := table.ColumnKey(t.ID, c.Name)
		ix.vecs[key] = vecs[i]
		ix.colKeys = append(ix.colKeys, key)
		keys = append(keys, key)
	}
	ix.byTable[t.ID] = keys
	ix.staged[t.ID] = t
	ix.built = false
}

// AddTables stages a batch of tables using up to workers goroutines.
// Contextual encoding — the dominant cost — fans out per table;
// key registration commits sequentially in batch order, so the index
// state is identical at any worker count. The encoder's model is only
// read. The HNSW graph is still built by Build, sequentially, because
// its structure depends on insertion order.
func (ix *Index) AddTables(tables []*table.Table, workers int) {
	encoded, _ := parallel.Map(len(tables), workers, func(i int) ([]embedding.Vector, error) {
		return ix.enc.EncodeColumns(tables[i]), nil
	})
	for i, t := range tables {
		if _, dup := ix.byTable[t.ID]; dup {
			continue
		}
		var keys []string
		for j, c := range t.Columns {
			key := table.ColumnKey(t.ID, c.Name)
			ix.vecs[key] = encoded[i][j]
			ix.colKeys = append(ix.colKeys, key)
			keys = append(keys, key)
		}
		ix.byTable[t.ID] = keys
		ix.staged[t.ID] = t
		ix.built = false
	}
}

// AddVector stages a raw column vector under a key, for callers that
// encode columns themselves (benchmarks, bulk loads). Keys must be
// unique and of the form "tableID.column".
func (ix *Index) AddVector(key string, v embedding.Vector) {
	if _, dup := ix.vecs[key]; dup {
		return
	}
	ix.vecs[key] = v
	ix.colKeys = append(ix.colKeys, key)
	id, _ := table.SplitColumnKey(key)
	ix.byTable[id] = append(ix.byTable[id], key)
	ix.built = false
}

// Build constructs the HNSW graph.
func (ix *Index) Build() error {
	if len(ix.colKeys) == 0 {
		return errors.New("starmie: no tables added")
	}
	sort.Strings(ix.colKeys)
	ix.graph = hnsw.New(hnsw.Config{M: 12, EfConstruction: 100, Seed: 23})
	for _, k := range ix.colKeys {
		if err := ix.graph.Add(k, ix.vecs[k]); err != nil {
			return err
		}
	}
	ix.built = true
	ix.hasView = false // stale after any re-Build; caller re-Binds
	ix.rowOf = nil
	return nil
}

// NumColumns returns the number of indexed column vectors.
func (ix *Index) NumColumns() int { return len(ix.colKeys) }

// ColumnKeys returns the indexed column keys in their sorted
// (post-Build) order — the row order of the index's vector-store
// segment. The slice is the index's own; callers must not mutate it.
func (ix *Index) ColumnKeys() []string { return ix.colKeys }

// VectorOf returns the indexed vector for a column key, or nil.
func (ix *Index) VectorOf(key string) embedding.Vector { return ix.vecs[key] }

// Bind aliases the index onto a vector-store view whose row i holds
// colKeys[i]'s vector (bit-identical values — only the backing
// memory moves). It enables norm-precomputed cosine in SearchTables
// and, when the view's segment has a centroid table, cluster-pruned
// exact search with the given nprobe (0 = visit every non-excluded
// cluster = bit-identical to the exhaustive scan).
func (ix *Index) Bind(view vecstore.View, nprobe int) error {
	if !ix.built {
		return ErrNotBuilt
	}
	if view.Len() != len(ix.colKeys) {
		return fmt.Errorf("starmie: bind over %d rows, index has %d columns", view.Len(), len(ix.colKeys))
	}
	rowOf := make(map[string]int, len(ix.colKeys))
	for i, k := range ix.colKeys {
		ix.vecs[k] = embedding.Vector(view.Vec(i))
		rowOf[k] = i
	}
	if err := ix.graph.RebindVecs(view.Vec, view.Len()); err != nil {
		return err
	}
	ix.view, ix.rowOf, ix.hasView = view, rowOf, true
	ix.nprobe = nprobe
	return nil
}

// SetNProbe adjusts how many clusters pruned exact search visits.
// Not safe to call concurrently with searches; set it at load time.
func (ix *Index) SetNProbe(n int) { ix.nprobe = n }

// ErrNotBuilt is returned (or nil results, for SearchColumns) when a
// search runs before Build has frozen the staged tables.
var ErrNotBuilt = errors.New("starmie: index not built (call Build after adding tables)")

// SearchColumns returns the k nearest indexed columns to a vector.
// Approximate (HNSW) unless exact is set, which linearly scans.
// SearchColumns is a pure read: it requires a prior Build (nil
// otherwise, never an implicit rebuild) and is safe for concurrent
// use.
func (ix *Index) SearchColumns(v embedding.Vector, k, efSearch int, exact bool) []hnsw.Result {
	if !ix.built {
		return nil
	}
	if exact {
		// Centroid-pruned scan when a quantized view is bound: visits
		// clusters in ascending centroid distance, skips those whose
		// dot bound cannot reach the current k-th score. With nprobe=0
		// the results are bit-identical to BruteForce; nprobe>0 trades
		// recall for work.
		if ix.hasView && ix.view.Centroids() != nil {
			hits := ix.view.TopK(v, k, ix.nprobe, nil)
			out := make([]hnsw.Result, len(hits))
			for i, h := range hits {
				out[i] = hnsw.Result{Key: ix.colKeys[h.Row], Score: h.Score}
			}
			return out
		}
		return ix.graph.BruteForce(v, k)
	}
	return ix.graph.Search(v, k, efSearch)
}

// SearchTables returns the k tables most unionable with the query:
// each query column retrieves its nearest indexed columns, candidate
// tables are scored by bipartite matching of column cosines, top k
// returned. exact switches retrieval to the linear-scan baseline.
// SearchTables is a pure read: it requires a prior Build (ErrNotBuilt
// otherwise) and is safe for concurrent use. Scoring checks ctx
// between candidate tables; a cancelled context returns ctx.Err().
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

// PrepareTable encodes a query table's columns; a query that is a
// staged table reuses its indexed vectors and norms, which are the
// encoder's output bit for bit. A query without columns wraps
// table.ErrBadQuery.
func (ix *Index) PrepareTable(query *table.Table) (*TableQuery, error) {
	if !ix.built {
		return nil, ErrNotBuilt
	}
	pq := &TableQuery{id: query.ID}
	if ix.staged[query.ID] == query {
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
		w       []float64
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
		if cap(w) < nq*nc {
			w = make([]float64, nq*nc)
		}
		w = w[:nq*nc]
		for j, ck := range ckeys {
			cv, cn := ix.vecs[ck], ix.norm(ck)
			for i, v := range pq.qv {
				w[i*nc+j] = 0
				if c := embedding.CosineWithNorms(v, cv, pq.qn[i], cn); c > 0 {
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
