package join

import (
	"errors"
	"math"
	"sort"
	"sync"

	"tablehound/internal/dict"
	"tablehound/internal/embedding"
	"tablehound/internal/parallel"
	"tablehound/internal/tokenize"
	"tablehound/internal/vecstore"
)

// FuzzyMatch is one fuzzy-joinable column hit.
type FuzzyMatch struct {
	ColumnKey string
	// MatchedFraction is the fraction of query values with at least
	// one target value above the similarity threshold — PEXESO's
	// joinability measure.
	MatchedFraction float64
}

// FuzzyStats counts the work a fuzzy query performed, exposing the
// effect of pivot filtering and (when centroids are built) cluster
// pruning. Every candidate a query value considers lands in exactly
// one bucket: compared, pivot-skipped, or cluster-skipped.
type FuzzyStats struct {
	Comparisons  int // full vector similarity computations
	PivotSkips   int // candidates pruned by the pivot filter
	ClusterSkips int // candidates pruned wholesale by centroid bounds
}

// FuzzyJoiner finds columns that join with a query column under
// vector similarity rather than equality — the PEXESO approach to
// dirty or semantically equivalent join keys. Values are embedded
// (trained model with char-gram fallback) and a value matches if its
// cosine similarity exceeds tau.
//
// Candidate pruning uses pivot-based metric filtering: each indexed
// vector stores its distance to p shared pivot vectors; by the
// triangle inequality a candidate x can match query q only if
// |d(q,pi) - d(x,pi)| <= r for every pivot, where r is the distance
// radius corresponding to tau. Vectors failing the test are skipped
// without a similarity computation.
//
// Each distinct lake value is embedded exactly once: columns hold
// integer slots into shared vector and pivot-distance tables, so a
// value appearing in many columns costs one embedding, one distance
// row, and one canonical string (interned through the lake
// dictionary when one is supplied).
type FuzzyJoiner struct {
	model     *embedding.Model
	numPivots int
	pivots    []embedding.Vector
	dict      *dict.Dict
	slotOf    map[string]int32   // distinct value -> slot
	slotVec   []embedding.Vector // slot -> embedding
	slotPD    [][]float64        // slot -> distance per pivot
	cols      map[string]*fuzzyColumn
	keys      []string
	// cents, once requested, buckets the shared slots by nearest
	// centroid and groups each column's slots per cluster, so a
	// query value can discard a whole group when the cluster's dot
	// upper bound falls short of tau (lossless — see
	// valueMatchesPruned). The table is trained by the first Search.
	cents *centroidTable

	// QueryParallelism bounds the per-query fan-out in Search (query-
	// value embedding and per-column verification): 0 = GOMAXPROCS,
	// negative or 1 = sequential. Results and stats are bit-identical
	// at every setting. Set before serving queries.
	QueryParallelism int
}

// fuzzyColumn is one indexed column: slots into the joiner's shared
// vector tables, in normalized distinct-value order.
type fuzzyColumn struct {
	slots []int32
}

// centroidTable is a BuildCentroids request and, once the first
// Search has trained it, the k-means table with every column's slots
// bucketed by cluster (groups[i] belongs to keys[i]).
type centroidTable struct {
	k       int
	seed    uint64
	workers int

	once   sync.Once
	c      *vecstore.Centroids
	groups [][]slotGroup
}

// slotGroup is one column's slots that share a centroid cluster.
type slotGroup struct {
	cluster int32
	slots   []int32
}

// NewFuzzyJoiner creates a joiner over the given embedding model with
// numPivots pivot vectors (4-8 is typical).
func NewFuzzyJoiner(model *embedding.Model, numPivots int) *FuzzyJoiner {
	if numPivots <= 0 {
		numPivots = 4
	}
	return &FuzzyJoiner{
		model:     model,
		numPivots: numPivots,
		slotOf:    make(map[string]int32),
		cols:      make(map[string]*fuzzyColumn),
	}
}

// UseDict supplies the lake dictionary, used to intern the canonical
// string behind each vector slot so slot keys share storage with the
// rest of the system.
func (f *FuzzyJoiner) UseDict(d *dict.Dict) { f.dict = d }

// choosePivots runs farthest-point selection over the first indexed
// column's vectors. Pivots drawn from the data spread across the
// populated region of the space; random pivots in high dimension are
// nearly equidistant from everything and prune nothing.
func (f *FuzzyJoiner) choosePivots(vecs []embedding.Vector) {
	if len(vecs) == 0 {
		return
	}
	f.pivots = append(f.pivots, vecs[0])
	minDist := make([]float64, len(vecs))
	for i, v := range vecs {
		minDist[i] = euclid(v, vecs[0])
	}
	for len(f.pivots) < f.numPivots {
		best, bestD := -1, -1.0
		for i, d := range minDist {
			if d > bestD {
				best, bestD = i, d
			}
		}
		if best < 0 || bestD == 0 {
			break
		}
		p := vecs[best]
		f.pivots = append(f.pivots, p)
		for i, v := range vecs {
			if d := euclid(v, p); d < minDist[i] {
				minDist[i] = d
			}
		}
	}
}

// slot returns the shared slot of a value, embedding it on first
// sight. Pivot distances are filled separately (pivots may not exist
// yet). Not safe for concurrent use.
func (f *FuzzyJoiner) slot(v string) int32 {
	if s, ok := f.slotOf[v]; ok {
		return s
	}
	s := int32(len(f.slotVec))
	f.slotOf[f.dict.Intern(v)] = s
	f.slotVec = append(f.slotVec, f.model.ValueVector(v))
	f.slotPD = append(f.slotPD, nil)
	return s
}

// colVecs materializes a column's vectors in value order (for pivot
// selection).
func (f *FuzzyJoiner) colVecs(fc *fuzzyColumn) []embedding.Vector {
	out := make([]embedding.Vector, len(fc.slots))
	for i, s := range fc.slots {
		out[i] = f.slotVec[s]
	}
	return out
}

// fillPivotDistances computes distance rows for every slot that lacks
// one. Sequential; the batch path parallelizes the same work per slot.
func (f *FuzzyJoiner) fillPivotDistances() {
	for s := range f.slotPD {
		if f.slotPD[s] == nil {
			f.slotPD[s] = f.pivotDistances(f.slotVec[s])
		}
	}
}

// AddColumn indexes a column's distinct values.
func (f *FuzzyJoiner) AddColumn(key string, values []string) error {
	if _, dup := f.cols[key]; dup {
		return errors.New("join: duplicate fuzzy column " + key)
	}
	distinct := tokenize.NormalizeSet(values)
	fc := &fuzzyColumn{slots: make([]int32, len(distinct))}
	for j, v := range distinct {
		fc.slots[j] = f.slot(v)
	}
	if len(f.pivots) == 0 {
		f.choosePivots(f.colVecs(fc))
	}
	f.fillPivotDistances()
	f.cols[key] = fc
	f.keys = append(f.keys, key)
	sort.Strings(f.keys)
	f.cents = nil
	return nil
}

// FuzzyColumn is one column staged for batch indexing via AddColumns.
type FuzzyColumn struct {
	Key    string
	Values []string
}

// AddColumns indexes a batch of columns using up to workers goroutines
// for the embedding work, producing exactly the state a sequential
// AddColumn loop over the same batch would. Normalization, the
// embedding of newly seen values, and pivot-distance rows (the
// dominant costs) fan out; duplicate checks, slot assignment, and
// pivot selection — the order-sensitive steps — run sequentially in
// batch order. The embedding model is only read, never written.
func (f *FuzzyJoiner) AddColumns(cols []FuzzyColumn, workers int) error {
	// Phase 1 (parallel): normalize every column.
	distincts, err := parallel.Map(len(cols), workers, func(i int) ([]string, error) {
		return tokenize.NormalizeSet(cols[i].Values), nil
	})
	if err != nil {
		return err
	}
	// Phase 2 (sequential): duplicate checks and slot assignment in
	// batch order; embedding of new slots is deferred to phase 3.
	var newVals []string
	base := len(f.slotVec)
	fcs := make([]*fuzzyColumn, len(cols))
	for i, distinct := range distincts {
		if _, dup := f.cols[cols[i].Key]; dup {
			return errors.New("join: duplicate fuzzy column " + cols[i].Key)
		}
		fc := &fuzzyColumn{slots: make([]int32, len(distinct))}
		for j, v := range distinct {
			s, ok := f.slotOf[v]
			if !ok {
				s = int32(len(f.slotVec))
				f.slotOf[f.dict.Intern(v)] = s
				f.slotVec = append(f.slotVec, nil)
				f.slotPD = append(f.slotPD, nil)
				newVals = append(newVals, v)
			}
			fc.slots[j] = s
		}
		fcs[i] = fc
		f.cols[cols[i].Key] = fc
		f.keys = append(f.keys, cols[i].Key)
	}
	// Phase 3 (parallel): embed newly seen values, one writer per slot.
	if err := parallel.ForEach(len(newVals), workers, func(i int) error {
		f.slotVec[base+i] = f.model.ValueVector(newVals[i])
		return nil
	}); err != nil {
		return err
	}
	// Phase 4 (sequential): pivot selection from the first committed
	// column with vectors, exactly as in the incremental path.
	for _, fc := range fcs {
		if len(f.pivots) > 0 {
			break
		}
		f.choosePivots(f.colVecs(fc))
	}
	// Phase 5 (parallel): distance rows for slots lacking one.
	missing := make([]int32, 0, len(newVals))
	for s := range f.slotPD {
		if f.slotPD[s] == nil {
			missing = append(missing, int32(s))
		}
	}
	if err := parallel.ForEach(len(missing), workers, func(i int) error {
		s := missing[i]
		f.slotPD[s] = f.pivotDistances(f.slotVec[s])
		return nil
	}); err != nil {
		return err
	}
	sort.Strings(f.keys)
	f.cents = nil
	return nil
}

// BuildCentroids requests a deterministic k-means table over the
// shared slot vectors (seeded k-means++, bit-reproducible for a given
// seed) whose clusters bucket every column's slots, enabling lossless
// cluster pruning in Search. It only records k, seed and workers: the
// first Search trains the table, once, so a joiner that is never
// queried never pays for it. Call after all columns are indexed;
// adding columns afterwards drops a pending or trained table. k is
// clamped to the number of slots; k <= 0 is a no-op. Training fans out
// over up to workers goroutines; the table is the same at every count.
func (f *FuzzyJoiner) BuildCentroids(k int, seed uint64, workers int) {
	if len(f.slotVec) == 0 || k <= 0 {
		return
	}
	f.cents = &centroidTable{k: k, seed: seed, workers: workers}
}

// centroids returns the requested table, training it on first use, or
// nil when none was requested. Safe for concurrent use.
func (f *FuzzyJoiner) centroids() *centroidTable {
	ct := f.cents
	if ct == nil {
		return nil
	}
	ct.once.Do(func() {
		ct.c = vecstore.Train(func(i int) []float32 { return f.slotVec[i] }, len(f.slotVec), f.model.Dim(), ct.k, ct.seed, ct.workers)
		ct.groups = make([][]slotGroup, len(f.keys))
		for i, key := range f.keys {
			ct.groups[i] = f.cols[key].groupSlots(ct.c)
		}
	})
	return ct
}

// groupSlots buckets the column's slots by cluster, clusters in
// ascending order, slots in original (normalized distinct-value)
// order within each.
func (fc *fuzzyColumn) groupSlots(c *vecstore.Centroids) []slotGroup {
	by := make(map[int32][]int32)
	clusters := make([]int32, 0, 8)
	for _, s := range fc.slots {
		j := c.AssignOf(int(s))
		if _, ok := by[j]; !ok {
			clusters = append(clusters, j)
		}
		by[j] = append(by[j], s)
	}
	sort.Slice(clusters, func(a, b int) bool { return clusters[a] < clusters[b] })
	groups := make([]slotGroup, len(clusters))
	for i, j := range clusters {
		groups[i] = slotGroup{cluster: j, slots: by[j]}
	}
	return groups
}

// VectorStats returns the number of distinct embedded vectors (shared
// slots) and the total per-column value references into them — the
// dedup ratio the slot tables buy.
func (f *FuzzyJoiner) VectorStats() (slots, refs int) {
	slots = len(f.slotVec)
	for _, fc := range f.cols {
		refs += len(fc.slots)
	}
	return slots, refs
}

// Footprint reports the resident cost of the joiner's shared slot
// tables next to an estimate of the form they replace, a vector and a
// pivot-distance row per value of every column. Count is the number
// of column value references. Each slot costs its vector (float32s of
// the model dimension behind a slice header), its pivot-distance row
// (a float64 per pivot behind a slice header) and its value → slot
// map entry (the value string is the dictionary's); each column costs
// its int32 slot per value, the slice header, its map entry and key.
// A slot whose value is a model token shares the model's row, so only
// its slice header is counted. The centroid table, trained by the
// first Search, is not.
func (f *FuzzyJoiner) Footprint() dict.Footprint {
	dim := int64(f.model.Dim())
	row := int64(len(f.pivots))*8 + dict.SliceHeaderBytes
	var fp dict.Footprint
	for v := range f.slotOf {
		fp.Bytes += dict.SliceHeaderBytes + row + dict.StringHeaderBytes + 4 + dict.MapEntryBytes
		if !f.model.Has(v) {
			fp.Bytes += dim * 4
		}
	}
	for key, fc := range f.cols {
		refs := int64(len(fc.slots))
		fp.Count += len(fc.slots)
		fp.Bytes += refs*4 + dict.SliceHeaderBytes + dict.MapEntryBytes + dict.StringHeaderBytes + int64(len(key))
		fp.LegacyBytes += refs * (dim*4 + dict.SliceHeaderBytes + row)
	}
	return fp
}

func (f *FuzzyJoiner) pivotDistances(v embedding.Vector) []float64 {
	out := make([]float64, len(f.pivots))
	for i, p := range f.pivots {
		out[i] = euclid(v, p)
	}
	return out
}

// euclid for unit vectors: sqrt(2 - 2*dot).
func euclid(a, b embedding.Vector) float64 {
	return math.Sqrt(math.Max(0, 2-2*a.Dot(b)))
}

// Search returns columns where at least minFraction of the query's
// distinct values fuzzy-match some target value at cosine >= tau,
// ranked by matched fraction. Search is safe for concurrent use, but
// not concurrently with AddColumn or AddColumns. The first Search
// after BuildCentroids trains the centroid table while concurrent
// callers wait for that one training. Query embedding and per-column
// verification fan out over QueryParallelism workers into indexed
// slots, with the stats summed in column order, so results are
// bit-identical to the sequential scan. Query values already present
// in the slot tables reuse their cached vector and distance row
// instead of re-embedding.
func (f *FuzzyJoiner) Search(values []string, tau, minFraction float64) ([]FuzzyMatch, FuzzyStats) {
	var st FuzzyStats
	q := tokenize.NormalizeSet(values)
	if len(q) == 0 {
		return nil, st
	}
	workers := parallel.Resolve(f.QueryParallelism)
	qv := make([]embedding.Vector, len(q))
	qp := make([][]float64, len(q))
	ct := f.centroids()
	var maxd [][]float64 // per query value: per-cluster dot upper bounds
	if ct != nil {
		maxd = make([][]float64, len(q))
	}
	parallel.ForEach(len(q), workers, func(i int) error {
		if s, ok := f.slotOf[q[i]]; ok {
			qv[i], qp[i] = f.slotVec[s], f.slotPD[s]
		} else {
			qv[i] = f.model.ValueVector(q[i])
			qp[i] = f.pivotDistances(qv[i])
		}
		if maxd != nil {
			maxd[i] = ct.c.MaxDots(qv[i], nil)
		}
		return nil
	})
	// Matching radius: cosine >= tau on unit vectors means Euclidean
	// distance <= sqrt(2 - 2 tau).
	r := math.Sqrt(math.Max(0, 2-2*tau))
	type colResult struct {
		matched int
		st      FuzzyStats
	}
	results, _ := parallel.Map(len(f.keys), workers, func(i int) (colResult, error) {
		fc := f.cols[f.keys[i]]
		var cr colResult
		for j := range q {
			var hit bool
			if ct != nil {
				hit = f.valueMatchesPruned(qv[j], qp[j], maxd[j], ct.groups[i], tau, r, &cr.st)
			} else {
				hit = f.valueMatches(qv[j], qp[j], fc, tau, r, &cr.st)
			}
			if hit {
				cr.matched++
			}
		}
		return cr, nil
	})
	var out []FuzzyMatch
	for i, key := range f.keys {
		st.Comparisons += results[i].st.Comparisons
		st.PivotSkips += results[i].st.PivotSkips
		st.ClusterSkips += results[i].st.ClusterSkips
		frac := float64(results[i].matched) / float64(len(q))
		if frac >= minFraction {
			out = append(out, FuzzyMatch{ColumnKey: key, MatchedFraction: frac})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].MatchedFraction != out[j].MatchedFraction {
			return out[i].MatchedFraction > out[j].MatchedFraction
		}
		return out[i].ColumnKey < out[j].ColumnKey
	})
	return out, st
}

func (f *FuzzyJoiner) valueMatches(qv embedding.Vector, qp []float64, fc *fuzzyColumn, tau, r float64, st *FuzzyStats) bool {
	return f.matchSlots(qv, qp, fc.slots, tau, r, st)
}

// valueMatchesPruned is valueMatches over one column's cluster
// groups: a group whose cluster dot bound (plus the bound's error
// margin) falls below tau cannot contain a match — every member x
// has qv·x <= maxd[cluster] — so all its candidates are skipped
// without touching their vectors or pivot rows. The boolean result
// is always identical to valueMatches; only the work differs.
func (f *FuzzyJoiner) valueMatchesPruned(qv embedding.Vector, qp, maxd []float64, groups []slotGroup, tau, r float64, st *FuzzyStats) bool {
	for _, g := range groups {
		if maxd[g.cluster]+vecstore.BoundEps < tau {
			st.ClusterSkips += len(g.slots)
			continue
		}
		if f.matchSlots(qv, qp, g.slots, tau, r, st) {
			return true
		}
	}
	return false
}

func (f *FuzzyJoiner) matchSlots(qv embedding.Vector, qp []float64, slots []int32, tau, r float64, st *FuzzyStats) bool {
candidates:
	for _, s := range slots {
		pd := f.slotPD[s]
		for p := range f.pivots {
			d := qp[p] - pd[p]
			if d < 0 {
				d = -d
			}
			if d > r {
				st.PivotSkips++
				continue candidates
			}
		}
		st.Comparisons++
		if qv.Dot(f.slotVec[s]) >= tau {
			return true
		}
	}
	return false
}
