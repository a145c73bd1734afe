// Package join implements joinable table search (Section 2.4 of the
// tutorial): given a query column, find data-lake columns that can
// join with it. It unifies the surveyed strategies behind one engine:
//
//   - exact top-k overlap search (JOSIE),
//   - exact containment threshold search over JOSIE's posting lists
//     (the question LSH Ensemble answers approximately; internal/exp
//     keeps the ensemble as the baseline it is measured against),
//   - exact Jaccard threshold search (the Das Sarma-era baseline whose
//     bias against large domains containment fixes),
//   - fuzzy/semantic join via embeddings with pivot filtering (PEXESO),
//   - multi-attribute join via row super-keys (MATE), and
//   - correlation-aware join discovery via QCR sketches.
//
// All exact set arithmetic runs on dictionary-interned integer
// postings (see internal/dict): columns are encoded once at build
// time, queries once at query entry, and every overlap/containment/
// Jaccard is a sorted-integer merge instead of a string-map probe.
package join

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"tablehound/internal/dict"
	"tablehound/internal/invindex"
	"tablehound/internal/josie"
	"tablehound/internal/parallel"
	"tablehound/internal/table"
	"tablehound/internal/tokenize"
)

// Match is one joinable column hit.
type Match struct {
	ColumnKey   string  // table.ColumnKey of the matched column
	Overlap     int     // exact value overlap (when computed)
	Containment float64 // |Q ∩ X| / |Q| (when computed)
	Jaccard     float64 // (when computed)
}

// Builder stages columns for a join Engine.
type Builder struct {
	minCardinality int
	dict           *dict.Dict
	cols           map[string][]string
	order          []string
}

// NewBuilder creates a Builder. Columns with fewer than minCardinality
// distinct values are skipped (tiny columns join with everything and
// pollute results); pass 1 to keep all non-empty columns.
func NewBuilder(minCardinality int) *Builder {
	if minCardinality < 1 {
		minCardinality = 1
	}
	return &Builder{
		minCardinality: minCardinality,
		cols:           make(map[string][]string),
	}
}

// UseDict supplies a lake-wide value dictionary covering every staged
// value. Build encodes columns through it so the engine shares one ID
// space with the rest of the system; if the dictionary turns out not
// to cover some staged value, Build falls back to a self-built
// dictionary (cross-column matching must stay within one ID space).
func (b *Builder) UseDict(d *dict.Dict) { b.dict = d }

// AddTable stages every column of the table that Indexes admits.
func (b *Builder) AddTable(t *table.Table) {
	for _, c := range t.Columns {
		if distinct, ok := admit(c, b.minCardinality); ok {
			b.stage(table.ColumnKey(t.ID, c.Name), distinct)
		}
	}
}

// Indexes reports whether AddTable stages column c on a Builder of
// minCardinality: a string, date or untyped column with at least
// minCardinality distinct normalized values.
func Indexes(c *table.Column, minCardinality int) bool {
	_, ok := admit(c, max(minCardinality, 1))
	return ok
}

// admit returns column c's distinct normalized values and whether
// AddTable stages it.
func admit(c *table.Column, minCardinality int) ([]string, bool) {
	if c.Type != table.TypeString && c.Type != table.TypeDate && c.Type != table.TypeUnknown {
		return nil, false
	}
	distinct := tokenize.NormalizeSet(c.Values)
	return distinct, len(distinct) >= minCardinality
}

// AddColumn stages one column under a unique key.
func (b *Builder) AddColumn(key string, values []string) {
	if distinct := tokenize.NormalizeSet(values); len(distinct) >= b.minCardinality {
		b.stage(key, distinct)
	}
}

// stage stages a column's distinct values under key, unless the key
// is staged already.
func (b *Builder) stage(key string, distinct []string) {
	if _, dup := b.cols[key]; dup {
		return
	}
	b.cols[key] = distinct
	b.order = append(b.order, key)
}

// NumStaged reports how many columns passed the cardinality filter so
// far. Incremental (delta) builds check it before Encode, which rejects
// an empty stage: a batch of new tables may legitimately contribute no
// joinable columns.
func (b *Builder) NumStaged() int { return len(b.order) }

// Build freezes the staged columns into an Engine.
func (b *Builder) Build() (*Engine, error) {
	d, keys, idsets, err := b.Encode()
	if err != nil {
		return nil, err
	}
	return assemble(d, keys, idsets)
}

// Encode is Build's encode step alone: the staged keys, sorted, and
// each column's ID set parallel to them, encoded through the dictionary
// UseDict gave when it covers every staged value, else through one
// built over the staged values, which it returns. A delta's analysis
// stops here: its parts are these ID sets, and no index is built.
func (b *Builder) Encode() (*dict.Dict, []string, []dict.IDSet, error) {
	if len(b.order) == 0 {
		return nil, nil, nil, errors.New("join: no columns staged")
	}
	sort.Strings(b.order)
	d := b.dict
	idsets := make([]dict.IDSet, len(b.order))
	covered := d != nil
	if covered {
		for i, key := range b.order {
			ids, ok := d.EncodeKnown(b.cols[key])
			if !ok {
				covered = false
				break
			}
			idsets[i] = ids
		}
	}
	if !covered {
		db := dict.NewBuilder()
		for _, vals := range b.cols {
			db.Add(vals...)
		}
		d = db.Build()
		for i, key := range b.order {
			ids, ok := d.EncodeKnown(b.cols[key])
			if !ok {
				return nil, nil, nil, fmt.Errorf("join: self-built dictionary missing value of column %q", key)
			}
			idsets[i] = ids
		}
	}
	return d, b.order, idsets, nil
}

// assemble freezes encoded columns into an Engine. keys are sorted and
// idsets runs parallel to them. The inverted index receives the columns
// in that order, so a column's position in keys is also its set ID.
func assemble(d *dict.Dict, keys []string, idsets []dict.IDSet) (*Engine, error) {
	inv := invindex.NewBuilder()
	for i, key := range keys {
		if err := inv.AddIDs(key, idsets[i]); err != nil {
			return nil, err
		}
	}
	ix, err := inv.Build()
	if err != nil {
		return nil, err
	}
	return &Engine{
		inv:      ix,
		searcher: josie.NewSearcher(ix),
		dict:     d,
		idsets:   idsets,
		keys:     keys,
	}, nil
}

// Engine answers joinable-column queries. Every search method is a
// pure read over state frozen by Builder.Build, so the engine is safe
// for concurrent queries.
type Engine struct {
	inv      *invindex.Index
	searcher *josie.Searcher
	dict     *dict.Dict
	keys     []string     // sorted column keys (scan order)
	idsets   []dict.IDSet // per-column ID-encoded value sets, parallel to keys

	// QueryParallelism bounds the per-query fan-out of candidate
	// verification (ContainmentSearch) and the exact-scan baselines
	// (JaccardSearch, ExactContainmentScan): 0 = GOMAXPROCS, negative
	// or 1 = sequential. Results are bit-identical at every setting.
	// Set before serving queries.
	QueryParallelism int
}

// NumColumns returns the number of indexed columns.
func (e *Engine) NumColumns() int { return len(e.keys) }

// Dict returns the dictionary the engine's sets are encoded in.
func (e *Engine) Dict() *dict.Dict { return e.dict }

// IDSet returns the indexed value-ID set for a column key (nil when
// the column is not join-indexed). The set is frozen shared state:
// callers must not mutate it.
func (e *Engine) IDSet(key string) dict.IDSet {
	// Set IDs are assigned in key order: a set ID indexes keys and idsets.
	if i, ok := e.inv.SetID(key); ok {
		return e.idsets[i]
	}
	return nil
}

// ColumnValues returns the indexed distinct values of a column key,
// sorted ascending.
func (e *Engine) ColumnValues(key string) ([]string, bool) {
	i, ok := e.inv.SetID(key)
	if !ok {
		return nil, false
	}
	return e.dict.Decode(e.idsets[i]), true
}

// SetsFootprint reports the resident cost of the engine's ID-encoded
// column sets next to an estimate of the per-column string maps they
// replaced.
func (e *Engine) SetsFootprint() dict.Footprint {
	var f dict.Footprint
	for _, ids := range e.idsets {
		f.Accumulate(e.dict.SetFootprint(ids))
	}
	return f
}

// Query is a query column encoded once against the engine's
// dictionary: the sorted ID set of its distinct normalized values.
// Encode once, reuse across the engine's search methods; a Query is
// plain data and safe to share.
type Query struct {
	IDs dict.IDSet
}

// EncodeQuery normalizes, deduplicates, and dictionary-encodes a query
// column. Out-of-vocabulary values get ephemeral IDs that can never
// match an indexed value but still count toward the query cardinality.
func (e *Engine) EncodeQuery(values []string) Query {
	return Query{IDs: e.dict.Encoder().Encode(tokenize.NormalizeSet(values))}
}

// errEmptyQuery is the one answer to a query column with no values left
// after normalization; every search method returns it, so callers do
// not check for the case themselves.
var errEmptyQuery = fmt.Errorf("join: query column has no usable values: %w", table.ErrBadQuery)

// Key returns the column key at a position of the engine's sorted key
// list — the ordinal ContainmentCandidates reports candidates by.
func (e *Engine) Key(ord int32) string { return e.keys[ord] }

// OverlapStats reports how an overlap search ran: which path was
// chosen and the deterministic work units it was priced at. Work units
// are wall-clock-free (posting entries scanned, set tokens merged,
// candidates handled), so explain output is stable across runs.
type OverlapStats struct {
	// Pushdown is true when a candidate restriction was pushed into
	// JOSIE's posting traversal instead of enumerating and scoring the
	// candidates.
	Pushdown bool
	// Work is the units the chosen path actually spent.
	Work int64
	// EnumCost and PushCost are the a-priori estimates a restricted
	// search chose its path from; zero for a whole-lake search.
	EnumCost int64
	PushCost int64
}

// TopKOverlap returns the k columns with the largest exact value
// overlap with the query, ordered (overlap desc, column key asc). A nil
// among searches the whole lake through JOSIE. Otherwise only the given
// column keys are eligible (an empty list admits nothing), and the
// engine picks the cheaper of two paths from what it can count: it
// enumerates the candidates and scores each exactly (cheap when few
// survive a planner's prefilters), or masks JOSIE's posting traversal
// to them (cheap when the query's posting lists are shorter than the
// candidates' combined token lists). Per-column overlaps are
// independent and the order is total, so both paths return exactly the
// whole-lake ranking filtered to among and cut to k; OverlapStats
// records the choice. An empty query wraps table.ErrBadQuery.
func (e *Engine) TopKOverlap(ctx context.Context, q Query, k int, among []string) ([]Match, OverlapStats, error) {
	if len(q.IDs) == 0 {
		return nil, OverlapStats{}, errEmptyQuery
	}
	if among == nil {
		res, jst := e.searcher.TopKIDs(q.IDs, k, josie.Adaptive, nil)
		st := OverlapStats{Work: int64(jst.PostingsRead + jst.TokensRead)}
		return overlapMatches(make([]Match, 0, len(res)), res, len(q.IDs)), st, nil
	}
	var st OverlapStats
	for _, key := range among {
		st.EnumCost += int64(len(q.IDs) + len(e.IDSet(key)))
	}
	// The masked traversal scans at most every query token's posting
	// list plus the mask build over the candidate list.
	for _, id := range q.IDs {
		st.PushCost += int64(e.ValueDF(id))
	}
	st.PushCost += int64(len(among))
	if st.PushCost < st.EnumCost {
		st.Pushdown = true
		var ms []Match
		ms, st.Work = e.overlapMasked(q, among, k)
		return ms, st, nil
	}
	st.Work = st.EnumCost
	ms, err := e.overlapEnumerated(ctx, q, among, k)
	return ms, st, err
}

// overlapMasked is the restricted search through JOSIE with the allowed
// set pushed into the posting traversal, so JOSIE's early stops apply
// as they do to the whole lake. among must be non-empty: a nil list
// would lift the restriction. It reports the work units spent.
func (e *Engine) overlapMasked(q Query, among []string, k int) ([]Match, int64) {
	res, jst := e.searcher.TopKIDs(q.IDs, k, josie.Adaptive, among)
	// A nil dst: zero hits must stay a nil slice, like the enumerated
	// path's.
	return overlapMatches(nil, res, len(q.IDs)), int64(jst.PostingsRead+jst.TokensRead) + int64(len(among))
}

// overlapEnumerated is the restricted search by exact integer-set
// overlap with every candidate, fanned out over QueryParallelism
// workers: it keeps overlaps > 0 and returns the top k in JOSIE's
// order. Keys that are not indexed score as empty columns.
func (e *Engine) overlapEnumerated(ctx context.Context, q Query, among []string, k int) ([]Match, error) {
	overlaps, err := parallel.MapCtx(ctx, len(among), parallel.Resolve(e.QueryParallelism), func(i int) (int, error) {
		return dict.Overlap(q.IDs, e.IDSet(among[i])), nil
	})
	if err != nil {
		return nil, err
	}
	var out []Match
	for i, key := range among {
		if overlaps[i] > 0 {
			out = append(out, Match{
				ColumnKey:   key,
				Overlap:     overlaps[i],
				Containment: float64(overlaps[i]) / float64(len(q.IDs)),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Overlap != out[j].Overlap {
			return out[i].Overlap > out[j].Overlap
		}
		return out[i].ColumnKey < out[j].ColumnKey
	})
	if len(out) > k {
		out = out[:k]
	}
	return out, nil
}

// overlapMatches appends JOSIE's hits to dst as matches of a query with
// qlen distinct values.
func overlapMatches(dst []Match, res []josie.Result, qlen int) []Match {
	for _, r := range res {
		dst = append(dst, Match{
			ColumnKey:   r.Key,
			Overlap:     r.Overlap,
			Containment: float64(r.Overlap) / float64(qlen),
		})
	}
	return dst
}

// ContainmentSearch returns the columns whose containment of the query
// is >= threshold, ordered (containment desc, column key asc):
// ContainmentCandidates and VerifyContainment composed, so the answer
// is exactly ExactContainmentScan's. An empty query or a threshold
// outside [0, 1] wraps table.ErrBadQuery.
func (e *Engine) ContainmentSearch(ctx context.Context, q Query, threshold float64) ([]Match, error) {
	cands, _, err := e.ContainmentCandidates(q, threshold)
	if err != nil {
		return nil, err
	}
	return e.VerifyContainment(ctx, q, cands, threshold)
}

// ContainmentCandidates is the candidate stage of a containment
// search: the ordinals (positions in the engine's sorted key list, see
// Key), ascending, of exactly the columns whose containment of the
// query is >= threshold, and the posting entries it read to find them.
// It walks the posting list of every query value, counting each
// column's hits, and keeps the columns whose count over |Q| reaches
// the threshold — dict.Containment's comparison, so no column is
// missed or admitted that an exact scan would not. A staged planner
// intersects the ordinals with a prefiltered allow-set before
// VerifyContainment scores them. An empty query or a threshold outside
// [0, 1] wraps table.ErrBadQuery.
func (e *Engine) ContainmentCandidates(q Query, threshold float64) ([]int32, int64, error) {
	if len(q.IDs) == 0 {
		return nil, 0, errEmptyQuery
	}
	if !(threshold >= 0 && threshold <= 1) {
		return nil, 0, fmt.Errorf("join: containment threshold %v outside [0, 1]: %w", threshold, table.ErrBadQuery)
	}
	if threshold == 0 { // every column contains at least none of the query
		all := make([]int32, len(e.keys))
		for i := range all {
			all[i] = int32(i)
		}
		return all, 0, nil
	}
	sc := hitPool.Get().(*hitScratch)
	defer hitPool.Put(sc)
	if cap(sc.counts) < len(e.keys) {
		sc.counts = make([]int32, len(e.keys))
	}
	counts, touched := sc.counts[:len(e.keys)], sc.touched[:0]
	var read int64
	for _, id := range q.IDs {
		rank := e.inv.RankOfID(id)
		if rank < 0 {
			continue
		}
		pl := e.inv.Postings(rank)
		read += int64(len(pl))
		for _, p := range pl {
			if counts[p.Set] == 0 {
				touched = append(touched, p.Set)
			}
			counts[p.Set]++
		}
	}
	// Keep the qualifying sets in touched's prefix, clearing every
	// counter for the next query.
	kept := touched[:0]
	qn := float64(len(q.IDs))
	for _, set := range touched {
		if float64(counts[set])/qn >= threshold {
			kept = append(kept, set)
		}
		counts[set] = 0
	}
	sc.touched = touched
	out := slices.Clone(kept)
	slices.Sort(out)
	return out, read, nil
}

// hitScratch is one containment query's per-column hit counters,
// all zero between queries, and the columns the query touched. The
// pool is shared by every engine: counts grows to the largest engine
// a query ran on.
type hitScratch struct {
	counts  []int32
	touched []int32
}

var hitPool = sync.Pool{New: func() any { return new(hitScratch) }}

// VerifyContainment exactly scores the candidate columns at the given
// ordinals (integer-set merges against the per-column ID sets, fanned
// out over QueryParallelism workers, ctx checked between candidates)
// and returns those with containment >= threshold, ordered (containment
// desc, column key asc). Per-candidate verification is independent, so
// restricting the candidate list and verifying is bit-identical to
// verifying everything and filtering. An empty query wraps
// table.ErrBadQuery.
func (e *Engine) VerifyContainment(ctx context.Context, q Query, cands []int32, threshold float64) ([]Match, error) {
	if len(q.IDs) == 0 {
		return nil, errEmptyQuery
	}
	scores, err := parallel.MapCtx(ctx, len(cands), parallel.Resolve(e.QueryParallelism), func(i int) (float64, error) {
		return dict.Containment(q.IDs, e.idsets[cands[i]]), nil
	})
	if err != nil {
		return nil, err
	}
	var out []Match
	for i, c := range scores {
		if c >= threshold {
			out = append(out, Match{
				ColumnKey:   e.keys[cands[i]],
				Containment: c,
				Overlap:     int(c*float64(len(q.IDs)) + 0.5),
			})
		}
	}
	sortMatches(out, func(m Match) float64 { return m.Containment })
	return out, nil
}

// ValueDF returns how many indexed columns contain the dictionary ID
// (0 for out-of-vocabulary or never-indexed values) — the posting-list
// length a planner's cost model prices a value lookup at.
func (e *Engine) ValueDF(id uint32) int {
	rank := e.inv.RankOfID(id)
	if rank < 0 {
		return 0
	}
	return int(e.inv.DF(rank))
}

// ColumnsWithValue returns the keys of every indexed column containing
// the dictionary ID, in sorted key order (the posting list of the
// value, decoded). Nil for out-of-vocabulary IDs. Callers must not
// mutate the result beyond their own copy.
func (e *Engine) ColumnsWithValue(id uint32) []string {
	rank := e.inv.RankOfID(id)
	if rank < 0 {
		return nil
	}
	pl := e.inv.Postings(rank)
	out := make([]string, len(pl))
	for i, p := range pl {
		// Set IDs are assigned in sorted-key order and posting lists are
		// sorted by set ID, so the decoded keys come out sorted.
		out[i] = e.inv.Key(p.Set)
	}
	return out
}

// ColumnKeysOf returns the indexed column keys of one table, in sorted
// order. Table IDs contain no dots (table.ColumnKey's contract), so
// the half-open prefix range over the sorted key list is exact.
func (e *Engine) ColumnKeysOf(tableID string) []string {
	prefix := tableID + "."
	lo := sort.SearchStrings(e.keys, prefix)
	hi := lo
	for hi < len(e.keys) && strings.HasPrefix(e.keys[hi], prefix) {
		hi++
	}
	return e.keys[lo:hi:hi]
}

// JaccardSearch is the exact-scan baseline: every indexed column is
// compared with exact Jaccard similarity; columns >= threshold are
// returned sorted by similarity. Illustrates both the cost of
// scanning and Jaccard's bias against large domains. The scan fans
// out over QueryParallelism workers.
func (e *Engine) JaccardSearch(values []string, threshold float64) []Match {
	qids := e.dict.Encoder().Encode(tokenize.NormalizeSet(values))
	scores, _ := parallel.Map(len(e.keys), parallel.Resolve(e.QueryParallelism), func(i int) (float64, error) {
		return dict.Jaccard(qids, e.idsets[i]), nil
	})
	var out []Match
	for i, key := range e.keys {
		if scores[i] >= threshold {
			out = append(out, Match{ColumnKey: key, Jaccard: scores[i]})
		}
	}
	sortMatches(out, func(m Match) float64 { return m.Jaccard })
	return out
}

// ExactContainmentScan is the brute-force containment baseline: every
// indexed column's overlap with the query is counted, no posting list
// is read, and the columns whose containment (dict.Containment's
// quotient) is >= threshold are returned with both, in
// ContainmentSearch's order. It is the oracle ContainmentSearch's
// answers are held to, and the ground truth the LSH Ensemble
// experiments measure recall against. The scan fans out over
// QueryParallelism workers.
func (e *Engine) ExactContainmentScan(values []string, threshold float64) []Match {
	qids := e.dict.Encoder().Encode(tokenize.NormalizeSet(values))
	overlaps, _ := parallel.Map(len(e.keys), parallel.Resolve(e.QueryParallelism), func(i int) (int, error) {
		return dict.Overlap(qids, e.idsets[i]), nil
	})
	var out []Match
	for i, key := range e.keys {
		m := Match{ColumnKey: key, Overlap: overlaps[i]}
		if len(qids) > 0 {
			m.Containment = float64(m.Overlap) / float64(len(qids))
		}
		if m.Containment >= threshold {
			out = append(out, m)
		}
	}
	sortMatches(out, func(m Match) float64 { return m.Containment })
	return out
}

// sortMatches orders matches by score descending, breaking ties by
// column key — the shared result order of every scan surface.
func sortMatches(ms []Match, score func(Match) float64) {
	sort.Slice(ms, func(i, j int) bool {
		si, sj := score(ms[i]), score(ms[j])
		if si != sj {
			return si > sj
		}
		return ms[i].ColumnKey < ms[j].ColumnKey
	})
}
