package union

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"tablehound/internal/dict"
	"tablehound/internal/embedding"
	"tablehound/internal/parallel"
	"tablehound/internal/schema"
	"tablehound/internal/table"
	"tablehound/internal/tokenize"
)

// D3L implements the five-evidence related-table search of Bogatu et
// al. (ICDE 2020, "Dataset Discovery in Data Lakes", [2] in the
// tutorial): columns are compared on attribute NAMES, exact VALUE
// overlap, FORMAT (character-class shape of values), WORD
// distributions for text, and embedding semantics — and the evidence
// is averaged into one relatedness score that surfaces joinable and
// unionable tables simultaneously, without committing to either
// definition.
//
// A D3LBuilder analyzes tables and encodes every column's values and
// words into integer IDs; the engine assembled from those parts holds
// no value or word string, so a scan compares sorted ID arrays and
// never rebuilds a column's representation per candidate pair.
type D3L struct {
	model  *embedding.Model
	tables map[string]*d3lTable
	ids    []string
	// dict is the dictionary the columns' value IDs index and words the
	// sorted list their word IDs index.
	dict  *dict.Dict
	words []string
	// labels are the distinct analyzed labels, a column's labelID
	// indexing them, and values the value index: derived by freeze,
	// never persisted.
	labels []schema.Label
	values d3lPostings
	// maxCols is the most columns a table has, derived by freeze: a
	// scan's partial scores fit in maxCols per query column and table.
	maxCols int
}

type d3lTable struct {
	tbl   *table.Table
	cols  []*d3lColumn
	first int // ordinal of cols[0]: freeze numbers the columns in ids order
}

// d3lPostings is the value index of the engine's columns: the ordinals
// of the columns holding value ID v are cols[start[v]:start[v+1]],
// ascending. It spans the value IDs below the engine dictionary's size.
type d3lPostings struct {
	start []int32
	cols  []int32
	n     int // the number of columns
}

// d3lColumn is one analyzed column. Analysis fills distinct and words;
// encoding turns them into valueIDs and wordIDs. The IDs, format,
// wordFreq and vec are the portable analysis snapshots and deltas
// carry; label and norm are derived from the column alone, labelID by
// freeze. A builder's column keeps its strings; an engine's holds IDs.
type d3lColumn struct {
	colIdx   int       // position of the source column in its table; -1 for a loose column
	distinct []string  // normalized distinct values, first-occurrence order, until encoded
	format   []float64 // normalized character-class histogram
	words    []string  // distinct words of the values, sorted, until encoded
	wordFreq []float64 // normalized frequency of each word
	vec      embedding.Vector

	label    string     // schema.NormLabel of the source column's name
	norm     float64    // vec.Norm()
	valueIDs dict.IDSet // the distinct values' IDs
	wordIDs  []uint32   // the words' IDs; ascending and parallel to wordFreq
	labelID  int
}

// D3LBuilder analyzes tables for a D3L engine: add tables, then take
// their Parts (a delta's analysis) or Build the engine from them. It
// must not be used concurrently.
type D3LBuilder struct {
	model  *embedding.Model
	lake   *dict.Dict
	tables map[string]*d3lTable
	ids    []string
}

// NewD3LBuilder creates a builder over an embedding model. lake, when
// not nil and holding every staged value, is the dictionary the parts
// take value IDs from instead of one built over the staged values;
// core passes the system's, which holds every value of every table.
func NewD3LBuilder(model *embedding.Model, lake *dict.Dict) (*D3LBuilder, error) {
	if model == nil {
		return nil, errors.New("union: D3L requires an embedding model")
	}
	return &D3LBuilder{model: model, lake: lake, tables: make(map[string]*d3lTable)}, nil
}

// AddTables stages a batch of tables using up to workers goroutines:
// column analysis fans out per table, and registration commits
// sequentially in batch order, so the staged state is identical at
// any worker count. A table already staged, or without a string
// column, is skipped.
func (b *D3LBuilder) AddTables(tbls []*table.Table, workers int) {
	staged, _ := parallel.Map(len(tbls), workers, func(i int) (*d3lTable, error) {
		entry := &d3lTable{tbl: tbls[i]}
		for j, c := range tbls[i].Columns {
			if isStringColumn(c) {
				entry.cols = append(entry.cols, analyzeD3LColumn(b.model, c, j))
			}
		}
		return entry, nil
	})
	for _, entry := range staged {
		if _, dup := b.tables[entry.tbl.ID]; dup || len(entry.cols) == 0 {
			continue
		}
		b.tables[entry.tbl.ID] = entry
		b.ids = append(b.ids, entry.tbl.ID)
	}
}

// Parts returns the staged tables' analyses in sorted-ID order, encoded
// (see encodeD3L), and the dictionary their value IDs are in. Slices
// alias the builder's state; do not mutate.
func (b *D3LBuilder) Parts() (*dict.Dict, D3LParts) {
	sort.Strings(b.ids)
	var cols []*d3lColumn
	for _, id := range b.ids {
		cols = append(cols, b.tables[id].cols...)
	}
	values, words, enc := encodeD3L(b.lake, cols)
	parts := D3LParts{Words: words, Tables: make([]D3LTableParts, len(b.ids))}
	for i, id := range b.ids {
		n := len(b.tables[id].cols)
		parts.Tables[i] = D3LTableParts{ID: id, Cols: enc[:n:n]}
		enc = enc[n:]
	}
	return values, parts
}

// Build assembles the engine over the staged tables from their Parts.
func (b *D3LBuilder) Build() (*D3L, error) {
	values, parts := b.Parts()
	return NewD3LFromParts(b.model, values, parts, func(id string) *table.Table { return b.tables[id].tbl })
}

// analyzeD3LColumn analyzes column c, at colIdx in its table.
func analyzeD3LColumn(model *embedding.Model, c *table.Column, colIdx int) *d3lColumn {
	distinct := tokenize.NormalizeSet(c.Values)
	words, freq := wordDist(distinct)
	col := newD3LColumn(c, colIdx, FormatSignature(distinct), freq, model.ColumnVector(distinct))
	col.distinct, col.words = distinct, words
	return col
}

// newD3LColumn wraps a portable analysis, filling what depends on the
// column alone; the caller sets its values and words.
func newD3LColumn(c *table.Column, colIdx int, format, freq []float64, vec embedding.Vector) *d3lColumn {
	return &d3lColumn{
		colIdx: colIdx, format: format, wordFreq: freq, vec: vec,
		label: schema.NormLabel(c.Name), norm: vec.Norm(),
	}
}

// freeze numbers the adopted columns in ids order and derives the
// labels and the value index from them: the last step of every
// assembly. Search, Prepare and ScoreAmong are pure reads afterwards.
func (d *D3L) freeze() {
	sort.Strings(d.ids)
	var cols []*d3lColumn
	for _, id := range d.ids {
		t := d.tables[id]
		t.first = len(cols)
		cols = append(cols, t.cols...)
		d.maxCols = max(d.maxCols, len(t.cols))
	}
	d.labels = internLabels(cols)
	d.values = postValues(cols, uint32(d.dict.Size()))
}

// postValues derives the value index of cols over the value IDs below
// n, each column's ordinal being its position in cols.
func postValues(cols []*d3lColumn, n uint32) d3lPostings {
	p := d3lPostings{start: make([]int32, n+1), n: len(cols)}
	for _, c := range cols {
		for _, id := range c.valueIDs {
			p.start[id+1]++
		}
	}
	for v := range n {
		p.start[v+1] += p.start[v]
	}
	p.cols = make([]int32, p.start[n])
	next := slices.Clone(p.start[:n])
	for ord, c := range cols {
		for _, id := range c.valueIDs {
			p.cols[next[id]] = int32(ord)
			next[id]++
		}
	}
	return p
}

// encodeD3L encodes the strings of cols into the parts of the same
// columns, returning the dictionary and the word list the IDs index.
// Values go through lake when it holds every one — every engine of a
// system then shares one ID space — and otherwise through a dictionary
// built over them, TUS's rule; value IDs only feed set cardinalities,
// so either one-to-one assignment scores the same. A word's ID is its
// position in the sorted list of every column's words, so a merge over
// two columns' word IDs meets their shared words in exactly the order
// sort.Strings would, which keeps the float sum of the word evidence
// bit-stable.
func encodeD3L(lake *dict.Dict, cols []*d3lColumn) (*dict.Dict, []string, []D3LColumnParts) {
	out := make([]D3LColumnParts, len(cols))
	values := lake
	if lake == nil || !encodeValues(lake, cols, out) {
		b := dict.NewBuilder()
		for _, c := range cols {
			b.Add(c.distinct...)
		}
		values = b.Build()
		encodeValues(values, cols, out)
	}
	ids := make(map[string]uint32)
	for _, c := range cols {
		for _, w := range c.words {
			ids[w] = 0
		}
	}
	var words []string // nil when there is none, as the decoder reads it
	for w := range ids {
		words = append(words, w)
	}
	slices.Sort(words)
	for i, w := range words {
		ids[w] = uint32(i)
	}
	for i, c := range cols {
		wordIDs := make([]uint32, len(c.words))
		for j, w := range c.words {
			wordIDs[j] = ids[w]
		}
		out[i] = D3LColumnParts{
			ColIdx: c.colIdx, IDs: out[i].IDs, WordIDs: wordIDs, WordFreq: c.wordFreq,
			Format: c.format, Vec: c.vec,
		}
	}
	return values, words, out
}

// encodeValues sets the value IDs of every column's parts from values
// and reports whether values held them all.
func encodeValues(values *dict.Dict, cols []*d3lColumn, out []D3LColumnParts) bool {
	for i, c := range cols {
		ids := make(dict.IDSet, len(c.distinct))
		for j, s := range c.distinct {
			id, ok := values.ID(s)
			if !ok {
				return false
			}
			ids[j] = id
		}
		slices.Sort(ids)
		out[i].IDs = ids
	}
	return true
}

// internLabels numbers the distinct labels of cols, first seen first,
// and returns them analyzed.
func internLabels(cols []*d3lColumn) []schema.Label {
	ids := make(map[string]int)
	var labels []schema.Label
	for _, c := range cols {
		id, ok := ids[c.label]
		if !ok {
			id = len(labels)
			ids[c.label] = id
			labels = append(labels, schema.NewLabel(c.label))
		}
		c.labelID = id
	}
	return labels
}

// intern encodes a query column against the frozen engine and returns
// the next unused out-of-vocabulary ID. A value the dictionary lacks
// gets an ID from oov upward, as dict.Encoder does: it matches no
// indexed column but still counts toward the column's cardinality. A
// word the list lacks is shared with no indexed column and so adds
// nothing to any word sum: it is dropped with its frequency, compacting
// the query column's own arrays in place.
func (d *D3L) intern(c *d3lColumn, oov uint32) uint32 {
	c.valueIDs = make(dict.IDSet, 0, len(c.distinct))
	for _, s := range c.distinct {
		if id, ok := d.dict.ID(s); ok {
			c.valueIDs = append(c.valueIDs, id)
		}
	}
	slices.Sort(c.valueIDs)
	for missing := len(c.distinct) - len(c.valueIDs); missing > 0; missing-- {
		c.valueIDs = append(c.valueIDs, oov)
		oov++
	}
	c.wordIDs = make([]uint32, 0, len(c.words))
	for i, w := range c.words {
		if id, ok := slices.BinarySearch(d.words, w); ok {
			c.wordFreq[len(c.wordIDs)] = c.wordFreq[i]
			c.wordIDs = append(c.wordIDs, uint32(id))
		}
	}
	c.distinct, c.words, c.wordFreq = nil, nil, c.wordFreq[:len(c.wordIDs)]
	return oov
}

// NumTables returns the number of indexed tables.
func (d *D3L) NumTables() int { return len(d.tables) }

// SetsFootprint reports the resident cost of the columns' value ID sets
// next to an estimate of the per-column string slices they replaced.
func (d *D3L) SetsFootprint() dict.Footprint {
	var f dict.Footprint
	for _, id := range d.ids {
		for _, c := range d.tables[id].cols {
			f.Count += len(c.valueIDs)
			f.Bytes += int64(len(c.valueIDs)) * 4
			for _, v := range c.valueIDs {
				f.LegacyBytes += int64(len(d.dict.Value(v))) + dict.StringHeaderBytes
			}
		}
	}
	return f
}

// formatDims is the length of a format signature: the classes lower,
// upper, digit, space and punct, then 4 length buckets (<=4, <=8, <=16,
// >16).
const formatDims = 9

// FormatSignature summarizes value shapes as a normalized histogram
// over character classes and length buckets — D3L's format evidence.
// Two columns of phone numbers match on format even with zero value
// overlap; a name column and an ID column do not.
func FormatSignature(values []string) []float64 {
	h := make([]float64, formatDims)
	if len(values) == 0 {
		return h
	}
	for _, v := range values {
		for _, r := range v {
			switch {
			case r >= 'a' && r <= 'z':
				h[0]++
			case r >= 'A' && r <= 'Z':
				h[1]++
			case r >= '0' && r <= '9':
				h[2]++
			case r == ' ':
				h[3]++
			default:
				h[4]++
			}
		}
		switch l := len(v); {
		case l <= 4:
			h[5]++
		case l <= 8:
			h[6]++
		case l <= 16:
			h[7]++
		default:
			h[8]++
		}
	}
	var sum float64
	for _, x := range h[:5] {
		sum += x
	}
	for i := 0; i < 5; i++ {
		if sum > 0 {
			h[i] /= sum
		}
	}
	n := float64(len(values))
	for i := 5; i < 9; i++ {
		h[i] /= n
	}
	return h
}

// formatSimilarity is 1 - half the L1 distance of the histograms.
func formatSimilarity(a, b []float64) float64 {
	var l1 float64
	for i := range a {
		l1 += math.Abs(a[i] - b[i])
	}
	s := 1 - l1/2
	if s < 0 {
		s = 0
	}
	return s
}

// wordDist is the normalized word-frequency distribution of values:
// the distinct words in ascending order and each one's share.
func wordDist(values []string) ([]string, []float64) {
	m := make(map[string]float64)
	var total float64
	for _, v := range values {
		for _, w := range tokenize.Words(v) {
			m[w]++
			total++
		}
	}
	words := make([]string, 0, len(m))
	for w := range m {
		words = append(words, w)
	}
	sort.Strings(words)
	freq := make([]float64, len(words))
	for i, w := range words {
		freq[i] = m[w] / total
	}
	return words, freq
}

// wordSimilarity is the Bhattacharyya-like overlap of two interned
// word distributions. The merge adds the shared words in ascending ID
// order, which is ascending word order: float addition is not
// associative, so any other order would move the last bit — the kind
// of nondeterminism the build pipeline's parallelism contract
// (identical results at every worker count) cannot tolerate. A scan
// computes it for every query column at once (queryMarks.wordSums).
func wordSimilarity(aIDs []uint32, aFreq []float64, bIDs []uint32, bFreq []float64) float64 {
	var s float64
	for i, j := 0, 0; i < len(aIDs) && j < len(bIDs); {
		switch {
		case aIDs[i] == bIDs[j]:
			s += math.Sqrt(aFreq[i] * bFreq[j])
			i++
			j++
		case aIDs[i] < bIDs[j]:
			i++
		default:
			j++
		}
	}
	return s
}

// Evidence carries the five per-pair signals, for introspection.
type Evidence struct {
	Name   float64
	Value  float64
	Format float64
	Words  float64
	Embed  float64
}

// Combined averages the evidence, D3L's aggregation.
func (e Evidence) Combined() float64 {
	return (e.Name + e.Value + e.Format + e.Words + e.Embed) / 5
}

// ColumnEvidence computes the five signals between two raw columns
// under model, encoded into a dictionary and a word list of their own.
func ColumnEvidence(model *embedding.Model, a, b *table.Column) Evidence {
	ca, cb := analyzeD3LColumn(model, a, -1), analyzeD3LColumn(model, b, -1)
	_, _, enc := encodeD3L(nil, []*d3lColumn{ca, cb})
	pa, pb := enc[0], enc[1]
	return Evidence{
		Name:   schema.LabelSimilarity(ca.label, cb.label),
		Value:  dict.JaccardOf(dict.Overlap(pa.IDs, pb.IDs), len(pa.IDs), len(pb.IDs)),
		Format: formatSimilarity(ca.format, cb.format),
		Words:  wordSimilarity(pa.WordIDs, pa.WordFreq, pb.WordIDs, pb.WordFreq),
		Embed:  embedEvidence(ca, cb, ca.vec.Dot(cb.vec)),
	}
}

// embedEvidence is the embedding signal of two columns whose vectors
// have the dot product dot: their cosine mapped into [0, 1].
func embedEvidence(a, b *d3lColumn, dot float64) float64 {
	return (embedding.CosineOfDot(dot, a.norm, b.norm) + 1) / 2
}

// Search ranks the engine's tables by relatedness to the query: column
// pairs are scored by combined evidence and aggregated to table level
// with maximum-weight bipartite matching. It is safe for concurrent
// use and checks ctx between tables: a cancelled context returns
// ctx.Err().
func (d *D3L) Search(ctx context.Context, query *table.Table, k int) ([]Result, error) {
	pq, err := d.Prepare(query)
	if err != nil {
		return nil, err
	}
	return d.ScoreAmong(ctx, pq, d.ids, k)
}

// D3LQuery is a query table's analyzed columns, interned against the
// engine that prepared it. Prepare once, then reuse across ScoreAmong
// calls so staged planners do not re-analyze per stage.
type D3LQuery struct {
	id     string
	qcols  []*d3lColumn
	labels []schema.Label     // the query columns' labels, analyzed
	qvecs  []embedding.Vector // the query columns' vectors, for DotMany
}

func newD3LQuery(id string, qcols []*d3lColumn, labels []schema.Label) *D3LQuery {
	pq := &D3LQuery{id: id, qcols: qcols, labels: labels, qvecs: make([]embedding.Vector, len(qcols))}
	for i, qc := range qcols {
		pq.qvecs[i] = qc.vec
	}
	return pq
}

// Prepare analyzes a query table's string columns; a query that is an
// indexed table reuses its analysis. A query without usable string
// columns wraps table.ErrBadQuery.
func (d *D3L) Prepare(query *table.Table) (*D3LQuery, error) {
	if entry := d.tables[query.ID]; entry != nil && entry.tbl == query {
		labels := make([]schema.Label, len(entry.cols))
		for i, c := range entry.cols {
			labels[i] = d.labels[c.labelID]
		}
		return newD3LQuery(query.ID, entry.cols, labels), nil
	}
	var qcols []*d3lColumn
	var labels []schema.Label
	oov := uint32(d.dict.Size())
	for i, c := range query.Columns {
		if isStringColumn(c) {
			qc := analyzeD3LColumn(d.model, c, i)
			oov = d.intern(qc, oov)
			qcols = append(qcols, qc)
			labels = append(labels, schema.NewLabel(qc.label))
		}
	}
	if len(qcols) == 0 {
		return nil, fmt.Errorf("union: D3L query has no usable string columns: %w", table.ErrBadQuery)
	}
	return newD3LQuery(query.ID, qcols, labels), nil
}

// TableIDs returns the indexed table IDs in ascending order, the
// candidate set a planner hands ScoreAmong (filtered by its allowed
// set). ScoreAmong reads value evidence from the value index and
// scores exactly only the candidates whose bound still reaches the top
// k, so a whole-lake candidate set costs little more than the postings
// of the query's values.
func (d *D3L) TableIDs() []string { return d.ids }

// boundMargin absorbs the rounding of the sums behind a bound. The
// bound is exact in real arithmetic; in floats, a score's sums (the
// evidence terms, the matching, the word sums that can round past 1)
// differ from the bound's by a few ulps of numbers no larger than 5,
// many orders below the margin. A table is passed over only when its
// bound plus the margin is below the worst kept score, so it cannot
// have tied or beaten that score.
const boundMargin = 1e-9

// d3lBound is a candidate of a scan: its position in ids, where its
// partial scores start in the scan's scratch, and its upper bound.
type d3lBound struct {
	ub       float64
	pos, off int
}

// d3lStages counts the tables a scan took past each step of pass 2:
// formatted got their format evidence, scored were scored exactly.
type d3lStages struct{ formatted, scored int }

// ScoreAmong scores the given indexed tables by combined evidence and
// returns the top k; with ids = TableIDs() it is bit-identical to
// Search, and to scoring every table (see scoreAmong for the bound
// that lets it score only a few). Its allocations do not grow with
// len(ids): reused marks and scratch (intersection counts, partial
// scores, bounds, matcher, name-evidence memo, label matcher) serve
// every table, and only the k best results are kept.
func (d *D3L) ScoreAmong(ctx context.Context, pq *D3LQuery, ids []string, k int) ([]Result, error) {
	rs, _, err := d.scoreAmong(ctx, pq, ids, k)
	return rs, err
}

// scoreAmong is ScoreAmong in two passes, a max-score scan; it also
// counts how far pass 2 took the tables.
//
// Pass 1 computes, for every (query column, candidate column) pair of
// every candidate, the partial score name + value: the name evidence
// from a memo per label, the value evidence from intersection counts
// that one walk over the postings of the query's values fills. Format,
// words and embedding are each at most 1, and a matching takes at most
// one pair per query column, so its weight is at most the sum of the
// rows' maxima: bound(partials, 3) is never below the table's score.
//
// Pass 2 walks the candidates by bound, best first (then by position
// in ids), and stops at the first whose bound cannot reach the worst
// of k kept scores. A table it reaches gets the rest of its evidence
// a term at a time, each followed by a fresh bound that may pass it
// over: format (then the bound with 2 terms missing), words
// (queryMarks.wordSums; then 1 missing), and last the embedding and
// the matching. The partials are completed in place, in
// Evidence.Combined's order, ((((N+V)+F)+W)+E)/5, so each weight is
// bit-identical to it.
func (d *D3L) scoreAmong(ctx context.Context, pq *D3LQuery, ids []string, k int) ([]Result, d3lStages, error) {
	var st d3lStages
	nq := len(pq.qcols)
	sc := newScanScratch(nq)
	defer freeScratch.put(sc)
	bounds, err := d.boundAll(ctx, pq, ids, sc)
	if err != nil || k <= 0 {
		return nil, st, err
	}
	slices.SortFunc(bounds, func(a, b d3lBound) int {
		if c := cmp.Compare(b.ub, a.ub); c != 0 {
			return c
		}
		return cmp.Compare(a.pos, b.pos)
	})
	words := newQueryMarks(len(d.words))
	defer words.release()
	for i, qc := range pq.qcols {
		words.add(i, qc.wordIDs, qc.wordFreq)
	}
	top := newTopK(k, len(bounds))
	for _, b := range bounds {
		bar, full := top.bar()
		if full && b.ub+boundMargin < bar {
			break
		}
		if err := ctx.Err(); err != nil {
			return nil, st, err
		}
		ccols := d.tables[ids[b.pos]].cols
		nc := len(ccols)
		w := sc.partials[b.off : b.off+nq*nc]
		st.formatted++
		for j, cc := range ccols {
			for i, qc := range pq.qcols {
				w[i*nc+j] += formatSimilarity(qc.format, cc.format)
			}
		}
		if full && bound(w, nq, nc, 2)+boundMargin < bar {
			continue
		}
		for j, cc := range ccols {
			words.wordSums(cc.wordIDs, cc.wordFreq, sc.words)
			for i := range nq {
				w[i*nc+j] += sc.words[i]
			}
		}
		if full && bound(w, nq, nc, 1)+boundMargin < bar {
			continue
		}
		for j, cc := range ccols {
			embedding.DotMany(cc.vec, pq.qvecs, sc.dots)
			for i, qc := range pq.qcols {
				w[i*nc+j] = (w[i*nc+j] + embedEvidence(qc, cc, sc.dots[i])) / 5
			}
		}
		st.scored++
		top.offer(Result{TableID: ids[b.pos], Score: sc.matcher.MaxWeight(w, nq, nc) / float64(nq)})
	}
	return top.results(), st, nil
}

// boundAll is pass 1 of scoreAmong: it stores every candidate's
// partial scores in sc.partials, row-major by query column, and
// returns the candidates with their bounds, in ids order. It skips the
// query's own table and checks ctx between tables.
func (d *D3L) boundAll(ctx context.Context, pq *D3LQuery, ids []string, sc *scanScratch) ([]d3lBound, error) {
	counts := d.intersections(pq, sc)
	nq, nl := len(pq.qcols), len(d.labels)
	// names[i*nl+l] is the name evidence of query column i against
	// label l, computed when a candidate column first carries l.
	sc.names = resize(sc.names, nq*nl)
	names := sc.names
	for i := range names {
		names[i] = -1
	}
	sc.partials = resize(sc.partials, nq*d.maxCols*len(ids))
	bounds := resize(sc.bounds, len(ids))[:0]
	off := 0
	for pos, id := range ids {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if id == pq.id {
			continue
		}
		t := d.tables[id]
		nc := len(t.cols)
		p := sc.partials[off : off+nq*nc]
		for j, cc := range t.cols {
			inter := counts[(t.first+j)*nq:]
			for i, qc := range pq.qcols {
				name := &names[i*nl+cc.labelID]
				if *name < 0 {
					*name = sc.labels.Similarity(&pq.labels[i], &d.labels[cc.labelID])
				}
				p[i*nc+j] = *name + dict.JaccardOf(int(inter[i]), len(qc.valueIDs), len(cc.valueIDs))
			}
		}
		bounds = append(bounds, d3lBound{ub: bound(p, nq, nc, 3), pos: pos, off: off})
		off += nq * nc
	}
	sc.bounds = bounds
	return bounds, nil
}

// intersections returns, in sc.counts, the number of values query
// column i shares with the indexed column of ordinal c at [c*nq+i], for
// every indexed column: one walk over the postings of the query's value
// IDs. An ID at or past the index's span is an out-of-vocabulary value
// of an inline query, which no indexed column holds.
func (d *D3L) intersections(pq *D3LQuery, sc *scanScratch) []int32 {
	nq, post := len(pq.qcols), &d.values
	sc.counts = resize(sc.counts, post.n*nq)
	clear(sc.counts)
	span := uint32(len(post.start) - 1)
	for i, qc := range pq.qcols {
		for _, id := range qc.valueIDs {
			if id >= span {
				continue
			}
			for _, c := range post.cols[post.start[id]:post.start[id+1]] {
				sc.counts[int(c)*nq+i]++
			}
		}
	}
	return sc.counts
}

// bound is the most a table's score can reach when each pair weight
// w[i*nc+j] (a sum of evidence terms not yet divided by 5) still lacks
// terms that add at most rest: the matching takes at most one pair per
// query column, so its weight is at most the sum of the rows' maxima.
func bound(w []float64, nq, nc int, rest float64) float64 {
	var s float64
	for i := range nq {
		var m float64
		for _, x := range w[i*nc : (i+1)*nc] {
			m = max(m, x)
		}
		s += (m + rest) / 5
	}
	return s / float64(nq)
}

// topK keeps the k best results offered (score descending, then table
// ID ascending — the order sortResults gives) in a binary heap rooted
// at the worst kept one, so a scan holds k results, not the lake.
type topK struct {
	k          int
	worstFirst []Result
}

// newTopK keeps the k best of at most n results.
func newTopK(k, n int) *topK {
	t := &topK{k: k}
	if m := min(k, n); m > 0 {
		t.worstFirst = make([]Result, 0, m)
	}
	return t
}

// bar returns the worst kept score once k results are kept: a result
// must reach it to enter.
func (t *topK) bar() (float64, bool) {
	if t.k <= 0 || len(t.worstFirst) < t.k {
		return 0, false
	}
	return t.worstFirst[0].Score, true
}

func worseResult(a, b Result) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.TableID > b.TableID
}

func (t *topK) offer(r Result) {
	h := t.worstFirst
	if len(h) < t.k {
		h = append(h, r)
		for i := len(h) - 1; i > 0; {
			parent := (i - 1) / 2
			if !worseResult(h[i], h[parent]) {
				break
			}
			h[i], h[parent] = h[parent], h[i]
			i = parent
		}
		t.worstFirst = h
		return
	}
	if len(h) == 0 || !worseResult(h[0], r) {
		return
	}
	h[0] = r
	for i := 0; ; {
		worst := i
		for c := 2*i + 1; c <= 2*i+2 && c < len(h); c++ {
			if worseResult(h[c], h[worst]) {
				worst = c
			}
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

// results returns the kept results best first, nil when there are none.
func (t *topK) results() []Result {
	if len(t.worstFirst) == 0 {
		return nil
	}
	sortResults(t.worstFirst)
	return t.worstFirst
}

// FormatExample returns a compact textual rendering of a format
// signature for debugging and CLI display.
func FormatExample(sig []float64) string {
	if len(sig) != 9 {
		return "invalid"
	}
	parts := []string{"lower", "upper", "digit", "space", "punct"}
	var b strings.Builder
	for i, p := range parts {
		if sig[i] >= 0.15 {
			if b.Len() > 0 {
				b.WriteByte('+')
			}
			b.WriteString(p)
		}
	}
	if b.Len() == 0 {
		return "mixed"
	}
	return b.String()
}
