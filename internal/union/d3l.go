package union

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"tablehound/internal/dict"
	"tablehound/internal/embedding"
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
// Stage tables with AddTable, then Build: the freeze interns every
// staged column's values, words and label into integer IDs, so a scan
// compares sorted ID arrays and never rebuilds a column's
// representation per candidate pair.
type D3L struct {
	model  *embedding.Model
	lake   *dict.Dict // the lake's value dictionary; nil for a stand-alone engine
	tables map[string]*d3lTable
	ids    []string
	vocab  d3lVocab // derived by Build, never persisted
	built  bool
}

type d3lTable struct {
	tbl  *table.Table
	cols []*d3lColumn
}

// d3lColumn is one analyzed column. The first group of fields is the
// portable analysis snapshots and deltas carry; the second is derived
// from it against a d3lVocab.
type d3lColumn struct {
	colIdx   int       // position of the source column in its table; -1 for a loose column
	distinct []string  // normalized distinct values, first-occurrence order
	format   []float64 // normalized character-class histogram
	words    []string  // distinct words of the values, sorted
	wordFreq []float64 // normalized frequency of each word, parallel to words
	vec      embedding.Vector

	label    string     // schema.NormLabel of the source column's name
	norm     float64    // vec.Norm()
	valueIDs dict.IDSet // distinct, interned
	wordIDs  []uint32   // words, interned; ascending and parallel to wordFreq
	labelID  int
}

// d3lVocab is the token space columns are interned into. Word IDs are
// assigned in ascending word order — the dict package's determinism
// contract — so a merge over two columns' word IDs meets their shared
// words in exactly the order sort.Strings would, which keeps the float
// sum of the word evidence bit-stable. Value IDs only feed set
// cardinalities, so any one-to-one assignment does: a value takes its
// ID from the lake dictionary, which every engine of a system shares,
// and only a value the dictionary lacks (every value, for an engine
// without one) gets a private ID above the dictionary's, first seen
// first.
type d3lVocab struct {
	lake    *dict.Dict
	extra   map[string]uint32 // values lake lacks, IDs from lake.Size() up
	wordIDs map[string]uint32
	labels  []string // distinct normalized labels; a column's labelID indexes it
}

// valueID returns the ID of a staged value.
func (v *d3lVocab) valueID(s string) (uint32, bool) {
	if id, ok := v.lake.ID(s); ok {
		return id, true
	}
	id, ok := v.extra[s]
	return id, ok
}

// numValues is the first ID no staged value holds.
func (v *d3lVocab) numValues() uint32 { return uint32(v.lake.Size() + len(v.extra)) }

// NewD3L creates an engine over an embedding model. lake, when not
// nil, is the dictionary the engine takes value IDs from instead of
// building a vocabulary of its own; core passes the system's, which
// holds every value of every staged table.
func NewD3L(model *embedding.Model, lake *dict.Dict) (*D3L, error) {
	if model == nil {
		return nil, errors.New("union: D3L requires an embedding model")
	}
	return &D3L{model: model, lake: lake, tables: make(map[string]*d3lTable)}, nil
}

// AddTable stages a table. The engine needs a Build before it answers
// queries again.
func (d *D3L) AddTable(t *table.Table) {
	if _, dup := d.tables[t.ID]; dup || !D3LIndexes(t) {
		return
	}
	entry := &d3lTable{tbl: t}
	for i, c := range t.Columns {
		if isStringColumn(c) {
			entry.cols = append(entry.cols, d.analyzeColumn(c, i))
		}
	}
	d.tables[t.ID] = entry
	d.ids = append(d.ids, t.ID)
	d.built = false
}

func (d *D3L) analyzeColumn(c *table.Column, colIdx int) *d3lColumn {
	distinct := tokenize.NormalizeSet(c.Values)
	words, freq := wordDist(distinct)
	return newD3LColumn(c, colIdx, distinct, FormatSignature(distinct), words, freq, d.model.ColumnVector(distinct))
}

// newD3LColumn wraps a portable analysis, filling what depends on the
// column alone. words must be strictly ascending and parallel to freq.
func newD3LColumn(c *table.Column, colIdx int, distinct []string, format []float64, words []string, freq []float64, vec embedding.Vector) *d3lColumn {
	return &d3lColumn{
		colIdx: colIdx, distinct: distinct, format: format,
		words: words, wordFreq: freq, vec: vec,
		label: schema.NormLabel(c.Name), norm: vec.Norm(),
	}
}

// checkWords reports whether a word distribution read from outside has
// the shape newD3LColumn requires.
func checkWords(words []string, freq []float64) error {
	if len(words) != len(freq) {
		return fmt.Errorf("%d words for %d frequencies", len(words), len(freq))
	}
	for i := 1; i < len(words); i++ {
		if words[i-1] >= words[i] {
			return fmt.Errorf("words not strictly ascending at %q", words[i])
		}
	}
	return nil
}

// Build freezes the staged tables: table IDs are sorted and every
// column is interned into one lake-wide vocabulary. Search, Prepare
// and ScoreAmong are pure reads afterwards.
func (d *D3L) Build() {
	sort.Strings(d.ids)
	var cols []*d3lColumn
	for _, id := range d.ids {
		cols = append(cols, d.tables[id].cols...)
	}
	d.vocab = internColumns(d.lake, cols)
	d.built = true
}

// internColumns builds the vocabulary of a column set and interns
// every column into it, looking each token up once: words first get
// IDs in first-seen order, which a remap turns into ascending word
// order once every word is known.
func internColumns(lake *dict.Dict, cols []*d3lColumn) d3lVocab {
	v := d3lVocab{lake: lake, wordIDs: make(map[string]uint32)}
	labelIDs := make(map[string]int)
	var words []string // by first-seen ID
	for _, c := range cols {
		c.valueIDs = make(dict.IDSet, len(c.distinct))
		for i, s := range c.distinct {
			id, ok := v.valueID(s)
			if !ok {
				if v.extra == nil {
					v.extra = make(map[string]uint32)
				}
				id = v.numValues()
				v.extra[s] = id
			}
			c.valueIDs[i] = id
		}
		slices.Sort(c.valueIDs)
		c.valueIDs = slices.Compact(c.valueIDs)
		c.wordIDs = make([]uint32, len(c.words))
		for i, w := range c.words {
			id, ok := v.wordIDs[w]
			if !ok {
				id = uint32(len(words))
				v.wordIDs[w] = id
				words = append(words, w)
			}
			c.wordIDs[i] = id
		}
		id, ok := labelIDs[c.label]
		if !ok {
			id = len(v.labels)
			labelIDs[c.label] = id
			v.labels = append(v.labels, c.label)
		}
		c.labelID = id
	}
	sorted := slices.Clone(words)
	slices.Sort(sorted)
	for i, w := range sorted {
		v.wordIDs[w] = uint32(i)
	}
	remap := make([]uint32, len(words))
	for i, w := range words {
		remap[i] = v.wordIDs[w]
	}
	for _, c := range cols {
		for i, id := range c.wordIDs {
			c.wordIDs[i] = remap[id]
		}
	}
	return v
}

// intern derives a query column's ID arrays against the frozen
// vocabulary and returns the next unused out-of-vocabulary ID. A value
// the vocabulary lacks gets an ID from oov upward, as dict.Encoder
// does: it matches no staged column but still counts toward the
// column's cardinality. A word it lacks is shared with no staged
// column and so adds nothing to any word sum: it is dropped with its
// frequency, compacting the query column's own arrays in place.
func (v *d3lVocab) intern(c *d3lColumn, oov uint32) uint32 {
	c.valueIDs = make(dict.IDSet, 0, len(c.distinct))
	for _, s := range c.distinct {
		if id, ok := v.valueID(s); ok {
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
		if id, ok := v.wordIDs[w]; ok {
			c.wordFreq[len(c.wordIDs)] = c.wordFreq[i]
			c.wordIDs = append(c.wordIDs, id)
		}
	}
	c.words, c.wordFreq = nil, c.wordFreq[:len(c.wordIDs)]
	return oov
}

// NumTables returns the number of staged tables.
func (d *D3L) NumTables() int { return len(d.tables) }

// FormatSignature summarizes value shapes as a normalized histogram
// over character classes and length buckets — D3L's format evidence.
// Two columns of phone numbers match on format even with zero value
// overlap; a name column and an ID column do not.
func FormatSignature(values []string) []float64 {
	// Classes: lower, upper, digit, space, punct; plus 4 length
	// buckets (<=4, <=8, <=16, >16).
	const dims = 9
	h := make([]float64, dims)
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

// ColumnEvidence computes the five signals between two raw columns,
// interned into a vocabulary of their own.
func (d *D3L) ColumnEvidence(a, b *table.Column) Evidence {
	ca := d.analyzeColumn(a, -1)
	cb := d.analyzeColumn(b, -1)
	internColumns(nil, []*d3lColumn{ca, cb})
	return evidence(ca, cb, schema.LabelSimilarity(ca.label, cb.label),
		dict.Overlap(ca.valueIDs, cb.valueIDs), wordSimilarity(ca.wordIDs, ca.wordFreq, cb.wordIDs, cb.wordFreq))
}

// evidence compares two columns interned into one vocabulary, given
// their value overlap and word similarity. A scan counts those two for
// every query column at once, and the name signal depends on the two
// labels alone, so callers compute all three and pass them in.
func evidence(a, b *d3lColumn, name float64, inter int, words float64) Evidence {
	return Evidence{
		Name:   name,
		Value:  dict.JaccardOf(inter, len(a.valueIDs), len(b.valueIDs)),
		Format: formatSimilarity(a.format, b.format),
		Words:  words,
		Embed:  (embedding.CosineWithNorms(a.vec, b.vec, a.norm, b.norm) + 1) / 2,
	}
}

// Search ranks staged tables by relatedness to the query: column
// pairs are scored by combined evidence and aggregated to table level
// with maximum-weight bipartite matching. It requires a prior Build
// (ErrNotBuilt otherwise), is safe for concurrent use, and checks ctx
// between tables: a cancelled context returns ctx.Err().
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
	id    string
	qcols []*d3lColumn
}

// Prepare analyzes a query table's string columns; a query that is a
// staged table reuses its staged analysis. A query without usable
// string columns wraps table.ErrBadQuery.
func (d *D3L) Prepare(query *table.Table) (*D3LQuery, error) {
	if !d.built {
		return nil, ErrNotBuilt
	}
	if entry := d.tables[query.ID]; entry != nil && entry.tbl == query {
		return &D3LQuery{id: query.ID, qcols: entry.cols}, nil
	}
	var qcols []*d3lColumn
	oov := d.vocab.numValues()
	for i, c := range query.Columns {
		if isStringColumn(c) {
			qc := d.analyzeColumn(c, i)
			oov = d.vocab.intern(qc, oov)
			qcols = append(qcols, qc)
		}
	}
	if len(qcols) == 0 {
		return nil, fmt.Errorf("union: D3L query has no usable string columns: %w", table.ErrBadQuery)
	}
	return &D3LQuery{id: query.ID, qcols: qcols}, nil
}

// TableIDs returns the staged table IDs in ascending order. D3L has
// no candidate sketch — its candidate set is the whole lake.
func (d *D3L) TableIDs() []string { return d.ids }

// ScoreAmong scores the given staged tables by combined evidence and
// returns the top k; with ids = TableIDs() it is bit-identical to
// Search. Each candidate column's value and word IDs are read once,
// against every query column (see queryMarks). Its allocations do not
// grow with len(ids): reused marks and scratch (weight matrix, matcher,
// name-evidence memo) serve every table, and only the k best results
// are kept.
func (d *D3L) ScoreAmong(ctx context.Context, pq *D3LQuery, ids []string, k int) ([]Result, error) {
	if !d.built {
		return nil, ErrNotBuilt
	}
	values := newQueryMarks(int(d.vocab.numValues()))
	defer values.release()
	words := newQueryMarks(len(d.vocab.wordIDs))
	defer words.release()
	for i, qc := range pq.qcols {
		values.add(i, qc.valueIDs, nil)
		words.add(i, qc.wordIDs, qc.wordFreq)
	}
	nq, nl := len(pq.qcols), len(d.vocab.labels)
	sc := newScanScratch(nq)
	defer freeScratch.put(sc)
	// names[i*nl+l] is the name evidence of query column i against
	// label l, computed when a candidate column first carries l.
	sc.names = resize(sc.names, nq*nl)
	names := sc.names
	for i := range names {
		names[i] = -1
	}
	top := newTopK(k, len(ids))
	for _, id := range ids {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if id == pq.id {
			continue
		}
		ccols := d.tables[id].cols
		nc := len(ccols)
		w := sc.matrix(nq, nc)
		for j, cc := range ccols {
			values.overlaps(cc.valueIDs, sc.inter)
			words.wordSums(cc.wordIDs, cc.wordFreq, sc.words)
			for i, qc := range pq.qcols {
				name := &names[i*nl+cc.labelID]
				if *name < 0 {
					*name = schema.LabelSimilarity(qc.label, d.vocab.labels[cc.labelID])
				}
				w[i*nc+j] = evidence(qc, cc, *name, int(sc.inter[i]), sc.words[i]).Combined()
			}
		}
		top.offer(Result{TableID: id, Score: sc.matcher.MaxWeight(w, nq, nc) / float64(nq)})
	}
	return top.results(), nil
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
