// Package keyword implements keyword search over data-lake tables
// (Section 2.3 of the tutorial): the user supplies topic keywords and
// the engine ranks tables by relevance. Index searches metadata, the
// query mode of OCTOPUS and Google Dataset Search, with BM25 (the
// default) and boolean AND/OR matching (the baseline benchmarks compare
// against); ValueIndex searches cell values. Both are one BM25 engine
// over different terms.
package keyword

import (
	"strings"

	"tablehound/internal/snap"
	"tablehound/internal/table"
	"tablehound/internal/tokenize"
)

// Field weights: a hit in the table name is worth more than a hit in
// the description, which beats a hit in a column header.
const (
	weightName   = 3.0
	weightTags   = 2.0
	weightDesc   = 1.5
	weightHeader = 1.0
)

// Index is a BM25 inverted index over table metadata. It is built once
// by NewIndex and never changes, so every method is safe for concurrent
// use.
type Index struct{ postings }

// NewIndex indexes the metadata of tables, in order.
func NewIndex(tables []*table.Table) *Index {
	return &Index{newPostings(tables, metadataTerms)}
}

// Fold returns the index NewIndex builds over a merged lake whose
// table IDs are docs, in index order, from ix and the tables the merge
// adds (by ID, replaced tables included): only the added tables are
// tokenized; every other table keeps its postings.
func (ix *Index) Fold(docs []string, added map[string]*table.Table) (*Index, error) {
	p, _, err := ix.fold(docs, added, metadataTerms)
	if err != nil {
		return nil, err
	}
	return &Index{p}, nil
}

// metadataTerms extracts weighted terms from a table's metadata.
func metadataTerms(t *table.Table) map[string]float64 {
	tf := make(map[string]float64)
	addAll := func(text string, w float64) {
		for _, tok := range tokenize.Words(text) {
			if tokenize.IsStopword(tok) {
				continue
			}
			tf[tok] += w
		}
	}
	addAll(t.Name, weightName)
	addAll(t.Description, weightDesc)
	for _, tag := range t.Tags {
		addAll(tag, weightTags)
	}
	for _, h := range t.Header() {
		addAll(strings.ReplaceAll(h, "_", " "), weightHeader)
	}
	return tf
}

// BooleanSearch is the baseline: rank by the count of query terms
// present (AND-biased OR semantics), ignoring term frequency and
// rarity. requireAll restricts results to tables matching every term.
func (ix *Index) BooleanSearch(query string, k int, requireAll bool) []Result {
	if k <= 0 {
		return nil
	}
	terms := queryTerms(query)
	hits := ix.match(terms, false)
	if requireAll {
		all := hits[:0]
		for _, h := range hits {
			if h.score == float64(len(terms)) {
				all = append(all, h)
			}
		}
		hits = all
	}
	return ix.results(ix.top(hits, k))
}

// QueryDFs returns the document frequency of each query term,
// tokenized exactly as Search/BooleanSearch tokenize (stopwords
// dropped, duplicates kept): the lengths of the posting lists those
// searches read. A cost-based planner estimates the boolean-AND
// prefilter's selectivity and cost from these counts: a term absent
// from the corpus has DF 0 and admits nothing, a term present in every
// document has DF Len() and restricts nothing.
func (ix *Index) QueryDFs(query string) []int {
	terms := queryTerms(query)
	out := make([]int, len(terms))
	for i, t := range terms {
		if id, ok := ix.termID(t); ok {
			out[i] = ix.df(id)
		}
	}
	return out
}

// DecodeIndexSnapshot rebuilds an index written by AppendSnapshot.
func DecodeIndexSnapshot(d *snap.Decoder) (*Index, error) {
	p, err := decodePostings(d)
	if err != nil {
		return nil, err
	}
	return &Index{p}, nil
}
