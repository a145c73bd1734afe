package keyword

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"tablehound/internal/dict"
	"tablehound/internal/snap"
	"tablehound/internal/table"
	"tablehound/internal/tokenize"
)

// BM25 hyperparameters (standard defaults).
const (
	bm25K1 = 1.2
	bm25B  = 0.75
)

// Result is one ranked table.
type Result struct {
	TableID string
	Score   float64
}

// postings is the BM25 engine both indexes are: an interned term
// vocabulary and, per term, the (document, tf) postings of the tables
// that hold it. It is built once, by newPostings or a snapshot decode,
// and is never written again, so every method is a pure read and safe
// for concurrent use.
type postings struct {
	docs   []string  // doc ordinal -> table ID
	docLen []float64 // doc ordinal -> sum of its term frequencies
	avgLen float64
	vocab  []string // term ID -> term, strictly ascending
	// start[t]..start[t+1] index term t's postings: doc ordinals strictly
	// ascending, tf parallel to doc. A term's document frequency is the
	// length of its list.
	start []uint32
	doc   []uint32
	tf    []float64
}

// newPostings indexes tables in order; terms gives a table's term
// frequencies. Term IDs follow the sorted vocabulary, so the index is a
// pure function of the tables whatever the map iteration order.
func newPostings(tables []*table.Table, terms func(*table.Table) map[string]float64) postings {
	type entry struct {
		doc uint32
		tf  float64
	}
	p := postings{docs: make([]string, len(tables)), docLen: make([]float64, len(tables))}
	lists := make(map[string][]entry)
	total := 0
	for d, t := range tables {
		p.docs[d] = t.ID
		for term, f := range terms(t) {
			lists[term] = append(lists[term], entry{uint32(d), f})
			total++
		}
	}
	p.vocab = make([]string, 0, len(lists))
	for term := range lists {
		p.vocab = append(p.vocab, term)
	}
	slices.Sort(p.vocab)
	p.start = make([]uint32, 1, len(p.vocab)+1)
	p.doc, p.tf = make([]uint32, 0, total), make([]float64, 0, total)
	for _, term := range p.vocab {
		for _, e := range lists[term] {
			p.doc = append(p.doc, e.doc)
			p.tf = append(p.tf, e.tf)
			p.docLen[e.doc] += e.tf
		}
		p.start = append(p.start, uint32(len(p.doc)))
	}
	p.avgLen = meanLen(p.docLen)
	return p
}

func meanLen(docLen []float64) float64 {
	var sum float64
	for _, l := range docLen {
		sum += l
	}
	if len(docLen) == 0 {
		return 0
	}
	return sum / float64(len(docLen))
}

// Len returns the number of indexed tables.
func (p *postings) Len() int { return len(p.docs) }

// Footprint reports the vocabulary size and the postings' bytes: a 4 B
// document ordinal and an 8 B tf per posting, against one
// map[string]float64 entry per posting in the per-document form (term
// bytes live in the vocabulary either way).
func (p *postings) Footprint() dict.Footprint {
	n := int64(len(p.doc))
	return dict.Footprint{Count: len(p.vocab), Bytes: n * 12, LegacyBytes: n * (16 + 8 + 32)}
}

func (p *postings) termID(term string) (int, bool) {
	return slices.BinarySearch(p.vocab, term)
}

func (p *postings) df(id int) int { return int(p.start[id+1] - p.start[id]) }

// idf is the BM25 idf with the standard +1 smoothing.
func (p *postings) idf(df int) float64 {
	n := float64(len(p.docs))
	d := float64(df)
	return math.Log(1 + (n-d+0.5)/(d+0.5))
}

// hit is one matching document and its accumulated score.
type hit struct {
	doc   uint32
	score float64
}

// match reads the posting lists of the query terms, term at a time in
// query order with duplicates kept, and merges them into one list of
// matching documents sorted by ordinal. A posting adds its BM25 weight
// when bm25 is set and 1 otherwise, so each document's sum is built in
// the same order as a per-document loop over the query terms would
// build it. Terms outside the vocabulary add nothing.
func (p *postings) match(terms []string, bm25 bool) []hit {
	read := 0 // postings the merge reads, which bounds its length
	for _, term := range terms {
		if id, ok := p.termID(term); ok {
			read += p.df(id)
		}
	}
	acc, next := make([]hit, 0, read), make([]hit, 0, read)
	for _, term := range terms {
		id, ok := p.termID(term)
		if !ok {
			continue
		}
		idf := p.idf(p.df(id))
		next = next[:0]
		i := 0
		for k := p.start[id]; k < p.start[id+1]; k++ {
			d := p.doc[k]
			for i < len(acc) && acc[i].doc < d {
				next = append(next, acc[i])
				i++
			}
			w := 1.0
			if bm25 {
				f := p.tf[k]
				norm := f * (bm25K1 + 1) / (f + bm25K1*(1-bm25B+bm25B*p.docLen[d]/p.avgLen))
				w = idf * norm
			}
			if i < len(acc) && acc[i].doc == d {
				w = acc[i].score + w
				i++
			}
			next = append(next, hit{d, w})
		}
		next = append(next, acc[i:]...)
		acc, next = next, acc
	}
	return acc
}

// top orders hits by (score desc, table ID asc) and keeps the first k.
func (p *postings) top(hits []hit, k int) []hit {
	slices.SortFunc(hits, func(a, b hit) int {
		return cmp.Or(cmp.Compare(b.score, a.score), strings.Compare(p.docs[a.doc], p.docs[b.doc]))
	})
	return hits[:min(k, len(hits))]
}

// ranked is the top k BM25 hits for the query.
func (p *postings) ranked(query string, k int) []hit {
	if k <= 0 {
		return nil
	}
	return p.top(p.match(queryTerms(query), true), k)
}

func (p *postings) results(hits []hit) []Result {
	if len(hits) == 0 {
		return nil
	}
	out := make([]Result, len(hits))
	for i, h := range hits {
		out[i] = Result{TableID: p.docs[h.doc], Score: h.score}
	}
	return out
}

// Search ranks tables by BM25 score against the query keywords and
// returns the top k (fewer when fewer match).
func (p *postings) Search(query string, k int) []Result {
	return p.results(p.ranked(query, k))
}

// queryTerms tokenizes a query as documents are tokenized: stopwords
// dropped, duplicates kept.
func queryTerms(query string) []string {
	var out []string
	for _, t := range tokenize.Words(query) {
		if !tokenize.IsStopword(t) {
			out = append(out, t)
		}
	}
	return out
}

// AppendSnapshot encodes the postings, the one section codec of both
// indexes: table IDs, document lengths, the vocabulary, each term's
// document frequency, then every posting's document and tf in term
// order. The average length is derived on decode.
func (p *postings) AppendSnapshot(e *snap.Encoder) {
	e.Strs(p.docs)
	e.F64s(p.docLen)
	e.Strs(p.vocab)
	dfs := make([]uint32, len(p.vocab))
	for t := range dfs {
		dfs[t] = uint32(p.df(t))
	}
	e.U32s(dfs)
	e.U32s(p.doc)
	e.F64s(p.tf)
}

// decodePostings reads what AppendSnapshot wrote and checks what a
// query relies on: a length per document, a strictly ascending
// vocabulary (lookups binary-search it), a document frequency per term
// that together claim every posting, and postings that name existing
// documents in strictly ascending order.
func decodePostings(d *snap.Decoder) (postings, error) {
	p := postings{docs: d.Strs(), docLen: d.F64s(), vocab: d.Strs()}
	dfs := d.U32s()
	p.doc, p.tf = d.U32s(), d.F64s()
	if err := d.Err(); err != nil {
		return postings{}, err
	}
	corrupt := func(format string, args ...any) (postings, error) {
		return postings{}, fmt.Errorf("%w: keyword: "+format, append([]any{snap.ErrCorrupt}, args...)...)
	}
	switch {
	case len(p.docLen) != len(p.docs):
		return corrupt("%d document lengths for %d documents", len(p.docLen), len(p.docs))
	case len(dfs) != len(p.vocab):
		return corrupt("postings for %d terms, vocabulary of %d", len(dfs), len(p.vocab))
	case len(p.tf) != len(p.doc):
		return corrupt("%d frequencies for %d postings", len(p.tf), len(p.doc))
	}
	for t := 1; t < len(p.vocab); t++ {
		if p.vocab[t-1] >= p.vocab[t] {
			return corrupt("vocabulary not strictly ascending at term %d", t)
		}
	}
	p.start = make([]uint32, len(dfs)+1)
	for t, n := range dfs {
		lo := int(p.start[t])
		hi := lo + int(n)
		if hi > len(p.doc) {
			return corrupt("term %d claims %d postings, %d left", t, n, len(p.doc)-lo)
		}
		if err := dict.IDSet(p.doc[lo:hi]).Check(len(p.docs)); err != nil {
			return corrupt("term %d postings: %v", t, err)
		}
		p.start[t+1] = uint32(hi)
	}
	if int(p.start[len(dfs)]) != len(p.doc) {
		return corrupt("%d postings claimed by no term", len(p.doc)-int(p.start[len(dfs)]))
	}
	p.avgLen = meanLen(p.docLen)
	return p, nil
}
