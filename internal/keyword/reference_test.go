package keyword

import (
	"math"
	"sort"
	"strings"

	"tablehound/internal/table"
)

// The indexes as they were before the shared postings core: the
// metadata index kept a term-frequency map per document and scored
// every document for every query term, and the value index kept sorted
// (term ID, tf) postings per document. Both are kept here, unchanged in
// arithmetic, as oracles for the term-at-a-time engine.

func sortResults(res []Result) {
	sort.Slice(res, func(i, j int) bool {
		if res[i].Score != res[j].Score {
			return res[i].Score > res[j].Score
		}
		return res[i].TableID < res[j].TableID
	})
}

type refIndex struct {
	docs     []string
	termFreq []map[string]float64
	docLen   []float64
	df       map[string]int
	avgLen   float64
}

func newRefIndex(tables []*table.Table) *refIndex {
	ix := &refIndex{df: make(map[string]int)}
	for _, t := range tables {
		tf := metadataTerms(t)
		ix.docs = append(ix.docs, t.ID)
		ix.termFreq = append(ix.termFreq, tf)
		var l float64
		for term, f := range tf {
			l += f
			ix.df[term]++
		}
		ix.docLen = append(ix.docLen, l)
	}
	var sum float64
	for _, l := range ix.docLen {
		sum += l
	}
	if len(ix.docLen) > 0 {
		ix.avgLen = sum / float64(len(ix.docLen))
	}
	return ix
}

func (ix *refIndex) idf(term string) float64 {
	n := float64(len(ix.docs))
	d := float64(ix.df[term])
	return math.Log(1 + (n-d+0.5)/(d+0.5))
}

func (ix *refIndex) search(query string, k int) []Result {
	terms := queryTerms(query)
	if len(terms) == 0 || k <= 0 {
		return nil
	}
	var res []Result
	for d := range ix.docs {
		var score float64
		for _, t := range terms {
			f := ix.termFreq[d][t]
			if f == 0 {
				continue
			}
			norm := f * (bm25K1 + 1) / (f + bm25K1*(1-bm25B+bm25B*ix.docLen[d]/ix.avgLen))
			score += ix.idf(t) * norm
		}
		if score > 0 {
			res = append(res, Result{TableID: ix.docs[d], Score: score})
		}
	}
	sortResults(res)
	if len(res) > k {
		res = res[:k]
	}
	return res
}

func (ix *refIndex) booleanSearch(query string, k int, requireAll bool) []Result {
	terms := queryTerms(query)
	if len(terms) == 0 || k <= 0 {
		return nil
	}
	var res []Result
	for d := range ix.docs {
		matched := 0
		for _, t := range terms {
			if ix.termFreq[d][t] > 0 {
				matched++
			}
		}
		if matched == 0 || (requireAll && matched < len(terms)) {
			continue
		}
		res = append(res, Result{TableID: ix.docs[d], Score: float64(matched)})
	}
	sortResults(res)
	if len(res) > k {
		res = res[:k]
	}
	return res
}

func (ix *refIndex) queryDFs(query string) []int {
	terms := queryTerms(query)
	out := make([]int, len(terms))
	for i, t := range terms {
		out[i] = ix.df[t]
	}
	return out
}

type refValueIndex struct {
	docs     []string
	schemas  []string
	docLen   []float64
	termID   map[string]uint32
	df       []int
	docTerms [][]uint32
	docTF    [][]float64
	avgLen   float64
}

func newRefValueIndex(tables []*table.Table) *refValueIndex {
	ix := &refValueIndex{termID: make(map[string]uint32)}
	for _, t := range tables {
		tf := valueTerms(t)
		var l float64
		terms := make([]string, 0, len(tf))
		for term, f := range tf {
			terms = append(terms, term)
			l += f
		}
		sort.Strings(terms)
		ids := make([]uint32, len(terms))
		for i, term := range terms {
			id, ok := ix.termID[term]
			if !ok {
				id = uint32(len(ix.df))
				ix.termID[term] = id
				ix.df = append(ix.df, 0)
			}
			ix.df[id]++
			ids[i] = id
		}
		ord := make([]int, len(terms))
		for i := range ord {
			ord[i] = i
		}
		sort.Slice(ord, func(i, j int) bool { return ids[ord[i]] < ids[ord[j]] })
		sortedIDs := make([]uint32, len(terms))
		sortedTF := make([]float64, len(terms))
		for i, o := range ord {
			sortedIDs[i] = ids[o]
			sortedTF[i] = tf[terms[o]]
		}
		ix.docs = append(ix.docs, t.ID)
		ix.schemas = append(ix.schemas, schemaSig(t))
		ix.docLen = append(ix.docLen, l)
		ix.docTerms = append(ix.docTerms, sortedIDs)
		ix.docTF = append(ix.docTF, sortedTF)
	}
	var sum float64
	for _, l := range ix.docLen {
		sum += l
	}
	if len(ix.docLen) > 0 {
		ix.avgLen = sum / float64(len(ix.docLen))
	}
	return ix
}

func (ix *refValueIndex) idf(df int) float64 {
	n := float64(len(ix.docs))
	d := float64(df)
	return math.Log(1 + (n-d+0.5)/(d+0.5))
}

func (ix *refValueIndex) tfOf(doc int, id uint32) float64 {
	ts := ix.docTerms[doc]
	i := sort.Search(len(ts), func(i int) bool { return ts[i] >= id })
	if i < len(ts) && ts[i] == id {
		return ix.docTF[doc][i]
	}
	return 0
}

func (ix *refValueIndex) search(query string, k int) []Result {
	terms := queryTerms(query)
	if len(terms) == 0 || k <= 0 {
		return nil
	}
	qids := make([]uint32, 0, len(terms))
	qidf := make([]float64, 0, len(terms))
	for _, t := range terms {
		if id, ok := ix.termID[t]; ok {
			qids = append(qids, id)
			qidf = append(qidf, ix.idf(ix.df[id]))
		}
	}
	var res []Result
	for d := range ix.docs {
		var score float64
		for i, id := range qids {
			f := ix.tfOf(d, id)
			if f == 0 {
				continue
			}
			norm := f * (bm25K1 + 1) / (f + bm25K1*(1-bm25B+bm25B*ix.docLen[d]/ix.avgLen))
			score += qidf[i] * norm
		}
		if score > 0 {
			res = append(res, Result{TableID: ix.docs[d], Score: score})
		}
	}
	sortResults(res)
	if len(res) > k {
		res = res[:k]
	}
	return res
}

func (ix *refValueIndex) searchClusters(query string, maxTables int) []Cluster {
	hits := ix.search(query, maxTables)
	if len(hits) == 0 {
		return nil
	}
	sigOf := make(map[string]string, len(ix.docs))
	for i, id := range ix.docs {
		sigOf[id] = ix.schemas[i]
	}
	group := make(map[string]*Cluster)
	var order []string
	for _, h := range hits {
		sig := sigOf[h.TableID]
		cl, ok := group[sig]
		if !ok {
			cl = &Cluster{Schema: strings.Split(sig, "\x1f"), Score: h.Score}
			group[sig] = cl
			order = append(order, sig)
		}
		cl.TableIDs = append(cl.TableIDs, h.TableID)
	}
	out := make([]Cluster, 0, len(order))
	for _, sig := range order {
		out = append(out, *group[sig])
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return strings.Join(out[i].Schema, ",") < strings.Join(out[j].Schema, ",")
	})
	return out
}
