package keyword

import (
	"fmt"
	"sort"
	"strings"

	"tablehound/internal/snap"
	"tablehound/internal/table"
	"tablehound/internal/tokenize"
)

// ValueIndex supports keyword search over cell values — the OCTOPUS
// SEARCH operator (Cafarella et al., VLDB 2009): queries hit the data
// itself rather than metadata, and results come back as clusters of
// same-schema tables ready for union. It is built once by
// NewValueIndex and never changes, so every method is safe for
// concurrent use.
type ValueIndex struct {
	postings
	schemas []string // doc ordinal -> schema signature
}

// NewValueIndex indexes the cell values of tables, in order.
func NewValueIndex(tables []*table.Table) *ValueIndex {
	ix := &ValueIndex{postings: newPostings(tables, valueTerms), schemas: make([]string, len(tables))}
	for i, t := range tables {
		ix.schemas[i] = schemaSig(t)
	}
	return ix
}

// Fold is Index.Fold for cell values: only the added tables'
// cells are tokenized, and every other table keeps its schema
// signature.
func (ix *ValueIndex) Fold(docs []string, added map[string]*table.Table) (*ValueIndex, error) {
	p, from, err := ix.fold(docs, added, valueTerms)
	if err != nil {
		return nil, err
	}
	out := &ValueIndex{postings: p, schemas: make([]string, len(docs))}
	for d, o := range from {
		if o >= 0 {
			out.schemas[d] = ix.schemas[o]
		} else {
			out.schemas[d] = schemaSig(added[docs[d]])
		}
	}
	return out, nil
}

// valueTerms counts a table's cell words (stopwords dropped, capped per
// column to bound skew from huge columns).
func valueTerms(t *table.Table) map[string]float64 {
	const maxPerColumn = 2000
	tf := make(map[string]float64)
	for _, c := range t.Columns {
		n := 0
		for _, v := range c.Values {
			if n >= maxPerColumn {
				break
			}
			for _, w := range tokenize.Words(v) {
				if tokenize.IsStopword(w) {
					continue
				}
				tf[w]++
				n++
			}
		}
	}
	return tf
}

func schemaSig(t *table.Table) string {
	hs := make([]string, 0, t.NumCols())
	for _, h := range t.Header() {
		hs = append(hs, tokenize.Normalize(strings.ReplaceAll(h, "_", " ")))
	}
	sort.Strings(hs)
	return strings.Join(hs, "\x1f")
}

// Cluster is a group of same-schema result tables — OCTOPUS's unit of
// answer, directly unionable into one result table.
type Cluster struct {
	Schema   []string // sorted normalized column names
	TableIDs []string // members, best score first
	Score    float64  // best member score
}

// SearchClusters runs Search and groups the top maxTables hits by
// schema signature, clusters ordered by best member score.
func (ix *ValueIndex) SearchClusters(query string, maxTables int) []Cluster {
	hits := ix.ranked(query, maxTables)
	if len(hits) == 0 {
		return nil
	}
	group := make(map[string]*Cluster)
	var order []string
	for _, h := range hits {
		sig := ix.schemas[h.doc]
		cl, ok := group[sig]
		if !ok {
			cl = &Cluster{Schema: strings.Split(sig, "\x1f"), Score: h.score}
			group[sig] = cl
			order = append(order, sig)
		}
		cl.TableIDs = append(cl.TableIDs, ix.docs[h.doc])
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

// AppendSnapshot encodes the index: the shared postings codec, then
// each table's schema signature.
func (ix *ValueIndex) AppendSnapshot(e *snap.Encoder) {
	ix.postings.AppendSnapshot(e)
	e.Strs(ix.schemas)
}

// DecodeValueIndexSnapshot rebuilds an index written by AppendSnapshot.
func DecodeValueIndexSnapshot(d *snap.Decoder) (*ValueIndex, error) {
	p, err := decodePostings(d)
	if err != nil {
		return nil, err
	}
	schemas := d.Strs()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if len(schemas) != len(p.docs) {
		return nil, fmt.Errorf("%w: keyword: %d schemas for %d documents", snap.ErrCorrupt, len(schemas), len(p.docs))
	}
	return &ValueIndex{postings: p, schemas: schemas}, nil
}
