package keyword

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"tablehound/internal/datagen"
	"tablehound/internal/snap"
	"tablehound/internal/table"
)

// parityLake is a generated lake plus copies of some of its tables
// under new IDs, so that equal scores tie and the table-ID order has to
// break them.
func parityLake(seed int64) []*table.Table {
	gen := datagen.Generate(datagen.Config{Seed: seed, NumDomains: 8, DomainSize: 40, NumTemplates: 4, TablesPerTemplate: 6})
	tables := gen.Tables
	for i := 0; i < 4; i++ {
		src := gen.Tables[i*5]
		cp := table.MustNew(fmt.Sprintf("dup%d_%s", i, src.ID), src.Name, src.Columns)
		cp.Description, cp.Tags = src.Description, src.Tags
		tables = append(tables, cp)
	}
	return tables
}

// parityQueries draws queries from the lake's metadata and cells, plus
// the edge cases: empty, stopword-only, out-of-vocabulary, duplicated
// and mixed terms.
func parityQueries(tables []*table.Table) []string {
	qs := []string{"", "the of and", "zzzqx", "zzzqx qxzzz"}
	for i := 0; i < len(tables); i += 3 {
		t := tables[i]
		cell := t.Columns[0].Values[0]
		qs = append(qs,
			t.Name, t.Description, strings.Join(t.Tags, " "), strings.Join(t.Header(), " "),
			t.Tags[0]+" "+t.Tags[0],
			t.Tags[1]+" the zzzqx "+t.Tags[1],
			cell, cell+" "+t.Columns[1].Values[0], cell+" "+cell+" zzzqx",
		)
	}
	return qs
}

// roundTrip encodes an index and decodes it again.
func roundTrip[T any](t *testing.T, enc func(*snap.Encoder), dec func(*snap.Decoder) (T, error)) T {
	t.Helper()
	var e snap.Encoder
	enc(&e)
	d := snap.NewDecoder(e.Bytes())
	v, err := dec(d)
	if err == nil {
		err = d.Finish()
	}
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestSearchMatchesReference pins the term-at-a-time engine to the
// per-document BM25 it replaced: every score equal under ==, every
// ranking, cluster and document frequency deeply equal, on built and on
// snapshot-loaded indexes, over several generated lakes.
func TestSearchMatchesReference(t *testing.T) {
	ties, short := 0, 0
	for _, seed := range []int64{1, 2, 3, 4} {
		tables := parityLake(seed)
		ref, refv := newRefIndex(tables), newRefValueIndex(tables)
		built, builtv := NewIndex(tables), NewValueIndex(tables)
		loaded := roundTrip(t, built.AppendSnapshot, DecodeIndexSnapshot)
		loadedv := roundTrip(t, builtv.AppendSnapshot, DecodeValueIndexSnapshot)
		for _, ix := range []struct {
			name string
			meta *Index
			vals *ValueIndex
		}{{"built", built, builtv}, {"loaded", loaded, loadedv}} {
			for _, q := range parityQueries(tables) {
				for _, k := range []int{0, 1, 3, 10, len(tables) + 5} {
					check := func(what string, got, want any) {
						t.Helper()
						if !reflect.DeepEqual(got, want) {
							t.Errorf("seed %d %s %s(%q, k=%d):\n got %+v\nwant %+v", seed, ix.name, what, q, k, got, want)
						}
					}
					got := ix.meta.Search(q, k)
					check("Search", got, ref.search(q, k))
					check("BooleanSearch any", ix.meta.BooleanSearch(q, k, false), ref.booleanSearch(q, k, false))
					check("BooleanSearch all", ix.meta.BooleanSearch(q, k, true), ref.booleanSearch(q, k, true))
					check("QueryDFs", ix.meta.QueryDFs(q), ref.queryDFs(q))
					check("ValueIndex.Search", ix.vals.Search(q, k), refv.search(q, k))
					check("SearchClusters", ix.vals.SearchClusters(q, k), refv.searchClusters(q, k))
					for i := 1; i < len(got); i++ {
						if got[i].Score == got[i-1].Score {
							ties++
						}
					}
					if k > 0 && len(got) > 0 && len(got) < k {
						short++
					}
				}
			}
		}
	}
	if ties == 0 || short == 0 {
		t.Errorf("fixture exercised %d score ties and %d answers shorter than k; want both > 0", ties, short)
	}
}

// encodeParts writes the postings section from explicit parts, in
// AppendSnapshot's layout, so a test can forge any one of them.
func encodeParts(docs []string, docLen []float64, vocab []string, dfs, doc []uint32, tf []float64) []byte {
	var e snap.Encoder
	e.Strs(docs)
	e.F64s(docLen)
	e.Strs(vocab)
	e.U32s(dfs)
	e.U32s(doc)
	e.F64s(tf)
	return e.Bytes()
}

// TestDecodeRejectsForgedSections forges one part of an otherwise valid
// keyword section at a time. Each must decode to snap.ErrCorrupt —
// never a panic, never an index whose postings point outside it, and
// never an allocation sized by a count the payload cannot hold.
func TestDecodeRejectsForgedSections(t *testing.T) {
	ix := NewValueIndex(valueTables())
	p := ix.postings
	dfs := make([]uint32, len(p.vocab))
	shared := -1 // a term with at least two postings
	for i := range dfs {
		dfs[i] = uint32(p.df(i))
		if shared < 0 && dfs[i] >= 2 {
			shared = i
		}
	}
	if shared < 0 {
		t.Fatal("fixture has no term in two documents")
	}
	clone := func(v []uint32) []uint32 { return append([]uint32(nil), v...) }
	badDoc := clone(p.doc)
	badDoc[0] = uint32(len(p.docs))
	unsorted := clone(p.doc)
	lo := p.start[shared]
	unsorted[lo], unsorted[lo+1] = unsorted[lo+1], unsorted[lo]
	var huge snap.Encoder
	huge.Strs(p.docs)
	huge.F64s(p.docLen)
	huge.U32(1 << 30) // a vocabulary count no payload this size can hold
	badVocab := append([]string(nil), p.vocab...)
	badVocab[0], badVocab[1] = badVocab[1], badVocab[0]

	cases := []struct {
		name string
		buf  []byte
	}{
		{"term ID beyond the vocabulary", encodeParts(p.docs, p.docLen, p.vocab, append(clone(dfs), 1), append(clone(p.doc), 0), append(p.tf[:len(p.tf):len(p.tf)], 1))},
		{"doc ordinal out of range", encodeParts(p.docs, p.docLen, p.vocab, dfs, badDoc, p.tf)},
		{"unsorted postings", encodeParts(p.docs, p.docLen, p.vocab, dfs, unsorted, p.tf)},
		{"count larger than the bytes left", huge.Bytes()},
		{"vocabulary out of order", encodeParts(p.docs, p.docLen, badVocab, dfs, p.doc, p.tf)},
		{"document lengths vs documents", encodeParts(p.docs, p.docLen[1:], p.vocab, dfs, p.doc, p.tf)},
		{"frequencies vs postings", encodeParts(p.docs, p.docLen, p.vocab, dfs, p.doc, p.tf[1:])},
		{"postings no term claims", encodeParts(p.docs, p.docLen, p.vocab, dfs, append(clone(p.doc), 0), append(p.tf[:len(p.tf):len(p.tf)], 1))},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := DecodeIndexSnapshot(snap.NewDecoder(c.buf))
			runtime.ReadMemStats(&after)
			if !errors.Is(err, snap.ErrCorrupt) {
				t.Errorf("metadata decode: err = %v, want snap.ErrCorrupt", err)
			}
			if grown := after.TotalAlloc - before.TotalAlloc; grown > 1<<20 {
				t.Errorf("decode allocated %d bytes from a %d-byte payload", grown, len(c.buf))
			}
			var e snap.Encoder
			e.Strs(ix.schemas)
			if _, err := DecodeValueIndexSnapshot(snap.NewDecoder(append(c.buf, e.Bytes()...))); !errors.Is(err, snap.ErrCorrupt) {
				t.Errorf("value decode: err = %v, want snap.ErrCorrupt", err)
			}
		})
	}
	t.Run("schemas vs documents", func(t *testing.T) {
		var e snap.Encoder
		p.AppendSnapshot(&e)
		e.Strs(ix.schemas[1:])
		if _, err := DecodeValueIndexSnapshot(snap.NewDecoder(e.Bytes())); !errors.Is(err, snap.ErrCorrupt) {
			t.Errorf("err = %v, want snap.ErrCorrupt", err)
		}
	})
}
