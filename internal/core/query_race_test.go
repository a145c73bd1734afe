package core

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"tablehound/internal/datagen"
	"tablehound/internal/dict"
	"tablehound/internal/join"
	"tablehound/internal/lake"
	"tablehound/internal/table"
	"tablehound/internal/union"
)

// queryInputs derives a representative query workload from a built
// system: a mid-catalog table plus its widest string column.
func queryInputs(t *testing.T, sys *System) (tableID string, colValues []string) {
	t.Helper()
	tbls := sys.Catalog.Tables()
	q := tbls[len(tbls)/2]
	for _, c := range q.Columns {
		if c.Type == table.TypeString && len(c.Values) > len(colValues) {
			colValues = c.Values
		}
	}
	if len(colValues) == 0 {
		colValues = q.Columns[0].Values
	}
	return q.ID, colValues
}

// TestConcurrentQueriesAllSurfaces exercises every System read surface
// from many goroutines against one shared build. Run under -race
// (make race) this is the proof behind the query-path concurrency
// contract documented in core.go and DESIGN.md.
func TestConcurrentQueriesAllSurfaces(t *testing.T) {
	sys, gen := demoSystem(t)
	qid, vals := queryInputs(t, sys)
	query := sys.Catalog.Table(qid)
	kw := gen.Tables[0].Name
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				if _, err := sys.KeywordSearch(kw, 5); err != nil {
					t.Error(err)
					return
				}
				if _, err := sys.ValueSearch(vals[0], 5); err != nil {
					t.Error(err)
					return
				}
				if _, err := sys.JoinableColumns(vals, 5); err != nil {
					t.Error(err)
					return
				}
				if _, err := sys.ContainmentSearch(vals, 0.5, 5); err != nil {
					t.Error(err)
					return
				}
				if _, err := sys.UnionableTables(query, 5); err != nil {
					t.Error(err)
					return
				}
				if _, err := sys.Santos.Search(context.Background(), query, 5, union.Hybrid); err != nil {
					t.Error(err)
					return
				}
				if _, err := sys.Starmie.SearchTables(context.Background(), query, 5, 0, false); err != nil {
					t.Error(err)
					return
				}
				// query is a staged table, so every goroutine's D3L scan
				// reads the same staged column analysis.
				if _, err := sys.D3L.Search(context.Background(), query, 5); err != nil {
					t.Error(err)
					return
				}
				if _, _, err := sys.Navigate(kw); err != nil {
					// Navigate can legitimately miss a topic; only hard
					// failures on the shared structures matter here.
					_ = err
				}
				if fz, _ := sys.Fuzzy(); fz != nil {
					fz.Search(vals[:min(len(vals), 20)], 0.9, 0.5)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestSystemQueryParallelismParity flips the query-parallelism knobs
// on one built system and checks that every surface returns results
// bit-identical to its sequential scan.
func TestSystemQueryParallelismParity(t *testing.T) {
	sys, _ := demoSystem(t)
	qid, vals := queryInputs(t, sys)
	query := sys.Catalog.Table(qid)
	setWorkers := func(n int) {
		sys.TUS.QueryParallelism = n
		sys.Santos.QueryParallelism = n
		sys.Join.QueryParallelism = n
		fuzzyOf(t, sys).QueryParallelism = n
	}
	type result struct {
		name string
		val  interface{}
	}
	snapshot := func() []result {
		tusRes, err := sys.UnionableTables(query, 5)
		if err != nil {
			t.Fatal(err)
		}
		santosRes, err := sys.Santos.Search(context.Background(), query, 5, union.Hybrid)
		if err != nil {
			t.Fatal(err)
		}
		contRes, err := sys.ContainmentSearch(vals, 0.5, 5)
		if err != nil {
			t.Fatal(err)
		}
		kwRes, err := sys.KeywordSearch("data", 5)
		if err != nil {
			t.Fatal(err)
		}
		out := []result{
			{"UnionableTables", tusRes},
			{"Santos", santosRes},
			{"Containment", contRes},
			{"Jaccard", sys.Join.JaccardSearch(vals, 0.05)},
			{"Keyword", kwRes},
		}
		fr, fs := fuzzyOf(t, sys).Search(vals[:min(len(vals), 20)], 0.9, 0.3)
		out = append(out, result{"Fuzzy", fmt.Sprintf("%+v %+v", fr, fs)})
		return out
	}
	setWorkers(1)
	want := snapshot()
	for _, n := range []int{2, 8} {
		setWorkers(n)
		got := snapshot()
		for i := range got {
			if !reflect.DeepEqual(got[i].val, want[i].val) {
				t.Errorf("workers=%d surface %s differs\ngot  %+v\nwant %+v",
					n, got[i].name, got[i].val, want[i].val)
			}
		}
	}
}

// fullScanOverlap is the top-k overlap oracle: every key scored by an
// exact set merge, ordered (overlap desc, key asc).
func fullScanOverlap(e *join.Engine, q join.Query, keys []string, k int) []join.Match {
	var out []join.Match
	for _, key := range keys {
		if o := dict.Overlap(q.IDs, e.IDSet(key)); o > 0 {
			out = append(out, join.Match{ColumnKey: key, Overlap: o, Containment: float64(o) / float64(len(q.IDs))})
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
	return out
}

// TestJoinableColumnsOneAnswerOnTies asks for the columns joinable with
// each column of two tables, 320 calls from 8 goroutines, on a lake where
// every table exists twice — so every place in a ranking is tied, the
// last one included. JOSIE used to break such ties by Go map iteration
// order (a third of these queries answered differently from call to
// call); every call must now return the (overlap desc, key asc) answer
// of a full scan.
func TestJoinableColumnsOneAnswerOnTies(t *testing.T) {
	gen := datagen.Generate(datagen.Config{Seed: 51, NumDomains: 8, DomainSize: 60, NumTemplates: 4, TablesPerTemplate: 5})
	cat := lake.NewCatalog()
	for _, tbl := range gen.Tables {
		cols := make([]*table.Column, len(tbl.Columns))
		for i, c := range tbl.Columns {
			cols[i] = table.NewColumn(c.Name, c.Values)
		}
		twin, err := table.New("twin_"+tbl.ID, tbl.Name, cols)
		if err != nil {
			t.Fatal(err)
		}
		if err := cat.AddBatch([]*table.Table{tbl, twin}); err != nil {
			t.Fatal(err)
		}
	}
	sys, err := Build(cat, Options{Seed: 3, SkipFuzzy: true, SkipGraph: true, SkipOrganization: true})
	if err != nil {
		t.Fatal(err)
	}
	type query struct {
		values []string
		k      int
		want   []join.Match
	}
	var queries []query
	every := sys.Join.Parts().Keys
	for _, tbl := range gen.Tables[:2] {
		for _, c := range tbl.Columns {
			q := sys.Join.EncodeQuery(c.Values)
			if sys.Join.IDSet(table.ColumnKey(tbl.ID, c.Name)) == nil {
				continue // not a join column
			}
			for _, k := range []int{1, 5} {
				queries = append(queries, query{c.Values, k, fullScanOverlap(sys.Join, q, every, k)})
			}
		}
	}
	if len(queries) < 10 {
		t.Fatalf("only %d queries", len(queries))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for calls := 0; calls < 40; calls++ {
				q := queries[calls%len(queries)]
				got, err := sys.JoinableColumns(q.values, q.k)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, q.want) {
					t.Errorf("JoinableColumns(k=%d) = %+v, want %+v", q.k, got, q.want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
