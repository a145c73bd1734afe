package union

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"

	"tablehound/internal/table"
)

// TestTUSSearchRequiresBuild pins the read-path contract: Search never
// mutates the engine, so an unbuilt (or re-staged) engine reports
// ErrNotBuilt instead of building implicitly.
func TestTUSSearchRequiresBuild(t *testing.T) {
	lake, tus := lakeAndTUS(t, false, false)
	fresh, err := NewTUS(TUSConfig{Model: tus.cfg.Model})
	if err != nil {
		t.Fatal(err)
	}
	fresh.AddTable(lake.Tables[0])
	if _, err := fresh.Search(context.Background(), lake.Tables[1], 3, SetMeasure); !errors.Is(err, ErrNotBuilt) {
		t.Errorf("Search before Build: err = %v, want ErrNotBuilt", err)
	}
	// Staging a table after Build un-freezes the index again.
	tus.AddTable(confusableTables("restaged", 0, 1, 20)[0])
	if _, err := tus.Search(context.Background(), lake.Tables[1], 3, SetMeasure); !errors.Is(err, ErrNotBuilt) {
		t.Errorf("Search after post-Build AddTable: err = %v, want ErrNotBuilt", err)
	}
}

// TestTUSQueryParallelismParity checks the serving determinism
// contract: candidate scoring fanned over 8 workers returns results
// bit-identical to the sequential scan, for every measure.
func TestTUSQueryParallelismParity(t *testing.T) {
	lake, tus := lakeAndTUS(t, false, true)
	for _, m := range []Measure{SetMeasure, SemMeasure, NLMeasure, EnsembleMeasure} {
		for _, q := range []int{0, 2} {
			query := lake.Tables[q*7]
			tus.QueryParallelism = 1
			want, err := tus.Search(context.Background(), query, 6, m)
			if err != nil {
				t.Fatal(err)
			}
			tus.QueryParallelism = 8
			got, err := tus.Search(context.Background(), query, 6, m)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("measure %v query %d: parallel results differ\ngot  %+v\nwant %+v", m, q, got, want)
			}
		}
	}
}

// TestTUSConcurrentSearch hammers Search from many goroutines; run
// under -race (make race) it proves the read path is mutation-free.
func TestTUSConcurrentSearch(t *testing.T) {
	lake, tus := lakeAndTUS(t, false, true)
	tus.QueryParallelism = 2 // exercise the per-query fan-out too
	want, err := tus.Search(context.Background(), lake.Tables[0], 5, EnsembleMeasure)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				query := lake.Tables[(g*4+i)%len(lake.Tables)]
				res, err := tus.Search(context.Background(), query, 5, EnsembleMeasure)
				if err != nil {
					errs <- err
					return
				}
				if query == lake.Tables[0] && !reflect.DeepEqual(res, want) {
					t.Errorf("concurrent result diverged for table 0")
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestSantosSearchRequiresBuild mirrors the TUS contract for SANTOS.
func TestSantosSearchRequiresBuild(t *testing.T) {
	groupA := confusableTables("locA", 0, 3, 40)
	s := NewSantos(nil)
	for _, tbl := range groupA {
		s.AddTable(tbl)
	}
	if _, err := s.Search(context.Background(), groupA[0], 3, SynthOnly); !errors.Is(err, ErrNotBuilt) {
		t.Errorf("Search before Build: err = %v, want ErrNotBuilt", err)
	}
}

// TestSantosQueryParallelismParity checks bit-identical results across
// worker counts for every knowledge mode.
func TestSantosQueryParallelismParity(t *testing.T) {
	s, groupA, groupB := buildSantos(t, curatedKB())
	for _, mode := range []SantosMode{CuratedOnly, SynthOnly, Hybrid} {
		for _, query := range []int{0, 1} {
			q := append(groupA, groupB...)[query*3]
			s.QueryParallelism = 1
			want, err := s.Search(context.Background(), q, 8, mode)
			if err != nil {
				t.Fatal(err)
			}
			s.QueryParallelism = 8
			got, err := s.Search(context.Background(), q, 8, mode)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("mode %v: parallel results differ\ngot  %+v\nwant %+v", mode, got, want)
			}
		}
	}
}

// TestSantosConcurrentSearch proves the SANTOS read path is race-free
// under -race.
func TestSantosConcurrentSearch(t *testing.T) {
	s, groupA, groupB := buildSantos(t, curatedKB())
	s.QueryParallelism = 2
	tables := append(groupA, groupB...)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if _, err := s.Search(context.Background(), tables[(g+i)%len(tables)], 5, Hybrid); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestLogFactTableMatchesLgamma pins the cache's bit-identity
// contract: cached CDF values equal the uncached reference both
// inside and beyond the table's range.
func TestLogFactTableMatchesLgamma(t *testing.T) {
	lf := newLogFactTable(50)
	for n := 0; n <= 60; n++ {
		want, _ := math.Lgamma(float64(n + 1))
		if got := lf.logFact(n); got != want {
			t.Fatalf("logFact(%d) = %v, want %v", n, got, want)
		}
	}
	for _, c := range [][4]int{{3, 50, 10, 10}, {7, 1000, 10, 10}, {5, 20, 30, 40}} {
		want := hypergeomCDF(c[0], c[1], c[2], c[3])
		if got := lf.hypergeomCDF(c[0], c[1], c[2], c[3]); got != want {
			t.Fatalf("cached CDF%v = %v, want %v", c, got, want)
		}
	}
}

// sameTable is a deep copy under the same ID: equal in every cell, but
// not the pointer an engine staged.
func sameTable(tb *table.Table) *table.Table {
	cols := make([]*table.Column, len(tb.Columns))
	for i, c := range tb.Columns {
		cols[i] = &table.Column{Name: c.Name, Type: c.Type, Values: append([]string(nil), c.Values...)}
	}
	return table.MustNew(tb.ID, tb.Name, cols)
}

// TestPrepareReusesStagedAnalysis: a query that is a staged table gets
// the engine's own staged columns / relationships (no re-analysis), a
// copy of it gets a fresh analysis, and the two are equal field for
// field — IDs, signature, vector, norm, annotations — which is what
// makes the reuse invisible in every ranking.
func TestPrepareReusesStagedAnalysis(t *testing.T) {
	lake, tus := lakeAndTUS(t, false, true)
	santos := NewSantos(lake.BuildKB(0.9))
	for _, tb := range lake.Tables {
		santos.AddTable(tb)
	}
	if err := santos.Build(); err != nil {
		t.Fatal(err)
	}
	santosQueries := 0
	for _, tb := range lake.Tables {
		staged, err := tus.Prepare(tb)
		if err != nil {
			t.Fatal(err)
		}
		copied, err := tus.Prepare(sameTable(tb))
		if err != nil {
			t.Fatal(err)
		}
		if &staged.qcols[0] != &tus.tables[tb.ID].cols[0] {
			t.Fatalf("TUS %s: staged query was analyzed again", tb.ID)
		}
		if &copied.qcols[0] == &tus.tables[tb.ID].cols[0] {
			t.Fatalf("TUS %s: a copy was answered from the staged columns", tb.ID)
		}
		if !reflect.DeepEqual(staged.qcols, copied.qcols) {
			t.Fatalf("TUS %s: staged columns differ from a fresh analysis", tb.ID)
		}

		sst, err := santos.Prepare(tb)
		if err != nil {
			continue // no intent column plus one other: a bad query either way
		}
		santosQueries++
		scp, err := santos.Prepare(sameTable(tb))
		if err != nil {
			t.Fatal(err)
		}
		if sst.q != santos.tables[tb.ID] {
			t.Fatalf("SANTOS %s: staged query was analyzed again", tb.ID)
		}
		if scp.q == santos.tables[tb.ID] {
			t.Fatalf("SANTOS %s: a copy was answered from the staged relationships", tb.ID)
		}
		if !reflect.DeepEqual(sst.q.rels, scp.q.rels) {
			t.Fatalf("SANTOS %s: staged relationships differ from a fresh analysis", tb.ID)
		}
	}
	if santosQueries == 0 {
		t.Fatal("no table of the lake is a valid SANTOS query")
	}
}
