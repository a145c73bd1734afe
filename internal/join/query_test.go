package join

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"tablehound/internal/table"
)

// TestTopKOverlapEmptyQuery pins the divide-by-zero guard: a query
// that normalizes to nothing is a bad query on the whole-lake and the
// restricted search alike — never NaN scores.
func TestTopKOverlapEmptyQuery(t *testing.T) {
	e := demoEngine(t)
	ctx := context.Background()
	for _, q := range [][]string{nil, {}, {"", "  ", "\t"}} {
		for _, among := range [][]string{nil, e.keys} {
			res, _, err := e.TopKOverlap(ctx, e.EncodeQuery(q), 3, among)
			if res != nil || !errors.Is(err, table.ErrBadQuery) {
				t.Errorf("TopKOverlap(%q) = %+v, %v, want nil and table.ErrBadQuery", q, res, err)
			}
		}
	}
	// Sanity: a real query still produces finite containments.
	real, _, err := e.TopKOverlap(ctx, e.EncodeQuery(genVals("city", 10)), 3, nil)
	if err != nil || len(real) == 0 {
		t.Fatalf("real query = %v, %v", real, err)
	}
	for _, m := range real {
		if math.IsNaN(m.Containment) || math.IsInf(m.Containment, 0) {
			t.Errorf("non-finite containment: %+v", m)
		}
	}
}

// TestEngineQueryParallelismParity checks that every parallel query
// surface returns results bit-identical to the sequential scan.
func TestEngineQueryParallelismParity(t *testing.T) {
	e := demoEngine(t)
	q := genVals("city", 50)
	ctx, eq := context.Background(), e.EncodeQuery(q)
	type run struct {
		name string
		exec func() interface{}
	}
	runs := []run{
		{"ContainmentSearch", func() interface{} {
			res, err := e.ContainmentSearch(ctx, eq, 0.6)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}},
		{"JaccardSearch", func() interface{} { return e.JaccardSearch(q, 0.05) }},
		{"ExactContainmentScan", func() interface{} { return e.ExactContainmentScan(q, 0.6) }},
	}
	for _, r := range runs {
		e.QueryParallelism = 1
		want := r.exec()
		for _, workers := range []int{2, 8} {
			e.QueryParallelism = workers
			if got := r.exec(); !reflect.DeepEqual(got, want) {
				t.Errorf("%s workers=%d differs\ngot  %+v\nwant %+v", r.name, workers, got, want)
			}
		}
	}
}

// TestEngineConcurrentQueries runs every read surface from many
// goroutines at once; under -race this proves queries never mutate
// the engine.
func TestEngineConcurrentQueries(t *testing.T) {
	e := demoEngine(t)
	e.QueryParallelism = 2
	q := genVals("city", 50)
	ctx, eq := context.Background(), e.EncodeQuery(q)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if _, _, err := e.TopKOverlap(ctx, eq, 3, nil); err != nil {
					t.Error(err)
					return
				}
				if _, err := e.ContainmentSearch(ctx, eq, 0.6); err != nil {
					t.Error(err)
					return
				}
				e.JaccardSearch(q, 0.05)
				e.ExactContainmentScan(q, 0.6)
			}
		}()
	}
	wg.Wait()
}

// TestFuzzyQueryParallelismParity checks PEXESO's fan-out: matches
// AND work-counter stats are identical at any worker count.
func TestFuzzyQueryParallelismParity(t *testing.T) {
	f := NewFuzzyJoiner(fuzzyModel(), 4)
	for c := 0; c < 4; c++ {
		vals := make([]string, 60)
		for i := range vals {
			vals[i] = fmt.Sprintf("col%d_value_%04d", c, i)
		}
		if err := f.AddColumn(fmt.Sprintf("lake.c%d", c), vals); err != nil {
			t.Fatal(err)
		}
	}
	q := make([]string, 60)
	for i := range q {
		q[i] = fmt.Sprintf("col1_value_%04d", i)
	}
	f.QueryParallelism = 1
	wantRes, wantSt := f.Search(q, 0.85, 0.3)
	for _, workers := range []int{2, 8} {
		f.QueryParallelism = workers
		gotRes, gotSt := f.Search(q, 0.85, 0.3)
		if !reflect.DeepEqual(gotRes, wantRes) {
			t.Errorf("workers=%d results differ\ngot  %+v\nwant %+v", workers, gotRes, wantRes)
		}
		if gotSt != wantSt {
			t.Errorf("workers=%d stats differ: got %+v, want %+v", workers, gotSt, wantSt)
		}
	}
}

// TestFuzzyConcurrentSearch proves the PEXESO read path is race-free.
func TestFuzzyConcurrentSearch(t *testing.T) {
	f := NewFuzzyJoiner(fuzzyModel(), 4)
	vals := make([]string, 40)
	for i := range vals {
		vals[i] = fmt.Sprintf("shared_value_%04d", i)
	}
	if err := f.AddColumn("lake.a", vals); err != nil {
		t.Fatal(err)
	}
	f.QueryParallelism = 2
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				f.Search(vals[:20], 0.85, 0.3)
			}
		}()
	}
	wg.Wait()
}
