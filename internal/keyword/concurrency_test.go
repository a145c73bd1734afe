package keyword

import (
	"reflect"
	"sync"
	"testing"

	"tablehound/internal/table"
)

// concurrently runs query from 8 goroutines, 10 times each, and
// reports any answer that differs from a serial run's.
func concurrently(t *testing.T, query func() any) {
	t.Helper()
	want := query()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if got := query(); !reflect.DeepEqual(got, want) {
					t.Errorf("concurrent answer diverged: %+v vs %+v", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestConcurrentSearchLazyFinish searches a freshly built metadata
// index from many goroutines. There is no lazy finishing step any
// more: a built index is immutable, so under -race every search
// surface must be a pure read with a stable answer.
func TestConcurrentSearchLazyFinish(t *testing.T) {
	ix := NewIndex([]*table.Table{
		mkTable("t1", "city population", "population counts", []string{"demo"}, "city", "population"),
		mkTable("t2", "city weather", "weather by city", []string{"climate"}, "city", "temp"),
		mkTable("t3", "bird sightings", "rare birds", []string{"nature"}, "species"),
	})
	if res := ix.Search("city population", 3); len(res) != 2 || res[0].TableID != "t1" {
		t.Fatalf("Search on a fresh index = %+v, want t1 then t2", res)
	}
	concurrently(t, func() any {
		return []any{ix.Search("city population", 3), ix.BooleanSearch("city", 3, false),
			ix.BooleanSearch("city weather", 3, true), ix.QueryDFs("city bird zebra")}
	})
}

// TestValueIndexConcurrentSearch is the same check for the cell-value
// index, including cluster grouping.
func TestValueIndexConcurrentSearch(t *testing.T) {
	ix := NewValueIndex(valueTables())
	if res := ix.Search("boston", 1); len(res) != 1 {
		t.Fatalf("Search on a fresh value index = %+v, want one hit", res)
	}
	concurrently(t, func() any {
		return []any{ix.Search("boston wu", 3), ix.SearchClusters("boston celtics", 3)}
	})
}
