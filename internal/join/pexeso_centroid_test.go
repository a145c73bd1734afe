package join

import (
	"reflect"
	"sync"
	"testing"

	"tablehound/internal/datagen"
	"tablehound/internal/embedding"
	"tablehound/internal/table"
	"tablehound/internal/vecstore"
)

// centroidFixture is a small lake's fuzzy batch, a model trained over
// all of its string columns, and five query columns.
func centroidFixture(t *testing.T) (model *embedding.Model, cols []FuzzyColumn, queries [][]string) {
	t.Helper()
	gen := datagen.Generate(datagen.Config{
		Seed:              131,
		NumDomains:        12,
		DomainSize:        60,
		NumTemplates:      5,
		TablesPerTemplate: 4,
	})
	var contexts [][]string
	for _, tb := range gen.Tables {
		for _, c := range tb.Columns {
			if c.Type == table.TypeString {
				contexts = append(contexts, c.Distinct())
				if c.Cardinality() >= 3 {
					cols = append(cols, FuzzyColumn{Key: table.ColumnKey(tb.ID, c.Name), Values: c.Values})
				}
			}
		}
	}
	for _, q := range gen.Tables[:5] {
		queries = append(queries, q.Columns[0].Values)
	}
	return embedding.Train(contexts, embedding.Config{Dim: 64, Seed: 3}), cols, queries
}

// newFuzzy indexes each batch in turn with AddColumns.
func newFuzzy(t *testing.T, model *embedding.Model, batches ...[]FuzzyColumn) *FuzzyJoiner {
	t.Helper()
	f := NewFuzzyJoiner(model, 4)
	for _, b := range batches {
		if err := f.AddColumns(b, 2); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// trainedNow is the table vecstore.Train makes over the joiner's
// slots as they stand: what BuildCentroids' request must train.
func trainedNow(f *FuzzyJoiner, k int, seed uint64) *vecstore.Centroids {
	return vecstore.Train(func(i int) []float32 { return f.slotVec[i] }, len(f.slotVec), f.model.Dim(), k, seed, 1)
}

// TestFuzzyCentroidPrunedSearchBitIdentical is the pruning contract of
// PEXESO's coarse quantizer: a joiner with centroids must answer every
// query with matches == (fractions and order) to one without, and the
// cluster bound must actually skip slot groups somewhere. Comparison
// counts may differ either way (grouping by cluster reorders the
// early-exit scan). BuildCentroids only records the request: the
// first Search trains the table vecstore.Train makes, and every later
// Search, at one or eight query workers, returns the first one's
// matches and FuzzyStats.
func TestFuzzyCentroidPrunedSearchBitIdentical(t *testing.T) {
	model, cols, queries := centroidFixture(t)
	const k, seed = 96, 7
	plain := newFuzzy(t, model, cols)
	first := make([]FuzzyStats, len(queries)) // the first search's, at P=1
	for _, qp := range []int{1, 8} {
		pruned := newFuzzy(t, model, cols)
		pruned.BuildCentroids(k, seed, 2)
		if pruned.cents.c != nil {
			t.Fatal("BuildCentroids trained the table; the first Search should")
		}
		plain.QueryParallelism, pruned.QueryParallelism = qp, qp
		skips, matches := 0, 0
		for round := 0; round < 2; round++ {
			for i, vals := range queries {
				got, gs := pruned.Search(vals, 0.85, 0.5)
				want, _ := plain.Search(vals, 0.85, 0.5)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("P=%d round %d query %d:\npruned %+v\nplain  %+v", qp, round, i, got, want)
				}
				if qp == 1 && round == 0 {
					first[i] = gs
				} else if gs != first[i] {
					t.Errorf("P=%d round %d query %d: FuzzyStats %+v, the first search's %+v", qp, round, i, gs, first[i])
				}
				skips += gs.ClusterSkips
				matches += len(want)
			}
		}
		if matches == 0 {
			t.Error("no query matched any column; the fixture compares nothing")
		}
		if skips == 0 {
			t.Error("cluster pruning never skipped a slot group")
		}
		if !reflect.DeepEqual(pruned.cents.c, trainedNow(pruned, k, seed)) {
			t.Errorf("P=%d: the first Search trained another table than vecstore.Train", qp)
		}
	}
}

// TestFuzzyConcurrentFirstSearchesTrainOnce races first searches on a
// joiner with a pending table: every one must see the same trained
// table and answer as a search on the trained joiner does. Under -race
// it also checks that training publishes the table safely.
func TestFuzzyConcurrentFirstSearchesTrainOnce(t *testing.T) {
	model, cols, queries := centroidFixture(t)
	f := newFuzzy(t, model, cols)
	f.BuildCentroids(64, 5, 2)
	f.QueryParallelism = 2

	const goroutines = 8
	type answer struct {
		m  []FuzzyMatch
		st FuzzyStats
		c  *vecstore.Centroids
	}
	answers := make([]answer, goroutines)
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, st := f.Search(queries[g%len(queries)], 0.85, 0.5)
			answers[g] = answer{m, st, f.centroids().c}
		}()
	}
	wg.Wait()
	for g, a := range answers {
		if a.c != answers[0].c {
			t.Fatalf("goroutine %d saw another centroid table than goroutine 0: trained more than once", g)
		}
		m, st := f.Search(queries[g%len(queries)], 0.85, 0.5)
		if !reflect.DeepEqual(a.m, m) || a.st != st {
			t.Errorf("goroutine %d: concurrent first search %+v %+v, later search %+v %+v", g, a.m, a.st, m, st)
		}
	}
}

// TestFuzzyAddColumnsDropsPendingCentroids checks that adding columns
// drops a pending table (the next Search scans without cluster
// pruning, as a joiner that never asked for one) and that the next
// BuildCentroids request, with another k and seed, is the one trained.
func TestFuzzyAddColumnsDropsPendingCentroids(t *testing.T) {
	model, cols, queries := centroidFixture(t)
	cut := len(cols) * 3 / 4
	first, later := cols[:cut], cols[cut:]
	plain := newFuzzy(t, model, first, later)
	f := newFuzzy(t, model, first)
	f.BuildCentroids(32, 3, 2)
	if err := f.AddColumns(later, 2); err != nil {
		t.Fatal(err)
	}
	if f.cents != nil {
		t.Fatal("AddColumns kept a pending centroid table")
	}
	for i, vals := range queries {
		got, gs := f.Search(vals, 0.85, 0.5)
		want, ws := plain.Search(vals, 0.85, 0.5)
		if !reflect.DeepEqual(got, want) || gs != ws {
			t.Errorf("query %d after the drop: %+v %+v, plain %+v %+v", i, got, gs, want, ws)
		}
	}

	const k, seed = 80, 11
	f.BuildCentroids(k, seed, 2)
	if _, gs := f.Search(queries[0], 0.85, 0.5); gs.ClusterSkips == 0 {
		t.Error("the search after a second BuildCentroids did not prune")
	}
	if got := f.cents.c; got.K() != k || !reflect.DeepEqual(got, trainedNow(f, k, seed)) {
		t.Errorf("trained k=%d, want the second request's table (k=%d, seed=%d)", got.K(), k, seed)
	}

	// A trained table is dropped the same way.
	extra := []FuzzyColumn{{Key: "extra.c0", Values: queries[0]}}
	if err := f.AddColumns(extra, 1); err != nil {
		t.Fatal(err)
	}
	if f.cents != nil {
		t.Error("AddColumns kept a trained centroid table")
	}
}
