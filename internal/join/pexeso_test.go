package join

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"tablehound/internal/datagen"
	"tablehound/internal/dict"
	"tablehound/internal/embedding"
)

func fuzzyModel() *embedding.Model {
	// Char-gram fallback is all PEXESO needs; train on nothing.
	return embedding.Train(nil, embedding.Config{Dim: 64, Seed: 5})
}

func TestFuzzySearchFindsCorruptedColumn(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	clean := make([]string, 80)
	for i := range clean {
		clean[i] = fmt.Sprintf("organization_name_%04d", i)
	}
	dirty := datagen.CorruptValues(clean, 0.5, rng)
	other := make([]string, 80)
	for i := range other {
		other[i] = fmt.Sprintf("zzz_unrelated_%04d", i+5000)
	}
	f := NewFuzzyJoiner(fuzzyModel(), 4)
	if err := f.AddColumn("lake.dirty", dirty); err != nil {
		t.Fatal(err)
	}
	if err := f.AddColumn("lake.other", other); err != nil {
		t.Fatal(err)
	}
	res, st := f.Search(clean, 0.85, 0.5)
	if len(res) == 0 || res[0].ColumnKey != "lake.dirty" {
		t.Fatalf("results = %+v", res)
	}
	if res[0].MatchedFraction < 0.9 {
		t.Errorf("matched fraction = %v, want near 1 (typos tolerated)", res[0].MatchedFraction)
	}
	for _, m := range res {
		if m.ColumnKey == "lake.other" {
			t.Error("unrelated column matched")
		}
	}
	if st.Comparisons == 0 {
		t.Error("no comparisons recorded")
	}
}

func TestFuzzyPivotFilterPrunes(t *testing.T) {
	f := NewFuzzyJoiner(fuzzyModel(), 6)
	vals := make([]string, 200)
	for i := range vals {
		vals[i] = fmt.Sprintf("completely_different_%04d", i)
	}
	f.AddColumn("lake.col", vals)
	q := []string{"zzzz_nothing_like_it_at_all"}
	_, st := f.Search(q, 0.95, 0)
	if st.PivotSkips == 0 {
		t.Error("pivot filter never pruned")
	}
	if st.Comparisons+st.PivotSkips != 200 {
		t.Errorf("work accounting: %d + %d != 200", st.Comparisons, st.PivotSkips)
	}
}

func TestFuzzyExactEquijoinMissesWhatFuzzyFinds(t *testing.T) {
	// The PEXESO headline: on corrupted keys, exact overlap collapses
	// while fuzzy matching holds.
	rng := rand.New(rand.NewSource(2))
	clean := make([]string, 100)
	for i := range clean {
		clean[i] = fmt.Sprintf("customer_record_%05d", i)
	}
	dirty := datagen.CorruptValues(clean, 0.9, rng)

	b := NewBuilder(1)
	b.AddColumn("lake.dirty", dirty)
	e, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	exact, _, err := e.TopKOverlap(context.Background(), e.EncodeQuery(clean), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	exactOverlap := 0
	if len(exact) > 0 {
		exactOverlap = exact[0].Overlap
	}

	f := NewFuzzyJoiner(fuzzyModel(), 4)
	f.AddColumn("lake.dirty", dirty)
	res, _ := f.Search(clean, 0.85, 0)
	if len(res) == 0 {
		t.Fatal("fuzzy search found nothing")
	}
	fuzzyMatched := int(res[0].MatchedFraction * 100)
	if fuzzyMatched <= exactOverlap+30 {
		t.Errorf("fuzzy %d should far exceed exact %d on 90%% corrupted keys", fuzzyMatched, exactOverlap)
	}
}

func TestFuzzyDuplicateColumn(t *testing.T) {
	f := NewFuzzyJoiner(fuzzyModel(), 2)
	f.AddColumn("k", []string{"a"})
	if err := f.AddColumn("k", []string{"b"}); err == nil {
		t.Error("duplicate column should fail")
	}
}

func TestFuzzyEmptyQuery(t *testing.T) {
	f := NewFuzzyJoiner(fuzzyModel(), 2)
	f.AddColumn("k", []string{"a"})
	res, _ := f.Search(nil, 0.9, 0)
	if res != nil {
		t.Error("empty query should return nil")
	}
}

// TestFuzzyFootprintHandCount pins Footprint on a joiner small enough
// to count by hand: 8-dimensional vectors, two pivots, four slots of
// which two (alpha, beta) are model tokens sharing the model's rows,
// and six references from two three-value columns.
func TestFuzzyFootprintHandCount(t *testing.T) {
	model := embedding.Train([][]string{{"alpha", "beta"}}, embedding.Config{Dim: 8, Seed: 5})
	f := NewFuzzyJoiner(model, 2)
	if err := f.AddColumn("t.a", []string{"alpha", "beta", "gamma"}); err != nil {
		t.Fatal(err)
	}
	if err := f.AddColumn("t.b", []string{"beta", "gamma", "delta"}); err != nil {
		t.Fatal(err)
	}
	if len(f.pivots) != 2 || !model.Has("alpha") || !model.Has("beta") || model.Has("gamma") {
		t.Fatalf("fixture: %d pivots, want 2, and alpha and beta as the only model tokens", len(f.pivots))
	}
	const (
		row     = 2*8 + 24               // pivot-distance row: 2 float64s + slice header
		slot    = 24 + row + 16 + 4 + 32 // vector header, row, map entry (string header, int32, bucket)
		vector  = 8 * 4                  // an owned vector: 8 float32s
		column  = 3*4 + 24 + 32 + 16 + 3 // 3 int32 slots, slice header, map entry, key "t.x"
		legacy1 = vector + 24 + row      // a vector and a row per reference
	)
	want := dict.Footprint{
		Count:       6,
		Bytes:       4*slot + 2*vector + 2*column,
		LegacyBytes: 6 * legacy1,
	}
	if got := f.Footprint(); got != want {
		t.Errorf("Footprint = %+v, want %+v", got, want)
	}
}
