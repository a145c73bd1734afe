package join

import (
	"reflect"
	"testing"

	"tablehound/internal/datagen"
	"tablehound/internal/embedding"
	"tablehound/internal/table"
)

// TestFuzzyCentroidPrunedSearchBitIdentical is the pruning contract of
// PEXESO's coarse quantizer: a joiner with centroids must answer every
// query with matches == (fractions and order) to one without, and the
// cluster bound must actually skip slot groups somewhere. Comparison
// counts may differ either way (grouping by cluster reorders the
// early-exit scan).
func TestFuzzyCentroidPrunedSearchBitIdentical(t *testing.T) {
	gen := datagen.Generate(datagen.Config{
		Seed:              131,
		NumDomains:        12,
		DomainSize:        60,
		NumTemplates:      5,
		TablesPerTemplate: 4,
	})
	var contexts [][]string
	var cols []FuzzyColumn
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
	model := embedding.Train(contexts, embedding.Config{Dim: 64, Seed: 3})
	plain := NewFuzzyJoiner(model, 4)
	pruned := NewFuzzyJoiner(model, 4)
	for _, f := range []*FuzzyJoiner{plain, pruned} {
		if err := f.AddColumns(cols, 2); err != nil {
			t.Fatal(err)
		}
	}
	pruned.BuildCentroids(96, 7, 2)

	skips, matches := 0, 0
	for _, q := range gen.Tables[:5] {
		vals := q.Columns[0].Values
		got, gs := pruned.Search(vals, 0.85, 0.5)
		want, _ := plain.Search(vals, 0.85, 0.5)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("fuzzy %s:\npruned %+v\nplain  %+v", q.ID, got, want)
		}
		skips += gs.ClusterSkips
		matches += len(want)
	}
	if matches == 0 {
		t.Error("no query matched any column; the fixture compares nothing")
	}
	if skips == 0 {
		t.Error("cluster pruning never skipped a slot group")
	}
}
