package union

import (
	"context"
	"fmt"
	"testing"

	"tablehound/internal/embedding"
	"tablehound/internal/kb"
	"tablehound/internal/table"
)

// confusableLakes builds two groups of tables over the SAME two
// domains (city, country) but with DIFFERENT relationships: group A
// pairs city i with country i ("locatedIn"), group B pairs city i
// with country (i+7)%n ("visitedFrom"). Column-only union search
// cannot tell the groups apart; relationship-aware search can.
func confusableTables(group string, shift, nTables, nRows int) []*table.Table {
	var out []*table.Table
	for t := 0; t < nTables; t++ {
		cities := make([]string, nRows)
		countries := make([]string, nRows)
		for r := 0; r < nRows; r++ {
			i := (t*13 + r) % 30
			cities[r] = fmt.Sprintf("city_%02d", i)
			countries[r] = fmt.Sprintf("country_%02d", (i+shift)%30)
		}
		out = append(out, table.MustNew(
			fmt.Sprintf("%s_%d", group, t), group,
			[]*table.Column{
				table.NewColumn("city", cities),
				table.NewColumn("country", countries),
			}))
	}
	return out
}

func curatedKB() *kb.KB {
	k := kb.New()
	for i := 0; i < 30; i++ {
		city := fmt.Sprintf("city_%02d", i)
		k.AddEntity(city, "city")
		k.AddEntity(fmt.Sprintf("country_%02d", i), "country")
		k.AddFact(city, "locatedIn", fmt.Sprintf("country_%02d", i))
		k.AddFact(city, "visitedFrom", fmt.Sprintf("country_%02d", (i+7)%30))
	}
	return k
}

func buildSantos(t *testing.T, curated *kb.KB) (*Santos, []*table.Table, []*table.Table) {
	t.Helper()
	groupA := confusableTables("locA", 0, 5, 60)
	groupB := confusableTables("visB", 7, 5, 60)
	s := NewSantos(curated)
	for _, tbl := range append(append([]*table.Table{}, groupA...), groupB...) {
		s.AddTable(tbl)
	}
	if err := s.Build(); err != nil {
		t.Fatal(err)
	}
	return s, groupA, groupB
}

func topIDs(rs []Result) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.TableID
	}
	return out
}

func TestSantosDistinguishesRelationships(t *testing.T) {
	for _, mode := range []SantosMode{SynthOnly, CuratedOnly, Hybrid} {
		s, groupA, _ := buildSantos(t, curatedKB())
		res, err := s.Search(context.Background(), groupA[0], 4, mode)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) < 4 {
			t.Fatalf("%v: only %d results", mode, len(res))
		}
		for _, r := range res[:4] {
			if r.TableID[:4] != "locA" {
				t.Errorf("%v: wrong-relationship table %s in top-4: %v", mode, r.TableID, topIDs(res))
			}
		}
	}
}

func TestSantosColumnOnlyBaselineConfused(t *testing.T) {
	// Contrast: TUS set measure sees identical domains in both groups.
	groupA := confusableTables("locA", 0, 5, 60)
	groupB := confusableTables("visB", 7, 5, 60)
	model := embedding.Train(nil, embedding.Config{Dim: 32, Seed: 1})
	tus, err := NewTUS(TUSConfig{Model: model, Exhaustive: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, tbl := range append(append([]*table.Table{}, groupA...), groupB...) {
		tus.AddTable(tbl)
	}
	if err := tus.Build(); err != nil {
		t.Fatal(err)
	}
	res, err := tus.Search(context.Background(), groupA[0], 9, SetMeasure)
	if err != nil {
		t.Fatal(err)
	}
	// The wrong-relationship group scores as high as the right one.
	var bestWrong, worstRight float64 = 0, 1
	for _, r := range res {
		if r.TableID[:4] == "visB" && r.Score > bestWrong {
			bestWrong = r.Score
		}
		if r.TableID[:4] == "locA" && r.Score < worstRight {
			worstRight = r.Score
		}
	}
	if bestWrong < worstRight-0.1 {
		t.Skip("column-only baseline unexpectedly separated the groups")
	}
	// This is the confusion SANTOS removes; no assertion failure —
	// the point is documented by TestSantosDistinguishesRelationships.
}

func TestSantosCuratedDetectsPredicateMismatch(t *testing.T) {
	// Hybrid mode with full coverage must use the curated verdict:
	// tables with overlapping pairs but different predicates score low.
	s, groupA, groupB := buildSantos(t, curatedKB())
	res, err := s.Search(context.Background(), groupA[0], 10, Hybrid)
	if err != nil {
		t.Fatal(err)
	}
	scores := map[string]float64{}
	for _, r := range res {
		scores[r.TableID] = r.Score
	}
	if scores[groupA[1].ID] <= scores[groupB[0].ID] {
		t.Errorf("same-relationship %v should beat different-relationship %v",
			scores[groupA[1].ID], scores[groupB[0].ID])
	}
}

func TestSantosWithoutKB(t *testing.T) {
	s, groupA, _ := buildSantos(t, nil)
	res, err := s.Search(context.Background(), groupA[0], 4, SynthOnly)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res[:4] {
		if r.TableID[:4] != "locA" {
			t.Errorf("synth-only without KB failed: %v", topIDs(res))
		}
	}
	// CuratedOnly without a KB finds nothing.
	res, err = s.Search(context.Background(), groupA[0], 4, CuratedOnly)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Errorf("curated-only without KB returned %v", topIDs(res))
	}
}

func TestSantosErrors(t *testing.T) {
	s := NewSantos(nil)
	if err := s.Build(); err == nil {
		t.Error("empty Build should fail")
	}
	// Single-column tables are unusable.
	s.AddTable(table.MustNew("one", "one", []*table.Column{
		table.NewColumn("only", []string{"a", "b"}),
	}))
	if s.NumTables() != 0 {
		t.Error("single-column table should be skipped")
	}
	s2, groupA, _ := buildSantos(t, nil)
	oneCol := table.MustNew("q", "q", []*table.Column{
		table.NewColumn("only", []string{"a", "b"}),
	})
	if _, err := s2.Search(context.Background(), oneCol, 3, SynthOnly); err == nil {
		t.Error("unusable query should fail")
	}
	_ = groupA
}

func TestSantosModeString(t *testing.T) {
	if CuratedOnly.String() != "curated" || SynthOnly.String() != "synth" || Hybrid.String() != "hybrid" || SantosMode(9).String() != "unknown" {
		t.Error("SantosMode.String wrong")
	}
}
