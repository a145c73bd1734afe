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
	return builtSantos(t, append(append([]*table.Table{}, groupA...), groupB...), curated), groupA, groupB
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
	tus := buildTUS(t, TUSConfig{Model: model, Exhaustive: true}, append(append([]*table.Table{}, groupA...), groupB...))
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
	// Single-column tables are unusable: the builder skips them, and an
	// engine without tables answers every query with nothing.
	s := NewSantosBuilder(nil, nil)
	s.AddTables([]*table.Table{table.MustNew("one", "one", []*table.Column{
		table.NewColumn("only", []string{"a", "b"}),
	})}, 1)
	if _, parts := s.Parts(); len(parts.Tables) != 0 {
		t.Error("single-column table should be skipped")
	}
	empty, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	groupB := confusableTables("visB", 7, 1, 20)
	if res, err := empty.Search(context.Background(), groupB[0], 3, Hybrid); err != nil || len(res) != 0 {
		t.Errorf("engine without tables: %v, %v; want no results", res, err)
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

// TestSantosPairTokensDoNotCollide holds two tables whose only
// would-be shared pair differs in where a "|" sits — ("x|", "y")
// against ("x", "|y") — apart: a pair token must not join subject and
// object with a separator the values themselves may hold.
func TestSantosPairTokensDoNotCollide(t *testing.T) {
	left := table.MustNew("left", "left", []*table.Column{
		table.NewColumn("subject", []string{"x|", "a1", "a2"}),
		table.NewColumn("object", []string{"y", "b1", "b2"}),
	})
	right := table.MustNew("right", "right", []*table.Column{
		table.NewColumn("subject", []string{"x", "c1", "c2"}),
		table.NewColumn("object", []string{"|y", "d1", "d2"}),
	})
	s := builtSantos(t, []*table.Table{left, right}, nil)
	if s.NumTables() != 2 || s.NumPairs() != 6 {
		t.Errorf("%d tables, %d pairs; want 2 tables of 3 distinct pairs each", s.NumTables(), s.NumPairs())
	}
	res, err := s.Search(context.Background(), left, 5, SynthOnly)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Errorf("tables sharing no value pair scored a synthesized match: %v", res)
	}
}
