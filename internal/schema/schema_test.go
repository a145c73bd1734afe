package schema

import (
	"fmt"
	"testing"

	"tablehound/internal/datagen"
	"tablehound/internal/embedding"
	"tablehound/internal/table"
)

func col(name string, vals ...string) *table.Column { return table.NewColumn(name, vals) }

func TestNameMatcher(t *testing.T) {
	m := NameMatcher{}
	cases := []struct {
		a, b string
		min  float64
		max  float64
	}{
		{"city", "city", 1, 1},
		{"city_name", "CityName", 0.3, 1}, // camel not split, but edit-similar
		{"city_name", "name of city", 0.5, 1},
		{"population", "xyzzy", 0, 0.35},
		{"", "city", 0, 0},
	}
	for _, c := range cases {
		got := m.Score(col(c.a, "x"), col(c.b, "x"))
		if got < c.min || got > c.max {
			t.Errorf("NameMatcher(%q, %q) = %v, want in [%v, %v]", c.a, c.b, got, c.min, c.max)
		}
	}
}

func TestEditDistance(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "", 3},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"same", "same", 0},
	}
	for _, c := range cases {
		if got := editDistance(c.a, c.b); got != c.want {
			t.Errorf("editDistance(%q, %q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// TestLabelMatcherMatchesLabelSimilarity holds the analyzed-label path
// to LabelSimilarity bit for bit, over every ordered pair of the
// labels of a generated lake plus empty, equal, repeated-word,
// wordless and non-ASCII labels, all scored by one reused matcher.
func TestLabelMatcherMatchesLabelSimilarity(t *testing.T) {
	lake := datagen.Generate(datagen.Config{Seed: 7, NumTemplates: 8, TablesPerTemplate: 3, NumHomographs: 2})
	seen := make(map[string]bool)
	var norms []string
	add := func(raw string) {
		if l := NormLabel(raw); !seen[l] {
			seen[l] = true
			norms = append(norms, l)
		}
	}
	for _, tbl := range lake.Tables {
		for _, c := range tbl.Columns {
			add(c.Name)
		}
	}
	for _, raw := range []string{"", "city", "City", "city city name", "name city", "--", "!!",
		"café", "cafe", "naïve_résumé", "résumé", "東京 都", "東京", "Ünïcödé-x"} {
		add(raw)
	}
	labels := make([]Label, len(norms))
	for i, l := range norms {
		labels[i] = NewLabel(l)
	}
	var m LabelMatcher
	for i, a := range norms {
		for j, b := range norms {
			if got, want := m.Similarity(&labels[i], &labels[j]), LabelSimilarity(a, b); got != want {
				t.Errorf("Similarity(%q, %q) = %v, LabelSimilarity %v", a, b, got, want)
			}
		}
	}
	longest := &labels[0]
	for i := range labels {
		if len(labels[i].runes) > len(longest.runes) {
			longest = &labels[i]
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { m.Similarity(longest, &labels[1]) }); allocs != 0 {
		t.Errorf("a warm LabelMatcher allocates %v times per pair, want 0", allocs)
	}
}

func TestInstanceMatcherValueOverlap(t *testing.T) {
	m := InstanceMatcher{}
	a := col("a", "boston", "nyc", "chicago")
	b := col("b", "boston", "nyc", "denver")
	c := col("c", "apple", "pear", "plum")
	if sAB, sAC := m.Score(a, b), m.Score(a, c); sAB <= sAC {
		t.Errorf("overlapping columns %v should beat disjoint %v", sAB, sAC)
	}
}

func TestInstanceMatcherTypeVeto(t *testing.T) {
	m := InstanceMatcher{}
	num := col("n", "1", "2", "3")
	txt := col("t", "a", "b", "c")
	if s := m.Score(num, txt); s != 0 {
		t.Errorf("numeric-text pair scored %v", s)
	}
}

func TestInstanceMatcherNumericRanges(t *testing.T) {
	m := InstanceMatcher{}
	a := col("a", "1", "50", "100")
	b := col("b", "40", "90", "110") // heavy range overlap
	c := col("c", "5000", "9000")    // disjoint range
	if sAB, sAC := m.Score(a, b), m.Score(a, c); sAB <= sAC {
		t.Errorf("range-overlapping %v should beat disjoint %v", sAB, sAC)
	}
	if s := m.Score(a, a); s != 1 {
		t.Errorf("identical numeric column score = %v", s)
	}
}

func TestInstanceMatcherSemantic(t *testing.T) {
	// Disjoint values from the same trained domain match only with a
	// model.
	contexts := [][]string{
		{"boston", "nyc", "chicago", "denver", "austin", "miami"},
		{"boston", "denver", "austin", "seattle", "dallas"},
		{"apple", "pear", "plum", "fig", "mango"},
	}
	model := embedding.Train(contexts, embedding.Config{Dim: 48, Seed: 1})
	a := col("a", "boston", "nyc", "chicago")
	b := col("b", "seattle", "dallas", "austin") // disjoint, same domain
	plain := InstanceMatcher{}
	sem := InstanceMatcher{Model: model}
	if plain.Score(a, b) >= sem.Score(a, b) {
		t.Errorf("semantic component should lift disjoint same-domain score: %v vs %v",
			plain.Score(a, b), sem.Score(a, b))
	}
}

func TestCombinedMatcherWeighting(t *testing.T) {
	// Same name, different content vs different name, same content.
	nameAlike := [2]*table.Column{col("city", "a1", "a2"), col("city", "zz1", "zz2")}
	contentAlike := [2]*table.Column{col("col_x", "v1", "v2"), col("col_y", "v1", "v2")}
	headerTrusting := CombinedMatcher{NameWeight: 0.9}
	contentTrusting := CombinedMatcher{NameWeight: 0.1}
	if headerTrusting.Score(nameAlike[0], nameAlike[1]) <= headerTrusting.Score(contentAlike[0], contentAlike[1]) {
		t.Error("header-trusting matcher should prefer name match")
	}
	if contentTrusting.Score(contentAlike[0], contentAlike[1]) <= contentTrusting.Score(nameAlike[0], nameAlike[1]) {
		t.Error("content-trusting matcher should prefer content match")
	}
	// Weight clamping.
	if (CombinedMatcher{NameWeight: 5}).Score(nameAlike[0], nameAlike[1]) > 1.001 {
		t.Error("weight not clamped")
	}
}

func TestMatchOneToOne(t *testing.T) {
	src := table.MustNew("s", "s", []*table.Column{
		col("city", "boston", "nyc"),
		col("state", "ma", "ny"),
		col("misc", "q1", "q2"),
	})
	dst := table.MustNew("d", "d", []*table.Column{
		col("town", "boston", "nyc"),
		col("region", "ma", "ny"),
	})
	corr := Match(src, dst, InstanceMatcher{}, 0.5)
	if len(corr) != 2 {
		t.Fatalf("correspondences = %+v", corr)
	}
	seen := map[string]string{}
	for _, c := range corr {
		if prev, dup := seen[c.Target]; dup {
			t.Errorf("target %s matched twice (%s, %s)", c.Target, prev, c.Source)
		}
		seen[c.Target] = c.Source
	}
	if seen["town"] != "city" || seen["region"] != "state" {
		t.Errorf("wrong mapping: %v", seen)
	}
}

func TestMatchThreshold(t *testing.T) {
	src := table.MustNew("s", "s", []*table.Column{col("a", "x")})
	dst := table.MustNew("d", "d", []*table.Column{col("b", "y")})
	if corr := Match(src, dst, InstanceMatcher{}, 0.9); len(corr) != 0 {
		t.Errorf("below-threshold pair matched: %+v", corr)
	}
}

func TestMatchValentineStyleScenario(t *testing.T) {
	// A Valentine-style case: renamed headers, partially overlapping
	// instances. The combined matcher recovers the alignment that the
	// name matcher alone misses.
	n := 30
	vals := func(prefix string, lo int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("%s_%03d", prefix, lo+i)
		}
		return out
	}
	src := table.MustNew("s", "s", []*table.Column{
		table.NewColumn("employee_name", vals("person", 0)),
		table.NewColumn("office", vals("city", 0)),
	})
	dst := table.MustNew("d", "d", []*table.Column{
		table.NewColumn("staff", vals("person", 10)),  // renamed, overlapping values
		table.NewColumn("location", vals("city", 10)), // renamed, overlapping values
	})
	byName := Match(src, dst, NameMatcher{}, 0.5)
	combined := Match(src, dst, CombinedMatcher{NameWeight: 0.3}, 0.3)
	if len(byName) >= len(combined) {
		t.Errorf("name-only found %d, combined %d — instances should help", len(byName), len(combined))
	}
	want := map[string]string{"staff": "employee_name", "location": "office"}
	got := map[string]string{}
	for _, c := range combined {
		got[c.Target] = c.Source
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("combined mapping %v, want %v", got, want)
		}
	}
}
