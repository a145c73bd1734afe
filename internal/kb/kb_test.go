package kb

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// demo builds a small ontology:
//
//	thing -> place -> city
//	thing -> place -> country
//	thing -> person -> scientist
func demo() *KB {
	k := New()
	k.AddType("place", "thing")
	k.AddType("city", "place")
	k.AddType("country", "place")
	k.AddType("person", "thing")
	k.AddType("scientist", "person")
	k.AddEntity("Boston", "city")
	k.AddEntity("Paris", "city")
	k.AddEntity("France", "country")
	k.AddEntity("Curie", "scientist")
	k.AddFact("Paris", "capitalOf", "France")
	k.AddFact("Boston", "locatedIn", "USA")
	return k
}

func TestTypesAndAncestors(t *testing.T) {
	k := demo()
	if got := k.Types("boston"); !reflect.DeepEqual(got, []string{"city"}) {
		t.Errorf("Types = %v", got)
	}
	want := []string{"city", "place", "thing"}
	if got := k.AllTypes("  BOSTON "); !reflect.DeepEqual(got, want) {
		t.Errorf("AllTypes = %v, want %v", got, want)
	}
	if k.AllTypes("unknown") != nil {
		t.Error("uncovered value should have no types")
	}
	if !k.Has("paris") || k.Has("tokyo") {
		t.Error("Has wrong")
	}
}

func TestAddEntityDedup(t *testing.T) {
	k := New()
	k.AddEntity("x", "a", "a")
	k.AddEntity("x", "a", "b")
	if got := k.Types("x"); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Errorf("Types = %v", got)
	}
	k.AddEntity("", "a")
	if k.NumEntities() != 1 {
		t.Error("empty value should be ignored")
	}
}

func TestLCAAndSimilarity(t *testing.T) {
	k := demo()
	lca, ok := k.LCA("city", "country")
	if !ok || lca != "place" {
		t.Errorf("LCA = %q, %v", lca, ok)
	}
	lca, ok = k.LCA("city", "scientist")
	if !ok || lca != "thing" {
		t.Errorf("LCA(city, scientist) = %q", lca)
	}
	// Wu-Palmer: depth(place)=1, depth(city)=depth(country)=2.
	if s := k.TypeSimilarity("city", "country"); s != 0.5 {
		t.Errorf("TypeSimilarity(city,country) = %v, want 0.5", s)
	}
	if s := k.TypeSimilarity("city", "city"); s != 1 {
		t.Errorf("self similarity = %v", s)
	}
	if s := k.TypeSimilarity("city", "orphan"); s != 0 {
		t.Errorf("disconnected similarity = %v", s)
	}
	// Siblings are more similar than cousins across the root.
	if k.ValueSimilarity("boston", "france") <= k.ValueSimilarity("boston", "curie") {
		t.Error("city-country should beat city-scientist")
	}
	if k.ValueSimilarity("boston", "unknown") != 0 {
		t.Error("uncovered value similarity should be 0")
	}
}

func TestPredicates(t *testing.T) {
	k := demo()
	if got := k.Predicates("paris", "france"); !reflect.DeepEqual(got, []string{"capitalOf"}) {
		t.Errorf("Predicates = %v", got)
	}
	if k.Predicates("france", "paris") != nil {
		t.Error("relation should be directional")
	}
	k.AddFact("Paris", "capitalOf", "France") // duplicate
	if k.NumFacts() != 2 {
		t.Errorf("NumFacts = %d, want 2", k.NumFacts())
	}
	if k.PredicateCount("capitalOf") != 1 {
		t.Errorf("PredicateCount = %d", k.PredicateCount("capitalOf"))
	}
}

func TestCoverage(t *testing.T) {
	k := demo()
	c := k.Coverage([]string{"boston", "paris", "tokyo", "berlin"})
	if c != 0.5 {
		t.Errorf("Coverage = %v, want 0.5", c)
	}
	if k.Coverage(nil) != 0 {
		t.Error("empty coverage should be 0")
	}
}

func TestDominantType(t *testing.T) {
	k := demo()
	typ, frac, ok := k.DominantType([]string{"boston", "paris", "tokyo"}, 0.6)
	if !ok || typ != "city" || frac != 1 {
		t.Errorf("DominantType = %q, %v, %v", typ, frac, ok)
	}
	// Mixed cities and countries: most specific shared type is place.
	typ, _, ok = k.DominantType([]string{"boston", "france"}, 0.9)
	if !ok || typ != "place" {
		t.Errorf("mixed DominantType = %q", typ)
	}
	if _, _, ok := k.DominantType([]string{"nope"}, 0.5); ok {
		t.Error("uncovered values should have no dominant type")
	}
}

func TestDominantPredicate(t *testing.T) {
	k := demo()
	k.AddFact("Boston", "locatedIn", "Massachusetts")
	pred, frac, ok := k.DominantPredicate([][2]string{
		{"paris", "france"},
		{"boston", "massachusetts"},
		{"boston", "usa"},
	})
	if !ok || pred != "locatedIn" {
		t.Errorf("DominantPredicate = %q, %v", pred, ok)
	}
	if frac < 0.6 || frac > 0.7 {
		t.Errorf("support = %v, want 2/3", frac)
	}
	if _, _, ok := k.DominantPredicate(nil); ok {
		t.Error("no pairs should yield no predicate")
	}
}

func TestAddTypeIdempotent(t *testing.T) {
	k := New()
	k.AddType("a", "b")
	k.AddType("a", "b")
	if len(k.parents["a"]) != 1 {
		t.Error("duplicate AddType created duplicate edge")
	}
}

func TestDiamondHierarchy(t *testing.T) {
	// a -> b -> d, a -> c -> d: LCA(b, c) = a, and AllTypes handles
	// the diamond without duplication.
	k := New()
	k.AddType("b", "a")
	k.AddType("c", "a")
	k.AddType("d", "b")
	k.AddType("d", "c")
	k.AddEntity("x", "d")
	got := k.AllTypes("x")
	want := []string{"a", "b", "c", "d"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("AllTypes = %v, want %v", got, want)
	}
	lca, ok := k.LCA("b", "c")
	if !ok || lca != "a" {
		t.Errorf("LCA = %q", lca)
	}
}

// TestTypeSimilarityMemo: the similarity is symmetric, costs no
// allocation once the depth memo holds its types, and follows a
// hierarchy that grows after it was first asked for.
func TestTypeSimilarityMemo(t *testing.T) {
	k := New()
	k.AddType("city", "place")
	k.AddType("country", "place")
	// place is a root: the LCA has depth 0.
	if s := k.TypeSimilarity("city", "country"); s != 0 {
		t.Errorf("TypeSimilarity(city, country) = %v under a root LCA, want 0", s)
	}
	k.AddType("place", "thing")
	for _, ab := range [][2]string{{"city", "country"}, {"country", "city"}} {
		if s := k.TypeSimilarity(ab[0], ab[1]); s != 0.5 {
			t.Errorf("TypeSimilarity(%s, %s) = %v after AddType, want 0.5", ab[0], ab[1], s)
		}
	}
	if a := testing.AllocsPerRun(10, func() { k.TypeSimilarity("country", "city") }); a != 0 {
		t.Errorf("a memoized TypeSimilarity allocates %v times", a)
	}
}

// TestLCAMatchesClosure holds LCA to its definition on random
// hierarchies with shared ancestors: the deepest type in both
// ancestor closures, ties to the smaller name.
func TestLCAMatchesClosure(t *testing.T) {
	closure := func(k *KB, t string) map[string]bool {
		out := map[string]bool{}
		var walk func(string)
		walk = func(x string) {
			if !out[x] {
				out[x] = true
				for _, p := range k.parents[x] {
					walk(p)
				}
			}
		}
		walk(t)
		return out
	}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := New()
		types := make([]string, 24)
		for i := range types {
			types[i] = fmt.Sprintf("t%02d", rng.Intn(100)*100+i)
			for j := 0; j < i && j < 3; j++ { // up to three parents among earlier types
				if p := rng.Intn(i); rng.Intn(2) == 0 {
					k.AddType(types[i], types[p])
				}
			}
		}
		for _, a := range types {
			for _, b := range types {
				ca, want, wantDepth := closure(k, a), "", -1
				for c := range closure(k, b) {
					if d := k.typeDepth(c); ca[c] && (d > wantDepth || (d == wantDepth && c < want)) {
						want, wantDepth = c, d
					}
				}
				if got, ok := k.LCA(a, b); got != want || ok != (wantDepth >= 0) {
					t.Fatalf("seed %d: LCA(%s, %s) = %q, %v; want %q, %v", seed, a, b, got, ok, want, wantDepth >= 0)
				}
			}
		}
	}
}
