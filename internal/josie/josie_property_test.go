package josie

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"tablehound/internal/invindex"
)

// TestExactnessProperty drives randomized small universes through all
// three strategies and checks the answers, keys included, against
// brute force — the core correctness contract of the package.
func TestExactnessProperty(t *testing.T) {
	type spec struct {
		Seed   int64
		NumSet uint8
		K      uint8
	}
	f := func(s spec) bool {
		nSets := int(s.NumSet%40) + 5
		k := int(s.K%8) + 1
		rng := rand.New(rand.NewSource(s.Seed))
		b := invindex.NewBuilder()
		raw := make(map[string][]string, nSets)
		for i := 0; i < nSets; i++ {
			n := 1 + rng.Intn(15)
			vs := make([]string, n)
			for j := range vs {
				vs[j] = fmt.Sprintf("t%d", rng.Intn(30))
			}
			key := fmt.Sprintf("s%02d", i)
			raw[key] = vs
			if err := b.Add(key, vs); err != nil {
				return false
			}
		}
		ix, err := b.Build()
		if err != nil {
			return false
		}
		srch := NewSearcher(ix)
		qn := 1 + rng.Intn(15)
		query := make([]string, qn)
		for j := range query {
			query[j] = fmt.Sprintf("t%d", rng.Intn(30))
		}
		want := bruteTopK(raw, query, k)
		for _, algo := range []Algorithm{MergeList, ProbeSet, Adaptive} {
			if !reflect.DeepEqual(topK(srch, query, k, algo), want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestStatsAccounting checks that the work counters are consistent:
// every strategy reads at least one posting for a non-empty query and
// probes never exceed the number of indexed sets.
func TestStatsAccounting(t *testing.T) {
	ix, raw := randomLake(t, 100, 11)
	s := NewSearcher(ix)
	for _, algo := range []Algorithm{MergeList, ProbeSet, Adaptive} {
		_, st := s.TopK(raw["set0001"], 5, algo)
		if st.PostingsRead <= 0 {
			t.Errorf("%v: no postings read", algo)
		}
		if st.SetsProbed > ix.NumSets() {
			t.Errorf("%v: probed %d > %d sets", algo, st.SetsProbed, ix.NumSets())
		}
		if algo == MergeList && st.SetsProbed != 0 {
			t.Errorf("mergelist probed %d sets", st.SetsProbed)
		}
	}
}
