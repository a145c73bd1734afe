package josie

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"tablehound/internal/invindex"
	"tablehound/internal/minhash"
)

// randomLake builds n sets drawing tokens from a Zipf-like pool so
// that document frequencies are skewed, as in real data lakes.
func randomLake(t testing.TB, n int, seed int64) (*invindex.Index, map[string][]string) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.3, 1, 5000)
	b := invindex.NewBuilder()
	raw := make(map[string][]string, n)
	for i := 0; i < n; i++ {
		size := 5 + rng.Intn(60)
		vs := make([]string, size)
		for j := range vs {
			vs[j] = fmt.Sprintf("tok%d", zipf.Uint64())
		}
		key := fmt.Sprintf("set%04d", i)
		raw[key] = vs
		if err := b.Add(key, vs); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ix, raw
}

// bruteTopK is the ground-truth reference.
func bruteTopK(raw map[string][]string, query []string, k int) []Result {
	var res []Result
	for key, vs := range raw {
		if ov := minhash.ExactOverlap(query, vs); ov > 0 {
			res = append(res, Result{Key: key, Overlap: ov})
		}
	}
	sort.Slice(res, func(i, j int) bool {
		if res[i].Overlap != res[j].Overlap {
			return res[i].Overlap > res[j].Overlap
		}
		return res[i].Key < res[j].Key
	})
	if len(res) > k {
		res = res[:k]
	}
	return res
}

// topK is TopK without the work counters.
func topK(s *Searcher, query []string, k int, algo Algorithm) []Result {
	res, _ := s.TopK(query, k, algo)
	return res
}

func TestAllAlgorithmsMatchBruteForce(t *testing.T) {
	ix, raw := randomLake(t, 300, 1)
	s := NewSearcher(ix)
	rng := rand.New(rand.NewSource(2))
	zipf := rand.NewZipf(rng, 1.3, 1, 5000)
	for trial := 0; trial < 20; trial++ {
		qn := 5 + rng.Intn(40)
		query := make([]string, qn)
		for i := range query {
			query[i] = fmt.Sprintf("tok%d", zipf.Uint64())
		}
		for _, k := range []int{1, 3, 10} {
			want := bruteTopK(raw, query, k)
			for _, algo := range []Algorithm{MergeList, ProbeSet, Adaptive} {
				if got := topK(s, query, k, algo); !reflect.DeepEqual(got, want) {
					t.Errorf("trial %d k=%d %v: got %v, want %v", trial, k, algo, got, want)
				}
			}
		}
	}
}

func TestTopKExactQueryFromLake(t *testing.T) {
	ix, raw := randomLake(t, 200, 3)
	s := NewSearcher(ix)
	// Query with an indexed set: it must rank itself first with
	// overlap equal to its own distinct size.
	query := raw["set0007"]
	res := topK(s, query, 5, Adaptive)
	if len(res) == 0 {
		t.Fatal("no results")
	}
	if res[0].Key != "set0007" {
		t.Errorf("self not ranked first: %v", res[0])
	}
	distinct := map[string]bool{}
	for _, v := range query {
		distinct[v] = true
	}
	if res[0].Overlap != len(distinct) {
		t.Errorf("self overlap = %d, want %d", res[0].Overlap, len(distinct))
	}
}

func TestEdgeCases(t *testing.T) {
	ix, _ := randomLake(t, 50, 4)
	s := NewSearcher(ix)
	if r := topK(s, nil, 5, Adaptive); r != nil {
		t.Error("empty query should return nil")
	}
	if r := topK(s, []string{"never-seen-token"}, 5, Adaptive); r != nil {
		t.Error("unknown-token query should return nil")
	}
	if r := topK(s, []string{"tok1"}, 0, Adaptive); r != nil {
		t.Error("k=0 should return nil")
	}
}

func TestKLargerThanLake(t *testing.T) {
	ix, raw := randomLake(t, 20, 5)
	s := NewSearcher(ix)
	query := raw["set0000"]
	want := bruteTopK(raw, query, 100)
	for _, algo := range []Algorithm{MergeList, ProbeSet, Adaptive} {
		if got := topK(s, query, 100, algo); !reflect.DeepEqual(got, want) {
			t.Errorf("%v: got %v, want %v", algo, got, want)
		}
	}
}

func TestAdaptiveDoesLessWorkThanMergeListOnLargeK(t *testing.T) {
	ix, raw := randomLake(t, 2000, 6)
	s := NewSearcher(ix)
	query := raw["set0100"]
	_, stMerge := s.TopK(query, 5, MergeList)
	_, stAdapt := s.TopK(query, 5, Adaptive)
	costMerge := float64(stMerge.PostingsRead) + float64(stMerge.TokensRead) + 32*float64(stMerge.SetsProbed)
	costAdapt := float64(stAdapt.PostingsRead) + float64(stAdapt.TokensRead) + 32*float64(stAdapt.SetsProbed)
	if costAdapt > costMerge*1.5 {
		t.Errorf("adaptive cost %.0f vastly exceeds mergelist %.0f", costAdapt, costMerge)
	}
}

func TestCostModelSwitchesStrategy(t *testing.T) {
	ix, raw := randomLake(t, 500, 7)
	query := raw["set0001"]
	// Expensive probes: adaptive avoids mid-stream probing and reads
	// more posting entries. Cheap probes raise the k-th bound early
	// and stop reading sooner.
	expensive := NewSearcherCost(ix, CostModel{ReadPosting: 1, ReadToken: 1000, ProbeSeek: 1e6})
	_, stE := expensive.TopK(query, 3, Adaptive)
	cheap := NewSearcherCost(ix, CostModel{ReadPosting: 1000, ReadToken: 0.001, ProbeSeek: 0})
	_, stC := cheap.TopK(query, 3, Adaptive)
	if stC.PostingsRead > stE.PostingsRead {
		t.Errorf("cheap probes should not read more postings: cheap=%d expensive=%d", stC.PostingsRead, stE.PostingsRead)
	}
	if stC.SetsProbed == 0 {
		t.Error("cheap probes should trigger mid-stream probing")
	}
}

func TestAlgorithmString(t *testing.T) {
	if MergeList.String() != "mergelist" || ProbeSet.String() != "probeset" || Adaptive.String() != "adaptive" {
		t.Error("Algorithm.String wrong")
	}
	if Algorithm(42).String() == "" {
		t.Error("unknown algorithm should stringify")
	}
}
