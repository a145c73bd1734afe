package josie

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"tablehound/internal/invindex"
)

// tiedLake builds an ID index made to tie: a small token universe,
// many sets that are copies of one another, and keys added in shuffled
// order so set IDs say nothing about key order.
func tiedLake(t testing.TB, rng *rand.Rand, nSets, universe int) (*invindex.Index, map[string][]uint32) {
	t.Helper()
	raw := make(map[string][]uint32, nSets)
	keys := make([]string, nSets)
	var prev []uint32
	for i := range keys {
		keys[i] = fmt.Sprintf("s%04d", i)
		ids := prev
		if prev == nil || rng.Intn(3) > 0 {
			ids = randomIDs(rng, universe, 1+rng.Intn(universe/2))
		}
		raw[keys[i]], prev = ids, ids
	}
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	b := invindex.NewBuilder()
	for _, key := range keys {
		if err := b.AddIDs(key, raw[key]); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ix, raw
}

// randomIDs draws n distinct token IDs below universe.
func randomIDs(rng *rand.Rand, universe, n int) []uint32 {
	ids := make([]uint32, n)
	for i, v := range rng.Perm(universe)[:n] {
		ids[i] = uint32(v)
	}
	return ids
}

// scanTopK is the enumerate-and-sort oracle: every allowed set's exact
// overlap, ordered (overlap desc, key asc), cut to k.
func scanTopK(raw map[string][]uint32, query []uint32, k int, allowed map[string]bool) []Result {
	inQuery := make(map[uint32]bool, len(query))
	for _, id := range query {
		inQuery[id] = true
	}
	var res []Result
	for key, ids := range raw {
		if allowed != nil && !allowed[key] {
			continue
		}
		ov := 0
		for _, id := range ids {
			if inQuery[id] {
				ov++
			}
		}
		if ov > 0 {
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

// TestStrategiesCanonical is the package's contract on ties: whatever
// the strategy, the mask or the cost model, the answer is the scan
// oracle's — the same keys in the same order, not just the same
// overlap values.
func TestStrategiesCanonical(t *testing.T) {
	costs := []CostModel{
		DefaultCost(),
		{ReadPosting: 1000, ReadToken: 0.001, ProbeSeek: 0}, // probe at every chance
		{ReadPosting: 1, ReadToken: 1000, ProbeSeek: 1e6},   // never probe mid-stream
	}
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		universe := 6 + rng.Intn(30)
		ix, raw := tiedLake(t, rng, 5+rng.Intn(120), universe)
		s := NewSearcherCost(ix, costs[seed%int64(len(costs))])
		for trial := 0; trial < 12; trial++ {
			query := raw[ix.Key(int32(rng.Intn(ix.NumSets())))] // an indexed set
			if trial%2 == 1 {
				query = randomIDs(rng, universe+3, 1+rng.Intn(universe)) // some out of vocabulary
			}
			var allowed []string
			var isAllowed map[string]bool
			if trial%4 >= 2 {
				allowed, isAllowed = []string{"ghost"}, map[string]bool{}
				for key := range raw {
					if rng.Intn(2) == 0 {
						allowed, isAllowed[key] = append(allowed, key), true
					}
				}
			}
			for _, k := range []int{1, 3, 10, ix.NumSets() + 5} {
				want := scanTopK(raw, query, k, isAllowed)
				for _, algo := range []Algorithm{MergeList, ProbeSet, Adaptive} {
					if got, _ := s.TopKIDs(query, k, algo, allowed); !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d trial %d k=%d masked=%v %v:\n got %v\nwant %v", seed, trial, k, allowed != nil, algo, got, want)
					}
				}
			}
		}
	}
}

// TestScratchEpochWrap drives one scratch across the uint32 epoch wrap
// and across indexes of different sizes: stale stamps must not read as
// candidates, verified sets or mask entries.
func TestScratchEpochWrap(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	small, rawSmall := tiedLake(t, rng, 20, 12)
	large, rawLarge := tiedLake(t, rng, 90, 12)
	sc := new(scratch)
	sc.epoch = ^uint32(0) - 2
	for i := 0; i < 8; i++ {
		ix, raw := small, rawSmall
		if i%2 == 1 {
			ix, raw = large, rawLarge
		}
		s := NewSearcher(ix)
		query := randomIDs(rng, 12, 6)
		allowed, isAllowed := []string{}, map[string]bool{}
		for key := range raw {
			if rng.Intn(2) == 0 {
				allowed, isAllowed[key] = append(allowed, key), true
			}
		}
		for _, algo := range []Algorithm{MergeList, ProbeSet, Adaptive} {
			got, _ := s.search(sc, ix.QueryRanksIDs(query), 4, algo, allowed)
			if want := scanTopK(raw, query, 4, isAllowed); !reflect.DeepEqual(got, want) {
				t.Fatalf("query %d %v at epoch %d: got %v, want %v", i, algo, sc.epoch, got, want)
			}
		}
	}
	if sc.epoch >= 1<<31 {
		t.Fatalf("epoch = %d: the loop never wrapped", sc.epoch)
	}
}

// TestTopKAllocations pins a query to a constant number of allocations
// (the rank slice and the answer) however many sets the index holds:
// all per-set state lives in pooled scratch.
func TestTopKAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	for _, n := range []int{100, 5000} {
		rng := rand.New(rand.NewSource(5))
		ix, raw := tiedLake(t, rng, n, 60)
		s := NewSearcher(ix)
		query := raw["s0003"]
		every := make([]string, 0, n)
		for key := range raw {
			every = append(every, key)
		}
		for _, algo := range []Algorithm{MergeList, ProbeSet, Adaptive} {
			for _, allowed := range [][]string{nil, every} {
				s.TopKIDs(query, 10, algo, allowed) // warm the pool
				if allocs := testing.AllocsPerRun(50, func() { s.TopKIDs(query, 10, algo, allowed) }); allocs > 2 {
					t.Errorf("n=%d %v masked=%v: %.0f allocations per query, want 2", n, algo, allowed != nil, allocs)
				}
			}
		}
	}
}

// TestConcurrentQueries shares one Searcher among 16 goroutines: the
// pooled scratch must hand every query its own state (run with -race).
func TestConcurrentQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ix, raw := tiedLake(t, rng, 150, 25)
	s := NewSearcher(ix)
	type query struct {
		ids  []uint32
		want []Result
	}
	queries := make([]query, 40)
	for i := range queries {
		ids := randomIDs(rng, 25, 1+rng.Intn(20))
		queries[i] = query{ids, scanTopK(raw, ids, 5, nil)}
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			algo := []Algorithm{MergeList, ProbeSet, Adaptive}[g%3]
			for round := 0; round < 20; round++ {
				for i, q := range queries {
					if got, _ := s.TopKIDs(q.ids, 5, algo, nil); !reflect.DeepEqual(got, q.want) {
						t.Errorf("goroutine %d query %d %v: got %v, want %v", g, i, algo, got, q.want)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
