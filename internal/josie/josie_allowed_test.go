package josie

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"tablehound/internal/invindex"
)

// idLake builds an index straight from uint32 token IDs so tests
// control the vocabulary the allowed-mask queries use.
func idLake(t *testing.T, nSets int, seed int64) (*invindex.Index, [][]uint32) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := invindex.NewBuilder()
	sets := make([][]uint32, nSets)
	for i := 0; i < nSets; i++ {
		n := 1 + rng.Intn(12)
		ids := make([]uint32, n)
		for j := range ids {
			ids[j] = uint32(rng.Intn(40))
		}
		sets[i] = ids
		if err := b.AddIDs(fmt.Sprintf("s%03d", i), ids); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ix, sets
}

// TestTopKAllowedIsFilteredTopK pins the allowed-mask contract: under
// every strategy the restricted result equals the unrestricted full
// ranking filtered to allowed sets and re-truncated to k, keys
// included.
func TestTopKAllowedIsFilteredTopK(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		ix, _ := idLake(t, 30, seed)
		s := NewSearcher(ix)
		rng := rand.New(rand.NewSource(seed + 1000))
		// TopKIDs takes deduplicated query IDs (EncodeQuery's contract).
		dedup := make(map[uint32]bool)
		for len(dedup) < 1+rng.Intn(10) {
			dedup[uint32(rng.Intn(40))] = true
		}
		query := make([]uint32, 0, len(dedup))
		for id := range dedup {
			query = append(query, id)
		}
		allowed := []string{"not-indexed"}
		isAllowed := make(map[string]bool)
		for i := 0; i < ix.NumSets(); i++ {
			if rng.Intn(3) != 0 {
				allowed = append(allowed, ix.Key(int32(i)))
				isAllowed[ix.Key(int32(i))] = true
			}
		}
		k := 1 + rng.Intn(6)
		// Oracle: full unrestricted ranking, filtered, truncated.
		full, _ := s.TopKIDs(query, ix.NumSets(), MergeList, nil)
		var want []Result
		for _, r := range full {
			if isAllowed[r.Key] {
				want = append(want, r)
			}
		}
		if len(want) > k {
			want = want[:k]
		}
		for _, algo := range []Algorithm{MergeList, ProbeSet, Adaptive} {
			if got, _ := s.TopKIDs(query, k, algo, allowed); !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d %v: allowed top-k = %v, want %v", seed, algo, got, want)
			}
		}
	}
}

// TestTopKAllowedNilMask checks that a nil mask is the unrestricted
// search, and an empty one returns nothing.
func TestTopKAllowedNilMask(t *testing.T) {
	ix, sets := idLake(t, 20, 7)
	s := NewSearcher(ix)
	query := dedupIDs(sets[0])
	every := make([]string, ix.NumSets())
	for i := range every {
		every[i] = ix.Key(int32(i))
	}
	want, _ := s.TopKIDs(query, 5, Adaptive, every)
	got, _ := s.TopKIDs(query, 5, Adaptive, nil)
	if len(got) == 0 || !reflect.DeepEqual(got, want) {
		t.Errorf("nil mask diverged from allowing every set: %v vs %v", got, want)
	}
	none, _ := s.TopKIDs(query, 5, Adaptive, []string{})
	if len(none) != 0 {
		t.Errorf("empty mask returned %v", none)
	}
}

func dedupIDs(ids []uint32) []uint32 {
	seen := make(map[uint32]bool)
	var out []uint32
	for _, id := range ids {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out
}
