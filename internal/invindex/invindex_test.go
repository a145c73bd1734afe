package invindex

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func build(t *testing.T, sets map[string][]string) *Index {
	t.Helper()
	b := NewBuilder()
	// Deterministic insertion order.
	keys := make([]string, 0, len(sets))
	for k := range sets {
		keys = append(keys, k)
	}
	// Sort for determinism.
	for i := range keys {
		for j := i + 1; j < len(keys); j++ {
			if keys[j] < keys[i] {
				keys[i], keys[j] = keys[j], keys[i]
			}
		}
	}
	for _, k := range keys {
		if err := b.Add(k, sets[k]); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestRanksOrderedByFrequency(t *testing.T) {
	ix := build(t, map[string][]string{
		"s1": {"common", "rare1"},
		"s2": {"common", "rare2"},
		"s3": {"common"},
	})
	rCommon, _ := ix.TokenRank("common")
	rRare, _ := ix.TokenRank("rare1")
	if ix.DF(rCommon) != 3 || ix.DF(rRare) != 1 {
		t.Errorf("df wrong: common=%d rare=%d", ix.DF(rCommon), ix.DF(rRare))
	}
	if rRare > rCommon {
		t.Error("rare token should rank before common token")
	}
}

func TestSetsSortedAndPositionsConsistent(t *testing.T) {
	ix := build(t, map[string][]string{
		"s1": {"a", "b", "c"},
		"s2": {"b", "c"},
		"s3": {"c"},
	})
	for sid := int32(0); sid < int32(ix.NumSets()); sid++ {
		set := ix.Set(sid)
		for i := 1; i < len(set); i++ {
			if set[i-1] >= set[i] {
				t.Fatalf("set %d not strictly sorted: %v", sid, set)
			}
		}
	}
	// Each posting's Pos must point at the token within the set.
	for r := int32(0); r < int32(ix.NumTokens()); r++ {
		for _, p := range ix.Postings(r) {
			if ix.Set(p.Set)[p.Pos] != r {
				t.Fatalf("posting pos wrong for rank %d", r)
			}
		}
	}
}

func TestDuplicateValuesDeduped(t *testing.T) {
	ix := build(t, map[string][]string{"s1": {"a", "a", "b", ""}})
	id, ok := ix.SetID("s1")
	if !ok {
		t.Fatal("missing set")
	}
	if ix.SetSize(id) != 2 {
		t.Errorf("SetSize = %d, want 2 (dedup + drop empty)", ix.SetSize(id))
	}
}

// TestAddIDsDedupes stages the same set as a clean ascending ID list,
// with adjacent duplicates, and shuffled with duplicates: the built
// sets are one and the same, and the caller's slice is left alone.
func TestAddIDsDedupes(t *testing.T) {
	b := NewBuilder()
	shuffled := []uint32{9, 2, 7, 2, 4, 9}
	for key, ids := range map[string][]uint32{
		"clean":    {2, 4, 7, 9},
		"adjacent": {2, 2, 4, 7, 9, 9},
		"shuffled": shuffled,
		"other":    {4, 5},
	} {
		if err := b.AddIDs(key, ids); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(shuffled, []uint32{9, 2, 7, 2, 4, 9}) {
		t.Errorf("AddIDs reordered the caller's slice: %v", shuffled)
	}
	ix, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	clean, _ := ix.SetID("clean")
	for _, key := range []string{"adjacent", "shuffled"} {
		id, _ := ix.SetID(key)
		if !reflect.DeepEqual(ix.Set(id), ix.Set(clean)) {
			t.Errorf("%s staged as %v, want %v", key, ix.Set(id), ix.Set(clean))
		}
	}
	if ix.SetSize(clean) != 4 {
		t.Errorf("SetSize = %d, want 4", ix.SetSize(clean))
	}
}

func TestDuplicateKeyRejected(t *testing.T) {
	b := NewBuilder()
	b.Add("k", []string{"a"})
	if err := b.Add("k", []string{"b"}); err == nil {
		t.Error("duplicate key should fail")
	}
	if b.Len() != 1 {
		t.Errorf("Len = %d", b.Len())
	}
}

func TestEmptyBuildFails(t *testing.T) {
	if _, err := NewBuilder().Build(); err == nil {
		t.Error("empty Build should fail")
	}
}

func TestQueryRanks(t *testing.T) {
	ix := build(t, map[string][]string{
		"s1": {"x", "y"},
		"s2": {"y"},
	})
	ranks := ix.QueryRanks([]string{"y", "unknown", "x", "x"})
	if len(ranks) != 2 {
		t.Fatalf("ranks = %v", ranks)
	}
	if ranks[0] >= ranks[1] {
		t.Error("ranks not sorted")
	}
}

func TestOverlap(t *testing.T) {
	a := []int32{1, 3, 5, 7}
	b := []int32{3, 4, 5, 8}
	if o := Overlap(a, b); o != 2 {
		t.Errorf("Overlap = %d, want 2", o)
	}
	if o := OverlapFrom(a, 2, b, 2); o != 1 {
		t.Errorf("OverlapFrom = %d, want 1", o)
	}
	if Overlap(nil, b) != 0 {
		t.Error("nil overlap should be 0")
	}
}

func TestOverlapMatchesNaive(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		a := uniqueSorted(xs)
		b := uniqueSorted(ys)
		naive := 0
		for _, x := range a {
			for _, y := range b {
				if x == y {
					naive++
				}
			}
		}
		return Overlap(a, b) == naive
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func uniqueSorted(xs []uint8) []int32 {
	seen := map[int32]bool{}
	var out []int32
	for _, x := range xs {
		if !seen[int32(x)] {
			seen[int32(x)] = true
			out = append(out, int32(x))
		}
	}
	for i := range out {
		for j := i + 1; j < len(out); j++ {
			if out[j] < out[i] {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	return out
}

func TestPostingListsSortedBySet(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sets := make(map[string][]string)
	for i := 0; i < 50; i++ {
		n := 1 + rng.Intn(20)
		vs := make([]string, n)
		for j := range vs {
			vs[j] = fmt.Sprintf("tok%d", rng.Intn(40))
		}
		sets[fmt.Sprintf("s%02d", i)] = vs
	}
	ix := build(t, sets)
	for r := int32(0); r < int32(ix.NumTokens()); r++ {
		pl := ix.Postings(r)
		for i := 1; i < len(pl); i++ {
			if pl[i-1].Set >= pl[i].Set {
				t.Fatalf("posting list %d not sorted by set", r)
			}
		}
	}
}

func TestKeyRoundTrip(t *testing.T) {
	ix := build(t, map[string][]string{"alpha": {"a"}, "beta": {"b"}})
	got := map[string]bool{}
	for sid := int32(0); sid < int32(ix.NumSets()); sid++ {
		got[ix.Key(sid)] = true
		id, ok := ix.SetID(ix.Key(sid))
		if !ok || id != sid {
			t.Errorf("SetID(Key(%d)) = %d,%v", sid, id, ok)
		}
	}
	if !reflect.DeepEqual(got, map[string]bool{"alpha": true, "beta": true}) {
		t.Errorf("keys = %v", got)
	}
}
