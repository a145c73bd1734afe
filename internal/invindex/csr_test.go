package invindex

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// refBuildIDs is the ID-staged build as a comparison sort and grown
// posting lists: tokens ranked by sort.Slice over (df, ID), each set's
// ranks sorted, each posting appended to its list.
func refBuildIDs(sets [][]uint32) (idOf []uint32, df []int32, ranked [][]int32, postings [][]Posting) {
	count := map[uint32]int32{}
	for _, s := range sets {
		for _, id := range s {
			count[id]++
		}
	}
	for id := range count {
		idOf = append(idOf, id)
	}
	sort.Slice(idOf, func(i, j int) bool {
		if count[idOf[i]] != count[idOf[j]] {
			return count[idOf[i]] < count[idOf[j]]
		}
		return idOf[i] < idOf[j]
	})
	rank := map[uint32]int32{}
	for r, id := range idOf {
		rank[id] = int32(r)
		df = append(df, count[id])
	}
	postings = make([][]Posting, len(idOf))
	for sid, s := range sets {
		rs := make([]int32, len(s))
		for i, id := range s {
			rs[i] = rank[id]
		}
		sort.Slice(rs, func(i, j int) bool { return rs[i] < rs[j] })
		ranked = append(ranked, rs)
		for pos, r := range rs {
			postings[r] = append(postings[r], Posting{Set: int32(sid), Pos: int32(pos)})
		}
	}
	return idOf, df, ranked, postings
}

// TestCSRMatchesReference: over random ID sets, skewed so df ties
// abound, the counting-sort ranking and the one-array posting lists
// equal the comparison-sort and append reference, and every posting
// list's capacity is its length — in a build and after a round trip.
func TestCSRMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		nsets, vocab := 1+rng.Intn(60), 1+rng.Intn(300)
		b := NewBuilder()
		var keys []string
		var sets [][]uint32
		for s := 0; s < nsets; s++ {
			seen := map[uint32]bool{}
			var ids []uint32
			for k := rng.Intn(40); k > 0; k-- {
				id := uint32(rng.Intn(vocab)) * uint32(1+rng.Intn(2)) // sparse IDs too
				if !seen[id] {
					seen[id] = true
					ids = append(ids, id)
				}
			}
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			key := string(rune('a'+s%26)) + string(rune('a'+s/26))
			keys = append(keys, key)
			sets = append(sets, ids)
			if err := b.AddIDs(key, ids); err != nil {
				t.Fatal(err)
			}
		}
		ix, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		idOf, df, ranked, postings := refBuildIDs(sets)
		loaded, err := decode(encode(ix), keys)
		if err != nil {
			t.Fatal(err)
		}
		for _, got := range []*Index{ix, loaded} {
			if len(got.idOf) != len(idOf) || (len(idOf) > 0 && !reflect.DeepEqual(got.idOf, idOf)) {
				t.Fatalf("trial %d: ranking %v, reference %v", trial, got.idOf, idOf)
			}
			if len(df) > 0 && !reflect.DeepEqual(got.df, df) {
				t.Fatalf("trial %d: df %v, reference %v", trial, got.df, df)
			}
			for sid := range sets {
				if len(got.sets[sid])+len(ranked[sid]) > 0 && !reflect.DeepEqual(got.sets[sid], ranked[sid]) {
					t.Fatalf("trial %d: set %d ranks %v, reference %v", trial, sid, got.sets[sid], ranked[sid])
				}
			}
			for r := range postings {
				pl := got.Postings(int32(r))
				if !reflect.DeepEqual(pl, postings[r]) {
					t.Fatalf("trial %d: rank %d postings %v, reference %v", trial, r, pl, postings[r])
				}
				if cap(pl) != len(pl) {
					t.Fatalf("trial %d: rank %d list has capacity %d over %d postings", trial, r, cap(pl), len(pl))
				}
			}
			for id, r := range got.rankOfID {
				if want, ok := indexOf(idOf, uint32(id)); (r >= 0) != ok || (ok && int(r) != want) {
					t.Fatalf("trial %d: rankOfID[%d] = %d, reference %d (%v)", trial, id, r, want, ok)
				}
			}
		}
	}
}

func indexOf(xs []uint32, x uint32) (int, bool) {
	for i, v := range xs {
		if v == x {
			return i, true
		}
	}
	return 0, false
}
