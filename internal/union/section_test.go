package union

import (
	"fmt"
	"slices"
	"testing"

	"tablehound/internal/dict"
	"tablehound/internal/embedding"
	"tablehound/internal/kb"
	"tablehound/internal/snap"
	"tablehound/internal/table"
)

// loadTUS, loadSantos and loadD3L read an engine's snapshot section and
// assemble the engine from it as a system load does: through the
// engine's New*FromParts, TUS with its stored graph and nothing to
// insert, an assembly error marked corrupt. lake is the loaded
// system's dictionary, nil when the section carries its own.
func loadTUS(b []byte, cfg TUSConfig, lookup func(string) *table.Table) (*TUS, error) {
	sec, err := DecodeTUSSection(snap.NewDecoder(b), cfg.Dict)
	if err != nil {
		return nil, err
	}
	cfg.Dict, cfg.Exhaustive = sec.Dict, sec.Exhaustive
	return loaded(NewTUSFromParts(cfg, sec.Parts, sec.Graph, [][]string{}, lookup))
}

func loadSantos(b []byte, curated *kb.KB, lake *dict.Dict, lookup func(string) *table.Table) (*Santos, error) {
	values, parts, err := DecodeSantosSection(snap.NewDecoder(b), lake)
	if err != nil {
		return nil, err
	}
	return loaded(NewSantosFromParts(curated, values, parts, lookup))
}

func loadD3L(b []byte, model *embedding.Model, lake *dict.Dict, lookup func(string) *table.Table) (*D3L, error) {
	values, parts, err := DecodeD3LSection(snap.NewDecoder(b), lake)
	if err != nil {
		return nil, err
	}
	return loaded(NewD3LFromParts(model, values, parts, lookup))
}

func loaded[E any](e *E, err error) (*E, error) {
	if err != nil {
		return nil, fmt.Errorf("%w: %v", snap.ErrCorrupt, err)
	}
	return e, nil
}

// TestMergePairs checks the pair lists a merge folds: the union is
// ascending and distinct, every kept pair's position holds its moved
// pair, a pair with a dropped half sits at NoPair, and a list the remap
// keeps in order (a base's, under a remap that keeps the order of the
// values it keeps) keeps ascending positions.
func TestMergePairs(t *testing.T) {
	// Values 0..5 of one dictionary; 2 is dropped, the rest keep their
	// order, and the delta's values 4 and 5 sort between the base's.
	remap := []uint32{0, 2, NoPair, 4, 1, 3}
	move := func(id uint32) (uint32, bool) { return remap[id], remap[id] != NoPair }
	base := []uint64{packPair(0, 1), packPair(0, 3), packPair(1, 2), packPair(3, 0)}
	delta := []uint64{packPair(0, 4), packPair(4, 5), packPair(5, 0)}
	all, remaps := MergePairs([][]uint64{base, delta}, move)
	if !slices.IsSorted(all) || len(slices.Compact(slices.Clone(all))) != len(all) {
		t.Fatalf("union %v is not strictly ascending", all)
	}
	if len(all) != 6 {
		t.Fatalf("union holds %d pairs, want 6", len(all))
	}
	for i, l := range [][]uint64{base, delta} {
		for j, p := range l {
			sub, ok := move(uint32(p >> 32))
			obj, ok2 := move(uint32(p))
			pos := remaps[i][j]
			switch {
			case !ok || !ok2:
				if pos != NoPair {
					t.Errorf("list %d pair %d has a dropped half, position %d", i, j, pos)
				}
			case all[pos] != packPair(sub, obj):
				t.Errorf("list %d pair %d at position %d holds %x, want %x", i, j, pos, all[pos], packPair(sub, obj))
			}
		}
	}
	var kept []uint32
	for _, pos := range remaps[0] {
		if pos != NoPair {
			kept = append(kept, pos)
		}
	}
	if !slices.IsSorted(kept) {
		t.Errorf("the ordered list's positions %v do not ascend", kept)
	}
}

// TestMergeWordsRejectsUnorderedLists checks that MergeWords refuses a
// word list that does not strictly ascend, which could put two of its
// words on one position of the union, and merges ordered ones.
func TestMergeWordsRejectsUnorderedLists(t *testing.T) {
	for _, l := range [][]string{{"b", "a"}, {"a", "a"}} {
		if _, _, err := MergeWords([]string{"a", "c"}, l); err == nil {
			t.Errorf("MergeWords took the list %q", l)
		}
	}
	words, remaps, err := MergeWords([]string{"a", "c"}, []string{"b", "c"})
	if err != nil || !slices.Equal(words, []string{"a", "b", "c"}) || !slices.Equal(remaps[1], []uint32{1, 2}) {
		t.Errorf("MergeWords = %q, %v, %v", words, remaps, err)
	}
}
