package keyword

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"tablehound/internal/snap"
	"tablehound/internal/table"
)

// TestFoldEqualsFreshIndex folds both indexes of a base lake into a
// merged one that drops two tables, replaces one under its ID with new
// cells and adds the held-out rest: each fold saves the bytes a fresh
// index over the merged tables saves, whether the base listed its
// tables in sorted-ID order or not.
func TestFoldEqualsFreshIndex(t *testing.T) {
	all := parityLake(7)
	slices.SortFunc(all, func(a, b *table.Table) int { return strings.Compare(a.ID, b.ID) })
	var base, held []*table.Table
	for i, tb := range all {
		if i%4 == 1 {
			held = append(held, tb)
		} else {
			base = append(base, tb)
		}
	}
	replaced := base[3]
	cols := make([]*table.Column, len(replaced.Columns))
	for i, c := range replaced.Columns {
		cols[i] = &table.Column{Name: c.Name, Type: c.Type, Values: append([]string{"zzfolded"}, c.Values[1:]...)}
	}
	replacement := table.MustNew(replaced.ID, replaced.Name+" folded", cols)
	added := map[string]*table.Table{replacement.ID: replacement}
	for _, tb := range held {
		added[tb.ID] = tb
	}
	removed := map[string]bool{base[0].ID: true, base[5].ID: true}
	var merged []*table.Table
	for _, tb := range all {
		switch {
		case removed[tb.ID]:
		case added[tb.ID] != nil:
			merged = append(merged, added[tb.ID])
		default:
			merged = append(merged, tb)
		}
	}
	docs := make([]string, len(merged))
	for i, tb := range merged {
		docs[i] = tb.ID
	}
	encoded := func(enc func(*snap.Encoder)) []byte {
		var e snap.Encoder
		enc(&e)
		return e.Bytes()
	}
	reversed := slices.Clone(base)
	slices.Reverse(reversed)
	for name, order := range map[string][]*table.Table{"sorted": base, "reversed": reversed} {
		t.Run(name, func(t *testing.T) {
			ix, err := NewIndex(order).Fold(docs, added)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := encoded(ix.AppendSnapshot), encoded(NewIndex(merged).AppendSnapshot); !bytes.Equal(got, want) {
				t.Error("folded metadata index differs from a fresh one")
			}
			vx, err := NewValueIndex(order).Fold(docs, added)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := encoded(vx.AppendSnapshot), encoded(NewValueIndex(merged).AppendSnapshot); !bytes.Equal(got, want) {
				t.Error("folded value index differs from a fresh one")
			}
		})
	}
	if _, err := NewIndex(base).Fold(append(slices.Clone(docs), "zz-unknown"), added); err == nil {
		t.Error("a table neither indexed nor added folded")
	}
}
