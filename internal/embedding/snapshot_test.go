package embedding

import (
	"errors"
	"slices"
	"testing"

	"tablehound/internal/snap"
)

// TestDecodeSnapshotRejectsUnsortedTokens forges the model section's
// token list: row i of the vector segment is the i-th token in sorted
// order, and the decoded model keeps the list as its sorted vocabulary,
// so a list out of order or with a repeat must fail as corrupt, while
// the list as saved round-trips.
func TestDecodeSnapshotRejectsUnsortedTokens(t *testing.T) {
	m := Train([][]string{{"ant", "bee", "cat"}, {"cat", "dog", "eel"}}, Config{Dim: 8, Seed: 3})
	toks := m.Tokens()
	if !slices.IsSorted(toks) || len(toks) != m.VocabSize() {
		t.Fatalf("Tokens() = %q, want the %d-token vocabulary sorted", toks, m.VocabSize())
	}
	if c := m.Clone(); !slices.Equal(c.Tokens(), toks) {
		t.Errorf("clone's tokens %q, want %q", c.Tokens(), toks)
	}
	section := func(toks []string) *snap.Decoder {
		var e snap.Encoder
		e.U32(uint32(m.cfg.Dim))
		e.U64(m.cfg.Seed)
		e.U32(uint32(m.cfg.MinCount))
		e.U32(uint32(m.cfg.CharGramQ))
		e.Strs(toks)
		return snap.NewDecoder(e.Bytes())
	}
	at := func(i int) []float32 { return m.TokenVector(toks[i]) }

	var e snap.Encoder
	m.AppendSnapshot(&e)
	back, err := DecodeSnapshot(snap.NewDecoder(e.Bytes()), at, len(toks))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(back.Tokens(), toks) {
		t.Errorf("decoded tokens %q, want %q", back.Tokens(), toks)
	}

	swapped := slices.Clone(toks)
	swapped[1], swapped[2] = swapped[2], swapped[1]
	repeated := slices.Clone(toks)
	repeated[2] = repeated[1]
	for name, forged := range map[string][]string{"swapped": swapped, "repeated": repeated} {
		if _, err := DecodeSnapshot(section(forged), at, len(forged)); !errors.Is(err, snap.ErrCorrupt) {
			t.Errorf("%s tokens %q: err = %v, want snap.ErrCorrupt", name, forged, err)
		}
	}
}
