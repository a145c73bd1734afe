package invindex

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"tablehound/internal/snap"
)

// encode returns the index's snapshot payload.
func encode(ix *Index) []byte {
	var e snap.Encoder
	ix.AppendSnapshot(&e)
	return e.Bytes()
}

// decode reads a payload encode wrote, all of it, with the sets' keys
// the embedding snapshot stores, as the container's section reader
// does: bytes left unconsumed are corruption.
func decode(payload []byte, keys []string) (*Index, error) {
	d := snap.NewDecoder(payload)
	ix, err := DecodeSnapshot(d, math.MaxInt, keys)
	if err != nil {
		return nil, err
	}
	return ix, d.Finish()
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	b := NewBuilder()
	for i := 0; i < 80; i++ {
		n := 1 + rng.Intn(25)
		vs := make([]string, n)
		for j := range vs {
			vs[j] = fmt.Sprintf("tok%d", rng.Intn(120))
		}
		if err := b.Add(fmt.Sprintf("s%02d", i), vs); err != nil {
			t.Fatal(err)
		}
	}
	orig, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	back, err := decode(encode(orig), orig.keys)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumSets() != orig.NumSets() || back.NumTokens() != orig.NumTokens() {
		t.Fatalf("dims changed: %d/%d vs %d/%d",
			back.NumSets(), back.NumTokens(), orig.NumSets(), orig.NumTokens())
	}
	// Every structural accessor must agree.
	for sid := int32(0); sid < int32(orig.NumSets()); sid++ {
		if back.Key(sid) != orig.Key(sid) {
			t.Fatalf("key %d changed", sid)
		}
		if !reflect.DeepEqual(back.Set(sid), orig.Set(sid)) {
			t.Fatalf("set %d changed", sid)
		}
	}
	for r := int32(0); r < int32(orig.NumTokens()); r++ {
		if back.DF(r) != orig.DF(r) {
			t.Fatalf("df %d changed", r)
		}
		if !reflect.DeepEqual(back.Postings(r), orig.Postings(r)) {
			t.Fatalf("postings %d changed", r)
		}
	}
	// Query behavior preserved.
	q := []string{"tok1", "tok2", "tok3", "nope"}
	if !reflect.DeepEqual(back.QueryRanks(q), orig.QueryRanks(q)) {
		t.Error("QueryRanks changed after reload")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := decode([]byte("garbage"), nil); err == nil {
		t.Error("garbage should fail to load")
	}
}

// TestSaveLoadRoundTripIDs is the ID-built twin of the round trip
// above: an index built from dictionary IDs (AddIDs, the join
// engine's path) must reload with identical structure and identical
// QueryRanksIDs behavior.
func TestSaveLoadRoundTripIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	b := NewBuilder()
	for i := 0; i < 80; i++ {
		n := 1 + rng.Intn(25)
		ids := make([]uint32, n)
		for j := range ids {
			ids[j] = uint32(rng.Intn(150))
		}
		if err := b.AddIDs(fmt.Sprintf("s%02d", i), ids); err != nil {
			t.Fatal(err)
		}
	}
	orig, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	back, err := decode(encode(orig), orig.keys)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumSets() != orig.NumSets() || back.NumTokens() != orig.NumTokens() {
		t.Fatalf("dims changed: %d/%d vs %d/%d",
			back.NumSets(), back.NumTokens(), orig.NumSets(), orig.NumTokens())
	}
	for sid := int32(0); sid < int32(orig.NumSets()); sid++ {
		if back.Key(sid) != orig.Key(sid) {
			t.Fatalf("key %d changed", sid)
		}
		if !reflect.DeepEqual(back.Set(sid), orig.Set(sid)) {
			t.Fatalf("set %d changed", sid)
		}
	}
	for r := int32(0); r < int32(orig.NumTokens()); r++ {
		if back.DF(r) != orig.DF(r) {
			t.Fatalf("df %d changed", r)
		}
		if !reflect.DeepEqual(back.Postings(r), orig.Postings(r)) {
			t.Fatalf("postings %d changed", r)
		}
	}
	// ID query behavior preserved, including unknown and ephemeral
	// (past-the-table) IDs.
	q := []uint32{1, 2, 3, 149, 5000}
	if got, want := back.QueryRanksIDs(q), orig.QueryRanksIDs(q); !reflect.DeepEqual(got, want) {
		t.Errorf("QueryRanksIDs changed after reload: %v vs %v", got, want)
	}
}

// TestSaveLoadEmptyIDIndexStaysIDBuilt guards the explicit IDBuilt
// flag: an ID-built index whose sets are all empty has zero tokens,
// and inferring "ID-built" from a non-empty ID table would silently
// reload it as a string-built index.
func TestSaveLoadEmptyIDIndexStaysIDBuilt(t *testing.T) {
	b := NewBuilder()
	if err := b.AddIDs("empty-a", nil); err != nil {
		t.Fatal(err)
	}
	if err := b.AddIDs("empty-b", []uint32{}); err != nil {
		t.Fatal(err)
	}
	orig, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	back, err := decode(encode(orig), orig.keys)
	if err != nil {
		t.Fatal(err)
	}
	if back.idOf == nil || back.tokenIDs != nil {
		t.Error("empty ID-built index reloaded as string-built")
	}
	if got := back.QueryRanksIDs([]uint32{0, 1, 2}); len(got) != 0 {
		t.Errorf("QueryRanksIDs on empty index = %v", got)
	}
}

// TestLoadRejectsInconsistentSnapshots checks the typed corruption
// error for payloads whose structure is internally inconsistent.
func TestLoadRejectsInconsistentSnapshots(t *testing.T) {
	cases := []struct {
		name   string
		keys   []string // the keys the embedding snapshot hands over
		encode func(*snap.Encoder)
	}{
		{"keys vs sets", []string{"k"}, func(e *snap.Encoder) {
			e.Bool(false)
			e.Strs([]string{"a"}) // tokens
			e.I32s([]int32{1})    // df
			e.U32(0)              // sets: none, but one key
		}},
		{"tokens vs df", nil, func(e *snap.Encoder) {
			e.Bool(false)
			e.Strs([]string{"a", "b"})
			e.I32s([]int32{1})
			e.U32(0)
		}},
		{"ids vs df", nil, func(e *snap.Encoder) {
			e.Bool(true)
			e.U32s([]uint32{1, 2})
			e.I32s([]int32{1})
			e.U32(0)
		}},
		{"rank out of range", []string{"k"}, func(e *snap.Encoder) {
			e.Bool(false)
			e.Strs([]string{"a"})
			e.I32s([]int32{1})
			e.U32(1)
			e.I32s([]int32{7})
		}},
		{"duplicate key", []string{"k", "k"}, func(e *snap.Encoder) {
			e.Bool(false)
			e.Strs([]string{"a"})
			e.I32s([]int32{2})
			e.U32(2)
			e.I32s([]int32{0})
			e.I32s([]int32{0})
		}},
		{"df above its postings", []string{"k"}, func(e *snap.Encoder) {
			e.Bool(true)
			e.U32s([]uint32{0, 1})
			e.I32s([]int32{1, 2}) // rank 1 claims two sets, one holds it
			e.U32(1)
			e.I32s([]int32{0, 1})
		}},
		{"df of an unposted token", []string{"k"}, func(e *snap.Encoder) {
			e.Bool(false)
			e.Strs([]string{"a", "b"})
			e.I32s([]int32{1, 1}) // no set holds rank 1
			e.U32(1)
			e.I32s([]int32{0})
		}},
		{"payload too short", nil, func(e *snap.Encoder) {
			e.Bool(false)
			e.Strs([]string{"a"})
		}},
		{"trailing payload bytes", []string{"k"}, func(e *snap.Encoder) {
			e.Bool(false)
			e.Strs(nil)
			e.I32s(nil)
			e.U32(1)
			e.I32s(nil)
			e.U8(0xff) // one byte the decoder never consumes
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var e snap.Encoder
			c.encode(&e)
			_, err := decode(e.Bytes(), c.keys)
			if err == nil {
				t.Fatal("inconsistent snapshot loaded without error")
			}
			if !errors.Is(err, ErrCorruptSnapshot) {
				t.Errorf("err = %v, does not wrap ErrCorruptSnapshot", err)
			}
		})
	}
}

// TestLoadRejectsTruncation cuts the payload of a small real index at
// every byte offset: no proper prefix may load.
func TestLoadRejectsTruncation(t *testing.T) {
	b := NewBuilder()
	for i := 0; i < 10; i++ {
		if err := b.AddIDs(fmt.Sprintf("s%d", i), []uint32{uint32(i), uint32(i + 1), 40}); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	data := encode(ix)
	for n := 0; n < len(data); n++ {
		_, err := decode(data[:n], ix.keys)
		if err == nil {
			t.Fatalf("truncated payload (%d/%d bytes) loaded", n, len(data))
		}
		if !errors.Is(err, ErrCorruptSnapshot) {
			t.Fatalf("truncation at %d: err = %v, want ErrCorruptSnapshot", n, err)
		}
	}
}
