package join

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"
	"unsafe"

	"tablehound/internal/snap"
)

// TestEngineSnapshotRoundTrip reloads an engine and checks the state a
// query reads by position — keys, ID sets, set IDs — lines up as it did
// when built.
func TestEngineSnapshotRoundTrip(t *testing.T) {
	e := randomEngine(t, 24, 1)
	var enc snap.Encoder
	e.AppendSnapshot(&enc, nil)
	back, err := DecodeEngineSnapshot(snap.NewDecoder(enc.Bytes()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.keys, e.keys) || !reflect.DeepEqual(back.idsets, e.idsets) {
		t.Fatal("keys or ID sets changed across the snapshot")
	}
	// The section stores the keys once: the index reads the engine's.
	for i, key := range back.keys {
		if unsafe.StringData(back.inv.Key(int32(i))) != unsafe.StringData(key) {
			t.Fatalf("inverted index holds its own copy of key %q", key)
		}
	}
	ctx := context.Background()
	for _, key := range e.keys {
		q := Query{IDs: e.IDSet(key)}
		want, err := e.ContainmentSearch(ctx, q, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := back.ContainmentSearch(ctx, q, 0.3); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: containment = %v (%v), want %v", key, got, err, want)
		}
		got, _, gerr := back.TopKOverlap(ctx, q, 5, nil)
		if want, _, err := e.TopKOverlap(ctx, q, 5, nil); err != nil || gerr != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: overlap = %v (%v), want %v (%v)", key, got, gerr, want, err)
		}
	}
}

// TestDecodeRejectsMisalignedIndex forges a snapshot whose inverted
// index holds one set fewer than the column list: the index takes its
// set keys from the column list and the engine reads ID sets by set
// ID, so it must refuse, not answer from the wrong column.
func TestDecodeRejectsMisalignedIndex(t *testing.T) {
	e := randomEngine(t, 24, 1)
	short, err := assemble(e.dict, e.keys[1:], e.idsets[1:])
	if err != nil {
		t.Fatal(err)
	}
	forged := *e
	forged.inv = short.inv
	var enc snap.Encoder
	forged.AppendSnapshot(&enc, nil)
	if _, err := DecodeEngineSnapshot(snap.NewDecoder(enc.Bytes()), nil); !errors.Is(err, snap.ErrCorrupt) {
		t.Fatalf("err = %v, want snap.ErrCorrupt", err)
	}
}

// TestEnginePartsReassemble takes a loaded engine apart and
// reassembles it: the parts carry every column's ID set, and the engine
// assembled from them saves the bytes of the one saved.
func TestEnginePartsReassemble(t *testing.T) {
	e := randomEngine(t, 24, 1)
	saved := func(x *Engine) []byte {
		var enc snap.Encoder
		x.AppendSnapshot(&enc, e.dict)
		return enc.Bytes()
	}
	want := saved(e)
	loaded, err := DecodeEngineSnapshot(snap.NewDecoder(want), e.dict)
	if err != nil {
		t.Fatal(err)
	}
	p := loaded.Parts()
	if len(p.IDSets) != len(e.keys) {
		t.Fatalf("parts carry %d ID sets for %d columns", len(p.IDSets), len(e.keys))
	}
	back, err := NewEngineFromParts(e.dict, p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saved(back), want) {
		t.Error("reassembled engine saves other bytes")
	}
}
