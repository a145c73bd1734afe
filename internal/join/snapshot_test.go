package join

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"tablehound/internal/snap"
)

// TestEngineSnapshotRoundTrip reloads an engine and checks the state a
// query reads by position — keys, ID sets, set IDs, ensemble ordinals —
// lines up as it did when built.
func TestEngineSnapshotRoundTrip(t *testing.T) {
	e := randomEngine(t, 24, 1)
	var enc snap.Encoder
	e.AppendSnapshot(&enc, nil)
	back, err := DecodeEngineSnapshot(snap.NewDecoder(enc.Bytes()), nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.keys, e.keys) || !reflect.DeepEqual(back.idsets, e.idsets) {
		t.Fatal("keys or ID sets changed across the snapshot")
	}
	ctx := context.Background()
	for _, key := range e.keys {
		q := Query{IDs: e.IDSet(key)}
		q.Hashes = e.EncodeQuery(e.dict.Decode(q.IDs)).Hashes
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
// index numbers its sets in another order than the column list: the
// engine reads ID sets by set ID, so it must refuse, not answer from
// the wrong column.
func TestDecodeRejectsMisalignedIndex(t *testing.T) {
	e := randomEngine(t, 24, 1)
	other := randomEngine(t, 24, 1)
	for i, key := range other.keys { // same columns, renamed: same set count, other keys
		other.keys[i] = "x" + key
	}
	renamed, err := assemble(other.dict, other.keys, other.idsets, DefaultNumHashes, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	forged := *e
	forged.inv = renamed.inv
	var enc snap.Encoder
	forged.AppendSnapshot(&enc, nil)
	if _, err := DecodeEngineSnapshot(snap.NewDecoder(enc.Bytes()), nil, 1); !errors.Is(err, snap.ErrCorrupt) {
		t.Fatalf("err = %v, want snap.ErrCorrupt", err)
	}
}
