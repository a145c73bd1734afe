package join

import (
	"fmt"
	"sort"

	"tablehound/internal/dict"
	"tablehound/internal/invindex"
	"tablehound/internal/josie"
	"tablehound/internal/snap"
)

// AppendSnapshot encodes the join engine against the system dictionary
// sysDict: when the engine's sets are encoded in that dictionary (the
// common case) only a flag is stored and the loaded engine shares the
// container's copy; when Build fell back to a self-built dictionary it
// is serialized inline. Then come the sorted column keys, each
// column's ID set, and the inverted index over them, which every
// overlap and containment search reads; the index shares the keys,
// which are written once.
func (e *Engine) AppendSnapshot(enc *snap.Encoder, sysDict *dict.Dict) {
	shared := e.dict == sysDict
	enc.Bool(shared)
	if !shared {
		e.dict.AppendSnapshot(enc)
	}
	enc.Strs(e.keys)
	for _, ids := range e.idsets {
		enc.U32s(ids)
	}
	e.inv.AppendSnapshot(enc)
}

// DecodeEngineSnapshot rebuilds an engine written by AppendSnapshot.
// sysDict is the container's loaded dictionary, substituted when the
// snapshot recorded a shared encoding. It checks what the engine
// relies on: sorted, distinct keys, a non-empty ID set inside the
// dictionary per column, and an inverted index with one set per
// column, holding that column's values, which shares the engine's
// keys.
func DecodeEngineSnapshot(d *snap.Decoder, sysDict *dict.Dict) (*Engine, error) {
	e := &Engine{dict: sysDict}
	shared := d.Bool()
	if d.Err() != nil {
		return nil, d.Err()
	}
	var err error
	if !shared {
		if e.dict, err = dict.DecodeSnapshot(d); err != nil {
			return nil, err
		}
	} else if e.dict == nil {
		return nil, fmt.Errorf("%w: join engine shares a dictionary the snapshot does not carry", snap.ErrCorrupt)
	}
	e.keys = d.Strs()
	if d.Err() != nil {
		return nil, d.Err()
	}
	if !sort.StringsAreSorted(e.keys) {
		return nil, fmt.Errorf("%w: join engine keys not sorted", snap.ErrCorrupt)
	}
	e.idsets = make([]dict.IDSet, len(e.keys))
	for i, key := range e.keys {
		ids := dict.IDSet(d.U32s())
		if d.Err() != nil {
			return nil, d.Err()
		}
		if i > 0 && e.keys[i-1] == key { // keys are sorted: duplicates are neighbours
			return nil, fmt.Errorf("%w: duplicate join column %q", snap.ErrCorrupt, key)
		}
		if len(ids) == 0 {
			return nil, fmt.Errorf("%w: join column %q has no values", snap.ErrCorrupt, key)
		}
		if err := ids.Check(e.dict.Size()); err != nil {
			return nil, fmt.Errorf("%w: join column %q: %v", snap.ErrCorrupt, key, err)
		}
		e.idsets[i] = ids
	}
	// The engine finds a column's ID set by its set ID, the column's
	// position in keys.
	if e.inv, err = invindex.DecodeSnapshot(d, e.dict.Size(), e.keys); err != nil {
		return nil, err
	}
	// Overlap searches read the index, the rest the ID sets: each
	// column's index set must hold exactly its values. A set's ranks
	// must ascend (so they are distinct), each be the rank of one of
	// the column's IDs (marked with the column's ordinal), and number
	// as many as its IDs.
	mark := make([]int32, e.inv.NumTokens())
	for i, ids := range e.idsets {
		for _, id := range ids {
			if r := e.inv.RankOfID(id); r >= 0 {
				mark[r] = int32(i + 1)
			}
		}
		set := e.inv.Set(int32(i))
		ok := len(set) == len(ids)
		for j, r := range set {
			ok = ok && mark[r] == int32(i+1) && (j == 0 || set[j-1] < r)
		}
		if !ok {
			return nil, fmt.Errorf("%w: join column %q: its inverted-index set does not hold its values", snap.ErrCorrupt, e.keys[i])
		}
	}
	e.searcher = josie.NewSearcher(e.inv)
	return e, nil
}
