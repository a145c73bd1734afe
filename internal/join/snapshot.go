package join

import (
	"fmt"
	"sort"

	"tablehound/internal/dict"
	"tablehound/internal/invindex"
	"tablehound/internal/josie"
	"tablehound/internal/lshensemble"
	"tablehound/internal/minhash"
	"tablehound/internal/snap"
)

// AppendSnapshot encodes the join engine against the system dictionary
// sysDict: when the engine's sets are encoded in that dictionary (the
// common case) only a flag is stored and the loaded engine shares the
// container's copy; when Build fell back to a self-built dictionary it
// is serialized inline. Each column stores both its ID set and its
// MinHash signature — the signature is derivable from the set, but
// re-signing every column dominates load time, so the bytes buy back
// startup latency. The signatures written are the ones the engine
// keeps, which it was built, loaded or merged with: no column is signed
// again to save it. The LSH Ensemble itself is not stored: its Build
// sorts domains by (size, key), so it is rebuilt bit-identically from
// the stored domains, and its band tables are built by the queries that
// probe them.
func (e *Engine) AppendSnapshot(enc *snap.Encoder, sysDict *dict.Dict) {
	shared := e.dict == sysDict
	enc.Bool(shared)
	if !shared {
		e.dict.AppendSnapshot(enc)
	}
	e.hasher.AppendSnapshot(enc)
	numHashes, numPart := e.ensemble.Params()
	enc.U32(uint32(numHashes))
	enc.U32(uint32(numPart))
	enc.Strs(e.keys)
	for i, ids := range e.idsets {
		enc.U32s(ids)
		enc.U64s(e.sigs[i])
	}
	e.inv.AppendSnapshot(enc)
}

// DecodeEngineSnapshot rebuilds an engine written by AppendSnapshot.
// sysDict is the container's loaded dictionary, substituted when the
// snapshot recorded a shared encoding. It checks what the engine
// relies on: sorted, distinct keys, a full-width signature and a
// non-empty ID set inside the dictionary per column, and an inverted
// index over exactly those columns.
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
	if e.hasher, err = minhash.DecodeSnapshot(d); err != nil {
		return nil, err
	}
	numHashes := int(d.U32())
	numPart := int(d.U32())
	e.keys = d.Strs()
	if d.Err() != nil {
		return nil, d.Err()
	}
	if numHashes != e.hasher.K() {
		return nil, fmt.Errorf("%w: ensemble width %d vs hasher width %d", snap.ErrCorrupt, numHashes, e.hasher.K())
	}
	if numPart <= 0 {
		return nil, fmt.Errorf("%w: ensemble partitions %d", snap.ErrCorrupt, numPart)
	}
	if !sort.StringsAreSorted(e.keys) {
		return nil, fmt.Errorf("%w: join engine keys not sorted", snap.ErrCorrupt)
	}
	e.idsets = make([]dict.IDSet, len(e.keys))
	e.sigs = make([]minhash.Signature, len(e.keys))
	e.ensemble = lshensemble.New(numHashes, numPart)
	for i, key := range e.keys {
		ids := dict.IDSet(d.U32s())
		sig := minhash.Signature(d.U64s())
		if d.Err() != nil {
			return nil, d.Err()
		}
		if i > 0 && e.keys[i-1] == key { // keys are sorted: duplicates are neighbours
			return nil, fmt.Errorf("%w: duplicate join column %q", snap.ErrCorrupt, key)
		}
		if len(sig) != numHashes {
			return nil, fmt.Errorf("%w: join column %q signature has %d hashes, want %d", snap.ErrCorrupt, key, len(sig), numHashes)
		}
		if len(ids) == 0 {
			return nil, fmt.Errorf("%w: join column %q has no values", snap.ErrCorrupt, key)
		}
		if err := ids.Check(e.dict.Size()); err != nil {
			return nil, fmt.Errorf("%w: join column %q: %v", snap.ErrCorrupt, key, err)
		}
		if err := e.ensemble.Add(lshensemble.Domain{Key: key, Size: len(ids), Sig: sig}); err != nil {
			return nil, fmt.Errorf("%w: %v", snap.ErrCorrupt, err)
		}
		e.idsets[i], e.sigs[i] = ids, sig
	}
	if e.inv, err = invindex.DecodeSnapshot(d, e.dict.Size()); err != nil {
		return nil, err
	}
	if e.inv.NumSets() != len(e.keys) {
		return nil, fmt.Errorf("%w: inverted index has %d sets for %d join columns", snap.ErrCorrupt, e.inv.NumSets(), len(e.keys))
	}
	// The engine finds a column's ID set by its set ID.
	for i, key := range e.keys {
		if e.inv.Key(int32(i)) != key {
			return nil, fmt.Errorf("%w: inverted index set %d is %q, join column %d is %q", snap.ErrCorrupt, i, e.inv.Key(int32(i)), i, key)
		}
	}
	if len(e.keys) > 0 {
		if err := e.ensemble.Build(); err != nil {
			return nil, fmt.Errorf("%w: %v", snap.ErrCorrupt, err)
		}
	}
	e.searcher = josie.NewSearcher(e.inv)
	return e, nil
}
