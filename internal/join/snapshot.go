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
// startup latency. The LSH Ensemble itself is not stored: its Build
// sorts domains by (size, key), so it is rebuilt bit-identically from
// the stored domains.
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
	for _, ids := range e.idsets {
		enc.U32s(ids)
		enc.U64s(e.dict.Sign(e.hasher, ids))
	}
	e.inv.AppendSnapshot(enc)
}

// DecodeEngineSnapshot rebuilds an engine written by AppendSnapshot.
// sysDict is the container's loaded dictionary, substituted when the
// snapshot recorded a shared encoding. parallelism bounds the workers
// used to rebuild the ensemble's banded indexes.
func DecodeEngineSnapshot(d *snap.Decoder, sysDict *dict.Dict, parallelism int) (*Engine, error) {
	shared := d.Bool()
	if d.Err() != nil {
		return nil, d.Err()
	}
	dc := sysDict
	if !shared {
		var err error
		if dc, err = dict.DecodeSnapshot(d); err != nil {
			return nil, err
		}
	} else if dc == nil {
		return nil, fmt.Errorf("%w: join engine shares a dictionary the snapshot does not carry", snap.ErrCorrupt)
	}
	hasher, err := minhash.DecodeSnapshot(d)
	if err != nil {
		return nil, err
	}
	numHashes := int(d.U32())
	numPart := int(d.U32())
	keys := d.Strs()
	if d.Err() != nil {
		return nil, d.Err()
	}
	if numHashes != hasher.K() {
		return nil, fmt.Errorf("%w: ensemble width %d vs hasher width %d", snap.ErrCorrupt, numHashes, hasher.K())
	}
	if numPart <= 0 {
		return nil, fmt.Errorf("%w: ensemble partitions %d", snap.ErrCorrupt, numPart)
	}
	if !sort.StringsAreSorted(keys) {
		return nil, fmt.Errorf("%w: join engine keys not sorted", snap.ErrCorrupt)
	}
	idsets := make([]dict.IDSet, len(keys))
	ens := lshensemble.New(numHashes, numPart)
	for i, key := range keys {
		ids := dict.IDSet(d.U32s())
		sig := minhash.Signature(d.U64s())
		if d.Err() != nil {
			return nil, d.Err()
		}
		if i > 0 && keys[i-1] == key { // keys are sorted: duplicates are neighbours
			return nil, fmt.Errorf("%w: duplicate join column %q", snap.ErrCorrupt, key)
		}
		if len(sig) != numHashes {
			return nil, fmt.Errorf("%w: join column %q signature has %d hashes, want %d", snap.ErrCorrupt, key, len(sig), numHashes)
		}
		if err := ids.Check(dc.Size()); err != nil {
			return nil, fmt.Errorf("%w: join column %q: %v", snap.ErrCorrupt, key, err)
		}
		idsets[i] = ids
		if err := ens.Add(lshensemble.Domain{Key: key, Size: len(ids), Sig: sig}); err != nil {
			return nil, fmt.Errorf("%w: %v", snap.ErrCorrupt, err)
		}
	}
	if len(keys) > 0 {
		if err := ens.BuildN(parallelism); err != nil {
			return nil, fmt.Errorf("%w: %v", snap.ErrCorrupt, err)
		}
	}
	ix, err := invindex.DecodeSnapshot(d, dc.Size())
	if err != nil {
		return nil, err
	}
	if ix.NumSets() != len(keys) {
		return nil, fmt.Errorf("%w: inverted index has %d sets for %d join columns", snap.ErrCorrupt, ix.NumSets(), len(keys))
	}
	// The engine finds a column's ID set by its set ID.
	for i, key := range keys {
		if ix.Key(int32(i)) != key {
			return nil, fmt.Errorf("%w: inverted index set %d is %q, join column %d is %q", snap.ErrCorrupt, i, ix.Key(int32(i)), i, key)
		}
	}
	return &Engine{
		inv:      ix,
		searcher: josie.NewSearcher(ix),
		ensemble: ens,
		hasher:   hasher,
		dict:     dc,
		idsets:   idsets,
		keys:     keys,
	}, nil
}
