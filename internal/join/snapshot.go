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
	sec, err := decodeSection(d, sysDict)
	if err != nil {
		return nil, err
	}
	ens := lshensemble.New(sec.numHashes, sec.numPart)
	for i, key := range sec.keys {
		if err := ens.Add(lshensemble.Domain{Key: key, Size: len(sec.idsets[i]), Sig: sec.sigs[i]}); err != nil {
			return nil, fmt.Errorf("%w: %v", snap.ErrCorrupt, err)
		}
	}
	if len(sec.keys) > 0 {
		if err := ens.BuildN(parallelism); err != nil {
			return nil, fmt.Errorf("%w: %v", snap.ErrCorrupt, err)
		}
	}
	return &Engine{
		inv:      sec.inv,
		searcher: josie.NewSearcher(sec.inv),
		ensemble: ens,
		hasher:   sec.hasher,
		dict:     sec.dict,
		idsets:   sec.idsets,
		keys:     sec.keys,
	}, nil
}

// DecodeEngineParts reads what AppendSnapshot wrote, with the checks
// DecodeEngineSnapshot makes, as the parts a merge folds: the stored
// signatures come back in Sigs, and no ensemble is built. The engine
// must share sysDict, the dictionary its parts are encoded in.
func DecodeEngineParts(d *snap.Decoder, sysDict *dict.Dict) (EngineParts, error) {
	sec, err := decodeSection(d, sysDict)
	if err != nil {
		return EngineParts{}, err
	}
	if sec.dict != sysDict {
		return EngineParts{}, fmt.Errorf("%w: join engine does not share the system dictionary, so its parts cannot merge", snap.ErrCorrupt)
	}
	p := EngineParts{
		IDSets:        make(map[string]dict.IDSet, len(sec.keys)),
		Sigs:          make(map[string]minhash.Signature, len(sec.keys)),
		NumHashes:     sec.numHashes,
		NumPartitions: sec.numPart,
	}
	for i, key := range sec.keys {
		p.IDSets[key], p.Sigs[key] = sec.idsets[i], sec.sigs[i]
	}
	return p, nil
}

// section is a decoded join section, checked, before any ensemble is
// built over it.
type section struct {
	dict               *dict.Dict
	hasher             *minhash.Hasher
	numHashes, numPart int
	keys               []string
	idsets             []dict.IDSet
	sigs               []minhash.Signature
	inv                *invindex.Index
}

// decodeSection reads what AppendSnapshot wrote and checks what the
// engine relies on: sorted, distinct keys, a full-width signature and
// a non-empty ID set inside the dictionary per column, and an inverted
// index over exactly those columns.
func decodeSection(d *snap.Decoder, sysDict *dict.Dict) (section, error) {
	var sec section
	shared := d.Bool()
	if d.Err() != nil {
		return sec, d.Err()
	}
	sec.dict = sysDict
	if !shared {
		var err error
		if sec.dict, err = dict.DecodeSnapshot(d); err != nil {
			return sec, err
		}
	} else if sec.dict == nil {
		return sec, fmt.Errorf("%w: join engine shares a dictionary the snapshot does not carry", snap.ErrCorrupt)
	}
	var err error
	if sec.hasher, err = minhash.DecodeSnapshot(d); err != nil {
		return sec, err
	}
	sec.numHashes = int(d.U32())
	sec.numPart = int(d.U32())
	sec.keys = d.Strs()
	if d.Err() != nil {
		return sec, d.Err()
	}
	if sec.numHashes != sec.hasher.K() {
		return sec, fmt.Errorf("%w: ensemble width %d vs hasher width %d", snap.ErrCorrupt, sec.numHashes, sec.hasher.K())
	}
	if sec.numPart <= 0 {
		return sec, fmt.Errorf("%w: ensemble partitions %d", snap.ErrCorrupt, sec.numPart)
	}
	if !sort.StringsAreSorted(sec.keys) {
		return sec, fmt.Errorf("%w: join engine keys not sorted", snap.ErrCorrupt)
	}
	sec.idsets = make([]dict.IDSet, len(sec.keys))
	sec.sigs = make([]minhash.Signature, len(sec.keys))
	for i, key := range sec.keys {
		ids := dict.IDSet(d.U32s())
		sig := minhash.Signature(d.U64s())
		if d.Err() != nil {
			return sec, d.Err()
		}
		if i > 0 && sec.keys[i-1] == key { // keys are sorted: duplicates are neighbours
			return sec, fmt.Errorf("%w: duplicate join column %q", snap.ErrCorrupt, key)
		}
		if len(sig) != sec.numHashes {
			return sec, fmt.Errorf("%w: join column %q signature has %d hashes, want %d", snap.ErrCorrupt, key, len(sig), sec.numHashes)
		}
		if len(ids) == 0 {
			return sec, fmt.Errorf("%w: join column %q has no values", snap.ErrCorrupt, key)
		}
		if err := ids.Check(sec.dict.Size()); err != nil {
			return sec, fmt.Errorf("%w: join column %q: %v", snap.ErrCorrupt, key, err)
		}
		sec.idsets[i], sec.sigs[i] = ids, sig
	}
	if sec.inv, err = invindex.DecodeSnapshot(d, sec.dict.Size()); err != nil {
		return sec, err
	}
	if sec.inv.NumSets() != len(sec.keys) {
		return sec, fmt.Errorf("%w: inverted index has %d sets for %d join columns", snap.ErrCorrupt, sec.inv.NumSets(), len(sec.keys))
	}
	// The engine finds a column's ID set by its set ID.
	for i, key := range sec.keys {
		if sec.inv.Key(int32(i)) != key {
			return sec, fmt.Errorf("%w: inverted index set %d is %q, join column %d is %q", snap.ErrCorrupt, i, sec.inv.Key(int32(i)), i, key)
		}
	}
	return sec, nil
}
