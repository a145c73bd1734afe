// Merge support for incremental (delta) index maintenance: a built
// engine can be decomposed into its frozen per-column parts, and an
// engine can be assembled from parts gathered across a base snapshot
// and a chain of deltas. Because column sets are dictionary-encoded,
// a merge carries them over by remapping their IDs; a signature is a
// function of a column's values alone, so a base column's stored
// signature carries over too, and only the columns without one are
// signed, through dict.Sign — the exact function Build uses. The
// assembled engine answers every query bit-identically to a
// from-scratch build over the merged catalog.
package join

import (
	"errors"
	"fmt"
	"sort"

	"tablehound/internal/dict"
	"tablehound/internal/minhash"
	"tablehound/internal/snap"
)

// EngineParts is the portable state of a join engine: the encoded
// column sets plus the sketch parameters. Everything else (inverted
// index, LSH bands, signatures) is a deterministic function of these.
type EngineParts struct {
	Keys   []string              // sorted column keys
	IDSets map[string]dict.IDSet // per-column encoded value sets
	// Sigs holds the MinHash signatures known for some columns, by key
	// (an engine keeps one per column); assembly signs every column
	// without one.
	Sigs          map[string]minhash.Signature
	NumHashes     int // MinHash signature width
	NumPartitions int // LSH Ensemble partition count
}

// Parts returns the engine's frozen column state, signatures
// included. Keys, the ID sets and the signatures alias the engine's own
// (the engine is immutable after Build, so sharing is safe); the maps
// holding them are the caller's.
func (e *Engine) Parts() EngineParts {
	numHashes, numPart := e.ensemble.Params()
	idsets := make(map[string]dict.IDSet, len(e.keys))
	sigs := make(map[string]minhash.Signature, len(e.keys))
	for i, key := range e.keys {
		idsets[key], sigs[key] = e.idsets[i], e.sigs[i]
	}
	return EngineParts{
		Keys:          e.keys,
		IDSets:        idsets,
		Sigs:          sigs,
		NumHashes:     numHashes,
		NumPartitions: numPart,
	}
}

// NewEngineFromParts assembles an engine over p's columns, encoded in
// d (p.Keys is not read). It replays Build's freeze exactly — sorted
// key order, the same hasher seed, dict-derived signatures for the
// columns p.Sigs lacks, deterministic band construction — so an engine
// assembled from (base + delta) parts is bit-identical to one built
// from scratch over the union of their columns, provided every
// signature in p.Sigs is its column's.
func NewEngineFromParts(d *dict.Dict, p EngineParts) (*Engine, error) {
	if len(p.IDSets) == 0 {
		return nil, errors.New("join: no columns to assemble")
	}
	keys := make([]string, 0, len(p.IDSets))
	for key := range p.IDSets {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	sets := make([]dict.IDSet, len(keys))
	sigs := make([]minhash.Signature, len(keys))
	for i, key := range keys {
		sets[i], sigs[i] = p.IDSets[key], p.Sigs[key]
	}
	return assemble(d, keys, sets, sigs, p.NumHashes, p.NumPartitions)
}

// AppendParts writes a set of encoded columns (EngineParts.IDSets) as
// the sorted key list followed by each key's ID set: a delta's join
// section.
func AppendParts(e *snap.Encoder, idsets map[string]dict.IDSet) {
	keys := make([]string, 0, len(idsets))
	for key := range idsets {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	e.Strs(keys)
	for _, key := range keys {
		e.U32s(idsets[key])
	}
}

// DecodeParts reads what AppendParts wrote.
func DecodeParts(d *snap.Decoder) (map[string]dict.IDSet, error) {
	keys := d.Strs()
	idsets := make(map[string]dict.IDSet, len(keys))
	for _, key := range keys {
		if _, dup := idsets[key]; dup {
			return nil, fmt.Errorf("%w: duplicate join column %q", snap.ErrCorrupt, key)
		}
		idsets[key] = d.U32s()
	}
	return idsets, d.Err()
}
