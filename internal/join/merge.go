// Merge support for incremental (delta) index maintenance: a built
// engine can be decomposed into its frozen per-column parts, and an
// engine can be assembled from parts gathered across a base snapshot
// and a chain of deltas. Because column sets are dictionary-encoded
// and the extended dictionary preserves every base ID (dict.Extend),
// base ID sets are reused verbatim; signatures are re-derived through
// dict.Sign — the exact function Build uses — so the assembled engine
// answers every query bit-identically to a from-scratch build over the
// merged catalog.
package join

import (
	"errors"
	"fmt"
	"sort"

	"tablehound/internal/dict"
	"tablehound/internal/snap"
)

// EngineParts is the portable state of a join engine: the encoded
// column sets plus the sketch parameters. Everything else (inverted
// index, LSH bands, signatures) is a deterministic function of these.
type EngineParts struct {
	Keys          []string              // sorted column keys
	IDSets        map[string]dict.IDSet // per-column encoded value sets
	NumHashes     int                   // MinHash signature width
	NumPartitions int                   // LSH Ensemble partition count
}

// Parts returns the engine's frozen column state. Keys and the ID sets
// alias the engine's own (the engine is immutable after Build, so
// sharing is safe); the map holding them is the caller's.
func (e *Engine) Parts() EngineParts {
	numHashes, numPart := e.ensemble.Params()
	idsets := make(map[string]dict.IDSet, len(e.keys))
	for i, key := range e.keys {
		idsets[key] = e.idsets[i]
	}
	return EngineParts{
		Keys:          e.keys,
		IDSets:        idsets,
		NumHashes:     numHashes,
		NumPartitions: numPart,
	}
}

// NewEngineFromParts assembles an engine over columns already encoded
// in d. It replays Build's freeze exactly — sorted key order, the same
// hasher seed, dict-derived signatures, deterministic band
// construction — so an engine assembled from (base + delta) parts is
// bit-identical to one built from scratch over the union of their
// columns. parallelism bounds the ensemble's band-building workers.
func NewEngineFromParts(d *dict.Dict, idsets map[string]dict.IDSet, numHashes, numPartitions, parallelism int) (*Engine, error) {
	if len(idsets) == 0 {
		return nil, errors.New("join: no columns to assemble")
	}
	keys := make([]string, 0, len(idsets))
	for key := range idsets {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	sets := make([]dict.IDSet, len(keys))
	for i, key := range keys {
		sets[i] = idsets[key]
	}
	return assemble(d, keys, sets, numHashes, numPartitions, parallelism)
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
