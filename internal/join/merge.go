// Merge support for incremental (delta) index maintenance: a built
// engine can be decomposed into its frozen per-column parts, and an
// engine can be assembled from parts gathered across a base snapshot
// and a chain of deltas. Because column sets are dictionary-encoded,
// a merge carries them over by remapping their IDs, and the assembled
// engine answers every query bit-identically to a from-scratch build
// over the merged catalog.
package join

import (
	"errors"
	"fmt"
	"sort"

	"tablehound/internal/dict"
	"tablehound/internal/snap"
)

// EngineParts is the portable state of a join engine: the encoded
// column sets. Everything else (the inverted index) is a deterministic
// function of them.
type EngineParts struct {
	Keys   []string              // sorted column keys
	IDSets map[string]dict.IDSet // per-column encoded value sets
}

// Parts returns the engine's frozen column state. Keys and the ID sets
// alias the engine's own (the engine is immutable after Build, so
// sharing is safe); the map holding them is the caller's.
func (e *Engine) Parts() EngineParts {
	idsets := make(map[string]dict.IDSet, len(e.keys))
	for i, key := range e.keys {
		idsets[key] = e.idsets[i]
	}
	return EngineParts{Keys: e.keys, IDSets: idsets}
}

// NewEngineFromParts assembles an engine over p's columns, encoded in
// d (p.Keys is not read). It replays Build's freeze exactly — sorted
// key order, deterministic index construction — so an engine assembled
// from (base + delta) parts is bit-identical to one built from scratch
// over the union of their columns.
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
	for i, key := range keys {
		sets[i] = p.IDSets[key]
	}
	return assemble(d, keys, sets)
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
