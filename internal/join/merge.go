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
	"sort"

	"tablehound/internal/dict"
	"tablehound/internal/invindex"
	"tablehound/internal/josie"
	"tablehound/internal/lshensemble"
	"tablehound/internal/minhash"
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

// Parts returns the engine's frozen column state. The returned maps
// and slices alias the engine's own (the engine is immutable after
// Build, so sharing is safe); callers merging parts must copy the map
// before mutating it.
func (e *Engine) Parts() EngineParts {
	numHashes, numPart := e.ensemble.Params()
	return EngineParts{
		Keys:          e.keys,
		IDSets:        e.idsets,
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
	inv := invindex.NewBuilder()
	hasher := minhash.NewHasher(numHashes, 42)
	ens := lshensemble.New(numHashes, numPartitions)
	for _, key := range keys {
		ids := idsets[key]
		if err := inv.AddIDs(key, ids); err != nil {
			return nil, err
		}
		sig := d.Sign(hasher, ids)
		if err := ens.Add(lshensemble.Domain{Key: key, Size: len(ids), Sig: sig}); err != nil {
			return nil, err
		}
	}
	ix, err := inv.Build()
	if err != nil {
		return nil, err
	}
	if err := ens.BuildN(parallelism); err != nil {
		return nil, err
	}
	return &Engine{
		inv:      ix,
		searcher: josie.NewSearcher(ix),
		ensemble: ens,
		hasher:   hasher,
		dict:     d,
		idsets:   idsets,
		keys:     keys,
	}, nil
}
