package starmie

import (
	"fmt"
	"sort"

	"tablehound/internal/embedding"
	"tablehound/internal/hnsw"
	"tablehound/internal/snap"
	"tablehound/internal/table"
	"tablehound/internal/vecstore"
)

// AppendSnapshot encodes a built index: the column keys in their
// sorted (post-Build) order, the per-table key grouping in
// registration order, and the HNSW graph topology (its structure
// depends on insertion order and the construction RNG, so it cannot
// be re-derived from the vectors). Column vectors are not stored
// here — row i of the snapshot's "starmie" vector-store segment is
// colKeys[i]'s vector, shared by the map, the graph, and any
// centroid table.
func (ix *Index) AppendSnapshot(e *snap.Encoder) {
	e.F64(ix.enc.contextWeight)
	e.Strs(ix.colKeys)
	// byTable key lists keep each table's original column order (the
	// order bipartite matching iterates), which sorted colKeys cannot
	// reproduce — store them verbatim, tables in sorted ID order.
	ids := make([]string, 0, len(ix.byTable))
	for id := range ix.byTable {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	e.U32(uint32(len(ids)))
	for _, id := range ids {
		e.Str(id)
		e.Strs(ix.byTable[id])
	}
	ix.graph.AppendSnapshotShared(e)
}

// DecodeSnapshot rebuilds an index written by AppendSnapshot over the
// loaded embedding model and the snapshot's "starmie" vector segment,
// whose row i backs colKeys[i]. The loaded index comes back bound
// (norm-precomputed scoring, centroid-pruned exact search if the
// segment carries a centroid table) with nprobe 0; the caller applies
// its runtime nprobe via SetNProbe. lookup resolves table IDs against
// the loaded catalog, binding each indexed table to the table a
// table_id query will present (see PrepareTable).
func DecodeSnapshot(d *snap.Decoder, model *embedding.Model, view vecstore.View, lookup func(id string) *table.Table) (*Index, error) {
	contextWeight := d.F64()
	colKeys := d.Strs()
	if d.Err() != nil {
		return nil, d.Err()
	}
	if view.Len() != len(colKeys) {
		return nil, fmt.Errorf("%w: starmie has %d columns, vector segment %d rows", snap.ErrCorrupt, len(colKeys), view.Len())
	}
	ix := NewIndex(NewEncoder(model, contextWeight))
	ix.colKeys = colKeys
	ix.rowOf = make(map[string]int, len(colKeys))
	for i, k := range colKeys {
		if _, dup := ix.vecs[k]; dup {
			return nil, fmt.Errorf("%w: duplicate starmie column %q", snap.ErrCorrupt, k)
		}
		ix.vecs[k] = embedding.Vector(view.Vec(i))
		ix.rowOf[k] = i
	}
	numTables := int(d.U32())
	if d.Err() != nil {
		return nil, d.Err()
	}
	for i := 0; i < numTables; i++ {
		id := d.Str()
		keys := d.Strs()
		if d.Err() != nil {
			return nil, d.Err()
		}
		if _, dup := ix.byTable[id]; dup {
			return nil, fmt.Errorf("%w: duplicate starmie table %q", snap.ErrCorrupt, id)
		}
		tbl := lookup(id)
		if tbl == nil {
			return nil, fmt.Errorf("%w: starmie table %q missing from catalog", snap.ErrCorrupt, id)
		}
		for _, k := range keys {
			if _, ok := ix.vecs[k]; !ok {
				return nil, fmt.Errorf("%w: starmie table %q references unknown column %q", snap.ErrCorrupt, id, k)
			}
		}
		ix.byTable[id] = keys
		ix.staged[id] = tbl
	}
	var err error
	if ix.graph, err = hnsw.DecodeSnapshotShared(d, view.Vec, view.Len()); err != nil {
		return nil, err
	}
	ix.view, ix.hasView = view, true
	ix.built = true
	return ix, nil
}
