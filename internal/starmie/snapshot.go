package starmie

import (
	"fmt"
	"sort"

	"tablehound/internal/embedding"
	"tablehound/internal/hnsw"
	"tablehound/internal/snap"
	"tablehound/internal/vecstore"
)

// AppendSnapshot encodes a built index: the column keys in the
// graph's node order (see ColumnKeys), the per-table key grouping in
// registration order, and the HNSW graph topology (its structure
// depends on insertion order and the construction RNG, so it cannot
// be re-derived from the vectors). Column vectors are not stored
// here — row i of the snapshot's "starmie" vector-store segment is
// colKeys[i]'s vector, shared by the map and graph node i.
func (ix *Index) AppendSnapshot(e *snap.Encoder) {
	e.F64(ix.enc.contextWeight)
	e.Strs(ix.colKeys)
	// byTable key lists keep each table's original column order (the
	// order bipartite matching iterates), which colKeys cannot
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

// Section is a Starmie snapshot section as NewIndexFromParts takes it:
// the encoder's context weight, the per-table parts, whose vectors are
// rows of the snapshot's "starmie" vector segment, and the stored
// graph over those rows.
type Section struct {
	ContextWeight float64
	Parts         []TableParts
	Graph         *hnsw.Graph
}

// DecodeSection reads a section AppendSnapshot wrote over the
// snapshot's "starmie" vector segment, whose row i backs colKeys[i]
// and graph node i (a snapshot whose node keys are not colKeys, in
// order, is corrupt: nothing else ties a node to its row, and a
// swapped pair would score each node by another column's vector).
func DecodeSection(d *snap.Decoder, view vecstore.View) (Section, error) {
	sec := Section{ContextWeight: d.F64()}
	colKeys := d.Strs()
	if d.Err() != nil {
		return sec, d.Err()
	}
	if view.Len() != len(colKeys) {
		return sec, fmt.Errorf("%w: starmie has %d columns, vector segment %d rows", snap.ErrCorrupt, len(colKeys), view.Len())
	}
	rowOf := make(map[string]int, len(colKeys))
	for i, k := range colKeys {
		rowOf[k] = i
	}
	sec.Parts = make([]TableParts, d.Count(8)) // a table is at least 8 bytes
	for i := range sec.Parts {
		p := TableParts{ID: d.Str(), Keys: d.Strs()}
		p.Vecs = make([]embedding.Vector, len(p.Keys))
		for j, k := range p.Keys {
			row, ok := rowOf[k]
			if !ok {
				return sec, fmt.Errorf("%w: starmie table %q references unknown column %q", snap.ErrCorrupt, p.ID, k)
			}
			p.Vecs[j] = embedding.Vector(view.Vec(row))
		}
		sec.Parts[i] = p
	}
	if d.Err() != nil {
		return sec, d.Err()
	}
	var err error
	if sec.Graph, err = hnsw.DecodeSnapshotShared(d, func(i int, key string) embedding.Vector {
		if i >= len(colKeys) || key != colKeys[i] {
			return nil
		}
		return view.Vec(i)
	}); err != nil {
		return sec, err
	}
	if n := sec.Graph.Len(); n != len(colKeys) {
		return sec, fmt.Errorf("%w: starmie graph has %d nodes for %d rows", snap.ErrCorrupt, n, len(colKeys))
	}
	return sec, nil
}
