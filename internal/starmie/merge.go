// Per-table parts, the one form an index is assembled from: an index
// decomposes into per-table column vectors, written and read by one
// codec (a delta's Starmie section; a snapshot section stores them as
// rows of its vector segment, see DecodeSection), and reassembles from
// parts gathered across a base snapshot and a delta chain, or from a
// snapshot section's. Column vectors
// are pure functions of the frozen embedding model and the table's own
// content, so the reassembled index holds the vectors a from-scratch
// build over the merged catalog holds. Its graph is the one the merge
// hands it, grown by batches of tables in the order a build inserts
// in: the loaded base's graph grown by each delta's additions, or an
// empty one grown over every table, which is a from-scratch build.
package starmie

import (
	"errors"
	"fmt"
	"sort"

	"tablehound/internal/embedding"
	"tablehound/internal/hnsw"
	"tablehound/internal/snap"
	"tablehound/internal/table"
)

// TableParts is one table's contextualized column vectors: Keys in
// table-column order (the order SearchTables walks a candidate's
// columns in), Vecs parallel to Keys.
type TableParts struct {
	ID   string
	Keys []string
	Vecs []embedding.Vector
}

// Parts returns the index's per-table vectors, tables in sorted-ID
// order. Slices alias the index's state; do not mutate.
func (ix *Index) Parts() []TableParts {
	ids := make([]string, 0, len(ix.byTable))
	for id := range ix.byTable {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]TableParts, 0, len(ids))
	for _, id := range ids {
		keys := ix.byTable[id]
		p := TableParts{ID: id, Keys: keys, Vecs: make([]embedding.Vector, len(keys))}
		for i, k := range keys {
			p.Vecs[i] = ix.vecs[k]
		}
		out = append(out, p)
	}
	return out
}

// AppendParts writes parts as their table-ID list followed by each
// table's column keys and vectors: a delta's Starmie section.
func AppendParts(e *snap.Encoder, parts []TableParts) {
	ids := make([]string, len(parts))
	for i, p := range parts {
		ids[i] = p.ID
	}
	e.Strs(ids)
	for _, p := range parts {
		e.Strs(p.Keys)
		for _, v := range p.Vecs {
			e.F32s(v)
		}
	}
}

// DecodeParts reads what AppendParts wrote.
func DecodeParts(d *snap.Decoder) ([]TableParts, error) {
	ids := d.Strs()
	parts := make([]TableParts, len(ids))
	for i, id := range ids {
		p := TableParts{ID: id, Keys: d.Strs()}
		p.Vecs = make([]embedding.Vector, len(p.Keys))
		for j := range p.Vecs {
			p.Vecs[j] = d.F32s()
		}
		parts[i] = p
	}
	return parts, d.Err()
}

// NewIndexFromParts assembles an index from parts: the one assembly of
// a build (Builder.Build), a merge and a load (which passes its stored
// graph and no batch). Every table's keys register in
// their original column order (preserving byTable iteration order for
// candidate scoring). The graph starts from g — a fresh one when nil —
// and grows by each batch of table IDs in turn, nil batches being one
// batch of every table, inserting the columns of the batch's tables it
// lacks in sorted key order. The graph must end up holding exactly the
// parts' columns. An index over a graph grown from a loaded one keeps
// that graph's node order: its rows follow, not the sorted order. g is
// grown in place. lookup resolves table IDs against the merged
// catalog, binding each part to the table a table_id query will
// present (see PrepareTable). The caller binds the index onto a vector
// store afterwards (see Bind).
func NewIndexFromParts(enc *Encoder, parts []TableParts, g *hnsw.Graph, batches [][]string, lookup func(id string) *table.Table) (*Index, error) {
	ix := newIndex(enc)
	for _, p := range parts {
		if _, dup := ix.byTable[p.ID]; dup {
			return nil, fmt.Errorf("starmie: duplicate table %q", p.ID)
		}
		tbl := lookup(p.ID)
		if tbl == nil {
			return nil, fmt.Errorf("starmie: table %q missing from catalog", p.ID)
		}
		if len(p.Keys) != len(p.Vecs) {
			return nil, fmt.Errorf("starmie: table %q has %d keys for %d vectors", p.ID, len(p.Keys), len(p.Vecs))
		}
		for i, k := range p.Keys {
			if _, dup := ix.vecs[k]; dup {
				return nil, fmt.Errorf("starmie: duplicate column key %q", k)
			}
			ix.vecs[k] = p.Vecs[i]
		}
		ix.byTable[p.ID] = p.Keys
		ix.indexed[p.ID] = tbl
	}
	if len(ix.vecs) == 0 {
		return nil, errors.New("starmie: no columns in parts")
	}
	if g == nil {
		g = hnsw.New(GraphConfig)
	}
	if batches == nil {
		batches = [][]string{make([]string, len(parts))}
		for i, p := range parts {
			batches[0][i] = p.ID
		}
	}
	ix.graph, ix.colKeys = g, g.Keys()
	for _, ids := range batches {
		var keys []string
		for _, id := range ids {
			keys = append(keys, ix.byTable[id]...)
		}
		if err := ix.insert(keys); err != nil {
			return nil, err
		}
	}
	// Every part's column is a node: with as many nodes as columns, no
	// node is a column the parts do not hold.
	for k := range ix.vecs {
		if _, ok := g.Vector(k); !ok {
			return nil, fmt.Errorf("starmie: column %q missing from the graph", k)
		}
	}
	if len(ix.colKeys) != len(ix.vecs) {
		return nil, fmt.Errorf("starmie: graph has %d nodes for %d columns", len(ix.colKeys), len(ix.vecs))
	}
	return ix, nil
}
