// Per-table parts for incremental (delta) index maintenance: an index
// decomposes into per-table column vectors, written and read by one
// codec (a delta's Starmie section), and reassembles from parts
// gathered across a base snapshot and a delta chain. Column
// vectors are pure functions of the frozen embedding model and the
// table's own content, so reassembly plus Build — which sorts the
// global key list before constructing the HNSW graph — is
// bit-identical to a from-scratch build over the merged catalog.
package starmie

import (
	"errors"
	"fmt"
	"sort"

	"tablehound/internal/embedding"
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
// order. Works whether or not Build has run (vectors are staged by
// AddTable/AddTables). Slices alias the index's state; do not mutate.
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

// NewIndexFromParts assembles a built index from parts: every table's
// keys register in their original column order (preserving byTable
// iteration order for candidate scoring), then Build sorts the global
// key list and constructs the graph exactly as a fresh build would.
// lookup resolves table IDs against the merged catalog, binding each
// part to the table a table_id query will present (see PrepareTable).
// The caller re-binds the index onto a vector store afterwards (see
// core's buildVecStore).
func NewIndexFromParts(enc *Encoder, parts []TableParts, lookup func(id string) *table.Table) (*Index, error) {
	ix := NewIndex(enc)
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
			ix.colKeys = append(ix.colKeys, k)
		}
		ix.byTable[p.ID] = p.Keys
		ix.staged[p.ID] = tbl
	}
	if len(ix.colKeys) == 0 {
		return nil, errors.New("starmie: no columns in parts")
	}
	if err := ix.Build(); err != nil {
		return nil, err
	}
	return ix, nil
}
