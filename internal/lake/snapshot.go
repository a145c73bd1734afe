package lake

import (
	"fmt"

	"tablehound/internal/snap"
	"tablehound/internal/table"
)

// AppendSnapshot encodes the catalog in the framed snapshot format:
// tables in insertion order, each with its metadata and typed columns.
// Column types are stored rather than re-inferred so a loaded catalog
// is structurally identical to the saved one even for columns whose
// inference is ambiguous.
func (c *Catalog) AppendSnapshot(e *snap.Encoder) {
	e.U32(uint32(len(c.order)))
	for _, id := range c.order {
		t := c.tables[id]
		e.Str(t.ID)
		e.Str(t.Name)
		e.Str(t.Description)
		e.Strs(t.Tags)
		e.U32(uint32(len(t.Columns)))
		for _, col := range t.Columns {
			e.Str(col.Name)
			e.U8(uint8(col.Type))
			e.Strs(col.Values)
		}
	}
}

// DecodeSnapshot rebuilds a catalog written by AppendSnapshot.
func DecodeSnapshot(d *snap.Decoder) (*Catalog, error) {
	n := int(d.U32())
	if d.Err() != nil {
		return nil, d.Err()
	}
	c := NewCatalog()
	for i := 0; i < n; i++ {
		id := d.Str()
		name := d.Str()
		desc := d.Str()
		tags := d.Strs()
		numCols := d.Count(9) // a column is at least a name length, a type and a value count
		if d.Err() != nil {
			return nil, d.Err()
		}
		cols := make([]*table.Column, numCols)
		for j := 0; j < numCols; j++ {
			cname := d.Str()
			ctype := table.Type(d.U8())
			vals := d.Strs()
			if d.Err() != nil {
				return nil, d.Err()
			}
			cols[j] = &table.Column{Name: cname, Type: ctype, Values: vals}
		}
		t, err := table.New(id, name, cols)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", snap.ErrCorrupt, err)
		}
		t.Description = desc
		t.Tags = tags
		if err := c.Add(t); err != nil {
			return nil, fmt.Errorf("%w: %v", snap.ErrCorrupt, err)
		}
	}
	return c, nil
}
