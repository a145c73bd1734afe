// Merge support for incremental (delta) index maintenance: each union
// engine can be decomposed into portable per-table parts and
// reassembled from parts gathered across a base snapshot and a delta
// chain. The reassembly paths replay each engine's own Build freeze —
// same sorted orders, same index parameters, same encodings — so a
// merged engine answers every query bit-identically to a from-scratch
// build over the merged catalog.
package union

import (
	"errors"
	"fmt"

	"tablehound/internal/dict"
	"tablehound/internal/embedding"
	"tablehound/internal/kb"
	"tablehound/internal/minhash"
	"tablehound/internal/table"
)

// --- TUS ---

// TUSColumnParts is one analyzed TUS column: the encoded value set,
// its MinHash signature, embedding, and KB annotation. IDs are encoded
// in the dictionary the parts travel with (for a delta, the extended
// base dictionary — base IDs stay valid verbatim).
type TUSColumnParts struct {
	Name     string
	IDs      dict.IDSet
	Sig      minhash.Signature
	Vec      embedding.Vector
	SemType  string
	SemCover float64
}

// TUSTableParts is one table's analyzed columns.
type TUSTableParts struct {
	ID   string
	Cols []TUSColumnParts
}

// Parts returns the engine's per-table column analyses in indexed-ID
// order. The engine must be built (column sets are only encoded by
// Build). Slices alias the engine's frozen state; do not mutate.
func (t *TUS) Parts() ([]TUSTableParts, error) {
	if !t.built {
		return nil, ErrNotBuilt
	}
	out := make([]TUSTableParts, 0, len(t.ids))
	for _, id := range t.ids {
		p := TUSTableParts{ID: id}
		for _, c := range t.tables[id].cols {
			p.Cols = append(p.Cols, TUSColumnParts{
				Name: c.name, IDs: c.ids, Sig: c.sig, Vec: c.vec,
				SemType: c.semType, SemCover: c.semCover,
			})
		}
		out = append(out, p)
	}
	return out, nil
}

// NewTUSFromParts assembles a built TUS engine from parts whose column
// sets are all encoded in cfg.Dict (required). The value universe is
// recovered by decoding every column set, then Build freezes the
// candidate indexes exactly as a from-scratch build would (sorted
// table-ID insertion order, same LSH/HNSW parameters). lookup resolves
// table IDs against the merged catalog.
func NewTUSFromParts(cfg TUSConfig, parts []TUSTableParts, lookup func(id string) *table.Table) (*TUS, error) {
	if cfg.Dict == nil {
		return nil, errors.New("union: TUS parts require the dictionary they are encoded in")
	}
	t, err := NewTUS(cfg)
	if err != nil {
		return nil, err
	}
	t.dict = cfg.Dict
	for _, p := range parts {
		tbl := lookup(p.ID)
		if tbl == nil {
			return nil, fmt.Errorf("union: TUS table %q missing from catalog", p.ID)
		}
		if _, dup := t.tables[p.ID]; dup {
			return nil, fmt.Errorf("union: duplicate TUS table %q", p.ID)
		}
		entry := &tusTable{tbl: tbl}
		for _, c := range p.Cols {
			for _, id := range c.IDs {
				if int(id) >= cfg.Dict.Size() {
					return nil, fmt.Errorf("union: TUS column %s.%s references ID %d beyond dictionary size %d", p.ID, c.Name, id, cfg.Dict.Size())
				}
			}
			entry.cols = append(entry.cols, &tusColumn{
				name: c.Name, ids: c.IDs, sig: c.Sig, vec: c.Vec, norm: c.Vec.Norm(),
				semType: c.SemType, semCover: c.SemCover,
			})
			for _, v := range cfg.Dict.Decode(c.IDs) {
				t.univ[v] = true
			}
		}
		if len(entry.cols) == 0 {
			continue
		}
		t.tables[p.ID] = entry
		t.ids = append(t.ids, p.ID)
	}
	if len(t.tables) == 0 {
		return nil, errors.New("union: no tables in TUS parts")
	}
	// Build sorts the IDs and freezes setLSH/nlIndex/lfact; the columns
	// are already encoded in t.dict, so encodeColumns keeps them as-is.
	if err := t.Build(); err != nil {
		return nil, err
	}
	return t, nil
}

// --- SANTOS ---

// SantosRelParts is one relationship: the raw "subject||object" pair
// tokens (dictionary-independent — SANTOS re-interns its pair
// vocabulary on every Build) and the curated-KB annotation.
type SantosRelParts struct {
	ColName  string
	Pairs    []string
	Pred     string
	PredFrac float64
}

// SantosTableParts is one table's relationships.
type SantosTableParts struct {
	ID   string
	Rels []SantosRelParts
}

// Parts returns the engine's per-table relationships with pair tokens
// in raw string form, decoding through the pair dictionary when the
// engine is built (pair sets come back sorted; SANTOS scoring is
// order-independent). Works on both built engines (a loaded base) and
// staged-only engines (a delta scratch build).
func (s *Santos) Parts() []SantosTableParts {
	ids := append([]string(nil), s.ids...)
	out := make([]SantosTableParts, 0, len(ids))
	for _, id := range ids {
		p := SantosTableParts{ID: id}
		for _, rel := range s.tables[id].rels {
			pairs := rel.pairs
			if pairs == nil && rel.pairIDs != nil {
				pairs = s.pairDict.Decode(rel.pairIDs)
			}
			p.Rels = append(p.Rels, SantosRelParts{
				ColName: rel.colName, Pairs: pairs,
				Pred: rel.pred, PredFrac: rel.predFrac,
			})
		}
		out = append(out, p)
	}
	return out
}

// NewSantosFromParts assembles a built SANTOS engine from parts.
// Build re-interns the pair vocabulary into a fresh lexicographic
// dictionary over the union of all pairs — the very thing a
// from-scratch build does — so the merged engine is bit-identical to
// one built over the merged catalog. lookup resolves table IDs.
func NewSantosFromParts(curated *kb.KB, parts []SantosTableParts, lookup func(id string) *table.Table) (*Santos, error) {
	s := NewSantos(curated)
	for _, p := range parts {
		tbl := lookup(p.ID)
		if tbl == nil {
			return nil, fmt.Errorf("union: SANTOS table %q missing from catalog", p.ID)
		}
		if _, dup := s.tables[p.ID]; dup {
			return nil, fmt.Errorf("union: duplicate SANTOS table %q", p.ID)
		}
		st := &santosTable{tbl: tbl}
		for _, r := range p.Rels {
			st.rels = append(st.rels, santosRel{
				colName: r.ColName, pairs: r.Pairs,
				pred: r.Pred, predFrac: r.PredFrac,
			})
		}
		s.tables[p.ID] = st
		s.ids = append(s.ids, p.ID)
	}
	if len(s.tables) == 0 {
		// An empty SANTOS engine is legal (Build is only called when
		// tables exist — mirrors core.Build's stageSantos).
		return s, nil
	}
	if err := s.Build(); err != nil {
		return nil, err
	}
	return s, nil
}

// --- D3L ---

// D3LColumnParts is one analyzed D3L column. ColIdx locates the source
// column within its table so reassembly can read the label the name
// evidence compares. Words is strictly ascending and WordFreq parallel
// to it.
type D3LColumnParts struct {
	ColIdx   int
	Distinct []string
	Format   []float64
	Words    []string
	WordFreq []float64
	Vec      embedding.Vector
}

// D3LTableParts is one table's analyzed columns.
type D3LTableParts struct {
	ID   string
	Cols []D3LColumnParts
}

// Parts returns the engine's per-table column analyses in indexed
// order. Slices alias the engine's state; do not mutate.
func (d *D3L) Parts() []D3LTableParts {
	out := make([]D3LTableParts, 0, len(d.ids))
	for _, id := range d.ids {
		p := D3LTableParts{ID: id}
		for _, c := range d.tables[id].cols {
			p.Cols = append(p.Cols, D3LColumnParts{
				ColIdx: c.colIdx, Distinct: c.distinct, Format: c.format,
				Words: c.words, WordFreq: c.wordFreq, Vec: c.vec,
			})
		}
		out = append(out, p)
	}
	return out
}

// NewD3LFromParts assembles a built D3L engine from parts. Build
// re-interns the columns into a vocabulary over the merged lake — the
// very thing a from-scratch build does. lake is the merged lake's
// dictionary (see NewD3L); lookup resolves table IDs.
func NewD3LFromParts(model *embedding.Model, lake *dict.Dict, parts []D3LTableParts, lookup func(id string) *table.Table) (*D3L, error) {
	d3, err := NewD3L(model, lake)
	if err != nil {
		return nil, err
	}
	for _, p := range parts {
		tbl := lookup(p.ID)
		if tbl == nil {
			return nil, fmt.Errorf("union: D3L table %q missing from catalog", p.ID)
		}
		if _, dup := d3.tables[p.ID]; dup {
			return nil, fmt.Errorf("union: duplicate D3L table %q", p.ID)
		}
		entry := &d3lTable{tbl: tbl}
		for _, c := range p.Cols {
			if c.ColIdx < 0 || c.ColIdx >= len(tbl.Columns) {
				return nil, fmt.Errorf("union: D3L column index %d out of range for table %q", c.ColIdx, p.ID)
			}
			if err := checkWords(c.Words, c.WordFreq); err != nil {
				return nil, fmt.Errorf("union: D3L column %d of table %q: %v", c.ColIdx, p.ID, err)
			}
			entry.cols = append(entry.cols, newD3LColumn(tbl.Columns[c.ColIdx], c.ColIdx, c.Distinct, c.Format, c.Words, c.WordFreq, c.Vec))
		}
		if len(entry.cols) == 0 {
			continue
		}
		d3.tables[p.ID] = entry
		d3.ids = append(d3.ids, p.ID)
	}
	d3.Build()
	return d3, nil
}
