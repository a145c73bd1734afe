// Per-table parts for incremental (delta) index maintenance: each
// union engine decomposes into portable per-table parts, written and
// read by one codec per engine (a delta's section, and the table
// blocks of the TUS and D3L snapshot sections), and reassembles from
// parts gathered across a base snapshot and a delta chain. The
// reassembly paths replay each engine's own Build freeze — same sorted
// orders, same index parameters, same encodings — so a merged engine
// answers every query bit-identically to a from-scratch build over the
// merged catalog.
package union

import (
	"errors"
	"fmt"

	"tablehound/internal/dict"
	"tablehound/internal/embedding"
	"tablehound/internal/hnsw"
	"tablehound/internal/kb"
	"tablehound/internal/minhash"
	"tablehound/internal/snap"
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

// Parts returns the engine's per-table column analyses in sorted-ID
// order. On a staged engine it first encodes the staged columns as
// Build does (without freezing the candidate indexes), so the parts
// equal the built engine's; like Build it must then not run
// concurrently with AddTable or Search. Slices alias the engine's
// state; do not mutate.
func (t *TUS) Parts() []TUSTableParts {
	if !t.built {
		t.encodeColumns()
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
	return out
}

// AppendTUSParts writes parts as their table-ID list followed by each
// table's column block: the table blocks of the TUS snapshot section
// and the whole of a delta's TUS section.
func AppendTUSParts(e *snap.Encoder, parts []TUSTableParts) {
	ids := make([]string, len(parts))
	for i, p := range parts {
		ids[i] = p.ID
	}
	e.Strs(ids)
	for _, p := range parts {
		e.U32(uint32(len(p.Cols)))
		for _, c := range p.Cols {
			e.Str(c.Name)
			e.U32s(c.IDs)
			e.U64s(c.Sig)
			e.F32s(c.Vec)
			e.Str(c.SemType)
			e.F64(c.SemCover)
		}
	}
}

// DecodeTUSParts reads what AppendTUSParts wrote.
func DecodeTUSParts(d *snap.Decoder) ([]TUSTableParts, error) {
	ids := d.Strs()
	parts := make([]TUSTableParts, len(ids))
	for i, id := range ids {
		cols := make([]TUSColumnParts, d.Count(28)) // a column is at least 28 bytes
		for j := range cols {
			cols[j] = TUSColumnParts{Name: d.Str(), IDs: d.U32s(), Sig: d.U64s(), Vec: d.F32s(), SemType: d.Str(), SemCover: d.F64()}
		}
		parts[i] = TUSTableParts{ID: id, Cols: cols}
	}
	return parts, d.Err()
}

// adopt installs parts as the engine's tables: the one adoption path
// of NewTUSFromParts and of a snapshot decode. Every column set must
// pass dict.IDSet.Check against t.dict — an ID beyond it or out of
// order would silently mis-score the set measure. A table without
// columns is skipped, as AddTable skips it; lookup resolves table IDs
// against the catalog.
func (t *TUS) adopt(parts []TUSTableParts, lookup func(id string) *table.Table) error {
	size := t.dict.Size()
	t.ids = make([]string, 0, len(parts))
	for _, p := range parts {
		tbl := lookup(p.ID)
		if tbl == nil {
			return fmt.Errorf("union: TUS table %q missing from catalog", p.ID)
		}
		if _, dup := t.tables[p.ID]; dup {
			return fmt.Errorf("union: duplicate TUS table %q", p.ID)
		}
		if len(p.Cols) == 0 {
			continue
		}
		entry := &tusTable{tbl: tbl, cols: make([]*tusColumn, len(p.Cols))}
		for i, c := range p.Cols {
			if err := c.IDs.Check(size); err != nil {
				return fmt.Errorf("union: TUS column %s.%s: %v", p.ID, c.Name, err)
			}
			entry.cols[i] = &tusColumn{
				name: c.Name, ids: c.IDs, sig: c.Sig, vec: c.Vec, norm: c.Vec.Norm(),
				semType: c.SemType, semCover: c.SemCover,
			}
		}
		t.tables[p.ID] = entry
		t.ids = append(t.ids, p.ID)
	}
	return nil
}

// NewTUSFromParts assembles a built TUS engine from parts whose column
// sets are all encoded in cfg.Dict (required). The value universe is
// recovered by decoding every column set, and the set-LSH freezes
// exactly as a from-scratch build's does (sorted table-ID order, same
// parameters). The NL graph starts from g — a fresh one when nil — and
// grows by each batch of sorted table IDs in turn, in the order Build
// inserts in; g is grown in place. lookup resolves table IDs against
// the merged catalog.
func NewTUSFromParts(cfg TUSConfig, parts []TUSTableParts, g *hnsw.Graph, batches [][]string, lookup func(id string) *table.Table) (*TUS, error) {
	if cfg.Dict == nil {
		return nil, errors.New("union: TUS parts require the dictionary they are encoded in")
	}
	t, err := NewTUS(cfg)
	if err != nil {
		return nil, err
	}
	t.dict = cfg.Dict
	if err := t.adopt(parts, lookup); err != nil {
		return nil, err
	}
	if len(t.tables) == 0 {
		return nil, errors.New("union: no tables in TUS parts")
	}
	for _, p := range parts {
		for _, c := range p.Cols {
			for _, id := range c.IDs {
				t.univ[t.dict.Value(id)] = true
			}
		}
	}
	// The columns are already encoded in t.dict, so build's
	// encodeColumns keeps them as they are.
	if err := t.build(g, batches); err != nil {
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

// AppendSantosParts writes parts as their table-ID list followed by
// each table's relationship block: a delta's SANTOS section.
func AppendSantosParts(e *snap.Encoder, parts []SantosTableParts) {
	ids := make([]string, len(parts))
	for i, p := range parts {
		ids[i] = p.ID
	}
	e.Strs(ids)
	for _, p := range parts {
		e.U32(uint32(len(p.Rels)))
		for _, r := range p.Rels {
			e.Str(r.ColName)
			e.Strs(r.Pairs)
			e.Str(r.Pred)
			e.F64(r.PredFrac)
		}
	}
}

// DecodeSantosParts reads what AppendSantosParts wrote.
func DecodeSantosParts(d *snap.Decoder) ([]SantosTableParts, error) {
	ids := d.Strs()
	parts := make([]SantosTableParts, len(ids))
	for i, id := range ids {
		rels := make([]SantosRelParts, d.Count(20)) // a relationship is at least 20 bytes
		for j := range rels {
			rels[j] = SantosRelParts{ColName: d.Str(), Pairs: d.Strs(), Pred: d.Str(), PredFrac: d.F64()}
		}
		parts[i] = SantosTableParts{ID: id, Rels: rels}
	}
	return parts, d.Err()
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

// AppendD3LParts writes parts as their table-ID list followed by each
// table's column block, every word next to its frequency: the whole of
// both the D3L snapshot section and a delta's D3L section. The
// interned ID arrays are not parts; NewD3LFromParts re-derives them.
func AppendD3LParts(e *snap.Encoder, parts []D3LTableParts) {
	ids := make([]string, len(parts))
	for i, p := range parts {
		ids[i] = p.ID
	}
	e.Strs(ids)
	for _, p := range parts {
		e.U32(uint32(len(p.Cols)))
		for _, c := range p.Cols {
			e.U32(uint32(c.ColIdx))
			e.Strs(c.Distinct)
			e.F64s(c.Format)
			e.U32(uint32(len(c.Words)))
			for i, w := range c.Words {
				e.Str(w)
				e.F64(c.WordFreq[i])
			}
			e.F32s(c.Vec)
		}
	}
}

// DecodeD3LParts reads what AppendD3LParts wrote.
func DecodeD3LParts(d *snap.Decoder) ([]D3LTableParts, error) {
	ids := d.Strs()
	parts := make([]D3LTableParts, len(ids))
	for i, id := range ids {
		cols := make([]D3LColumnParts, d.Count(20)) // a column is at least 20 bytes
		for j := range cols {
			c := D3LColumnParts{ColIdx: int(int32(d.U32())), Distinct: d.Strs(), Format: d.F64s()}
			n := d.Count(12) // a word is at least a length and a frequency
			c.Words, c.WordFreq = make([]string, n), make([]float64, n)
			for k := range c.Words {
				c.Words[k], c.WordFreq[k] = d.Str(), d.F64()
			}
			c.Vec = d.F32s()
			cols[j] = c
		}
		parts[i] = D3LTableParts{ID: id, Cols: cols}
	}
	return parts, d.Err()
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
	if err := d3.adopt(parts, lookup); err != nil {
		return nil, err
	}
	d3.Build()
	return d3, nil
}

// CheckD3LParts makes NewD3LFromParts' checks of parts without building
// an engine.
func CheckD3LParts(parts []D3LTableParts, lookup func(id string) *table.Table) error {
	return (&D3L{tables: make(map[string]*d3lTable)}).adopt(parts, lookup)
}

// adopt stages parts, each table resolved through lookup and checked.
func (d3 *D3L) adopt(parts []D3LTableParts, lookup func(id string) *table.Table) error {
	d3.ids = make([]string, 0, len(parts))
	for _, p := range parts {
		tbl := lookup(p.ID)
		if tbl == nil {
			return fmt.Errorf("union: D3L table %q missing from catalog", p.ID)
		}
		if _, dup := d3.tables[p.ID]; dup {
			return fmt.Errorf("union: duplicate D3L table %q", p.ID)
		}
		entry := &d3lTable{tbl: tbl}
		for _, c := range p.Cols {
			if c.ColIdx < 0 || c.ColIdx >= len(tbl.Columns) {
				return fmt.Errorf("union: D3L column index %d out of range for table %q", c.ColIdx, p.ID)
			}
			if err := checkWords(c.Words, c.WordFreq); err != nil {
				return fmt.Errorf("union: D3L column %d of table %q: %v", c.ColIdx, p.ID, err)
			}
			entry.cols = append(entry.cols, newD3LColumn(tbl.Columns[c.ColIdx], c.ColIdx, c.Distinct, c.Format, c.Words, c.WordFreq, c.Vec))
		}
		if len(entry.cols) == 0 {
			continue
		}
		d3.tables[p.ID] = entry
		d3.ids = append(d3.ids, p.ID)
	}
	return nil
}
