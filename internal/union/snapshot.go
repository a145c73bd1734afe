package union

import (
	"fmt"
	"sort"

	"tablehound/internal/dict"
	"tablehound/internal/embedding"
	"tablehound/internal/hnsw"
	"tablehound/internal/kb"
	"tablehound/internal/minhash"
	"tablehound/internal/snap"
	"tablehound/internal/table"
)

// AppendSnapshot encodes a built TUS engine against the system
// dictionary sysDict. Per-column analyses (ID sets, signatures,
// embeddings, KB annotations) and the HNSW topology are stored
// verbatim; the banded set-LSH index is rebuilt on decode — its
// construction is a deterministic function of the stored signatures in
// table/column order — and so is the ln n! cache.
func (t *TUS) AppendSnapshot(e *snap.Encoder, sysDict *dict.Dict) {
	e.Bool(t.cfg.Exhaustive)
	e.U32(uint32(t.cfg.NumHashes))
	t.hasher.AppendSnapshot(e)
	shared := t.dict == sysDict
	e.Bool(shared)
	if !shared {
		t.dict.AppendSnapshot(e)
	}
	univ := make([]string, 0, len(t.univ))
	for v := range t.univ {
		univ = append(univ, v)
	}
	sort.Strings(univ)
	e.Strs(univ)
	e.Strs(t.ids)
	for _, id := range t.ids {
		entry := t.tables[id]
		e.U32(uint32(len(entry.cols)))
		for _, c := range entry.cols {
			e.Str(c.name)
			e.U32s(c.ids)
			e.U64s(c.sig)
			e.F32s(c.vec)
			e.Str(c.semType)
			e.F64(c.semCover)
		}
	}
	t.nlIndex.AppendSnapshot(e)
}

// DecodeTUSSnapshot rebuilds a TUS engine written by AppendSnapshot.
// cfg supplies the runtime resources (model, KB, lake dictionary) the
// snapshot references rather than stores; lookup resolves table IDs
// against the loaded catalog.
func DecodeTUSSnapshot(d *snap.Decoder, cfg TUSConfig, lookup func(id string) *table.Table) (*TUS, error) {
	cfg.Exhaustive = d.Bool()
	cfg.NumHashes = int(d.U32())
	if d.Err() != nil {
		return nil, d.Err()
	}
	hasher, err := minhash.DecodeSnapshot(d)
	if err != nil {
		return nil, err
	}
	t, err := NewTUS(cfg)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", snap.ErrCorrupt, err)
	}
	t.hasher = hasher
	shared := d.Bool()
	if d.Err() != nil {
		return nil, d.Err()
	}
	if shared {
		if cfg.Dict == nil {
			return nil, fmt.Errorf("%w: TUS shares a dictionary the snapshot does not carry", snap.ErrCorrupt)
		}
		t.dict = cfg.Dict
	} else {
		if t.dict, err = dict.DecodeSnapshot(d); err != nil {
			return nil, err
		}
	}
	univ := d.Strs()
	ids := d.Strs()
	if d.Err() != nil {
		return nil, d.Err()
	}
	if !sort.StringsAreSorted(ids) {
		return nil, fmt.Errorf("%w: TUS table IDs not sorted", snap.ErrCorrupt)
	}
	for _, v := range univ {
		t.univ[v] = true
	}
	t.ids = ids
	for _, id := range ids {
		if lookup(id) == nil {
			return nil, fmt.Errorf("%w: TUS table %q missing from catalog", snap.ErrCorrupt, id)
		}
		numCols := int(d.U32())
		if d.Err() != nil {
			return nil, d.Err()
		}
		entry := &tusTable{tbl: lookup(id)}
		for j := 0; j < numCols; j++ {
			c := &tusColumn{
				name:     d.Str(),
				ids:      dict.IDSet(d.U32s()),
				sig:      minhash.Signature(d.U64s()),
				vec:      d.F32s(),
				semType:  d.Str(),
				semCover: d.F64(),
			}
			if d.Err() != nil {
				return nil, d.Err()
			}
			c.norm = c.vec.Norm()
			entry.cols = append(entry.cols, c)
		}
		if _, dup := t.tables[id]; dup {
			return nil, fmt.Errorf("%w: duplicate TUS table %q", snap.ErrCorrupt, id)
		}
		t.tables[id] = entry
	}
	if t.nlIndex, err = hnsw.DecodeSnapshot(d); err != nil {
		return nil, err
	}
	// Rebuild the candidate-generation LSH exactly as Build does: same
	// banding parameters, same insertion order.
	if err := t.buildSetLSH(); err != nil {
		return nil, fmt.Errorf("%w: %v", snap.ErrCorrupt, err)
	}
	t.lfact = newLogFactTable(len(t.univ) + 1)
	t.built = true
	return t, nil
}

// AppendSnapshot encodes a SANTOS engine: the pair dictionary, each
// table's encoded relationships, and the built flag. The pair-to-table
// index is rebuilt on decode by replaying Build's indexing loop over
// the stored (sorted) table order.
func (s *Santos) AppendSnapshot(e *snap.Encoder) {
	e.Bool(s.built)
	hasPairDict := s.pairDict != nil
	e.Bool(hasPairDict)
	if hasPairDict {
		s.pairDict.AppendSnapshot(e)
	}
	e.Strs(s.ids)
	for _, id := range s.ids {
		st := s.tables[id]
		e.U32(uint32(len(st.rels)))
		for _, rel := range st.rels {
			e.Str(rel.colName)
			e.U32s(rel.pairIDs)
			e.Str(rel.pred)
			e.F64(rel.predFrac)
		}
	}
}

// DecodeSantosSnapshot rebuilds a SANTOS engine written by
// AppendSnapshot. curated is the loaded KB (may be nil); lookup
// resolves table IDs against the loaded catalog.
func DecodeSantosSnapshot(d *snap.Decoder, curated *kb.KB, lookup func(id string) *table.Table) (*Santos, error) {
	s := NewSantos(curated)
	built := d.Bool()
	hasPairDict := d.Bool()
	if d.Err() != nil {
		return nil, d.Err()
	}
	if hasPairDict {
		var err error
		if s.pairDict, err = dict.DecodeSnapshot(d); err != nil {
			return nil, err
		}
	}
	ids := d.Strs()
	if d.Err() != nil {
		return nil, d.Err()
	}
	if !sort.StringsAreSorted(ids) && built {
		return nil, fmt.Errorf("%w: SANTOS table IDs not sorted", snap.ErrCorrupt)
	}
	s.ids = ids
	for _, id := range ids {
		tbl := lookup(id)
		if tbl == nil {
			return nil, fmt.Errorf("%w: SANTOS table %q missing from catalog", snap.ErrCorrupt, id)
		}
		numRels := int(d.U32())
		if d.Err() != nil {
			return nil, d.Err()
		}
		st := &santosTable{tbl: tbl}
		for j := 0; j < numRels; j++ {
			rel := santosRel{
				colName:  d.Str(),
				pairIDs:  dict.IDSet(d.U32s()),
				pred:     d.Str(),
				predFrac: d.F64(),
			}
			if d.Err() != nil {
				return nil, d.Err()
			}
			st.rels = append(st.rels, rel)
		}
		if _, dup := s.tables[id]; dup {
			return nil, fmt.Errorf("%w: duplicate SANTOS table %q", snap.ErrCorrupt, id)
		}
		s.tables[id] = st
	}
	// Replay Build's pair-indexing loop over the stored order.
	for _, id := range s.ids {
		for i := range s.tables[id].rels {
			for _, p := range s.tables[id].rels[i].pairIDs {
				s.pairIndex[p] = append(s.pairIndex[p], id)
			}
		}
	}
	s.built = built
	return s, nil
}

// AppendSnapshot encodes a D3L engine: every staged table's per-column
// analyses (distinct values, format histogram, word distribution,
// embedding) plus the index of the source column within its table, so
// decode can read the label the name evidence compares. The interned
// ID arrays are not stored; decode re-derives them.
func (d3 *D3L) AppendSnapshot(e *snap.Encoder) {
	e.Strs(d3.ids)
	for _, id := range d3.ids {
		entry := d3.tables[id]
		e.U32(uint32(len(entry.cols)))
		for _, c := range entry.cols {
			e.U32(uint32(c.colIdx))
			e.Strs(c.distinct)
			e.F64s(c.format)
			e.U32(uint32(len(c.words)))
			for i, w := range c.words {
				e.Str(w)
				e.F64(c.wordFreq[i])
			}
			e.F32s(c.vec)
		}
	}
}

// DecodeD3LSnapshot rebuilds a D3L engine written by AppendSnapshot
// and freezes it against the lake dictionary (see NewD3L).
func DecodeD3LSnapshot(d *snap.Decoder, model *embedding.Model, lake *dict.Dict, lookup func(id string) *table.Table) (*D3L, error) {
	d3, err := NewD3L(model, lake)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", snap.ErrCorrupt, err)
	}
	ids := d.Strs()
	if d.Err() != nil {
		return nil, d.Err()
	}
	if !sort.StringsAreSorted(ids) {
		return nil, fmt.Errorf("%w: D3L table IDs not sorted", snap.ErrCorrupt)
	}
	d3.ids = ids
	for _, id := range ids {
		tbl := lookup(id)
		if tbl == nil {
			return nil, fmt.Errorf("%w: D3L table %q missing from catalog", snap.ErrCorrupt, id)
		}
		numCols := int(d.U32())
		if d.Err() != nil {
			return nil, d.Err()
		}
		entry := &d3lTable{tbl: tbl}
		for j := 0; j < numCols; j++ {
			colIdx := int(int32(d.U32()))
			distinct := d.Strs()
			format := d.F64s()
			numWords := int(d.U32())
			if d.Err() != nil {
				return nil, d.Err()
			}
			if numWords > d.Remaining()/12 { // a word is at least a length and a weight
				return nil, fmt.Errorf("%w: D3L column of table %q claims %d words", snap.ErrCorrupt, id, numWords)
			}
			if colIdx < 0 || colIdx >= len(tbl.Columns) {
				return nil, fmt.Errorf("%w: D3L column index %d out of range for table %q", snap.ErrCorrupt, colIdx, id)
			}
			words := make([]string, numWords)
			freq := make([]float64, numWords)
			for k := range words {
				words[k] = d.Str()
				freq[k] = d.F64()
			}
			if d.Err() != nil {
				return nil, d.Err()
			}
			if err := checkWords(words, freq); err != nil {
				return nil, fmt.Errorf("%w: D3L column of table %q: %v", snap.ErrCorrupt, id, err)
			}
			vec := d.F32s()
			if d.Err() != nil {
				return nil, d.Err()
			}
			entry.cols = append(entry.cols, newD3LColumn(tbl.Columns[colIdx], colIdx, distinct, format, words, freq, vec))
		}
		if _, dup := d3.tables[id]; dup {
			return nil, fmt.Errorf("%w: duplicate D3L table %q", snap.ErrCorrupt, id)
		}
		d3.tables[id] = entry
	}
	d3.Build()
	return d3, nil
}
