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
// embeddings, KB annotations; see AppendTUSParts) and the HNSW
// topology are stored verbatim; the banded set-LSH index is rebuilt on decode — its
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
	AppendTUSParts(e, t.Parts())
	t.nlIndex.AppendSnapshot(e)
}

// DecodeTUSSnapshot rebuilds a TUS engine written by AppendSnapshot,
// adopting its tables as NewTUSFromParts does but keeping the stored
// universe and HNSW topology instead of rebuilding them. cfg supplies
// the runtime resources (model, KB, lake dictionary) the snapshot
// references rather than stores; lookup resolves table IDs against
// the loaded catalog.
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
	parts, err := DecodeTUSParts(d)
	if err != nil {
		return nil, err
	}
	if !sort.SliceIsSorted(parts, func(i, j int) bool { return parts[i].ID < parts[j].ID }) {
		return nil, fmt.Errorf("%w: TUS table IDs not sorted", snap.ErrCorrupt)
	}
	if err := t.adopt(parts, lookup); err != nil {
		return nil, fmt.Errorf("%w: %v", snap.ErrCorrupt, err)
	}
	for _, v := range univ {
		t.univ[v] = true
	}
	if t.nlIndex, err = hnsw.DecodeSnapshot(d); err != nil {
		return nil, err
	}
	if err := t.checkNL(); err != nil {
		return nil, fmt.Errorf("%w: %v", snap.ErrCorrupt, err)
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
// table's encoded relationships, and the built flag. The pair and
// predicate indexes are rebuilt on decode by Build's index over the
// stored (sorted) table order.
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
	pairs := 0 // without a pair dictionary no relationship may hold a pair
	if s.pairDict != nil {
		pairs = s.pairDict.Size()
	}
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
			if err := rel.pairIDs.Check(pairs); err != nil {
				return nil, fmt.Errorf("%w: SANTOS relationship %s.%s: %v", snap.ErrCorrupt, id, rel.colName, err)
			}
			st.rels = append(st.rels, rel)
		}
		if _, dup := s.tables[id]; dup {
			return nil, fmt.Errorf("%w: duplicate SANTOS table %q", snap.ErrCorrupt, id)
		}
		s.tables[id] = st
	}
	s.index()
	s.built = built
	return s, nil
}

// AppendSnapshot encodes a D3L engine: its parts (see AppendD3LParts)
// are the whole section.
func (d3 *D3L) AppendSnapshot(e *snap.Encoder) {
	AppendD3LParts(e, d3.Parts())
}

// DecodeD3LSnapshot rebuilds a D3L engine written by AppendSnapshot
// through NewD3LFromParts, freezing it against the lake dictionary
// (see NewD3L).
func DecodeD3LSnapshot(d *snap.Decoder, model *embedding.Model, lake *dict.Dict, lookup func(id string) *table.Table) (*D3L, error) {
	parts, err := DecodeD3LParts(d)
	if err != nil {
		return nil, err
	}
	d3, err := NewD3LFromParts(model, lake, parts, lookup)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", snap.ErrCorrupt, err)
	}
	return d3, nil
}
