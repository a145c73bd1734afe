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
// table/column order — and so are the universe count and the ln n!
// cache.
func (t *TUS) AppendSnapshot(e *snap.Encoder, sysDict *dict.Dict) {
	e.Bool(t.cfg.Exhaustive)
	e.U32(uint32(t.cfg.NumHashes))
	t.hasher.AppendSnapshot(e)
	shared := t.dict == sysDict
	e.Bool(shared)
	if !shared {
		t.dict.AppendSnapshot(e)
	}
	AppendTUSParts(e, t.Parts())
	t.nlIndex.AppendSnapshot(e)
}

// DecodeTUSSnapshot rebuilds a TUS engine written by AppendSnapshot,
// adopting its tables as NewTUSFromParts does but keeping the stored
// HNSW topology instead of growing one. cfg supplies the runtime
// resources (model, KB, lake dictionary) the snapshot references
// rather than stores; lookup resolves table IDs against the loaded
// catalog.
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
	a, err := newTUSAnalyzer(cfg)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", snap.ErrCorrupt, err)
	}
	a.hasher = hasher
	t := &TUS{tusAnalyzer: a}
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
	if t.nlIndex, err = hnsw.DecodeSnapshot(d); err != nil {
		return nil, err
	}
	if err := t.freeze(); err != nil {
		return nil, fmt.Errorf("%w: %v", snap.ErrCorrupt, err)
	}
	return t, nil
}

// AppendSnapshot encodes a SANTOS engine against the system
// dictionary sysDict: whether it shares that dictionary (the
// dictionary inline when it does not, as TUS writes it), the packed
// pair list, and each table's relationships as sets of positions in
// that list. The pair and predicate indexes are rebuilt on decode by
// the assembly's index over the stored (sorted) table order.
func (s *Santos) AppendSnapshot(e *snap.Encoder, sysDict *dict.Dict) {
	shared := s.values == sysDict
	e.Bool(shared)
	if !shared {
		s.values.AppendSnapshot(e)
	}
	e.U64s(s.pairs)
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
// AppendSnapshot. curated is the loaded KB (may be nil), lake the
// loaded system's dictionary, and lookup resolves table IDs against
// the loaded catalog. The pair list must be strictly ascending with
// both halves of every pair below its dictionary's size, and every
// relationship's pair IDs a set of positions in it.
func DecodeSantosSnapshot(d *snap.Decoder, curated *kb.KB, lake *dict.Dict, lookup func(id string) *table.Table) (*Santos, error) {
	s := &Santos{curated: curated, values: lake, tables: make(map[string]*santosTable)}
	shared := d.Bool()
	if d.Err() != nil {
		return nil, d.Err()
	}
	if shared && lake == nil {
		return nil, fmt.Errorf("%w: SANTOS shares a dictionary the snapshot does not carry", snap.ErrCorrupt)
	}
	if !shared {
		var err error
		if s.values, err = dict.DecodeSnapshot(d); err != nil {
			return nil, err
		}
	}
	s.pairs = d.U64s()
	ids := d.Strs()
	if d.Err() != nil {
		return nil, d.Err()
	}
	if err := CheckSantosPairs(s.pairs, s.values.Size()); err != nil {
		return nil, fmt.Errorf("%w: SANTOS %v", snap.ErrCorrupt, err)
	}
	if !sort.StringsAreSorted(ids) {
		return nil, fmt.Errorf("%w: SANTOS table IDs not sorted", snap.ErrCorrupt)
	}
	s.ids = ids
	for _, id := range ids {
		tbl := lookup(id)
		if tbl == nil {
			return nil, fmt.Errorf("%w: SANTOS table %q missing from catalog", snap.ErrCorrupt, id)
		}
		st := &santosTable{tbl: tbl, rels: make([]santosRel, d.Count(20))} // a relationship is at least 20 bytes
		for j := range st.rels {
			rel := santosRel{
				colName:  d.Str(),
				pairIDs:  dict.IDSet(d.U32s()),
				pred:     d.Str(),
				predFrac: d.F64(),
			}
			if d.Err() != nil {
				return nil, d.Err()
			}
			if err := rel.pairIDs.Check(len(s.pairs)); err != nil {
				return nil, fmt.Errorf("%w: SANTOS relationship %s.%s: %v", snap.ErrCorrupt, id, rel.colName, err)
			}
			st.rels[j] = rel
		}
		if d.Err() != nil {
			return nil, d.Err()
		}
		if _, dup := s.tables[id]; dup {
			return nil, fmt.Errorf("%w: duplicate SANTOS table %q", snap.ErrCorrupt, id)
		}
		s.tables[id] = st
	}
	s.index()
	return s, nil
}

// AppendSnapshot encodes a D3L engine: whether it shares the system
// dictionary sysDict (the dictionary inline when it does not, as TUS
// writes it), then its parts (see AppendD3LParts).
func (d3 *D3L) AppendSnapshot(e *snap.Encoder, sysDict *dict.Dict) {
	shared := d3.dict == sysDict
	e.Bool(shared)
	if !shared {
		d3.dict.AppendSnapshot(e)
	}
	AppendD3LParts(e, d3.Parts())
}

// decodeD3LSection reads a section AppendSnapshot wrote: the
// dictionary its value IDs are in (lake when shared) and its parts.
func decodeD3LSection(d *snap.Decoder, lake *dict.Dict) (*dict.Dict, D3LParts, error) {
	values := lake
	shared := d.Bool()
	if d.Err() != nil {
		return nil, D3LParts{}, d.Err()
	}
	if shared && lake == nil {
		return nil, D3LParts{}, fmt.Errorf("%w: D3L shares a dictionary the snapshot does not carry", snap.ErrCorrupt)
	}
	if !shared {
		var err error
		if values, err = dict.DecodeSnapshot(d); err != nil {
			return nil, D3LParts{}, err
		}
	}
	parts, err := DecodeD3LParts(d)
	return values, parts, err
}

// DecodeD3LSnapshot rebuilds a D3L engine written by AppendSnapshot,
// assembling it from its parts as NewD3LFromParts does; lake is the
// loaded system's dictionary and lookup resolves table IDs against the
// loaded catalog.
func DecodeD3LSnapshot(d *snap.Decoder, model *embedding.Model, lake *dict.Dict, lookup func(id string) *table.Table) (*D3L, error) {
	values, parts, err := decodeD3LSection(d, lake)
	if err != nil {
		return nil, err
	}
	d3, err := NewD3LFromParts(model, values, parts, lookup)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", snap.ErrCorrupt, err)
	}
	return d3, nil
}

// DecodeD3LSnapshotParts reads a section AppendSnapshot wrote as
// parts, making DecodeD3LSnapshot's checks without building an engine:
// a merge reads a base's D3L engine only as parts. Their value IDs
// must be in lake, or they cannot merge.
func DecodeD3LSnapshotParts(d *snap.Decoder, lake *dict.Dict, lookup func(id string) *table.Table) (D3LParts, error) {
	values, parts, err := decodeD3LSection(d, lake)
	if err != nil {
		return D3LParts{}, err
	}
	if values != lake {
		return D3LParts{}, fmt.Errorf("%w: D3L does not share the system dictionary, so its parts cannot merge", snap.ErrCorrupt)
	}
	if err := new(D3L).adopt(parts, values, lookup); err != nil {
		return D3LParts{}, fmt.Errorf("%w: %v", snap.ErrCorrupt, err)
	}
	return parts, nil
}
