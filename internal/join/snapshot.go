package join

import (
	"fmt"
	"sort"

	"tablehound/internal/dict"
	"tablehound/internal/invindex"
	"tablehound/internal/josie"
	"tablehound/internal/lshensemble"
	"tablehound/internal/minhash"
	"tablehound/internal/snap"
	"tablehound/internal/table"
)

// AppendSnapshot encodes the join engine against the system dictionary
// sysDict: when the engine's sets are encoded in that dictionary (the
// common case) only a flag is stored and the loaded engine shares the
// container's copy; when Build fell back to a self-built dictionary it
// is serialized inline. Each column stores both its ID set and its
// MinHash signature — the signature is derivable from the set, but
// re-signing every column dominates load time, so the bytes buy back
// startup latency. The LSH Ensemble itself is not stored: its Build
// sorts domains by (size, key), so it is rebuilt bit-identically from
// the stored domains.
func (e *Engine) AppendSnapshot(enc *snap.Encoder, sysDict *dict.Dict) {
	shared := e.dict == sysDict
	enc.Bool(shared)
	if !shared {
		e.dict.AppendSnapshot(enc)
	}
	e.hasher.AppendSnapshot(enc)
	numHashes, numPart := e.ensemble.Params()
	enc.U32(uint32(numHashes))
	enc.U32(uint32(numPart))
	enc.Strs(e.keys)
	for _, ids := range e.idsets {
		enc.U32s(ids)
		enc.U64s(e.dict.Sign(e.hasher, ids))
	}
	e.inv.AppendSnapshot(enc)
}

// DecodeEngineSnapshot rebuilds an engine written by AppendSnapshot.
// sysDict is the container's loaded dictionary, substituted when the
// snapshot recorded a shared encoding. parallelism bounds the workers
// used to rebuild the ensemble's banded indexes.
func DecodeEngineSnapshot(d *snap.Decoder, sysDict *dict.Dict, parallelism int) (*Engine, error) {
	shared := d.Bool()
	if d.Err() != nil {
		return nil, d.Err()
	}
	dc := sysDict
	if !shared {
		var err error
		if dc, err = dict.DecodeSnapshot(d); err != nil {
			return nil, err
		}
	} else if dc == nil {
		return nil, fmt.Errorf("%w: join engine shares a dictionary the snapshot does not carry", snap.ErrCorrupt)
	}
	hasher, err := minhash.DecodeSnapshot(d)
	if err != nil {
		return nil, err
	}
	numHashes := int(d.U32())
	numPart := int(d.U32())
	keys := d.Strs()
	if d.Err() != nil {
		return nil, d.Err()
	}
	if numHashes != hasher.K() {
		return nil, fmt.Errorf("%w: ensemble width %d vs hasher width %d", snap.ErrCorrupt, numHashes, hasher.K())
	}
	if numPart <= 0 {
		return nil, fmt.Errorf("%w: ensemble partitions %d", snap.ErrCorrupt, numPart)
	}
	if !sort.StringsAreSorted(keys) {
		return nil, fmt.Errorf("%w: join engine keys not sorted", snap.ErrCorrupt)
	}
	idsets := make([]dict.IDSet, len(keys))
	ens := lshensemble.New(numHashes, numPart)
	for i, key := range keys {
		ids := dict.IDSet(d.U32s())
		sig := minhash.Signature(d.U64s())
		if d.Err() != nil {
			return nil, d.Err()
		}
		if i > 0 && keys[i-1] == key { // keys are sorted: duplicates are neighbours
			return nil, fmt.Errorf("%w: duplicate join column %q", snap.ErrCorrupt, key)
		}
		if len(sig) != numHashes {
			return nil, fmt.Errorf("%w: join column %q signature has %d hashes, want %d", snap.ErrCorrupt, key, len(sig), numHashes)
		}
		if err := ids.Check(dc.Size()); err != nil {
			return nil, fmt.Errorf("%w: join column %q: %v", snap.ErrCorrupt, key, err)
		}
		idsets[i] = ids
		if err := ens.Add(lshensemble.Domain{Key: key, Size: len(ids), Sig: sig}); err != nil {
			return nil, fmt.Errorf("%w: %v", snap.ErrCorrupt, err)
		}
	}
	if len(keys) > 0 {
		if err := ens.BuildN(parallelism); err != nil {
			return nil, fmt.Errorf("%w: %v", snap.ErrCorrupt, err)
		}
	}
	ix, err := invindex.DecodeSnapshot(d)
	if err != nil {
		return nil, err
	}
	if ix.NumSets() != len(keys) {
		return nil, fmt.Errorf("%w: inverted index has %d sets for %d join columns", snap.ErrCorrupt, ix.NumSets(), len(keys))
	}
	// The engine finds a column's ID set by its set ID.
	for i, key := range keys {
		if ix.Key(int32(i)) != key {
			return nil, fmt.Errorf("%w: inverted index set %d is %q, join column %d is %q", snap.ErrCorrupt, i, ix.Key(int32(i)), i, key)
		}
	}
	return &Engine{
		inv:      ix,
		searcher: josie.NewSearcher(ix),
		ensemble: ens,
		hasher:   hasher,
		dict:     dc,
		idsets:   idsets,
		keys:     keys,
	}, nil
}

// AppendSnapshot encodes the correlation engine: the QCR inverted
// index plus the joined (key, value) data maps, pair keys and inner
// keys both in sorted order.
func (e *CorrEngine) AppendSnapshot(enc *snap.Encoder) {
	enc.U32(uint32(e.sketchSize))
	e.inv.AppendSnapshot(enc)
	pairKeys := make([]string, 0, len(e.data))
	for pk := range e.data {
		pairKeys = append(pairKeys, pk)
	}
	sort.Strings(pairKeys)
	enc.U32(uint32(len(pairKeys)))
	for _, pk := range pairKeys {
		enc.Str(pk)
		m := e.data[pk]
		ks := make([]string, 0, len(m))
		for k := range m {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		enc.U32(uint32(len(ks)))
		for _, k := range ks {
			enc.Str(k)
			enc.F64(m[k])
		}
	}
}

// DecodeCorrSnapshot rebuilds a correlation engine written by
// AppendSnapshot.
func DecodeCorrSnapshot(d *snap.Decoder) (*CorrEngine, error) {
	sketchSize := int(d.U32())
	if d.Err() != nil {
		return nil, d.Err()
	}
	ix, err := invindex.DecodeSnapshot(d)
	if err != nil {
		return nil, err
	}
	numPairs := int(d.U32())
	if d.Err() != nil {
		return nil, d.Err()
	}
	data := make(map[string]map[string]float64, numPairs)
	for i := 0; i < numPairs; i++ {
		pk := d.Str()
		n := int(d.U32())
		if d.Err() != nil {
			return nil, d.Err()
		}
		m := make(map[string]float64, n)
		for j := 0; j < n; j++ {
			k := d.Str()
			v := d.F64()
			if d.Err() != nil {
				return nil, d.Err()
			}
			m[k] = v
		}
		if len(m) != n {
			return nil, fmt.Errorf("%w: duplicate key in correlation pair %q", snap.ErrCorrupt, pk)
		}
		if _, dup := data[pk]; dup {
			return nil, fmt.Errorf("%w: duplicate correlation pair %q", snap.ErrCorrupt, pk)
		}
		data[pk] = m
	}
	return &CorrEngine{
		sketchSize: sketchSize,
		inv:        ix,
		searcher:   josie.NewSearcher(ix),
		data:       data,
	}, nil
}

// AppendSnapshot encodes the MATE index: per-table normalized cell
// matrices and XASH super keys verbatim, and the value posting lists
// in sorted value order (each list's row references stay in build
// order: table, then row, then column).
func (m *MateIndex) AppendSnapshot(enc *snap.Encoder) {
	enc.Strs(m.ids)
	for _, id := range m.ids {
		mt := m.tables[id]
		enc.U64s(mt.keys)
		enc.U32(uint32(len(mt.norm)))
		for _, row := range mt.norm {
			enc.Strs(row)
		}
	}
	values := make([]string, 0, len(m.posting))
	for v := range m.posting {
		values = append(values, v)
	}
	sort.Strings(values)
	enc.U32(uint32(len(values)))
	for _, v := range values {
		refs := m.posting[v]
		enc.Str(v)
		tis := make([]int32, len(refs))
		rows := make([]int32, len(refs))
		cols := make([]int32, len(refs))
		for i, r := range refs {
			tis[i], rows[i], cols[i] = r.tableIdx, r.row, int32(r.col)
		}
		enc.I32s(tis)
		enc.I32s(rows)
		enc.I32s(cols)
	}
}

// DecodeMateSnapshot rebuilds a MATE index written by AppendSnapshot.
// Table pointers are rewired through lookup (the loaded catalog).
func DecodeMateSnapshot(d *snap.Decoder, lookup func(id string) *table.Table) (*MateIndex, error) {
	ids := d.Strs()
	if d.Err() != nil {
		return nil, d.Err()
	}
	m := &MateIndex{
		tables:  make(map[string]*mateTable, len(ids)),
		ids:     ids,
		posting: make(map[string][]rowRef),
	}
	for _, id := range ids {
		tbl := lookup(id)
		if tbl == nil {
			return nil, fmt.Errorf("%w: MATE table %q missing from catalog", snap.ErrCorrupt, id)
		}
		keys := d.U64s()
		rows := int(d.U32())
		if d.Err() != nil {
			return nil, d.Err()
		}
		if len(keys) != rows {
			return nil, fmt.Errorf("%w: MATE table %q has %d super keys for %d rows", snap.ErrCorrupt, id, len(keys), rows)
		}
		norm := make([][]string, rows)
		for r := 0; r < rows; r++ {
			norm[r] = d.Strs()
			if d.Err() != nil {
				return nil, d.Err()
			}
		}
		if _, dup := m.tables[id]; dup {
			return nil, fmt.Errorf("%w: duplicate MATE table %q", snap.ErrCorrupt, id)
		}
		m.tables[id] = &mateTable{tbl: tbl, keys: keys, norm: norm}
	}
	numValues := int(d.U32())
	if d.Err() != nil {
		return nil, d.Err()
	}
	for i := 0; i < numValues; i++ {
		v := d.Str()
		tis := d.I32s()
		rows := d.I32s()
		cols := d.I32s()
		if d.Err() != nil {
			return nil, d.Err()
		}
		if len(rows) != len(tis) || len(cols) != len(tis) {
			return nil, fmt.Errorf("%w: MATE posting %q has ragged reference arrays", snap.ErrCorrupt, v)
		}
		refs := make([]rowRef, len(tis))
		for j := range tis {
			if tis[j] < 0 || int(tis[j]) >= len(ids) {
				return nil, fmt.Errorf("%w: MATE row reference table %d out of range", snap.ErrCorrupt, tis[j])
			}
			refs[j] = rowRef{tableIdx: tis[j], row: rows[j], col: int16(cols[j])}
		}
		if _, dup := m.posting[v]; dup {
			return nil, fmt.Errorf("%w: duplicate MATE posting value %q", snap.ErrCorrupt, v)
		}
		m.posting[v] = refs
	}
	return m, nil
}
