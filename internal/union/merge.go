// Per-table parts, the one form every union engine is assembled from.
// A builder (TUSBuilder, SantosBuilder, D3LBuilder) analyzes tables
// into parts and an engine decomposes back into them; one codec per
// engine writes and reads them (a delta's section, and the parts of
// the engine's snapshot section). Each engine has one assembly,
// New*FromParts: a build assembles its builder's parts, a merge the
// parts gathered across a base snapshot's sections and a delta chain,
// and a load a snapshot section's. So a merged engine — same sorted
// orders, same index parameters, same encodings — answers every query
// bit-identically to a from-scratch build over the merged catalog.
package union

import (
	"errors"
	"fmt"
	"slices"

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
// order. Slices alias the engine's state; do not mutate.
func (t *TUS) Parts() []TUSTableParts {
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
// table's column block: the parts of the TUS snapshot section and the
// whole of a delta's TUS section.
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

// adopt installs parts as the engine's tables, which must be strictly
// ascending by ID. Every column set must pass dict.IDSet.Check against
// t.dict — an ID beyond it or out of order would silently mis-score
// the set measure. A table without columns is skipped, as a builder
// skips it; lookup resolves table IDs against the catalog.
func (t *TUS) adopt(parts []TUSTableParts, lookup func(id string) *table.Table) error {
	size := t.dict.Size()
	t.tables = make(map[string]*tusTable, len(parts))
	t.ids = make([]string, 0, len(parts))
	for i, p := range parts {
		if i > 0 && parts[i-1].ID >= p.ID {
			return fmt.Errorf("union: TUS table IDs not strictly ascending at %q", p.ID)
		}
		tbl := lookup(p.ID)
		if tbl == nil {
			return fmt.Errorf("union: TUS table %q missing from catalog", p.ID)
		}
		if len(p.Cols) == 0 {
			continue
		}
		entry := &tusTable{tbl: tbl, cols: make([]*tusColumn, len(p.Cols))}
		for i, c := range p.Cols {
			if err := c.IDs.Check(size); err != nil {
				return fmt.Errorf("union: TUS column %s.%s: %v", p.ID, c.Name, err)
			}
			entry.cols[i] = newTUSColumn(c)
		}
		t.tables[p.ID] = entry
		t.ids = append(t.ids, p.ID)
	}
	return nil
}

// NewTUSFromParts assembles a TUS engine from parts whose column sets
// are all encoded in cfg.Dict (required): the one assembly of a build
// (TUSBuilder.Build), a merge and a load. The value universe is
// counted over the column sets, and the set-LSH
// freezes over the tables in parts order (sorted by ID, as every
// caller passes them). The NL graph starts from g — a fresh one when
// nil — and grows by each batch of sorted table IDs in turn, nil
// batches being one batch of every table (a load passes its stored
// graph and no batch); g is grown in place. lookup resolves table IDs
// against the catalog.
func NewTUSFromParts(cfg TUSConfig, parts []TUSTableParts, g *hnsw.Graph, batches [][]string, lookup func(id string) *table.Table) (*TUS, error) {
	if cfg.Dict == nil {
		return nil, errors.New("union: TUS parts require the dictionary they are encoded in")
	}
	a, err := newTUSAnalyzer(cfg)
	if err != nil {
		return nil, err
	}
	t := &TUS{tusAnalyzer: a, dict: cfg.Dict}
	if err := t.adopt(parts, lookup); err != nil {
		return nil, err
	}
	if len(t.tables) == 0 {
		return nil, errors.New("union: no TUS tables")
	}
	if g == nil {
		g = hnsw.New(nlGraphConfig)
	}
	if batches == nil {
		batches = [][]string{t.ids}
	}
	t.nlIndex = g
	for _, ids := range batches {
		if err := t.insertNL(ids); err != nil {
			return nil, err
		}
	}
	if err := t.freeze(); err != nil {
		return nil, err
	}
	return t, nil
}

// --- SANTOS ---

// SantosRelParts is one relationship: its (subject, object) value
// pairs as a set of positions in its parts' pair list, and its
// curated-KB annotation.
type SantosRelParts struct {
	ColName  string
	PairIDs  dict.IDSet
	Pred     string
	PredFrac float64
}

// SantosTableParts is one table's relationships.
type SantosTableParts struct {
	ID   string
	Rels []SantosRelParts
}

// SantosParts is a SANTOS engine's per-table relationships in sorted-ID
// order and the ascending list of packed pairs (see packPair) their
// pair IDs index. A pair's halves are IDs of the dictionary the parts
// travel with (for a delta, the extended base dictionary).
type SantosParts struct {
	Pairs  []uint64
	Tables []SantosTableParts
}

// Parts returns the engine's pair list and per-table relationships in
// sorted-ID order. Slices alias the engine's state; do not mutate.
func (s *Santos) Parts() SantosParts {
	out := SantosParts{Pairs: s.pairs, Tables: make([]SantosTableParts, 0, len(s.ids))}
	for _, id := range s.ids {
		p := SantosTableParts{ID: id}
		for _, rel := range s.tables[id].rels {
			p.Rels = append(p.Rels, SantosRelParts{ColName: rel.colName, PairIDs: rel.pairIDs, Pred: rel.pred, PredFrac: rel.predFrac})
		}
		out.Tables = append(out.Tables, p)
	}
	return out
}

// AppendSantosParts writes parts as their pair list, their table-ID
// list and each table's relationship block: the whole of a delta's
// SANTOS section, and the SANTOS snapshot section after its dictionary.
func AppendSantosParts(e *snap.Encoder, parts SantosParts) {
	e.U64s(parts.Pairs)
	ids := make([]string, len(parts.Tables))
	for i, p := range parts.Tables {
		ids[i] = p.ID
	}
	e.Strs(ids)
	for _, p := range parts.Tables {
		e.U32(uint32(len(p.Rels)))
		for _, r := range p.Rels {
			e.Str(r.ColName)
			e.U32s(r.PairIDs)
			e.Str(r.Pred)
			e.F64(r.PredFrac)
		}
	}
}

// DecodeSantosParts reads what AppendSantosParts wrote. It checks
// nothing against a dictionary or the pair list; adoption does.
func DecodeSantosParts(d *snap.Decoder) (SantosParts, error) {
	parts := SantosParts{Pairs: d.U64s()}
	ids := d.Strs()
	parts.Tables = make([]SantosTableParts, len(ids))
	for i, id := range ids {
		rels := make([]SantosRelParts, d.Count(20)) // a relationship is at least 20 bytes
		for j := range rels {
			rels[j] = SantosRelParts{ColName: d.Str(), PairIDs: d.U32s(), Pred: d.Str(), PredFrac: d.F64()}
		}
		parts.Tables[i] = SantosTableParts{ID: id, Rels: rels}
	}
	return parts, d.Err()
}

// CheckSantosPairs reports why pairs are not a strictly ascending list
// of packed pairs whose halves are IDs below size.
func CheckSantosPairs(pairs []uint64, size int) error {
	for i, p := range pairs {
		if i > 0 && pairs[i-1] >= p {
			return fmt.Errorf("pairs not strictly ascending at position %d", i)
		}
		if int(p>>32) >= size || int(uint32(p)) >= size {
			return fmt.Errorf("pair (%d, %d) has a value ID out of range [0, %d)", p>>32, uint32(p), size)
		}
	}
	return nil
}

// NoPair is the position MergePairs gives a pair that its remap drops.
// It lies past every pair list, so no assembly accepts it.
const NoPair = ^uint32(0)

// MergePairs moves both halves of every pair of each packed-pair list
// through remap and returns the ascending union of the moved pairs and,
// for each list, the position each of its pairs takes there: the remap
// that moves pair IDs of parts over the lists onto one list, as
// MergeWords does for D3L's words. A pair with a half remap drops (a
// value no live table holds) is left out, at NoPair. A remap that keeps
// the order of the values it keeps keeps an ascending list ascending,
// so its positions ascend too.
func MergePairs(lists [][]uint64, remap func(uint32) (uint32, bool)) ([]uint64, [][]uint32) {
	move := func(p uint64) (uint64, bool) {
		sub, ok := remap(uint32(p >> 32))
		obj, ok2 := remap(uint32(p))
		return packPair(sub, obj), ok && ok2
	}
	var all []uint64
	for _, l := range lists {
		for _, p := range l {
			if q, ok := move(p); ok {
				all = append(all, q)
			}
		}
	}
	slices.Sort(all)
	all = slices.Clip(slices.Compact(all))
	remaps := make([][]uint32, len(lists))
	for i, l := range lists {
		remaps[i] = make([]uint32, len(l))
		for j, p := range l {
			remaps[i][j] = NoPair
			if q, ok := move(p); ok {
				pos, _ := slices.BinarySearch(all, q)
				remaps[i][j] = uint32(pos)
			}
		}
	}
	return all, remaps
}

// RemapPairIDs returns tables with every relationship's pair IDs moved
// through remap, into fresh sorted sets. A relationship whose pair IDs
// are not a set of positions in remap is an error.
func RemapPairIDs(tables []SantosTableParts, remap []uint32) ([]SantosTableParts, error) {
	out := make([]SantosTableParts, len(tables))
	for i, p := range tables {
		out[i] = SantosTableParts{ID: p.ID, Rels: slices.Clone(p.Rels)}
		for j := range out[i].Rels {
			r := &out[i].Rels[j]
			if err := r.PairIDs.Check(len(remap)); err != nil {
				return nil, fmt.Errorf("union: SANTOS relationship %s.%s: %v", p.ID, r.ColName, err)
			}
			ids, _ := remapIDs(r.PairIDs, remap) // checked above
			slices.Sort(ids)
			r.PairIDs = ids
		}
	}
	return out, nil
}

// NewSantosFromParts assembles a SANTOS engine from parts whose pairs
// are packed from IDs of values (required): the one assembly of a
// build (SantosBuilder.Build), a merge and a load. The pair list must
// be strictly ascending with both halves of every pair below values'
// size, the tables strictly ascending by ID, and every relationship's
// pair IDs a set of positions in the list. Pairs no relationship holds
// are dropped, so the list is the one a builder over the same tables
// makes. It indexes the tables by pair and by predicate, so a merged
// engine is bit-identical to one built over the merged catalog. Parts
// without a table make an empty engine, which answers every query with
// nothing. lookup resolves table IDs.
func NewSantosFromParts(curated *kb.KB, values *dict.Dict, parts SantosParts, lookup func(id string) *table.Table) (*Santos, error) {
	if values == nil {
		return nil, errors.New("union: SANTOS parts require the dictionary they are encoded in")
	}
	if err := CheckSantosPairs(parts.Pairs, values.Size()); err != nil {
		return nil, fmt.Errorf("union: SANTOS: %v", err)
	}
	s := &Santos{curated: curated, values: values, pairs: parts.Pairs, tables: make(map[string]*santosTable, len(parts.Tables))}
	used := make([]bool, len(parts.Pairs))
	for i, p := range parts.Tables {
		if i > 0 && parts.Tables[i-1].ID >= p.ID {
			return nil, fmt.Errorf("union: SANTOS table IDs not strictly ascending at %q", p.ID)
		}
		tbl := lookup(p.ID)
		if tbl == nil {
			return nil, fmt.Errorf("union: SANTOS table %q missing from catalog", p.ID)
		}
		st := &santosTable{tbl: tbl, rels: make([]santosRel, len(p.Rels))}
		for j, r := range p.Rels {
			if err := r.PairIDs.Check(len(parts.Pairs)); err != nil {
				return nil, fmt.Errorf("union: SANTOS relationship %s.%s: %v", p.ID, r.ColName, err)
			}
			for _, id := range r.PairIDs {
				used[id] = true
			}
			st.rels[j] = santosRel{colName: r.ColName, pairIDs: r.PairIDs, pred: r.Pred, predFrac: r.PredFrac}
		}
		s.tables[p.ID] = st
		s.ids = append(s.ids, p.ID)
	}
	if slices.Contains(used, false) {
		remap := make([]uint32, len(used))
		s.pairs = nil
		for i, u := range used {
			if u {
				remap[i] = uint32(len(s.pairs))
				s.pairs = append(s.pairs, parts.Pairs[i])
			}
		}
		for _, st := range s.tables {
			for j := range st.rels {
				st.rels[j].pairIDs, _ = remapIDs(st.rels[j].pairIDs, remap) // checked above
			}
		}
	}
	s.index()
	return s, nil
}

// --- D3L ---

// D3LColumnParts is one analyzed D3L column. ColIdx locates the source
// column within its table so reassembly can read the label the name
// evidence compares. IDs are its values, encoded in the dictionary the
// parts travel with (as TUS's are); WordIDs are strictly ascending
// positions in the parts' word list, and WordFreq is parallel to them.
type D3LColumnParts struct {
	ColIdx   int
	IDs      dict.IDSet
	WordIDs  []uint32
	WordFreq []float64
	Format   []float64
	Vec      embedding.Vector
}

// D3LTableParts is one table's analyzed columns.
type D3LTableParts struct {
	ID   string
	Cols []D3LColumnParts
}

// D3LParts is a D3L engine's per-table column analyses in sorted-ID
// order and the sorted word list their word IDs index.
type D3LParts struct {
	Words  []string
	Tables []D3LTableParts
}

// Parts returns the engine's per-table column analyses in sorted-ID
// order. Slices alias the engine's state; do not mutate.
func (d *D3L) Parts() D3LParts {
	out := D3LParts{Words: d.words, Tables: make([]D3LTableParts, 0, len(d.ids))}
	for _, id := range d.ids {
		p := D3LTableParts{ID: id}
		for _, c := range d.tables[id].cols {
			p.Cols = append(p.Cols, D3LColumnParts{
				ColIdx: c.colIdx, IDs: c.valueIDs, WordIDs: c.wordIDs, WordFreq: c.wordFreq,
				Format: c.format, Vec: c.vec,
			})
		}
		out.Tables = append(out.Tables, p)
	}
	return out
}

// AppendD3LParts writes parts as their word list, their table-ID list
// and each table's column block: the whole of a delta's D3L section,
// and the D3L snapshot section after its dictionary.
func AppendD3LParts(e *snap.Encoder, parts D3LParts) {
	e.Strs(parts.Words)
	ids := make([]string, len(parts.Tables))
	for i, p := range parts.Tables {
		ids[i] = p.ID
	}
	e.Strs(ids)
	for _, p := range parts.Tables {
		e.U32(uint32(len(p.Cols)))
		for _, c := range p.Cols {
			e.U32(uint32(c.ColIdx))
			e.U32s(c.IDs)
			e.U32s(c.WordIDs)
			e.F64s(c.WordFreq)
			e.F64s(c.Format)
			e.F32s(c.Vec)
		}
	}
}

// DecodeD3LParts reads what AppendD3LParts wrote. It checks nothing
// against a dictionary or the word list; adoption does.
func DecodeD3LParts(d *snap.Decoder) (D3LParts, error) {
	parts := D3LParts{Words: d.Strs()}
	ids := d.Strs()
	parts.Tables = make([]D3LTableParts, len(ids))
	for i, id := range ids {
		cols := make([]D3LColumnParts, d.Count(24)) // a column is at least 24 bytes
		for j := range cols {
			cols[j] = D3LColumnParts{
				ColIdx: int(int32(d.U32())), IDs: d.U32s(), WordIDs: d.U32s(), WordFreq: d.F64s(),
				Format: d.F64s(), Vec: d.F32s(),
			}
		}
		parts.Tables[i] = D3LTableParts{ID: id, Cols: cols}
	}
	return parts, d.Err()
}

// MergeWords returns the sorted union of word lists and, for each
// list, the position each of its words takes in the union: the remap
// that moves word IDs of parts over the lists onto one list. Each list
// must be strictly ascending, as an adoption requires, or two of its
// words could land on one position.
func MergeWords(lists ...[]string) ([]string, [][]uint32, error) {
	var all []string
	for _, l := range lists {
		if err := checkWords(l); err != nil {
			return nil, nil, err
		}
		all = append(all, l...)
	}
	slices.Sort(all)
	all = slices.Compact(all)
	remaps := make([][]uint32, len(lists))
	for i, l := range lists {
		remaps[i] = make([]uint32, len(l))
		for j, w := range l {
			pos, _ := slices.BinarySearch(all, w)
			remaps[i][j] = uint32(pos)
		}
	}
	return all, remaps, nil
}

// checkWords reports why words is not a strictly ascending word list.
func checkWords(words []string) error {
	for i := 1; i < len(words); i++ {
		if words[i-1] >= words[i] {
			return fmt.Errorf("union: D3L words not strictly ascending at %q", words[i])
		}
	}
	return nil
}

// RemapWordIDs returns tables with every column's word IDs moved
// through remap, into fresh slices. A word ID that does not index
// remap is an error.
func RemapWordIDs(tables []D3LTableParts, remap []uint32) ([]D3LTableParts, error) {
	out := make([]D3LTableParts, len(tables))
	for i, p := range tables {
		out[i] = D3LTableParts{ID: p.ID, Cols: slices.Clone(p.Cols)}
		for j := range out[i].Cols {
			c := &out[i].Cols[j]
			var ok bool
			if c.WordIDs, ok = remapIDs(c.WordIDs, remap); !ok {
				return nil, fmt.Errorf("union: D3L table %q: a word ID outside a list of %d", p.ID, len(remap))
			}
		}
	}
	return out, nil
}

// remapIDs returns ids moved through remap, in a fresh slice, and
// whether every ID indexed remap.
func remapIDs(ids, remap []uint32) ([]uint32, bool) {
	out := make([]uint32, len(ids))
	for k, w := range ids {
		if int(w) >= len(remap) {
			return nil, false
		}
		out[k] = remap[w]
	}
	return out, true
}

// NewD3LFromParts assembles a D3L engine from parts whose value IDs
// are in values: the one assembly of a build (D3LBuilder.Build), a
// merge and a load. It adopts the parts and
// derives the labels and the value index exactly as every assembly
// does; lookup resolves table IDs.
func NewD3LFromParts(model *embedding.Model, values *dict.Dict, parts D3LParts, lookup func(id string) *table.Table) (*D3L, error) {
	if model == nil {
		return nil, errors.New("union: D3L requires an embedding model")
	}
	d3 := &D3L{model: model}
	if err := d3.adopt(parts, values, lookup); err != nil {
		return nil, err
	}
	d3.freeze()
	return d3, nil
}

// adopt installs parts, encoded in values, as the engine's columns,
// tables strictly ascending by ID, each resolved through lookup and
// checked: the word list must be
// strictly ascending, and each column's value IDs a set below values'
// size, its word IDs a set of positions in the list, parallel to its
// frequencies, and its format signature formatDims long (a scan reads
// it against the query's). Words no column holds are dropped from the
// list, so it is the list a builder over the same columns makes.
func (d3 *D3L) adopt(parts D3LParts, values *dict.Dict, lookup func(id string) *table.Table) error {
	d3.tables = make(map[string]*d3lTable, len(parts.Tables))
	words := parts.Words
	if err := checkWords(words); err != nil {
		return err
	}
	used := make([]bool, len(words))
	size := values.Size()
	d3.ids = make([]string, 0, len(parts.Tables))
	for i, p := range parts.Tables {
		if i > 0 && parts.Tables[i-1].ID >= p.ID {
			return fmt.Errorf("union: D3L table IDs not strictly ascending at %q", p.ID)
		}
		tbl := lookup(p.ID)
		if tbl == nil {
			return fmt.Errorf("union: D3L table %q missing from catalog", p.ID)
		}
		entry := &d3lTable{tbl: tbl}
		for _, c := range p.Cols {
			if c.ColIdx < 0 || c.ColIdx >= len(tbl.Columns) {
				return fmt.Errorf("union: D3L column index %d out of range for table %q", c.ColIdx, p.ID)
			}
			if err := c.IDs.Check(size); err != nil {
				return fmt.Errorf("union: D3L column %d of table %q: values: %v", c.ColIdx, p.ID, err)
			}
			if err := dict.IDSet(c.WordIDs).Check(len(words)); err != nil {
				return fmt.Errorf("union: D3L column %d of table %q: words: %v", c.ColIdx, p.ID, err)
			}
			if len(c.WordIDs) != len(c.WordFreq) {
				return fmt.Errorf("union: D3L column %d of table %q: %d words for %d frequencies", c.ColIdx, p.ID, len(c.WordIDs), len(c.WordFreq))
			}
			if len(c.Format) != formatDims {
				return fmt.Errorf("union: D3L column %d of table %q: format signature of %d values, want %d", c.ColIdx, p.ID, len(c.Format), formatDims)
			}
			for _, w := range c.WordIDs {
				used[w] = true
			}
			col := newD3LColumn(tbl.Columns[c.ColIdx], c.ColIdx, c.Format, c.WordFreq, c.Vec)
			col.valueIDs, col.wordIDs = c.IDs, c.WordIDs
			entry.cols = append(entry.cols, col)
		}
		if len(entry.cols) == 0 {
			continue
		}
		d3.tables[p.ID] = entry
		d3.ids = append(d3.ids, p.ID)
	}
	d3.dict, d3.words = values, words
	if !slices.Contains(used, false) {
		return nil
	}
	remap := make([]uint32, len(words))
	d3.words = nil
	for i, w := range words {
		if used[i] {
			remap[i] = uint32(len(d3.words))
			d3.words = append(d3.words, w)
		}
	}
	for _, t := range d3.tables {
		for _, c := range t.cols {
			c.wordIDs, _ = remapIDs(c.wordIDs, remap) // checked above
		}
	}
	return nil
}
