// Incremental index maintenance: delta snapshots layer table
// additions and removals over an immutable base snapshot without
// rebuilding it.
//
// A delta is built by analyzing ONLY the new tables: their values
// extend the base dictionary append-only (dict.Extend — every base ID
// keeps its meaning, so base postings and signatures stay valid
// verbatim), and each engine's builder over just those tables produces
// their parts — join ID sets, TUS signatures, column vectors and the
// rest — encoded against the frozen base embedding model (training is
// globally corpus-coupled; retraining would invalidate every base
// vector). No engine is assembled.
// Removals are tombstones: the base bytes are untouched and the ID is
// masked at merge. Deltas chain by generation hash — each records the
// generation it applies to (ParentGen) and the generation that results
// (ResultGen = snap.HashTables over the sorted surviving table IDs and
// their content hashes) — so a stale or misordered delta is rejected
// with ErrDeltaChain, not silently merged. Folding content hashes into
// the generation means a replace (remove + add under the same ID with
// different bytes) produces a NEW generation: the serving tier keys
// its query cache on the generation, so membership-only hashing would
// let a replace serve stale cached results.
//
// Loading a chain (LoadChain*) materializes the merge: Build's stage
// table runs over the merged catalog, with base and delta parts folded
// per search surface through each engine's FromParts constructor,
// the one assembly a build runs too, over the merged catalog
// (with tables in sorted-ID order — the order lake.LoadCSVDir
// produces). Only the tables the chain adds are analysed: the base's
// dictionary values and keyword postings carry over (see applyDeltas),
// and the two HNSW graphs (Starmie's columns, TUS's NL index) grow from
// the base's by each delta's added columns (see graphFold) instead of
// being rebuilt. So every section but those two graphs' and the
// Starmie rows of the vector blob is the one a from-scratch build
// writes, and those differ only when an add-only chain's columns do
// not sort after the base's; the approximate answers over the grown
// graphs are checked equal to a fresh build's on the test and benchmark
// lakes. Compaction (CompactFiles) is just LoadChain + Save: the fold
// becomes the next base and the chain resets, and a chain, its
// compaction and any compacted prefix followed by the rest of the chain
// write the same bytes.
package core

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"

	"tablehound/internal/dict"
	"tablehound/internal/hnsw"
	"tablehound/internal/join"
	"tablehound/internal/keyword"
	"tablehound/internal/lake"
	"tablehound/internal/parallel"
	"tablehound/internal/snap"
	"tablehound/internal/starmie"
	"tablehound/internal/table"
	"tablehound/internal/tokenize"
	"tablehound/internal/union"
	"tablehound/internal/vecstore"
)

// ErrDeltaChain marks a structurally sound delta that does not chain
// onto the state it is being applied to: wrong parent generation,
// dictionary size mismatch, a tombstone for an absent table, a re-add
// without a tombstone, or a result generation that does not hash the
// surviving membership. Distinct from ErrCorruptSnapshot (damaged
// bytes) — a chain error means the files are fine but mismatched.
var ErrDeltaChain = errors.New("core: delta chain mismatch")

// Lineage records where a system's table membership came from: the
// base snapshot's generation, the delta chain applied on top, and the
// resulting generation. The serving tier keys caches on Gen and
// reports Depth on health checks.
type Lineage struct {
	// BaseGen is the generation of the base snapshot — the generation
	// the last compaction produced (or the initial full build).
	BaseGen uint64
	// Gen is the generation after applying Deltas; equal to BaseGen
	// when the chain is empty.
	Gen uint64
	// TableIDs is the sorted live table-ID list at Gen, and
	// TableHashes the aligned per-table content hashes Gen folds in.
	TableIDs    []string
	TableHashes []uint64
	// Deltas describes the applied chain in order; empty for a system
	// loaded directly from a base snapshot or freshly built.
	Deltas []DeltaInfo
	// Folded lists delta files that were presented to the loader but
	// skipped because they are already folded into the base — the
	// residue of a compaction that crashed (or whose retirement rename
	// failed) between installing the new base and retiring its
	// consumed deltas. They are safe to retire or delete.
	Folded []string
}

// DeltaInfo is the footprint of one applied delta.
type DeltaInfo struct {
	Path       string
	Gen        uint64 // generation after this delta (its ResultGen)
	Tables     int    // tables added
	Tombstones int    // tables removed
	Bytes      int64  // on-disk size
}

// Generation returns the system's lake-content generation: the
// lineage generation when known (loaded or delta-merged systems), else
// the hash of the catalog's sorted (table ID, content hash) pairs
// (fresh in-memory builds). Two systems with the same generation hold
// the same live tables with the same contents and — by the delta
// parity invariant — answer every query alike (bit-identically when
// one is the other's chain or compaction), which is what
// lets the serving tier keep its query cache across swaps that do not
// change the data while purging on any swap that does, including a
// replace that leaves the ID set unchanged.
func (s *System) Generation() uint64 {
	if s.Lineage != nil {
		return s.Lineage.Gen
	}
	ids := sortedTableIDs(s.Catalog)
	return snap.HashTables(ids, contentHashes(s.Catalog, ids))
}

// Depth reports the delta-chain length (0 for a plain base).
func (l *Lineage) Depth() int {
	if l == nil {
		return 0
	}
	return len(l.Deltas)
}

// TombstoneCount totals the tombstones across the applied chain.
func (l *Lineage) TombstoneCount() int {
	if l == nil {
		return 0
	}
	n := 0
	for _, d := range l.Deltas {
		n += d.Tombstones
	}
	return n
}

// LastCompactGen is the generation of the base the chain grows from —
// what the most recent compaction (or initial build) produced.
func (l *Lineage) LastCompactGen() uint64 {
	if l == nil {
		return 0
	}
	return l.BaseGen
}

// Delta snapshot framing: same CRC-framed section codec as the system
// snapshot, under its own magic so the two cannot be confused. Version
// 2 chained on content-folded generations (snap.HashTables); version 3
// lays each engine section out in that engine's per-table parts codec;
// version 4 carries D3L's values as IDs in the extended dictionary and
// its words as positions in the section's own word list; version 5
// carries SANTOS's pairs as packed pairs of extended-dictionary IDs;
// version 6 writes SANTOS's parts as its snapshot section does, one
// pair list and per relationship its positions there. Older files fail
// with ErrVersionMismatch rather than a confusing chain error.
const (
	deltaMagic   uint32 = 0x54484442 // "THDB": tablehound delta binary
	deltaVersion uint16 = 6
)

// Delta section IDs, in stream order.
const (
	dsecMeta uint16 = iota + 1
	dsecDict
	dsecCatalog
	dsecJoin
	dsecTUS
	dsecSantos
	dsecD3L
	dsecStarmie
)

// Delta is one increment of lake membership: tombstones to mask,
// tables to add, the dictionary extension their values need, and the
// per-surface index parts analyzed over only those tables.
type Delta struct {
	// ParentGen is the generation this delta applies to; ResultGen is
	// the generation after applying it (snap.HashTables over the
	// sorted surviving table IDs and their content hashes).
	ParentGen uint64
	ResultGen uint64
	// BaseDictSize is the dictionary size the extension appends at: new
	// value IDs start here, so applying against any other dictionary
	// would scramble the ID space and is rejected.
	BaseDictSize int
	// Tombstones are the removed table IDs, sorted.
	Tombstones []string
	// NewValues are the dictionary extension in ID order (sorted; IDs
	// BaseDictSize..BaseDictSize+len-1).
	NewValues []string
	// Catalog holds the added tables verbatim (empty for a remove-only
	// delta).
	Catalog *lake.Catalog
	// JoinIDSets are the new tables' join postings, encoded in the
	// extended dictionary. Signatures are not stored: the merge signs
	// these columns through dict.Sign, bit-identically, and keeps the
	// base snapshot's stored ones for the tables the chain leaves alone.
	JoinIDSets map[string]dict.IDSet
	// Per-surface parts for the added tables. TUS's and D3L's value IDs,
	// and both halves of SANTOS's packed pairs, are in the extended
	// dictionary.
	TUS     []union.TUSTableParts
	Santos  union.SantosParts
	D3L     union.D3LParts
	Starmie []starmie.TableParts
}

// AddedIDs returns the sorted IDs of tables this delta adds.
func (d *Delta) AddedIDs() []string {
	return sortedTableIDs(d.Catalog)
}

// Save writes the delta as one self-contained CRC-framed stream: the
// chain links, the dictionary extension and the added tables, then one
// section per engine in that engine's parts codec.
func (d *Delta) Save(w io.Writer) error {
	if err := snap.WriteHeader(w, deltaMagic, deltaVersion, 0); err != nil {
		return err
	}
	sw := snap.NewWriter(w)
	for _, sec := range []struct {
		id  uint16
		enc func(*snap.Encoder)
	}{
		{dsecMeta, func(e *snap.Encoder) {
			e.U64(d.ParentGen)
			e.U64(d.ResultGen)
			e.U32(uint32(d.BaseDictSize))
			e.Strs(d.Tombstones)
		}},
		{dsecDict, func(e *snap.Encoder) { e.Strs(d.NewValues) }},
		{dsecCatalog, d.Catalog.AppendSnapshot},
		{dsecJoin, func(e *snap.Encoder) { join.AppendParts(e, d.JoinIDSets) }},
		{dsecTUS, func(e *snap.Encoder) { union.AppendTUSParts(e, d.TUS) }},
		{dsecSantos, func(e *snap.Encoder) { union.AppendSantosParts(e, d.Santos) }},
		{dsecD3L, func(e *snap.Encoder) { union.AppendD3LParts(e, d.D3L) }},
		{dsecStarmie, func(e *snap.Encoder) { starmie.AppendParts(e, d.Starmie) }},
	} {
		if err := sw.Section(sec.id, sec.enc); err != nil {
			return err
		}
	}
	return nil
}

// SaveFile writes the delta to path (created or truncated), buffered;
// the file is synced before return.
func (d *Delta) SaveFile(path string) error {
	return writeFile(path, d.Save)
}

// LoadDelta reads a delta written by Save, whole. Structural damage
// surfaces ErrCorruptSnapshot; chain consistency is NOT checked here
// (apply time owns that — the same delta file can be valid for one
// lake and stale for another).
func LoadDelta(r io.Reader) (*Delta, error) {
	buf, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return decodeDelta(buf)
}

// decodeDelta decodes a whole delta file's bytes.
func decodeDelta(buf []byte) (*Delta, error) {
	version, flags, err := snap.ReadHeader(buf, deltaMagic)
	if err != nil {
		return nil, err
	}
	if version != deltaVersion {
		return nil, fmt.Errorf("%w: found delta version %d, expected %d", ErrVersionMismatch, version, deltaVersion)
	}
	if flags != 0 {
		return nil, fmt.Errorf("%w: unknown delta header flags %#x", ErrCorruptSnapshot, flags)
	}
	sr := snap.NewReader(buf[snap.HeaderLen:])
	d := &Delta{}
	for _, sec := range []struct {
		id  uint16
		dec func(*snap.Decoder) error
	}{
		{dsecMeta, func(dec *snap.Decoder) error {
			d.ParentGen = dec.U64()
			d.ResultGen = dec.U64()
			d.BaseDictSize = int(dec.U32())
			d.Tombstones = dec.Strs()
			return dec.Err()
		}},
		{dsecDict, func(dec *snap.Decoder) error {
			d.NewValues = dec.Strs()
			return dec.Err()
		}},
		{dsecCatalog, into(&d.Catalog, lake.DecodeSnapshot)},
		{dsecJoin, into(&d.JoinIDSets, join.DecodeParts)},
		{dsecTUS, into(&d.TUS, union.DecodeTUSParts)},
		{dsecSantos, into(&d.Santos, union.DecodeSantosParts)},
		{dsecD3L, into(&d.D3L, union.DecodeD3LParts)},
		{dsecStarmie, into(&d.Starmie, starmie.DecodeParts)},
	} {
		if err := sr.Section(sec.id, sec.dec); err != nil {
			return nil, err
		}
	}
	if err := sr.Close(); err != nil {
		return nil, err
	}
	if err := d.checkParts(); err != nil {
		return nil, err
	}
	return d, nil
}

// checkParts rejects engine parts that the delta's own catalog does not
// back, and a catalog whose parts are missing: a part or join key for a
// table the delta does not add, a table listed twice in one engine's
// parts, a join key naming no column of its table, or an engine's parts
// that lack an added table (a join column) its builder would index or
// hold one it would not. A merge folds parts by table ID, so such a part
// would replace a base table's analysis or index a column that is not
// there, and a missing one would leave the table out of that engine.
// SANTOS's packed pair list must be strictly ascending, both halves of
// every pair IDs of the delta's extended dictionary.
func (d *Delta) checkParts() error {
	added := make(map[string]*table.Table, d.Catalog.Len())
	for _, t := range d.Catalog.Tables() {
		added[t.ID] = t
	}
	corrupt := func(format string, args ...any) error {
		return fmt.Errorf("%w: delta %s", ErrCorruptSnapshot, fmt.Sprintf(format, args...))
	}
	for key := range d.JoinIDSets {
		id, col := table.SplitColumnKey(key)
		if t := added[id]; t == nil {
			return corrupt("join parts name table %q, which it does not add", id)
		} else if t.Column(col) == nil {
			return corrupt("join parts name column %q, which table %q does not have", col, id)
		}
	}
	for _, t := range d.Catalog.Tables() {
		for _, c := range t.Columns {
			key := table.ColumnKey(t.ID, c.Name)
			if _, ok := d.JoinIDSets[key]; ok != join.Indexes(c, minJoinCardinality) {
				return corrupt("join parts disagree with the join index on column %q", key)
			}
		}
	}
	if err := union.CheckSantosPairs(d.Santos.Pairs, d.BaseDictSize+len(d.NewValues)); err != nil {
		return corrupt("SANTOS %v", err)
	}
	for _, e := range []struct {
		engine  string
		ids     []string
		indexes func(*table.Table) bool // nil: every table
	}{
		{"TUS", partIDs(d.TUS, func(p union.TUSTableParts) string { return p.ID }), union.TUSIndexes},
		{"SANTOS", partIDs(d.Santos.Tables, func(p union.SantosTableParts) string { return p.ID }), union.SantosIndexes},
		{"D3L", partIDs(d.D3L.Tables, func(p union.D3LTableParts) string { return p.ID }), union.D3LIndexes},
		{"Starmie", partIDs(d.Starmie, func(p starmie.TableParts) string { return p.ID }), nil},
	} {
		seen := make(map[string]bool, len(e.ids))
		for _, id := range e.ids {
			if added[id] == nil {
				return corrupt("%s parts name table %q, which it does not add", e.engine, id)
			}
			if seen[id] {
				return corrupt("%s parts name table %q twice", e.engine, id)
			}
			seen[id] = true
		}
		for _, t := range d.Catalog.Tables() {
			if seen[t.ID] != (e.indexes == nil || e.indexes(t)) {
				return corrupt("%s parts disagree with the %s index on table %q", e.engine, e.engine, t.ID)
			}
		}
	}
	return nil
}

// partIDs lists the table ID of each part, in order.
func partIDs[P any](parts []P, id func(P) string) []string {
	out := make([]string, len(parts))
	for i, p := range parts {
		out[i] = id(p)
	}
	return out
}

// LoadDeltaFile loads a delta from a file written by SaveFile.
func LoadDeltaFile(path string) (*Delta, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decodeDelta(buf)
}

// live returns the lineage's membership as table ID → content hash,
// the state a delta chain folds over.
func (l *Lineage) live() map[string]uint64 {
	m := make(map[string]uint64, len(l.TableIDs))
	for i, id := range l.TableIDs {
		m[id] = l.TableHashes[i]
	}
	return m
}

// loadDeltaFiles loads a delta chain in order, with each file's
// footprint.
func loadDeltaFiles(paths []string) ([]*Delta, []DeltaInfo, error) {
	deltas := make([]*Delta, len(paths))
	infos := make([]DeltaInfo, len(paths))
	for i, p := range paths {
		dd, err := LoadDeltaFile(p)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", p, err)
		}
		deltas[i] = dd
		var size int64
		if fi, serr := os.Stat(p); serr == nil {
			size = fi.Size()
		}
		infos[i] = DeltaInfo{Path: p, Gen: dd.ResultGen, Tables: dd.Catalog.Len(), Tombstones: len(dd.Tombstones), Bytes: size}
	}
	return deltas, infos, nil
}

// BuildDelta analyzes a lake mutation — add tables, remove tables, or
// both (removes apply first, so add+remove of the same ID is a
// replace) — against the base snapshot at basePath with the deltas at
// deltaPaths already applied, and returns the delta that chains onto
// them. Only the new tables are analyzed; cost scales with the
// mutation, not the lake. Of opts only Parallelism is consulted; index
// parameters come from the base so delta parts are exchangeable with
// base parts.
func BuildDelta(basePath string, deltaPaths []string, add []*table.Table, remove []string, opts Options) (*Delta, error) {
	// Of the base only the foundations every delta encodes against are
	// decoded (model, KB, dictionary): the engines, catalog and HNSW
	// graphs are framed and checksummed but never decoded, which keeps
	// `lakectl add` far under the cost of a full load. The file is read
	// rather than mapped, so the vector blob's checksum is verified too.
	o, err := openFile(basePath, Options{Parallelism: opts.Parallelism, VecMode: "heap"})
	if err != nil {
		return nil, err
	}
	g := &decodeGroup{}
	if err := o.foundations(g); err != nil {
		return nil, err
	}
	if err := g.wait(); err != nil {
		return nil, err
	}
	base := o.s
	live := base.Lineage.live()
	d := base.Dict
	gen := base.Lineage.Gen
	chain, _, err := loadDeltaFiles(deltaPaths)
	if err != nil {
		return nil, err
	}
	// A compaction interrupted between installing the folded base and
	// retiring its consumed delta files leaves deltas on disk that are
	// already inside the base; skip that prefix instead of failing.
	for i := foldedPrefix(chain, gen); i < len(chain); i++ {
		if err := applyMembership(chain[i], deltaPaths[i], live, gen, d.Size()); err != nil {
			return nil, err
		}
		d = dict.Extend(d, chain[i].NewValues)
		gen = chain[i].ResultGen
	}

	removeSet := make(map[string]bool, len(remove))
	for _, id := range remove {
		if _, ok := live[id]; !ok {
			return nil, fmt.Errorf("core: cannot remove %q: not in the lake", id)
		}
		removeSet[id] = true
	}
	addSorted := make([]*table.Table, len(add))
	copy(addSorted, add)
	sort.Slice(addSorted, func(i, j int) bool { return addSorted[i].ID < addSorted[j].ID })
	for _, t := range addSorted {
		if _, ok := live[t.ID]; ok && !removeSet[t.ID] {
			return nil, fmt.Errorf("core: cannot add %q: already in the lake (remove it first to replace)", t.ID)
		}
	}
	if len(addSorted) == 0 && len(removeSet) == 0 {
		return nil, errors.New("core: empty delta: nothing to add or remove")
	}
	for id := range removeSet {
		delete(live, id)
	}

	baseSize := d.Size()
	var vals []string
	for _, t := range addSorted {
		for _, c := range t.Columns {
			vals = append(vals, tokenize.NormalizeSet(c.Values)...)
		}
	}
	ext := dict.Extend(d, vals)
	var newValues []string
	for i := baseSize; i < ext.Size(); i++ {
		newValues = append(newValues, ext.Value(uint32(i)))
	}

	var tombstones []string
	for id := range removeSet {
		tombstones = append(tombstones, id)
	}
	sort.Strings(tombstones)
	delta := &Delta{
		ParentGen:    gen,
		BaseDictSize: baseSize,
		Tombstones:   tombstones,
		NewValues:    newValues,
		Catalog:      lake.NewCatalog(),
		JoinIDSets:   make(map[string]dict.IDSet),
	}
	if err := delta.Catalog.AddBatch(addSorted); err != nil {
		return nil, err
	}
	if err := analyzeDelta(delta, base, ext); err != nil {
		return nil, err
	}
	for _, t := range addSorted {
		live[t.ID] = t.ContentHash()
	}
	delta.ResultGen = contentGen(live)
	return delta, nil
}

// analyzeDelta fills the delta's join ID sets and engine parts: each
// engine's builder over the tables the delta adds (none, for a
// remove-only delta), against the frozen base model and KB and the
// extended dictionary ext, on the base's worker budget. Every value ID
// must be in ext, which holds every value of the added tables.
func analyzeDelta(delta *Delta, base *System, ext *dict.Dict) error {
	tables, workers := delta.Catalog.Tables(), base.buildOpts.Parallelism
	inExt := func(engine string, d *dict.Dict) error {
		if d != ext {
			return fmt.Errorf("core: %s: a delta column holds a value outside the extended dictionary", engine)
		}
		return nil
	}
	steps := []func() error{
		func() error {
			jb := join.NewBuilder(minJoinCardinality)
			jb.UseDict(ext)
			for _, t := range tables {
				jb.AddTable(t)
			}
			if jb.NumStaged() == 0 {
				return nil
			}
			d, keys, sets, err := jb.Encode()
			if err != nil {
				return fmt.Errorf("core: join index: %w", err)
			}
			for i, key := range keys {
				delta.JoinIDSets[key] = sets[i]
			}
			return inExt("join index", d)
		},
		func() error {
			b, err := union.NewTUSBuilder(union.TUSConfig{Model: base.Model, KB: base.KB, Dict: ext})
			if err != nil {
				return err
			}
			b.AddTables(tables, workers)
			var d *dict.Dict
			d, delta.TUS = b.Parts()
			return inExt("TUS", d)
		},
		func() error {
			b := union.NewSantosBuilder(base.KB, ext)
			b.AddTables(tables, workers)
			var d *dict.Dict
			d, delta.Santos = b.Parts()
			return inExt("SANTOS", d)
		},
		func() error {
			b, err := union.NewD3LBuilder(base.Model, ext)
			if err != nil {
				return err
			}
			b.AddTables(tables, workers)
			var d *dict.Dict
			d, delta.D3L = b.Parts()
			return inExt("D3L", d)
		},
		func() error {
			b := starmie.NewBuilder(starmie.NewEncoder(base.Model, contextWeight))
			b.AddTables(tables, workers)
			delta.Starmie = b.Parts()
			return nil
		},
	}
	return parallel.ForEach(len(steps), workers, func(i int) error { return steps[i]() })
}

// contentGen hashes a live (table ID → content hash) membership into
// a generation.
func contentGen(live map[string]uint64) uint64 {
	ids := sortedKeys(live)
	hashes := make([]uint64, len(ids))
	for i, id := range ids {
		hashes[i] = live[id]
	}
	return snap.HashTables(ids, hashes)
}

// foldedPrefix returns the number of leading deltas that are already
// folded into a base at gen: the longest prefix that chains internally
// and ends exactly at gen. A compaction that crashed — or whose
// retirement renames failed — between installing the folded base and
// retiring its consumed delta files leaves exactly such a prefix next
// to the new base; loaders skip it instead of hard-failing with
// ErrDeltaChain and stranding the daemon until manual cleanup. It
// returns 0 when the first delta chains onto gen directly (nothing
// folded) or when no consistent folded prefix exists, in which case
// the normal chain walk reports the precise mismatch.
func foldedPrefix(deltas []*Delta, gen uint64) int {
	if len(deltas) == 0 || deltas[0].ParentGen == gen {
		return 0
	}
	for k, d := range deltas {
		if k > 0 && d.ParentGen != deltas[k-1].ResultGen {
			return 0
		}
		if d.ResultGen == gen {
			return k + 1
		}
	}
	return 0
}

// applyMembership validates one delta's chain links against the
// current (gen, dictSize) state and folds its tombstones and additions
// into the live (table ID → content hash) map. It does NOT extend the
// dictionary — callers own that, so they control whether parts are
// also being merged.
func applyMembership(d *Delta, path string, live map[string]uint64, gen uint64, dictSize int) error {
	if d.ParentGen != gen {
		return fmt.Errorf("%w: delta %s chains onto generation %016x, lake is at %016x", ErrDeltaChain, path, d.ParentGen, gen)
	}
	if d.BaseDictSize != dictSize {
		return fmt.Errorf("%w: delta %s extends a dictionary of %d values, lake has %d", ErrDeltaChain, path, d.BaseDictSize, dictSize)
	}
	for _, id := range d.Tombstones {
		if _, ok := live[id]; !ok {
			return fmt.Errorf("%w: delta %s removes %q, which is not in the lake", ErrDeltaChain, path, id)
		}
		delete(live, id)
	}
	for _, t := range d.Catalog.Tables() {
		if _, ok := live[t.ID]; ok {
			return fmt.Errorf("%w: delta %s re-adds %q without a tombstone", ErrDeltaChain, path, t.ID)
		}
		live[t.ID] = t.ContentHash()
	}
	if want := contentGen(live); want != d.ResultGen {
		return fmt.Errorf("%w: delta %s declares result generation %016x, applying it yields %016x", ErrDeltaChain, path, d.ResultGen, want)
	}
	return nil
}

// LoadChainFiles loads a base snapshot plus an ordered delta chain and
// materializes the merge: one System answering every search surface
// as a from-scratch build over the surviving tables does (see the
// package comment for where their bytes may differ).
// With no deltas it is exactly LoadFile. A leading run of deltas that
// are already folded into the base — left behind by a compaction
// interrupted between installing the new base and retiring its
// consumed delta files — is skipped and reported via Lineage.Folded
// rather than failing the load.
//
// The base is only decoded, not derived, while a merge may follow:
// the merge does not read the base's catalog statistics and derives
// them over the merged catalog, so deriving them over the base first
// would be done twice and discarded once. For the same reason its
// union sections stay parts: the merge folds them, and no base union
// engine is assembled. The base derives itself only when nothing is
// left to apply and it is the system returned.
func LoadChainFiles(basePath string, deltaPaths []string, opts Options) (*System, error) {
	if len(deltaPaths) == 0 {
		return LoadFile(basePath, opts)
	}
	o, err := openFile(basePath, opts)
	if err != nil {
		return nil, err
	}
	deltas, infos, err := loadDeltaFiles(deltaPaths)
	if err != nil {
		o.discard()
		return nil, err
	}
	folded := foldedPrefix(deltas, o.s.Lineage.Gen)
	skipped := deltaPaths[:folded]
	if folded == len(deltas) {
		base, err := load(o, nil)
		if err != nil {
			return nil, err
		}
		base.Lineage.Folded = skipped
		return base, nil
	}
	base, u, err := o.decode(false)
	var sys *System
	if err == nil {
		sys, err = applyDeltas(base, u, deltas[folded:], infos[folded:])
	}
	if err != nil {
		o.discard()
		return nil, err
	}
	sys.Lineage.Folded = skipped
	return sys, nil
}

// unmapped is a merge's remap target for a value of the chain's
// extended dictionary that no live table holds.
const unmapped = ^uint32(0)

// applyDeltas folds an ordered delta chain over a freshly decoded base
// system and returns the merged system. The base's union engines come
// as their sections' parts, u (the base's union engines are not read).
// The base is consumed: the merged system takes over its model, KB and
// keyword indexes, and the merged vector store shares its store's model
// segment (rows, norms and any mapping) without a copy, so the base
// must not keep serving queries (LoadChainFiles decodes a fresh base
// per merge). Only what a snapshot stores is read from the base; its
// Stats may be nil.
//
// The merge analyses only the tables a chain adds; every other live
// table is the base's, and what the base derived from it carries over:
// its dictionary values (on a chain without tombstones), its keyword
// postings, its join ID sets, its union parts and its graph nodes (see
// graphFold).
func applyDeltas(base *System, u *unionSections, deltas []*Delta, infos []DeltaInfo) (*System, error) {
	start := time.Now()
	if base.Lineage == nil {
		return nil, errors.New("core: base system has no lineage (not loaded from a snapshot)")
	}
	bopts := base.buildOpts
	gen := base.Lineage.Gen
	// live is the membership the generation chain folds over, as table
	// ID → content hash. Base hashes come from the snapshot's meta
	// section so they are never recomputed over the full base catalog.
	if len(base.Lineage.TableHashes) != len(base.Lineage.TableIDs) {
		return nil, fmt.Errorf("core: base lineage has %d content hashes for %d table IDs", len(base.Lineage.TableHashes), len(base.Lineage.TableIDs))
	}
	live := base.Lineage.live()
	// A merge moves the base's value IDs onto the merged dictionary, so
	// each engine's must be the system's: the join engine's as decoded,
	// each union section's by its dictionary flag.
	for _, e := range []struct {
		name   string
		values *dict.Dict
	}{{"join engine", base.Join.Dict()}, {"TUS", u.tus.Dict}, {"SANTOS", u.santosDict}, {"D3L", u.d3lDict}} {
		if e.values != base.Dict {
			return nil, fmt.Errorf("%w: %s does not share the system dictionary, so its parts cannot merge", ErrCorruptSnapshot, e.name)
		}
	}
	// The catalog folds like the engines' parts: the table under each
	// live ID. The union parts fold once the dictionary is merged (see
	// foldUnion); sets holds them, the base's first, with the size of
	// the dictionary each set's value IDs are in: the base's, then each
	// delta's extended one.
	tables := foldParts(base.Catalog.Tables(), func(t *table.Table) string { return t.ID })
	joinSets := base.Join.Parts().IDSets
	sets := []partSet{{name: "base", size: base.Dict.Size(), tus: u.tus.Parts, santos: u.santos, d3l: u.d3l, starmie: u.starmie.Parts}}
	// The two HNSW graphs fold too: from the base's, each delta inserts
	// the columns of the tables it adds, and one that tombstones any
	// table restarts them empty over the tables live after it.
	graphs := graphFold{starmie: u.starmie.Graph, tus: u.tus.Graph}
	// added holds the live tables the chain added, replaced ones
	// included; blocks holds each delta's new dictionary values.
	added := make(map[string]*table.Table)
	var blocks [][]string
	tombstoned := false

	for i, dd := range deltas {
		path := fmt.Sprintf("delta[%d]", i)
		if i < len(infos) && infos[i].Path != "" {
			path = infos[i].Path
		}
		last := sets[len(sets)-1]
		if err := applyMembership(dd, path, live, gen, last.size); err != nil {
			return nil, err
		}
		for _, id := range dd.Tombstones {
			for key := range joinSets {
				if tid, _ := table.SplitColumnKey(key); tid == id {
					delete(joinSets, key)
				}
			}
			delete(added, id)
		}
		for key, ids := range dd.JoinIDSets {
			if _, dup := joinSets[key]; dup {
				return nil, fmt.Errorf("%w: delta %s re-adds join column %q", ErrDeltaChain, path, key)
			}
			joinSets[key] = ids
		}
		for _, t := range dd.Catalog.Tables() {
			added[t.ID] = t
		}
		tables.apply(dd.Tombstones, dd.Catalog.Tables())
		graphs.apply(dd, live)
		tombstoned = tombstoned || len(dd.Tombstones) > 0
		blocks = append(blocks, dd.NewValues)
		sets = append(sets, partSet{
			name: "delta " + path, tombstones: dd.Tombstones, size: last.size + len(dd.NewValues),
			tus: dd.TUS, santos: dd.Santos, d3l: dd.D3L, starmie: dd.Starmie,
		})
		gen = dd.ResultGen
	}

	// Merged catalog in sorted-ID order — the canonical order a fresh
	// build over the same tables uses, which keeps the order-sensitive
	// structures (keyword statistics) bit-identical.
	ids := sortedKeys(live)
	cat := lake.NewCatalog()
	ordered := tables.inIDOrder(ids)
	if err := cat.AddBatch(ordered); err != nil {
		return nil, err
	}
	// The merged system gets the sorted dictionary a from-scratch build
	// constructs over the merged catalog, and the folded ID sets remap
	// onto it. The chain's extended dictionary is only the deltas'
	// transport encoding: keeping it would persist an unsorted value
	// table (which the dict snapshot codec rightly rejects) and let
	// stale values from removed tables accumulate across compactions.
	stats := newBuildStats(bopts.Parallelism)
	var freshDict *dict.Dict
	var remap []uint32
	if err := stats.time(stageDict, func() (n int, err error) {
		if freshDict, remap, err = mergeDict(base.Dict, blocks, tombstoned, ordered, bopts.Parallelism); err == nil {
			n = freshDict.Size()
		}
		return n, err
	}); err != nil {
		return nil, err
	}
	for key, set := range joinSets {
		ns := make(dict.IDSet, len(set))
		for i, id := range set {
			if int(id) >= len(remap) || remap[id] == unmapped {
				return nil, fmt.Errorf("join column %q: %w: ID %d references a value outside the merged lake", key, ErrDeltaChain, id)
			}
			ns[i] = remap[id]
		}
		slices.Sort(ns)
		joinSets[key] = ns
	}
	model, _ := base.Vecs.View("model") // the base's foundations required it
	mp := mergedParts{
		model:   model,
		added:   added,
		keyword: base.Keyword,
		values:  base.Values,
		join:    join.EngineParts{IDSets: joinSets},
		graphs:  graphs,
	}
	if err := mp.foldUnion(sets, remap, ids); err != nil {
		return nil, err
	}
	// Build's stage table over the merged catalog, with the base's
	// build parameters: the keyword indexes and the engines fold from
	// the base's and the chain's parts, the statistics rebuild from the
	// catalog.
	sys := &System{Catalog: cat, Model: base.Model, KB: base.KB, Dict: freshDict, BuildStats: stats, buildOpts: bopts}
	if err := (pipeline{s: sys, opts: bopts, parts: &mp}).run(); err != nil {
		return nil, err
	}
	stats.Stages[stageModel].Items = loadedItems // the base's frozen model, never retrained
	hashes := make([]uint64, len(ids))
	for i, id := range ids {
		hashes[i] = live[id]
	}
	sys.Lineage = &Lineage{BaseGen: base.Lineage.Gen, Gen: gen, TableIDs: ids, TableHashes: hashes, Deltas: infos}
	stats.Total = time.Since(start)
	return sys, nil
}

// partSet is one set of union parts a merge folds — the base's
// sections' or one delta's — with the tables it removes first and the
// size of the dictionary its value IDs are in.
type partSet struct {
	name       string
	tombstones []string
	size       int
	tus        []union.TUSTableParts
	santos     union.SantosParts
	d3l        union.D3LParts
	starmie    []starmie.TableParts
}

// foldUnion folds the union part sets in chain order into mp, each
// table's parts in the merged lake's table order ids. Before a set
// folds, its value IDs move through remap onto the merged dictionary,
// each ID set checked against the set's own dictionary; D3L's word IDs
// move onto the union of the sets' word lists, and SANTOS's pair IDs
// onto the union of their pair lists, whose pairs move through remap
// first. A value no live table holds moves to unmapped, and a pair
// holding one to union.NoPair: only the tables the chain removes may
// hold either, and an assembly refuses both.
func (mp *mergedParts) foldUnion(sets []partSet, remap []uint32, ids []string) error {
	wordLists, pairLists := make([][]string, len(sets)), make([][]uint64, len(sets))
	for i, set := range sets {
		if err := union.CheckSantosPairs(set.santos.Pairs, set.size); err != nil {
			return fmt.Errorf("%w: %s: SANTOS %v", ErrCorruptSnapshot, set.name, err)
		}
		wordLists[i], pairLists[i] = set.d3l.Words, set.santos.Pairs
	}
	words, wordRemaps, err := union.MergeWords(wordLists...)
	if err != nil {
		return fmt.Errorf("%w: %w", ErrCorruptSnapshot, err)
	}
	pairs, pairRemaps := union.MergePairs(pairLists, func(id uint32) (uint32, bool) { return remap[id], remap[id] != unmapped })
	tus := foldParts[union.TUSTableParts](nil, func(p union.TUSTableParts) string { return p.ID })
	santos := foldParts[union.SantosTableParts](nil, func(p union.SantosTableParts) string { return p.ID })
	d3l := foldParts[union.D3LTableParts](nil, func(p union.D3LTableParts) string { return p.ID })
	star := foldParts[starmie.TableParts](nil, func(p starmie.TableParts) string { return p.ID })
	for i, set := range sets {
		values := func(ids dict.IDSet) (dict.IDSet, error) {
			if err := ids.Check(set.size); err != nil {
				return nil, err
			}
			out := make(dict.IDSet, len(ids))
			for k, id := range ids {
				out[k] = remap[id]
			}
			slices.Sort(out)
			return out, nil
		}
		corrupt := func(err error) error { return fmt.Errorf("%w: %s: %w", ErrCorruptSnapshot, set.name, err) }
		tusMoved := make([]union.TUSTableParts, len(set.tus))
		for ti, p := range set.tus {
			tusMoved[ti] = union.TUSTableParts{ID: p.ID, Cols: slices.Clone(p.Cols)}
			for ci := range p.Cols {
				c := &tusMoved[ti].Cols[ci]
				var err error
				if c.IDs, err = values(c.IDs); err != nil {
					return corrupt(fmt.Errorf("TUS column %s.%s: %v", p.ID, c.Name, err))
				}
			}
		}
		d3lMoved, err := union.RemapWordIDs(set.d3l.Tables, wordRemaps[i])
		if err != nil {
			return corrupt(err)
		}
		for _, p := range d3lMoved {
			for ci := range p.Cols {
				c := &p.Cols[ci]
				if c.IDs, err = values(c.IDs); err != nil {
					return corrupt(fmt.Errorf("D3L column %d of table %s: %v", c.ColIdx, p.ID, err))
				}
			}
		}
		santosMoved, err := union.RemapPairIDs(set.santos.Tables, pairRemaps[i])
		if err != nil {
			return corrupt(err)
		}
		tus.apply(set.tombstones, tusMoved)
		santos.apply(set.tombstones, santosMoved)
		d3l.apply(set.tombstones, d3lMoved)
		star.apply(set.tombstones, set.starmie)
	}
	mp.tus = tus.inIDOrder(ids)
	mp.santos = union.SantosParts{Pairs: pairs, Tables: santos.inIDOrder(ids)}
	mp.d3l = union.D3LParts{Words: words, Tables: d3l.inIDOrder(ids)}
	mp.starmie = star.inIDOrder(ids)
	return nil
}

// mergeDict returns the merged lake's dictionary — the sorted one a
// fresh build constructs over tables — and the remap from the chain's
// extended IDs (base's, then each block's in turn) onto it, unmapped
// for a value no live table holds. A chain without tombstones removes
// no value, so its dictionary is the base's merged with each delta's
// new values; a tombstone may remove some, and the dictionary is built
// from the tables again.
func mergeDict(base *dict.Dict, blocks [][]string, tombstoned bool, tables []*table.Table, parallelism int) (*dict.Dict, []uint32, error) {
	if !tombstoned {
		d, remap, err := dict.Merge(base, blocks...)
		if err != nil {
			return nil, nil, fmt.Errorf("%w: %v", ErrDeltaChain, err)
		}
		return d, remap, nil
	}
	d, err := buildDict(tables, parallelism)
	if err != nil {
		return nil, nil, err
	}
	remap := make([]uint32, 0, base.Size())
	claimed := make([]bool, d.Size())
	add := func(v string) error {
		id, ok := d.ID(v)
		switch {
		case !ok:
			id = unmapped // value only in removed tables
		case claimed[id]:
			return fmt.Errorf("%w: value %q interned twice", ErrDeltaChain, v)
		default:
			claimed[id] = true
		}
		remap = append(remap, id)
		return nil
	}
	for i := 0; i < base.Size(); i++ {
		if err := add(base.Value(uint32(i))); err != nil {
			return nil, nil, err
		}
	}
	for _, b := range blocks {
		for _, v := range b {
			if err := add(v); err != nil {
				return nil, nil, err
			}
		}
	}
	return d, remap, nil
}

// mergedParts carries what a merge folds into the keyword, engine and
// vector stages: the tables the chain added (by ID, replaced ones
// included), the base's keyword indexes, each engine's folded parts,
// and the base store's model segment, which the merged store shares.
type mergedParts struct {
	model   vecstore.View
	added   map[string]*table.Table
	keyword *keyword.Index
	values  *keyword.ValueIndex
	join    join.EngineParts
	tus     []union.TUSTableParts
	santos  union.SantosParts
	d3l     union.D3LParts
	starmie []starmie.TableParts
	graphs  graphFold
}

// graphFold is the two HNSW graphs folded along a delta chain: the
// graphs to start from (nil: empty ones) and the batches of table IDs
// to grow them by, in chain order. Each step is a function of the
// graphs so far and one delta, so a chain, its compaction and any
// compacted prefix followed by the rest of the chain save the same
// graphs. An add-only chain inserts only its own columns; a merge
// rebuilds at most once, from its last delta that tombstones a table.
type graphFold struct {
	starmie, tus *hnsw.Graph
	batches      [][]string
}

// apply folds one delta whose membership live already holds.
func (f *graphFold) apply(d *Delta, live map[string]uint64) {
	if len(d.Tombstones) > 0 {
		f.starmie, f.tus = nil, nil
		f.batches = [][]string{sortedKeys(live)}
		return
	}
	f.batches = append(f.batches, d.AddedIDs())
}

// partsFold is per-table state — a table, or one engine's parts for
// it — folded along a delta chain, keyed by table ID.
type partsFold[P any] struct {
	by map[string]P
	id func(P) string
}

// foldParts starts a fold at the base's parts.
func foldParts[P any](base []P, id func(P) string) partsFold[P] {
	f := partsFold[P]{by: make(map[string]P, len(base)), id: id}
	f.apply(nil, base)
	return f
}

// apply folds one delta: its tombstoned tables leave, its added parts
// enter (a replace is both).
func (f partsFold[P]) apply(tombstones []string, added []P) {
	for _, id := range tombstones {
		delete(f.by, id)
	}
	for _, p := range added {
		f.by[f.id(p)] = p
	}
}

// inIDOrder flattens the fold in sorted-table-ID order; ids are the
// merged lake's live tables, a superset of the fold's.
func (f partsFold[P]) inIDOrder(ids []string) []P {
	out := make([]P, 0, len(f.by))
	for _, id := range ids {
		if p, ok := f.by[id]; ok {
			out = append(out, p)
		}
	}
	return out
}

// sortedKeys returns a map's string keys, sorted.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ExpandDeltas resolves a comma-separated delta-chain spec (the CLI
// and daemon -deltas flag) into ordered file paths. Each element may
// be a glob; glob matches are appended in sorted-name order (lakectl
// add names deltas so that name order is chain order), non-glob
// elements pass through verbatim. An empty spec is an empty chain.
func ExpandDeltas(spec string) ([]string, error) {
	if spec == "" {
		return nil, nil
	}
	var paths []string
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if strings.ContainsAny(part, "*?[") {
			matches, err := filepath.Glob(part)
			if err != nil {
				return nil, fmt.Errorf("core: deltas: bad pattern %q: %v", part, err)
			}
			sort.Strings(matches)
			paths = append(paths, matches...)
			continue
		}
		paths = append(paths, part)
	}
	return paths, nil
}

// CompactFiles folds a base snapshot plus its delta chain into a new
// base at outPath (written and fsynced to a temp file, then renamed,
// and the directory fsynced, so readers — including mmap'd loads of an
// old base at the same path — never see a torn file, not even after a
// crash). The merged system is returned so a server can hot-swap
// onto it without reloading. Compaction never retrains the embedding
// model: the frozen base model persists into the new base, by design —
// results stay bit-identical across compactions.
func CompactFiles(basePath string, deltaPaths []string, outPath string, opts Options) (*System, error) {
	sys, err := LoadChainFiles(basePath, deltaPaths, opts)
	if err != nil {
		return nil, err
	}
	tmp := outPath + ".compact.tmp"
	if err := sys.SaveFile(tmp); err != nil {
		os.Remove(tmp)
		return nil, err
	}
	if err := os.Rename(tmp, outPath); err != nil {
		os.Remove(tmp)
		return nil, err
	}
	// The rename is durable only once the directory entry is: a crash
	// before that may still show the old base, whose deltas the loaders
	// then apply as usual.
	if err := syncDir(filepath.Dir(outPath)); err != nil {
		return nil, err
	}
	// The fold is now a base: depth resets, generation carries over.
	sys.Lineage = &Lineage{BaseGen: sys.Lineage.Gen, Gen: sys.Lineage.Gen, TableIDs: sys.Lineage.TableIDs, TableHashes: sys.Lineage.TableHashes}
	return sys, nil
}

// syncDir fsyncs a directory, making the entries renamed into it
// durable.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
