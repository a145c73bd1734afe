// Incremental index maintenance: delta snapshots layer table
// additions and removals over an immutable base snapshot without
// rebuilding it.
//
// A delta is built by analyzing ONLY the new tables: their values
// extend the base dictionary append-only (dict.Extend — every base ID
// keeps its meaning, so base postings and signatures stay valid
// verbatim), and Build's engine stages over just those tables produce
// the new postings, MinHash signatures, and column vectors, encoded
// against the frozen base embedding model (training is globally
// corpus-coupled; retraining would invalidate every base vector).
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
// which replays the engine's own Build freeze, so the merged system
// answers every surface bit-identically to a from-scratch build over
// the merged catalog (with tables in sorted-ID order — the order
// lake.LoadCSVDir produces). Compaction (CompactFiles) is just
// LoadChain + Save: the fold becomes the next base and the chain
// resets.
package core

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"tablehound/internal/dict"
	"tablehound/internal/join"
	"tablehound/internal/lake"
	"tablehound/internal/snap"
	"tablehound/internal/starmie"
	"tablehound/internal/table"
	"tablehound/internal/tokenize"
	"tablehound/internal/union"
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
// parity invariant — answer every query bit-identically, which is what
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
// lays each engine section out in that engine's per-table parts codec.
// Older files fail with ErrVersionMismatch rather than a confusing
// chain error.
const (
	deltaMagic   uint32 = 0x54484442 // "THDB": tablehound delta binary
	deltaVersion uint16 = 3
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
	// extended dictionary. Signatures are not stored: the merge
	// re-derives them through dict.Sign, bit-identically.
	JoinIDSets map[string]dict.IDSet
	// Per-surface parts for the added tables.
	TUS     []union.TUSTableParts
	Santos  []union.SantosTableParts
	D3L     []union.D3LTableParts
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

// LoadDelta reads a delta written by Save. Structural damage surfaces
// ErrCorruptSnapshot; chain consistency is NOT checked here (apply
// time owns that — the same delta file can be valid for one lake and
// stale for another).
func LoadDelta(r io.Reader) (*Delta, error) {
	version, _, err := snap.ReadHeader(r, deltaMagic)
	if err != nil {
		return nil, err
	}
	if version != deltaVersion {
		return nil, fmt.Errorf("%w: found delta version %d, expected %d", ErrVersionMismatch, version, deltaVersion)
	}
	sr := snap.NewReader(r)
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
	return d, nil
}

// LoadDeltaFile loads a delta from a file written by SaveFile.
func LoadDeltaFile(path string) (*Delta, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadDelta(bufio.NewReaderSize(f, 1<<20))
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
	// `lakectl add` far under the cost of a full load. The vector blob
	// is read rather than mapped, so its checksum is verified too.
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
	// Build's own engine stages, over the added tables alone (none, for a
	// remove-only delta), against the frozen base model and the extended
	// dictionary — without the vector store, which would rebind that
	// model.
	scratch := &System{Catalog: delta.Catalog, Model: base.Model, KB: base.KB, Dict: ext, BuildStats: newBuildStats(base.buildOpts.Parallelism)}
	if err := (pipeline{s: scratch, opts: base.buildOpts, partsOnly: true}).run(engineStages...); err != nil {
		return nil, err
	}
	if scratch.Join != nil {
		delta.JoinIDSets = scratch.Join.Parts().IDSets
	}
	delta.TUS = scratch.TUS.Parts()
	delta.Santos = scratch.Santos.Parts()
	delta.D3L = scratch.D3L.Parts()
	delta.Starmie = scratch.Starmie.Parts()
	for _, t := range addSorted {
		live[t.ID] = t.ContentHash()
	}
	delta.ResultGen = contentGen(live)
	return delta, nil
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
// bit-identically to a from-scratch build over the surviving tables.
// With no deltas it is exactly LoadFile. A leading run of deltas that
// are already folded into the base — left behind by a compaction
// interrupted between installing the new base and retiring its
// consumed delta files — is skipped and reported via Lineage.Folded
// rather than failing the load.
//
// The base is only decoded, not derived, while a merge may follow:
// ApplyDeltas reads none of the rebuild-on-load indexes and derives
// them over the merged catalog, so deriving them over the base first
// would be done twice and discarded once. The base derives itself only
// when nothing is left to apply and it is the system returned.
func LoadChainFiles(basePath string, deltaPaths []string, opts Options) (*System, error) {
	if len(deltaPaths) == 0 {
		return LoadFile(basePath, opts)
	}
	o, err := openFile(basePath, opts)
	if err != nil {
		return nil, err
	}
	base, err := o.decode()
	if err != nil {
		return nil, err
	}
	deltas, infos, err := loadDeltaFiles(deltaPaths)
	if err != nil {
		return nil, err
	}
	folded := foldedPrefix(deltas, base.Lineage.Gen)
	skipped := deltaPaths[:folded]
	if folded == len(deltas) {
		if err := base.derive(); err != nil {
			return nil, err
		}
		base.Lineage.Folded = skipped
		return base, nil
	}
	sys, err := ApplyDeltas(base, deltas[folded:], infos[folded:])
	if err != nil {
		return nil, err
	}
	sys.Lineage.Folded = skipped
	return sys, nil
}

// ApplyDeltas folds an ordered delta chain over a freshly loaded base
// system and returns the merged system. The base is consumed: its
// model is rebound onto the merged vector block, so it must not keep
// serving queries (load a fresh base per merge — LoadChainFiles does).
// Only what a snapshot stores is read from the base; its Fuzzy and
// Stats may be nil.
func ApplyDeltas(base *System, deltas []*Delta, infos []DeltaInfo) (*System, error) {
	start := time.Now()
	if base.Lineage == nil {
		return nil, errors.New("core: base system has no lineage (not loaded from a snapshot)")
	}
	bopts := base.buildOpts
	gen := base.Lineage.Gen
	ext := base.Dict
	// live is the membership the generation chain folds over, as table
	// ID → content hash. Base hashes come from the snapshot's meta
	// section so they are never recomputed over the full base catalog.
	if len(base.Lineage.TableHashes) != len(base.Lineage.TableIDs) {
		return nil, fmt.Errorf("core: base lineage has %d content hashes for %d table IDs", len(base.Lineage.TableHashes), len(base.Lineage.TableIDs))
	}
	live := base.Lineage.live()
	// The catalog folds like the engines' parts: the table under each
	// live ID, and each engine's parts for it.
	tables := foldParts(base.Catalog.Tables(), func(t *table.Table) string { return t.ID })
	baseJoin := base.Join.Parts()
	joinSets := baseJoin.IDSets
	tus := foldParts(base.TUS.Parts(), func(p union.TUSTableParts) string { return p.ID })
	santos := foldParts(base.Santos.Parts(), func(p union.SantosTableParts) string { return p.ID })
	d3l := foldParts(base.D3L.Parts(), func(p union.D3LTableParts) string { return p.ID })
	star := foldParts(base.Starmie.Parts(), func(p starmie.TableParts) string { return p.ID })

	for i, dd := range deltas {
		path := fmt.Sprintf("delta[%d]", i)
		if i < len(infos) && infos[i].Path != "" {
			path = infos[i].Path
		}
		if err := applyMembership(dd, path, live, gen, ext.Size()); err != nil {
			return nil, err
		}
		for _, id := range dd.Tombstones {
			for key := range joinSets {
				if tid, _ := table.SplitColumnKey(key); tid == id {
					delete(joinSets, key)
				}
			}
		}
		for key, ids := range dd.JoinIDSets {
			if _, dup := joinSets[key]; dup {
				return nil, fmt.Errorf("%w: delta %s re-adds join column %q", ErrDeltaChain, path, key)
			}
			joinSets[key] = ids
		}
		tables.apply(dd.Tombstones, dd.Catalog.Tables())
		tus.apply(dd.Tombstones, dd.TUS)
		santos.apply(dd.Tombstones, dd.Santos)
		d3l.apply(dd.Tombstones, dd.D3L)
		star.apply(dd.Tombstones, dd.Starmie)
		ext = dict.Extend(ext, dd.NewValues)
		gen = dd.ResultGen
	}

	// Merged catalog in sorted-ID order — the canonical order a fresh
	// build over the same tables uses, which keeps the order-sensitive
	// rebuilt structures (keyword statistics) bit-identical.
	ids := sortedKeys(live)
	cat := lake.NewCatalog()
	ordered := tables.inIDOrder(ids)
	if err := cat.AddBatch(ordered); err != nil {
		return nil, err
	}
	// The merged system gets a fresh, sorted dictionary over the merged
	// catalog — identical to the one a from-scratch build constructs —
	// and the folded ID sets remap onto it. The extended dictionary is
	// only the deltas' transport encoding: keeping it would persist an
	// unsorted value table (which the dict snapshot codec rightly
	// rejects) and let stale values from removed tables accumulate
	// across compactions.
	stats := newBuildStats(bopts.Parallelism)
	var freshDict *dict.Dict
	if err := stats.time(stageDict, func() (n int, err error) {
		if freshDict, err = buildDict(ordered, bopts.Parallelism); err == nil {
			n = freshDict.Size()
		}
		return n, err
	}); err != nil {
		return nil, err
	}
	const unmapped = ^uint32(0)
	remap := make([]uint32, ext.Size())
	for i := range remap {
		if id, ok := freshDict.ID(ext.Value(uint32(i))); ok {
			remap[i] = id
		} else {
			remap[i] = unmapped // value only in removed tables
		}
	}
	remapSet := func(ids dict.IDSet) (dict.IDSet, error) {
		out := make(dict.IDSet, len(ids))
		for i, id := range ids {
			if int(id) >= len(remap) || remap[id] == unmapped {
				return nil, fmt.Errorf("%w: ID %d references a value outside the merged lake", ErrDeltaChain, id)
			}
			out[i] = remap[id]
		}
		sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
		return out, nil
	}
	for key, set := range joinSets {
		ns, rerr := remapSet(set)
		if rerr != nil {
			return nil, fmt.Errorf("join column %q: %w", key, rerr)
		}
		joinSets[key] = ns
	}
	tusOrdered := tus.inIDOrder(ids)
	for ti := range tusOrdered {
		for ci := range tusOrdered[ti].Cols {
			ns, rerr := remapSet(tusOrdered[ti].Cols[ci].IDs)
			if rerr != nil {
				return nil, fmt.Errorf("TUS column %s.%s: %w", tusOrdered[ti].ID, tusOrdered[ti].Cols[ci].Name, rerr)
			}
			tusOrdered[ti].Cols[ci].IDs = ns
		}
	}
	mp := mergedParts{
		joinSets:      joinSets,
		numHashes:     baseJoin.NumHashes,
		numPartitions: baseJoin.NumPartitions,
		tus:           tusOrdered,
		santos:        santos.inIDOrder(ids),
		d3l:           d3l.inIDOrder(ids),
		starmie:       star.inIDOrder(ids),
	}
	// Build's stage table over the merged catalog, with the base's
	// build parameters: the engines reassemble from the folded parts,
	// every other stage rebuilds from the catalog.
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

// mergedParts carries a merge's folded per-engine parts into the
// engine stages.
type mergedParts struct {
	joinSets      map[string]dict.IDSet
	numHashes     int
	numPartitions int
	tus           []union.TUSTableParts
	santos        []union.SantosTableParts
	d3l           []union.D3LTableParts
	starmie       []starmie.TableParts
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
