// Unified on-disk snapshots: Save serializes a fully built System into
// one versioned, checksummed binary stream; Load reconstructs a System
// that answers every search surface bit-identically to the one that
// was saved — without re-running the build pipeline.
//
// The format is a snap header followed by a fixed sequence of
// length-framed, CRC-checked sections, one per stored subsystem.
// Structures whose construction is deterministic-but-expensive are
// stored verbatim (embedding model, dictionary, inverted indexes,
// column analyses, HNSW topology); structures that are cheap,
// deterministic functions of already-stored state are rebuilt on load
// (LSH banding tables, posting maps, the catalog statistics). The
// indexes a System builds on demand (fuzzy index, organization,
// discovery graph) are not stored: a loaded system builds them on first
// use from the decoded catalog, model and dictionary, and the options
// section carries the Skip* flags that say whether it may.
package core

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"tablehound/internal/dict"
	"tablehound/internal/embedding"
	"tablehound/internal/join"
	"tablehound/internal/kb"
	"tablehound/internal/keyword"
	"tablehound/internal/lake"
	"tablehound/internal/parallel"
	"tablehound/internal/snap"
	"tablehound/internal/starmie"
	"tablehound/internal/union"
	"tablehound/internal/vecstore"
)

// ErrCorruptSnapshot marks a system snapshot whose bytes or structure
// are invalid: truncation, checksum mismatch, trailing garbage, or
// internally inconsistent sections. It aliases the shared snap
// sentinel, so errors.Is matches either spelling.
var ErrCorruptSnapshot = snap.ErrCorrupt

// ErrVersionMismatch marks a structurally sound snapshot header whose
// version this binary does not speak — a stale (or too-new) snapshot
// rather than bit rot. It deliberately does NOT satisfy
// errors.Is(err, ErrCorruptSnapshot): operators react differently to
// "rebuild the snapshot" than to "the bytes are damaged". The wrapped
// message names the found and expected versions.
var ErrVersionMismatch = errors.New("core: snapshot version mismatch")

// Snapshot framing. Version 2 added the shared vector block: a
// directory section (secVecs) inside the framed stream, then the raw
// float32/norm blob as a 64-byte-aligned tail after the last section,
// which is what lets LoadFile map it zero-copy. Version 3 added the
// meta section (secMeta): the sorted table-ID list and its generation
// hash, which delta snapshots chain against. Version 4 folds
// per-table content hashes into the meta section and the generation,
// so replacing a table's contents (remove + add under the same ID)
// changes the generation — membership alone cannot tell such lakes
// apart, and the serving tier keys its query cache on the generation.
// Version 5 added the catalog-statistics section (secStats), the
// discover planner's cost-model input. Version 6 writes the keyword and
// values sections through the keyword package's one postings codec
// (the metadata section no longer repeats term strings per document)
// and drops the build parameters that became constants from the
// options section. Version 7 stores only what a served system reads:
// no MATE or correlation section (those indexes left the System), and
// no statistics section (a load rebuilds them). Version 8 drops the
// coarse quantizer over the Starmie column vectors: the options section
// loses its cluster count and the vector directory its centroid tables.
// Version 9 drops the organization and graph sections: both are built
// by their first reader, like the fuzzy index. Version 10 drops the
// join section's MinHash hasher, ensemble parameters and per-column
// signatures: containment is answered from the inverted index. Version
// 11 stores D3L's values as dictionary IDs and its words as positions
// in one word list, and drops TUS's universe strings (a load counts
// them). Version 12 stores SANTOS's pairs as packed pairs of
// dictionary IDs instead of a pair-token dictionary, and writes the
// join column keys once, not again inside the inverted index. Version
// 13 drops TUS's MinHash hasher and signature length (constants) and
// writes its NL graph's topology only: its nodes take the column
// vectors the TUS parts hold.
const (
	snapMagic   uint32 = 0x54485342 // "THSB": tablehound system binary
	snapVersion uint16 = 13
)

// Section IDs, in stream order. The sequence is fixed; optional
// subsystems encode a presence flag inside their section rather than
// omitting it.
const (
	secOptions uint16 = iota + 1
	secMeta
	secCatalog
	secModel
	secKB
	secDict
	secKeyword
	secValues
	secJoin
	secTUS
	secSantos
	secD3L
	secStarmie
	secVecs
)

// Save writes the system as one self-contained snapshot stream.
// The system must be fully built (a Build result); partially
// constructed systems are rejected rather than half-written.
func (s *System) Save(w io.Writer) error {
	if s.Catalog == nil || s.Model == nil || s.Dict == nil || s.Keyword == nil ||
		s.Values == nil || s.Join == nil || s.TUS == nil || s.Santos == nil ||
		s.D3L == nil || s.Starmie == nil || s.Vecs == nil {
		return fmt.Errorf("core: cannot snapshot a partially built system")
	}
	if err := snap.WriteHeader(w, snapMagic, snapVersion, 0); err != nil {
		return err
	}
	sections := []struct {
		id  uint16
		enc func(*snap.Encoder)
	}{
		{secOptions, s.buildOpts.appendSnapshot},
		// Meta: the sorted table-ID list, each table's content hash, and
		// the generation folding both. Delta snapshots record this
		// generation as their parent link, and the serving tier keys
		// caches on it — content hashes make a replaced table (same ID,
		// different bytes) a new generation.
		{secMeta, func(e *snap.Encoder) {
			ids := sortedTableIDs(s.Catalog)
			hashes := contentHashes(s.Catalog, ids)
			e.U64(snap.HashTables(ids, hashes))
			e.Strs(ids)
			e.U64s(hashes)
		}},
		{secCatalog, s.Catalog.AppendSnapshot},
		{secModel, s.Model.AppendSnapshot},
		// The KB is optional: a presence flag leads its section.
		{secKB, func(e *snap.Encoder) {
			e.Bool(s.KB != nil)
			if s.KB != nil {
				s.KB.AppendSnapshot(e)
			}
		}},
		{secDict, s.Dict.AppendSnapshot},
		{secKeyword, s.Keyword.AppendSnapshot},
		{secValues, s.Values.AppendSnapshot},
		{secJoin, func(e *snap.Encoder) { s.Join.AppendSnapshot(e, s.Dict) }},
		{secTUS, func(e *snap.Encoder) { s.TUS.AppendSnapshot(e, s.Dict) }},
		{secSantos, func(e *snap.Encoder) { s.Santos.AppendSnapshot(e, s.Dict) }},
		{secD3L, func(e *snap.Encoder) { s.D3L.AppendSnapshot(e, s.Dict) }},
		{secStarmie, s.Starmie.AppendSnapshot},
		// The vector block closes the stream: its directory (shape,
		// segment table, blob length + CRC) travels as a
		// normal CRC-framed section, then zero padding aligns the raw
		// blob's first byte to a 64-byte file offset so an mmap view of
		// the data is always well aligned, then the blob itself — the
		// only bytes of the snapshot outside the section framing.
		{secVecs, s.Vecs.AppendDirectory},
	}
	sw := snap.NewWriter(w)
	for _, sec := range sections {
		if err := sw.Section(sec.id, sec.enc); err != nil {
			return err
		}
	}
	if pad := vecstore.PadTo(snap.HeaderLen + sw.Written()); pad > 0 {
		if _, err := w.Write(make([]byte, pad)); err != nil {
			return err
		}
	}
	return s.Vecs.WriteBlob(w)
}

// appendSnapshot writes the build parameters a snapshot persists — the
// ones the rebuild stages and the on-demand indexes replay. Runtime
// knobs are not persisted.
func (o Options) appendSnapshot(e *snap.Encoder) {
	e.I64(o.Seed)
	e.Bool(o.SkipOrganization)
	e.Bool(o.SkipFuzzy)
	e.Bool(o.SkipGraph)
}

// decodeOptions reads what appendSnapshot wrote and takes the runtime
// knobs from rt: Parallelism, QueryParallelism (both resolved) and
// VecMode.
func decodeOptions(d *snap.Decoder, rt Options) Options {
	return Options{
		Seed:             d.I64(),
		SkipOrganization: d.Bool(),
		SkipFuzzy:        d.Bool(),
		SkipGraph:        d.Bool(),
		Parallelism:      parallel.Resolve(rt.Parallelism),
		QueryParallelism: parallel.Resolve(rt.QueryParallelism),
		VecMode:          rt.VecMode,
	}
}

// Load reconstructs a system from a snapshot written by Save. Only the
// runtime knobs are taken from opts (Parallelism for the rebuild-on-
// load stage and the on-demand indexes, QueryParallelism for the
// per-query fan-out of the loaded engines); everything else —
// catalog, model, KB, build parameters — comes from the snapshot. The
// loaded system answers every search surface bit-identically to the
// saved one. Load reads r whole and copies the vector blob onto the
// heap; use LoadFile for the zero-copy mmap path.
//
// A load is two halves run back to back: decode checksums and decodes
// every section and assembles the union engines from theirs, derive
// runs the rebuild-on-load stages over what was decoded. A chain load
// runs only the first half, without the assembly, on a base the delta
// merge is about to consume (see LoadChainFiles).
func Load(r io.Reader, opts Options) (*System, error) {
	buf, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return load(open(buf, false, opts))
}

// load runs both halves of a load on an opened snapshot.
func load(o *opened, err error) (*System, error) {
	if err != nil {
		return nil, err
	}
	s, _, err := o.decode(true)
	if err == nil {
		err = s.derive()
	}
	if err != nil {
		o.discard()
		return nil, err
	}
	return s, nil
}

// opened is a snapshot read as far as every reader of it reads: by
// Load, by a chain load's base, and by delta analysis, which decodes
// only the foundations.
type opened struct {
	s     *System                  // Vecs, buildOpts and Lineage set
	secs  map[uint16]*snap.Decoder // every section payload, checksummed, undecoded
	start time.Time
}

// discard releases what a snapshot whose load failed holds: the file
// mapping its store took, which nothing else references then.
func (o *opened) discard() { o.s.Vecs.Close() }

// open checks the header and its version, checksums every section
// frame of buf, the whole snapshot (decoding is deferred so independent
// sections can decode in parallel), materializes the vector block, and
// decodes the options (with opts' runtime knobs) and the meta section.
// Every section payload is a view of buf. When mapped, buf is a file
// mapping: the vector blob is a view of it too, and the store takes
// the mapping. Otherwise the blob is copied onto the heap
// (CRC-verified) and nothing keeps buf. A failed open leaves buf to
// its caller.
func open(buf []byte, mapped bool, opts Options) (*opened, error) {
	start := time.Now()
	version, flags, err := snap.ReadHeader(buf, snapMagic)
	if err != nil {
		return nil, err
	}
	if version != snapVersion {
		return nil, fmt.Errorf("%w: found version %d, expected %d", ErrVersionMismatch, version, snapVersion)
	}
	if flags != 0 {
		return nil, fmt.Errorf("%w: unknown header flags %#x", ErrCorruptSnapshot, flags)
	}
	sr := snap.NewReader(buf[snap.HeaderLen:])
	secs := make(map[uint16]*snap.Decoder, secVecs)
	for id := secOptions; id <= secVecs; id++ {
		d, err := sr.Payload(id)
		if err != nil {
			return nil, err
		}
		secs[id] = d
	}

	// The vector block materializes before anything decodes: the model
	// and Starmie sections hold no vector bytes of their own, only
	// references into the block's segments. The directory is decoded
	// and fully validated (shape vs declared blob length, segment
	// cover) before any blob slice is cut; then the alignment pad is
	// checked, the snapshot must end exactly where the blob does, and
	// the blob is either copied onto the heap (CRC-verified) or viewed
	// in the mapping — O(1) in the vector count.
	var store *vecstore.Store
	if err := decodeSection(secVecs, secs, func(d *snap.Decoder) error {
		dir, derr := vecstore.DecodeDirectory(d)
		if derr != nil {
			return derr
		}
		tail := sr.Rest()
		pad := vecstore.PadTo(int64(snap.HeaderLen) + sr.Consumed())
		if uint64(len(tail)) < uint64(pad)+dir.BlobLen {
			return fmt.Errorf("%w: vector blob needs %d bytes after the sections, %d left", ErrCorruptSnapshot, uint64(pad)+dir.BlobLen, len(tail))
		}
		for _, pb := range tail[:pad] {
			if pb != 0 {
				return fmt.Errorf("%w: nonzero vector-blob padding", ErrCorruptSnapshot)
			}
		}
		if extra := uint64(len(tail)) - uint64(pad) - dir.BlobLen; extra > 0 {
			return fmt.Errorf("%w: %d trailing bytes after vector blob", ErrCorruptSnapshot, extra)
		}
		blob := tail[pad:]
		if mapped {
			store, derr = dir.ViewBlob(blob, buf)
		} else {
			store, derr = dir.ReadBlob(blob)
		}
		return derr
	}); err != nil {
		return nil, err
	}

	// Build options decode inline: they govern the rebuild stages.
	s := &System{Vecs: store}
	if err := decodeSection(secOptions, secs, func(d *snap.Decoder) error {
		s.buildOpts = decodeOptions(d, opts)
		return d.Err()
	}); err != nil {
		return nil, err
	}

	// Meta: the generation hash this snapshot's table membership and
	// content pin; delta chains validate against it and the serving
	// tier reports it.
	if err := decodeSection(secMeta, secs, func(d *snap.Decoder) error {
		gen := d.U64()
		ids := d.Strs()
		hashes := d.U64s()
		if err := d.Err(); err != nil {
			return err
		}
		if len(hashes) != len(ids) {
			return fmt.Errorf("%w: meta has %d content hashes for %d table IDs", ErrCorruptSnapshot, len(hashes), len(ids))
		}
		if want := snap.HashTables(ids, hashes); gen != want {
			return fmt.Errorf("%w: meta generation %016x does not hash its table set (%016x)", ErrCorruptSnapshot, gen, want)
		}
		s.Lineage = &Lineage{BaseGen: gen, Gen: gen, TableIDs: ids, TableHashes: hashes}
		return nil
	}); err != nil {
		return nil, err
	}
	return &opened{s: s, secs: secs, start: start}, nil
}

// openFile is open over a snapshot file, per opts.VecMode either
// mapped once, whole, or read whole onto the heap. A mapping outlives
// the file handle, so the file is closed. When the open fails, a
// mapping it made is released.
func openFile(path string, opts Options) (*opened, error) {
	var mmap bool
	switch opts.VecMode {
	case "", "auto":
		mmap = vecstore.MmapSupported()
	case "heap":
	case "mmap":
		if !vecstore.MmapSupported() {
			return nil, fmt.Errorf("core: VecMode \"mmap\": not supported on this platform")
		}
		mmap = true
	default:
		return nil, fmt.Errorf("core: unknown VecMode %q (want auto, heap, or mmap)", opts.VecMode)
	}
	if !mmap {
		buf, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		return open(buf, false, opts)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	mapping, err := vecstore.MapFile(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	o, err := open(mapping, true, opts)
	if err != nil {
		vecstore.Unmap(mapping)
	}
	return o, err
}

// foundations queues on g the sections every other section decodes
// against: model, KB and dictionary.
func (o *opened) foundations(g *decodeGroup) error {
	s := o.s
	mv, ok := s.Vecs.View("model")
	if !ok {
		return fmt.Errorf("%w: vector directory has no model segment", ErrCorruptSnapshot)
	}
	g.run(secModel, o.secs, func(d *snap.Decoder) error {
		var derr error
		s.Model, derr = embedding.DecodeSnapshot(d, mv.Vec, mv.Len())
		return derr
	})
	g.run(secKB, o.secs, present(&s.KB, kb.DecodeSnapshot))
	g.run(secDict, o.secs, into(&s.Dict, dict.DecodeSnapshot))
	return nil
}

// unionSections is a snapshot's union-engine sections, each read as
// what its engine's New*FromParts takes.
type unionSections struct {
	tus                 union.TUSSection
	santosDict, d3lDict *dict.Dict
	santos              union.SantosParts
	d3l                 union.D3LParts
	starmie             starmie.Section
}

// noBatches is what a load's graphs grow by: nothing, since each
// section stores its graph whole.
var noBatches = [][]string{}

// decode is the first half of a load: every section is decoded, and
// the rebuild-on-load field (Stats) is still nil. The union sections
// are read as parts. With assemble set, each union engine is assembled
// from its section through its New*FromParts, with the stored graph
// and nothing to insert; without it they stay parts, which a chain
// load hands to the merge, and the union engines stay nil.
func (o *opened) decode(assemble bool) (*System, *unionSections, error) {
	s, secs, bopts := o.s, o.secs, o.s.buildOpts
	// Phase 1: the foundations and the catalog — everything later
	// decodes against them — together with every other section that
	// needs nothing else; its members are mutually independent.
	g := &decodeGroup{parallel: bopts.Parallelism > 1}
	if err := o.foundations(g); err != nil {
		return nil, nil, err
	}
	g.run(secCatalog, secs, into(&s.Catalog, lake.DecodeSnapshot))
	g.run(secKeyword, secs, into(&s.Keyword, keyword.DecodeIndexSnapshot))
	g.run(secValues, secs, into(&s.Values, keyword.DecodeValueIndexSnapshot))
	if err := g.wait(); err != nil {
		return nil, nil, err
	}
	s.buildOpts.KB = s.KB
	lookup := s.Catalog.Table

	// Phase 2: the search engines, each depending only on phase-1
	// results.
	u := &unionSections{}
	g = &decodeGroup{parallel: bopts.Parallelism > 1}
	g.run(secJoin, secs, func(d *snap.Decoder) (err error) {
		s.Join, err = join.DecodeEngineSnapshot(d, s.Dict)
		return err
	})
	g.run(secTUS, secs, func(d *snap.Decoder) (err error) {
		if u.tus, err = union.DecodeTUSSection(d, s.Dict); err != nil || !assemble {
			return err
		}
		cfg := union.TUSConfig{Model: s.Model, KB: s.KB, Dict: u.tus.Dict, Exhaustive: u.tus.Exhaustive}
		s.TUS, err = union.NewTUSFromParts(cfg, u.tus.Parts, u.tus.Graph, noBatches, lookup)
		return corruptParts(err)
	})
	g.run(secSantos, secs, func(d *snap.Decoder) (err error) {
		if u.santosDict, u.santos, err = union.DecodeSantosSection(d, s.Dict); err != nil || !assemble {
			return err
		}
		s.Santos, err = union.NewSantosFromParts(s.KB, u.santosDict, u.santos, lookup)
		return corruptParts(err)
	})
	g.run(secD3L, secs, func(d *snap.Decoder) (err error) {
		if u.d3lDict, u.d3l, err = union.DecodeD3LSection(d, s.Dict); err != nil || !assemble {
			return err
		}
		s.D3L, err = union.NewD3LFromParts(s.Model, u.d3lDict, u.d3l, lookup)
		return corruptParts(err)
	})
	sv, _ := s.Vecs.View("starmie")
	g.run(secStarmie, secs, func(d *snap.Decoder) (err error) {
		if u.starmie, err = starmie.DecodeSection(d, sv); err != nil || !assemble {
			return err
		}
		enc := starmie.NewEncoder(s.Model, u.starmie.ContextWeight)
		if s.Starmie, err = starmie.NewIndexFromParts(enc, u.starmie.Parts, u.starmie.Graph, noBatches, lookup); err == nil {
			err = s.Starmie.Bind(sv)
		}
		return corruptParts(err)
	})
	if err := g.wait(); err != nil {
		return nil, nil, err
	}

	stats := newBuildStats(bopts.Parallelism)
	for i := range stats.Stages {
		if i != stageStats {
			stats.Stages[i].Items = loadedItems
		}
	}
	stats.Total = time.Since(o.start)
	s.BuildStats = stats
	return s, u, nil
}

// derive is the second half of a load: the rebuild-on-load stage
// (stats), a deterministic function of the decoded catalog that is not
// worth serializing. It runs on a system that will serve as decoded; a
// base the delta merge consumes skips it, because the merge derives the
// same statistics over the merged catalog instead.
func (s *System) derive() error {
	start := time.Now()
	err := pipeline{s: s, opts: s.buildOpts}.run(stageStats)
	s.BuildStats.Total += time.Since(start)
	return err
}

// sortedTableIDs returns the catalog's table IDs in sorted order —
// the canonical order generation hashes are computed over.
func sortedTableIDs(c *lake.Catalog) []string {
	tables := c.Tables()
	ids := make([]string, len(tables))
	for i, t := range tables {
		ids[i] = t.ID
	}
	sort.Strings(ids)
	return ids
}

// contentHashes returns each table's content hash, aligned with ids.
func contentHashes(c *lake.Catalog, ids []string) []uint64 {
	out := make([]uint64, len(ids))
	for i, id := range ids {
		out[i] = c.Table(id).ContentHash()
	}
	return out
}

// decodeSection runs fn over one deferred section payload and applies
// the full-consumption check, wrapping failures with the section id.
func decodeSection(id uint16, secs map[uint16]*snap.Decoder, fn func(*snap.Decoder) error) error {
	d := secs[id]
	if err := fn(d); err != nil {
		return fmt.Errorf("section %d: %w", id, err)
	}
	if err := d.Finish(); err != nil {
		return fmt.Errorf("section %d: %w", id, err)
	}
	return nil
}

// into adapts a section decoder that returns its value to a decode
// task that stores it in *dst.
func into[T any](dst *T, dec func(*snap.Decoder) (T, error)) func(*snap.Decoder) error {
	return func(d *snap.Decoder) (err error) {
		*dst, err = dec(d)
		return err
	}
}

// present is into for an optional subsystem, whose section leads with
// a presence flag; an absent one leaves *dst nil.
func present[T any](dst *T, dec func(*snap.Decoder) (T, error)) func(*snap.Decoder) error {
	return func(d *snap.Decoder) error {
		if !d.Bool() {
			return d.Err()
		}
		return into(dst, dec)(d)
	}
}

// decodeGroup runs section decodes, concurrently when parallel (they
// are bounded in number, so no worker pool), and keeps the first error.
type decodeGroup struct {
	parallel bool
	wg       sync.WaitGroup
	mu       sync.Mutex
	err      error
}

// run decodes section id with fn as one task of the group.
func (g *decodeGroup) run(id uint16, secs map[uint16]*snap.Decoder, fn func(*snap.Decoder) error) {
	task := func() {
		if err := decodeSection(id, secs, fn); err != nil {
			g.setErr(err)
		}
	}
	if !g.parallel {
		if g.err == nil {
			task()
		}
		return
	}
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		task()
	}()
}

func (g *decodeGroup) setErr(err error) {
	g.mu.Lock()
	if g.err == nil {
		g.err = err
	}
	g.mu.Unlock()
}

func (g *decodeGroup) wait() error {
	g.wg.Wait()
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.err
}

// SaveFile writes the snapshot to a file, buffered; the file is
// created (or truncated) and synced before return.
func (s *System) SaveFile(path string) error {
	return writeFile(path, s.Save)
}

// writeFile creates (or truncates) path, writes it through a 1 MiB
// buffer, and flushes and fsyncs it before closing: a nil return means
// the bytes are on stable storage, which is what lets a compaction
// rename the file over a live base.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	err = write(bw)
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// LoadFile loads a snapshot from a file written by SaveFile, per
// opts.VecMode: "auto" (or empty) memory-maps the file where supported
// and falls back to a heap read, "mmap" requires the mapping, "heap"
// forces the portable read. Mapped, the vector blob is a view of the
// mapping, which survives the file handle: it stays valid for the life
// of the process and is shared between replicas by the page cache.
func LoadFile(path string, opts Options) (*System, error) {
	return load(openFile(path, opts))
}
