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
// signatures: containment is answered from the inverted index.
const (
	snapMagic   uint32 = 0x54485342 // "THSB": tablehound system binary
	snapVersion uint16 = 10

	// snapHeaderLen is the byte length of the snap header (magic,
	// version, flags) that precedes the first section; blob-offset
	// arithmetic below counts from it.
	snapHeaderLen = 8
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
		{secSantos, s.Santos.AppendSnapshot},
		{secD3L, s.D3L.AppendSnapshot},
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
	if pad := vecstore.PadTo(snapHeaderLen + sw.Written()); pad > 0 {
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
// saved one. Load always reads the vector blob onto the heap; use
// LoadFile for the zero-copy mmap path.
//
// A load is two halves run back to back: decode reads, checksums and
// decodes every section, derive runs the rebuild-on-load stages over
// what was decoded. A chain load runs only the first half on a base
// the delta merge is about to consume (see LoadChainFiles).
func Load(r io.Reader, opts Options) (*System, error) {
	return load(open(r, nil, opts))
}

// load runs both halves of a load on an opened snapshot.
func load(o *opened, err error) (*System, error) {
	if err != nil {
		return nil, err
	}
	s, err := o.decode(nil)
	if err != nil {
		return nil, err
	}
	if err := s.derive(); err != nil {
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

// open reads the header and checks its version, reads and checksums
// every section frame (decoding is deferred so independent sections
// can decode in parallel), materializes the vector block, and decodes
// the options (with opts' runtime knobs) and the meta section. When
// blobFile is non-nil the vector blob is mmap'd from it at its recorded
// offset instead of being read (and CRC-verified) through r.
func open(r io.Reader, blobFile *os.File, opts Options) (*opened, error) {
	start := time.Now()
	version, _, err := snap.ReadHeader(r, snapMagic)
	if err != nil {
		return nil, err
	}
	if version != snapVersion {
		return nil, fmt.Errorf("%w: found version %d, expected %d", ErrVersionMismatch, version, snapVersion)
	}
	sr := snap.NewReader(r)
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
	// cover) before any blob slice or mapping is
	// constructed; then the alignment pad is consumed and checked, and
	// the blob either decodes onto the heap (CRC-verified) or is
	// mmap'd at its recorded offset — O(1) in the vector count.
	var store *vecstore.Store
	if err := decodeSection(secVecs, secs, func(d *snap.Decoder) error {
		dir, derr := vecstore.DecodeDirectory(d)
		if derr != nil {
			return derr
		}
		blobOff := int64(snapHeaderLen) + sr.Consumed()
		pad := vecstore.PadTo(blobOff)
		if pad > 0 {
			var padBuf [64]byte
			if _, rerr := io.ReadFull(r, padBuf[:pad]); rerr != nil {
				return fmt.Errorf("%w: short vector-blob padding: %v", ErrCorruptSnapshot, rerr)
			}
			for _, pb := range padBuf[:pad] {
				if pb != 0 {
					return fmt.Errorf("%w: nonzero vector-blob padding", ErrCorruptSnapshot)
				}
			}
		}
		if blobFile != nil {
			store, derr = dir.MmapBlob(blobFile, blobOff+int64(pad))
			if derr != nil {
				return derr
			}
			// The mmap path never streams the blob through r, so the
			// reader's trailing-bytes check cannot run; the equivalent
			// guarantee is that the file ends exactly where the blob does.
			fi, serr := blobFile.Stat()
			if serr != nil {
				return serr
			}
			if want := uint64(blobOff) + uint64(pad) + dir.BlobLen; uint64(fi.Size()) != want {
				return fmt.Errorf("%w: %d trailing bytes after vector blob", ErrCorruptSnapshot, uint64(fi.Size())-want)
			}
			return nil
		}
		store, derr = dir.ReadBlob(r)
		return derr
	}); err != nil {
		return nil, err
	}
	if blobFile == nil {
		if err := sr.Close(); err != nil {
			return nil, err
		}
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

// openFile is open over a snapshot file, with the vector blob
// materialized per opts.VecMode. Every section is in memory when it
// returns, and a mapping outlives the file handle, so the file is
// closed.
func openFile(path string, opts Options) (*opened, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var blobFile *os.File
	switch opts.VecMode {
	case "", "auto":
		if vecstore.MmapSupported() {
			blobFile = f
		}
	case "heap":
	case "mmap":
		if !vecstore.MmapSupported() {
			return nil, fmt.Errorf("core: VecMode \"mmap\": not supported on this platform")
		}
		blobFile = f
	default:
		return nil, fmt.Errorf("core: unknown VecMode %q (want auto, heap, or mmap)", opts.VecMode)
	}
	return open(bufio.NewReaderSize(f, 1<<20), blobFile, opts)
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

// decode is the first half of a load: every section is decoded and
// every stored engine is live, but the rebuild-on-load field (Stats) is
// still nil. With d3lParts non-nil the D3L section decodes into it
// instead, checked, and D3L stays nil: a merge reads the base's D3L
// engine only as parts, so building it would be wasted.
func (o *opened) decode(d3lParts *[]union.D3LTableParts) (*System, error) {
	s, secs, bopts := o.s, o.secs, o.s.buildOpts
	// Phase 1: the foundations and the catalog — everything later
	// decodes against them — together with every other section that
	// needs nothing else; its members are mutually independent.
	g := &decodeGroup{parallel: bopts.Parallelism > 1}
	if err := o.foundations(g); err != nil {
		return nil, err
	}
	g.run(secCatalog, secs, into(&s.Catalog, lake.DecodeSnapshot))
	g.run(secKeyword, secs, into(&s.Keyword, keyword.DecodeIndexSnapshot))
	g.run(secValues, secs, into(&s.Values, keyword.DecodeValueIndexSnapshot))
	if err := g.wait(); err != nil {
		return nil, err
	}
	s.buildOpts.KB = s.KB
	lookup := s.Catalog.Table

	// Phase 2: the search engines, each depending only on phase-1
	// results.
	g = &decodeGroup{parallel: bopts.Parallelism > 1}
	g.run(secJoin, secs, func(d *snap.Decoder) (derr error) {
		s.Join, derr = join.DecodeEngineSnapshot(d, s.Dict)
		return derr
	})
	g.run(secTUS, secs, func(d *snap.Decoder) error {
		var derr error
		s.TUS, derr = union.DecodeTUSSnapshot(d, union.TUSConfig{Model: s.Model, KB: s.KB, Dict: s.Dict}, lookup)
		return derr
	})
	g.run(secSantos, secs, func(d *snap.Decoder) error {
		var derr error
		s.Santos, derr = union.DecodeSantosSnapshot(d, s.KB, lookup)
		return derr
	})
	g.run(secD3L, secs, func(d *snap.Decoder) (derr error) {
		if d3lParts != nil {
			*d3lParts, derr = union.DecodeD3LParts(d)
			if derr == nil {
				derr = corruptParts(union.CheckD3LParts(*d3lParts, lookup))
			}
		} else {
			s.D3L, derr = union.DecodeD3LSnapshot(d, s.Model, s.Dict, lookup)
		}
		return derr
	})
	sv, _ := s.Vecs.View("starmie")
	g.run(secStarmie, secs, func(d *snap.Decoder) error {
		var derr error
		s.Starmie, derr = starmie.DecodeSnapshot(d, s.Model, sv, lookup)
		return derr
	})
	if err := g.wait(); err != nil {
		return nil, err
	}

	stats := newBuildStats(bopts.Parallelism)
	for i := range stats.Stages {
		if i != stageStats {
			stats.Stages[i].Items = loadedItems
		}
	}
	stats.Total = time.Since(o.start)
	s.BuildStats = stats
	return s, nil
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

// LoadFile loads a snapshot from a file written by SaveFile. The
// vector blob is materialized per opts.VecMode: "auto" (or empty)
// memory-maps it where supported and falls back to a heap read,
// "mmap" requires the mapping, "heap" forces the portable read.
// Mapped pages survive the file handle: they stay valid for the life
// of the process and are shared between replicas by the page cache.
func LoadFile(path string, opts Options) (*System, error) {
	return load(openFile(path, opts))
}
