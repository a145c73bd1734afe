// Unified on-disk snapshots: Save serializes a fully built System into
// one versioned, checksummed binary stream; Load reconstructs a System
// that answers every search surface bit-identically to the one that
// was saved — without re-running the build pipeline.
//
// The format is a snap header followed by a fixed sequence of
// length-framed, CRC-checked sections, one per subsystem. Structures
// whose construction is deterministic-but-expensive are stored
// verbatim (embedding model, dictionary, inverted indexes, column
// analyses, HNSW topology); structures that are cheap, deterministic
// functions of already-stored state are rebuilt on load (LSH banding
// tables, posting maps, profile/entity/fuzzy indexes). Optional
// subsystems carry a presence flag so a snapshot of a system built
// with Skip* options round-trips exactly.
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

	"tablehound/internal/apps"
	"tablehound/internal/aurum"
	"tablehound/internal/dict"
	"tablehound/internal/embedding"
	"tablehound/internal/join"
	"tablehound/internal/kb"
	"tablehound/internal/keyword"
	"tablehound/internal/lake"
	"tablehound/internal/navigation"
	"tablehound/internal/parallel"
	"tablehound/internal/profile"
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
// discover planner's cost-model input.
const (
	snapMagic   uint32 = 0x54485342 // "THSB": tablehound system binary
	snapVersion uint16 = 5

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
	secCorr
	secMate
	secTUS
	secSantos
	secD3L
	secStarmie
	secOrg
	secGraph
	secStats
	secVecs
)

// Save writes the system as one self-contained snapshot stream.
// The system must be fully built (a Build result); partially
// constructed systems are rejected rather than half-written.
func (s *System) Save(w io.Writer) error {
	if s.Catalog == nil || s.Model == nil || s.Dict == nil || s.Keyword == nil ||
		s.Values == nil || s.Join == nil || s.Mate == nil || s.TUS == nil ||
		s.Santos == nil || s.D3L == nil || s.Starmie == nil || s.Stats == nil ||
		s.Vecs == nil {
		return fmt.Errorf("core: cannot snapshot a partially built system")
	}
	if err := snap.WriteHeader(w, snapMagic, snapVersion, 0); err != nil {
		return err
	}
	sw := snap.NewWriter(w)
	opts := s.buildOpts
	if err := sw.Section(secOptions, func(e *snap.Encoder) {
		e.U32(uint32(opts.EmbeddingDim))
		e.I64(opts.Seed)
		e.U32(uint32(opts.MinJoinCardinality))
		e.F64(opts.ContextWeight)
		e.U32(uint32(opts.OrgFanout))
		e.Bool(opts.SkipOrganization)
		e.Bool(opts.SkipFuzzy)
		e.Bool(opts.SkipGraph)
		e.I64(int64(opts.VecCentroids))
	}); err != nil {
		return err
	}
	// Meta: the sorted table-ID list, each table's content hash, and
	// the generation folding both. Delta snapshots record this
	// generation as their parent link, and the serving tier keys
	// caches on it — content hashes make a replaced table (same ID,
	// different bytes) a new generation.
	if err := sw.Section(secMeta, func(e *snap.Encoder) {
		ids := sortedTableIDs(s.Catalog)
		hashes := contentHashes(s.Catalog, ids)
		e.U64(snap.HashTables(ids, hashes))
		e.Strs(ids)
		e.U64s(hashes)
	}); err != nil {
		return err
	}
	if err := sw.Section(secCatalog, s.Catalog.AppendSnapshot); err != nil {
		return err
	}
	if err := sw.Section(secModel, s.Model.AppendSnapshot); err != nil {
		return err
	}
	if err := sw.Section(secKB, func(e *snap.Encoder) {
		e.Bool(s.KB != nil)
		if s.KB != nil {
			s.KB.AppendSnapshot(e)
		}
	}); err != nil {
		return err
	}
	if err := sw.Section(secDict, s.Dict.AppendSnapshot); err != nil {
		return err
	}
	if err := sw.Section(secKeyword, s.Keyword.AppendSnapshot); err != nil {
		return err
	}
	if err := sw.Section(secValues, s.Values.AppendSnapshot); err != nil {
		return err
	}
	if err := sw.Section(secJoin, func(e *snap.Encoder) {
		s.Join.AppendSnapshot(e, s.Dict)
	}); err != nil {
		return err
	}
	if err := sw.Section(secCorr, func(e *snap.Encoder) {
		e.Bool(s.Corr != nil)
		if s.Corr != nil {
			s.Corr.AppendSnapshot(e)
		}
	}); err != nil {
		return err
	}
	if err := sw.Section(secMate, s.Mate.AppendSnapshot); err != nil {
		return err
	}
	if err := sw.Section(secTUS, func(e *snap.Encoder) {
		s.TUS.AppendSnapshot(e, s.Dict)
	}); err != nil {
		return err
	}
	if err := sw.Section(secSantos, s.Santos.AppendSnapshot); err != nil {
		return err
	}
	if err := sw.Section(secD3L, s.D3L.AppendSnapshot); err != nil {
		return err
	}
	if err := sw.Section(secStarmie, s.Starmie.AppendSnapshot); err != nil {
		return err
	}
	if err := sw.Section(secOrg, func(e *snap.Encoder) {
		e.Bool(s.Org != nil)
		if s.Org != nil {
			s.Org.AppendSnapshot(e)
		}
	}); err != nil {
		return err
	}
	if err := sw.Section(secGraph, func(e *snap.Encoder) {
		e.Bool(s.Graph != nil)
		if s.Graph != nil {
			s.Graph.AppendSnapshot(e)
		}
	}); err != nil {
		return err
	}
	if err := sw.Section(secStats, s.Stats.AppendSnapshot); err != nil {
		return err
	}
	// The vector block closes the stream: its directory (shape, segment
	// table, centroid tables, blob length + CRC) travels as a normal
	// CRC-framed section, then zero padding aligns the raw blob's first
	// byte to a 64-byte file offset so an mmap view of the data is
	// always well aligned, then the blob itself — the only bytes of the
	// snapshot outside the section framing.
	if err := sw.Section(secVecs, s.Vecs.AppendDirectory); err != nil {
		return err
	}
	if pad := vecstore.PadTo(snapHeaderLen + sw.Written()); pad > 0 {
		if _, err := w.Write(make([]byte, pad)); err != nil {
			return err
		}
	}
	return s.Vecs.WriteBlob(w)
}

// Load reconstructs a system from a snapshot written by Save. Only the
// runtime knobs are taken from opts (Parallelism for the rebuild-on-
// load stages, QueryParallelism for the per-query fan-out of the
// loaded engines, VecNProbe for pruned search); everything else —
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
	return thenDerive(decode(r, nil, opts))
}

// thenDerive runs the second half of a load on the outcome of the
// first.
func thenDerive(s *System, err error) (*System, error) {
	if err != nil {
		return nil, err
	}
	if err := s.derive(); err != nil {
		return nil, err
	}
	return s, nil
}

// decode is the first half of a load: every section is read,
// CRC-checked and decoded, and every stored engine is live, but the
// rebuild-on-load fields (Profiles, Entities, Fuzzy) are still nil.
// When blobFile is non-nil the vector blob is mmap'd from it at its
// recorded offset instead of being read (and CRC-verified) through r.
func decode(r io.Reader, blobFile *os.File, opts Options) (*System, error) {
	start := time.Now()
	version, _, err := snap.ReadHeader(r, snapMagic)
	if err != nil {
		return nil, err
	}
	if version != snapVersion {
		return nil, fmt.Errorf("%w: found version %d, expected %d", ErrVersionMismatch, version, snapVersion)
	}
	// Phase 1: read and checksum every section frame sequentially;
	// decoding is deferred so independent sections can decode in
	// parallel below.
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
	// cover, centroid tables) before any blob slice or mapping is
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
	bopts := Options{}
	if err := decodeSection(secOptions, secs, func(d *snap.Decoder) error {
		bopts.EmbeddingDim = int(d.U32())
		bopts.Seed = d.I64()
		bopts.MinJoinCardinality = int(d.U32())
		bopts.ContextWeight = d.F64()
		bopts.OrgFanout = int(d.U32())
		bopts.SkipOrganization = d.Bool()
		bopts.SkipFuzzy = d.Bool()
		bopts.SkipGraph = d.Bool()
		bopts.VecCentroids = int(d.I64())
		return d.Err()
	}); err != nil {
		return nil, err
	}
	bopts.Parallelism = parallel.Resolve(opts.Parallelism)
	bopts.QueryParallelism = parallel.Resolve(opts.QueryParallelism)
	bopts.VecNProbe = opts.VecNProbe
	bopts.VecMode = opts.VecMode

	s := &System{Vecs: store}

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

	// Phase 2a: the foundation sections — everything later decodes
	// against the catalog, model, KB, and dictionary, so this wave runs
	// first; its members are mutually independent.
	g := newDecodeGroup(bopts.Parallelism > 1)
	g.run(secCatalog, secs, func(d *snap.Decoder) error {
		var derr error
		s.Catalog, derr = lake.DecodeSnapshot(d)
		return derr
	})
	mv, ok := store.View("model")
	if !ok {
		return nil, fmt.Errorf("%w: vector directory has no model segment", ErrCorruptSnapshot)
	}
	g.run(secModel, secs, func(d *snap.Decoder) error {
		var derr error
		s.Model, derr = embedding.DecodeSnapshot(d, mv.Vec, mv.Len())
		return derr
	})
	g.run(secKB, secs, func(d *snap.Decoder) error {
		if !d.Bool() {
			return d.Err()
		}
		var derr error
		s.KB, derr = kb.DecodeSnapshot(d)
		return derr
	})
	g.run(secDict, secs, func(d *snap.Decoder) error {
		var derr error
		s.Dict, derr = dict.DecodeSnapshot(d)
		return derr
	})
	g.run(secKeyword, secs, func(d *snap.Decoder) error {
		var derr error
		s.Keyword, derr = keyword.DecodeIndexSnapshot(d)
		return derr
	})
	g.run(secValues, secs, func(d *snap.Decoder) error {
		var derr error
		s.Values, derr = keyword.DecodeValueIndexSnapshot(d)
		return derr
	})
	g.run(secCorr, secs, func(d *snap.Decoder) error {
		if !d.Bool() {
			return d.Err()
		}
		var derr error
		s.Corr, derr = join.DecodeCorrSnapshot(d)
		return derr
	})
	g.run(secOrg, secs, func(d *snap.Decoder) error {
		if !d.Bool() {
			return d.Err()
		}
		var derr error
		s.Org, derr = navigation.DecodeSnapshot(d)
		return derr
	})
	g.run(secGraph, secs, func(d *snap.Decoder) error {
		if !d.Bool() {
			return d.Err()
		}
		var derr error
		s.Graph, derr = aurum.DecodeSnapshot(d)
		return derr
	})
	g.run(secStats, secs, func(d *snap.Decoder) error {
		var derr error
		s.Stats, derr = DecodeCatalogStatsSnapshot(d)
		return derr
	})
	if err := g.wait(); err != nil {
		return nil, err
	}
	bopts.KB = s.KB
	s.buildOpts = bopts
	lookup := s.Catalog.Table
	stats := newBuildStats(bopts.Parallelism)

	// Phase 2b: the search engines, each depending only on phase-2a
	// results.
	g = newDecodeGroup(bopts.Parallelism > 1)
	g.run(secJoin, secs, func(d *snap.Decoder) error {
		eng, derr := join.DecodeEngineSnapshot(d, s.Dict, bopts.Parallelism)
		if derr != nil {
			return derr
		}
		eng.QueryParallelism = bopts.QueryParallelism
		s.Join = eng
		return nil
	})
	g.run(secMate, secs, func(d *snap.Decoder) error {
		var derr error
		s.Mate, derr = join.DecodeMateSnapshot(d, lookup)
		return derr
	})
	g.run(secTUS, secs, func(d *snap.Decoder) error {
		tus, derr := union.DecodeTUSSnapshot(d, union.TUSConfig{Model: s.Model, KB: s.KB, Dict: s.Dict}, lookup)
		if derr != nil {
			return derr
		}
		tus.QueryParallelism = bopts.QueryParallelism
		s.TUS = tus
		return nil
	})
	g.run(secSantos, secs, func(d *snap.Decoder) error {
		santos, derr := union.DecodeSantosSnapshot(d, s.KB, lookup)
		if derr != nil {
			return derr
		}
		santos.QueryParallelism = bopts.QueryParallelism
		s.Santos = santos
		return nil
	})
	g.run(secD3L, secs, func(d *snap.Decoder) error {
		var derr error
		s.D3L, derr = union.DecodeD3LSnapshot(d, s.Model, s.Dict, lookup)
		return derr
	})
	sv, _ := store.View("starmie")
	g.run(secStarmie, secs, func(d *snap.Decoder) error {
		ix, derr := starmie.DecodeSnapshot(d, s.Model, sv, lookup)
		if derr != nil {
			return derr
		}
		ix.SetNProbe(bopts.VecNProbe)
		s.Starmie = ix
		return nil
	})
	if err := g.wait(); err != nil {
		return nil, err
	}

	for _, st := range []int{stageModel, stageDict, stageKeyword, stageJoin,
		stageCorr, stageMate, stageTUS, stageSantos, stageD3L, stageStarmie,
		stageStats, stageVecs} {
		stats.Stages[st].Items = -1 // loaded from snapshot, not rebuilt
	}
	if bopts.SkipOrganization {
		stats.skip(stageOrg)
	}
	if bopts.SkipGraph {
		stats.skip(stageGraph)
	}
	stats.Total = time.Since(start)
	s.BuildStats = stats
	return s, nil
}

// derive is the second half of a load: the rebuild-on-load stages
// (profiles, entities, fuzzy) — deterministic functions of the decoded
// catalog, model and dictionary that are not worth serializing. It
// runs on a system that will serve as decoded; a base the delta merge
// consumes skips it, because the merge derives the same three over the
// merged catalog instead.
func (s *System) derive() error {
	start := time.Now()
	bopts, stats := s.buildOpts, s.BuildStats
	tables := s.Catalog.Tables()
	g := newDecodeGroup(bopts.Parallelism > 1)
	g.do(func() error {
		return stats.time(stageProfiles, func() (int, error) {
			s.Profiles = profile.NewIndexN(tables, bopts.Parallelism)
			return s.Profiles.Len(), nil
		})
	})
	g.do(func() error {
		return stats.time(stageEntities, func() (int, error) {
			s.Entities = apps.NewEntityAugmenter(tables)
			return len(tables), nil
		})
	})
	if bopts.SkipFuzzy {
		stats.skip(stageFuzzy)
	} else {
		g.do(func() error {
			return stats.time(stageFuzzy, func() (int, error) {
				return buildFuzzy(s, tables, bopts)
			})
		})
	}
	err := g.wait()
	stats.Total += time.Since(start)
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

// decodeGroup runs decode tasks, concurrently when parallel (they are
// bounded in number, so no worker pool), and keeps the first error.
type decodeGroup struct {
	parallel bool
	wg       sync.WaitGroup
	mu       sync.Mutex
	err      error
}

func newDecodeGroup(parallel bool) *decodeGroup {
	return &decodeGroup{parallel: parallel}
}

func (g *decodeGroup) do(fn func() error) {
	if !g.parallel {
		if g.err == nil {
			if err := fn(); err != nil {
				g.setErr(err)
			}
		}
		return
	}
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		if err := fn(); err != nil {
			g.setErr(err)
		}
	}()
}

func (g *decodeGroup) run(id uint16, secs map[uint16]*snap.Decoder, fn func(*snap.Decoder) error) {
	g.do(func() error { return decodeSection(id, secs, fn) })
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
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := s.Save(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadFile loads a snapshot from a file written by SaveFile. The
// vector blob is materialized per opts.VecMode: "auto" (or empty)
// memory-maps it where supported and falls back to a heap read,
// "mmap" requires the mapping, "heap" forces the portable read.
// Mapped pages survive the file handle: they stay valid for the life
// of the process and are shared between replicas by the page cache.
func LoadFile(path string, opts Options) (*System, error) {
	return thenDerive(decodeFile(path, opts))
}

// decodeFile is decode over a snapshot file, with the vector blob
// materialized per opts.VecMode.
func decodeFile(path string, opts Options) (*System, error) {
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
	return decode(bufio.NewReaderSize(f, 1<<20), blobFile, opts)
}
