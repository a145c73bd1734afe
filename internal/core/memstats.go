// Memory observability for the dictionary-encoded indexes: MemStats
// walks the built System and reports, per index family, the resident
// bytes of the integer representation next to an estimate of the
// string-keyed structures it replaced. Rendered by `lakectl memstats`.
package core

import (
	"fmt"
	"strings"

	"tablehound/internal/dict"
)

// MemEntry is one line of the memory report.
type MemEntry struct {
	Name string
	// Sets is the number of encoded sets (columns, relationships, or
	// documents) the entry covers; 0 when not applicable.
	Sets int
	dict.Footprint
}

// Saved returns LegacyBytes - Bytes (negative when the encoded form is
// larger, e.g. for the dictionary itself, which has no legacy
// counterpart and is pure overhead repaid by the set entries).
func (e MemEntry) Saved() int64 { return e.LegacyBytes - e.Bytes }

// MemReport is the per-index memory accounting of a built System.
type MemReport struct {
	Entries []MemEntry
}

// Totals sums every entry.
func (r MemReport) Totals() MemEntry {
	t := MemEntry{Name: "total"}
	for _, e := range r.Entries {
		t.Sets += e.Sets
		t.Footprint.Accumulate(e.Footprint)
	}
	return t
}

// MemStats reports the resident footprint of the dictionary and of
// every index family encoded through it. Estimates use fixed per-entry
// overheads (string header 16 B, slice header 24 B, map entry 32 B),
// so numbers are comparable across runs rather than exact heap
// measurements.
func (s *System) MemStats() MemReport {
	var r MemReport
	add := func(name string, sets int, f dict.Footprint) {
		r.Entries = append(r.Entries, MemEntry{Name: name, Sets: sets, Footprint: f})
	}
	add("dict", 0, s.Dict.Footprint())
	// The *-lsh rows are the LSH band tables, rebuilt from signatures on
	// every build and load and never serialized: flat ordinal arrays
	// behind a directory per band, against the map of string-key lists
	// per band they replaced.
	if s.Join != nil {
		add("join-sets", s.Join.NumColumns(), s.Join.SetsFootprint())
		add("join-lsh", s.Join.NumColumns(), s.Join.LSHFootprint())
	}
	if s.TUS != nil {
		add("tus-sets", s.TUS.NumTables(), s.TUS.SetsFootprint())
		add("tus-lsh", s.TUS.NumTables(), s.TUS.LSHFootprint())
	}
	if s.Santos != nil {
		add("santos-dict", 0, s.Santos.PairDict().Footprint())
		add("santos-pairs", s.Santos.NumTables(), s.Santos.PairFootprint())
	}
	if s.Keyword != nil {
		add("keyword-meta", s.Keyword.Len(), s.Keyword.Footprint())
	}
	if s.Values != nil {
		add("keyword-values", s.Values.Len(), s.Values.Footprint())
	}
	if s.Vecs != nil {
		// The shared vector block. "Legacy" is what the pre-block form
		// cost: one heap slice per vector (24 B header) behind a map
		// entry (32 B), with no precomputed norms. Bytes is what is
		// actually heap-resident now — the full block when heap-loaded,
		// nothing when the block aliases mmap'd (file-backed, shared,
		// evictable) pages.
		blockBytes := s.Vecs.DataBytes() + s.Vecs.NormBytes()
		resident := blockBytes
		if s.Vecs.Mapped() {
			resident = 0
		}
		dim := int64(s.Vecs.Dim())
		add("vec-block", len(s.Vecs.Segments()), dict.Footprint{
			Count:       s.Vecs.Count(),
			Bytes:       resident,
			LegacyBytes: int64(s.Vecs.Count()) * (dim*4 + 24 + 32),
		})
		if cb := s.Vecs.CentroidBytes(); cb > 0 {
			// Pure overhead (like the dictionary), repaid in pruned
			// distance computations rather than bytes.
			add("vec-centroids", 0, dict.Footprint{Bytes: cb})
		}
	}
	if s.Fuzzy != nil {
		slots, refs := s.Fuzzy.VectorStats()
		// Vectors are float64s of the model dimension; sharing slots
		// across columns is the saving.
		dim := int64(s.Model.Dim())
		add("fuzzy-vectors", slots, dict.Footprint{
			Count:       refs,
			Bytes:       int64(slots)*dim*8 + int64(refs)*4,
			LegacyBytes: int64(refs) * dim * 8,
		})
	}
	return r
}

// Report renders the memory table.
func (r MemReport) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "  %-16s %10s %10s %12s %12s %10s\n",
		"index", "sets", "entries", "bytes", "legacy", "saved")
	row := func(e MemEntry) {
		fmt.Fprintf(&b, "  %-16s %10d %10d %12s %12s %10s\n",
			e.Name, e.Sets, e.Count, humanBytes(e.Bytes), humanBytes(e.LegacyBytes), humanBytes(e.Saved()))
	}
	for _, e := range r.Entries {
		row(e)
	}
	row(r.Totals())
	return b.String()
}

func humanBytes(n int64) string {
	neg := ""
	if n < 0 {
		neg, n = "-", -n
	}
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%s%.1fGiB", neg, float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%s%.1fMiB", neg, float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%s%.1fKiB", neg, float64(n)/(1<<10))
	}
	return fmt.Sprintf("%s%dB", neg, n)
}
