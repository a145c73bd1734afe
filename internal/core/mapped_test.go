//go:build linux || darwin

package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"unsafe"

	"tablehound/internal/datagen"
	"tablehound/internal/lake"
	"tablehound/internal/snap"
	"tablehound/internal/union"
	"tablehound/internal/vecstore"
)

// servingSnapshot is the snapshot of the end-to-end benchmark's serving
// lake shape (20 domains of 80 values, 10 templates × 30 tables, lake
// seed 41) under the serving options, saved once per test binary.
var servingSnapshot = sync.OnceValues(func() ([]byte, error) {
	gen := datagen.Generate(datagen.Config{Seed: 41, NumDomains: 20, DomainSize: 80, NumTemplates: 10, TablesPerTemplate: 30})
	cat := lake.NewCatalog()
	if err := cat.AddBatch(gen.Tables); err != nil {
		return nil, err
	}
	sys, err := Build(cat, Options{SkipFuzzy: true, SkipGraph: true, SkipOrganization: true})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = sys.Save(&buf)
	return buf.Bytes(), err
})

// servingSnapshotFile writes the serving-shape snapshot under a test
// directory and returns its path and bytes.
func servingSnapshotFile(t *testing.T) (string, []byte) {
	t.Helper()
	if !vecstore.MmapSupported() {
		t.Skip("mmap unsupported on this platform")
	}
	raw, err := servingSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "serving.snap")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path, raw
}

// answers renders one answer of every query class, seeded from a few of
// s's tables: the keyword, value, overlap and containment searches,
// which read no vector, and with vectors the four union searches, which
// read the model's and the Starmie columns' rows.
func answers(t *testing.T, s *System, vectors bool) string {
	t.Helper()
	ctx := context.Background()
	var b strings.Builder
	tables := s.Catalog.Tables()
	for _, q := range []int{0, len(tables) / 2, len(tables) - 1} {
		qt := tables[q]
		values := qt.Columns[0].Values
		kw, err := s.KeywordSearch(qt.Name, 10)
		fmt.Fprintf(&b, "keyword %v %v\n", kw, err)
		vs, err := s.ValueSearch(values[0], 10)
		fmt.Fprintf(&b, "values %v %v\n", vs, err)
		ov, err := s.JoinableColumns(values, 10)
		fmt.Fprintf(&b, "overlap %v %v\n", ov, err)
		co, err := s.ContainmentSearch(values, 0.5, 10)
		fmt.Fprintf(&b, "containment %v %v\n", co, err)
		if !vectors {
			continue
		}
		tus, err := s.TUS.Search(ctx, qt, 10, union.EnsembleMeasure)
		fmt.Fprintf(&b, "tus %v %v\n", tus, err)
		santos, err := s.Santos.Search(ctx, qt, 10, union.Hybrid)
		fmt.Fprintf(&b, "santos %v %v\n", santos, err)
		d3l, err := s.D3L.Search(ctx, qt, 10)
		fmt.Fprintf(&b, "d3l %v %v\n", d3l, err)
		st, err := s.Starmie.SearchTables(ctx, qt, 10, 64, false)
		fmt.Fprintf(&b, "starmie %v %v\n", st, err)
	}
	return b.String()
}

// strs renders every string a loaded system decoded outside the vector
// block: each catalog cell, dictionary value and model token.
func strs(s *System) string {
	var b strings.Builder
	for _, tb := range s.Catalog.Tables() {
		b.WriteString(tb.ID + tb.Name + tb.Description)
		for _, c := range tb.Columns {
			b.WriteString(c.Name)
			for _, v := range c.Values {
				b.WriteString(v)
			}
		}
	}
	for id := 0; id < s.Dict.Size(); id++ {
		b.WriteString(s.Dict.Value(uint32(id)))
	}
	for _, tok := range s.Model.Tokens() {
		b.WriteString(tok)
	}
	return b.String()
}

// TestMappedLoadAliasesOnlyTheBlob: a mapped load's section payloads
// are views of the file mapping, and nothing decoded from them may
// alias it. With every whole page before the vector blob made
// unreadable, the mapped system saves the same bytes — which reads
// every decoded section, keyword docs included — and answers every
// query class as a heap load does. With the mapping released by
// Store.Close, every catalog cell, dictionary value and model token
// still reads, and so do the queries that read no vector.
func TestMappedLoadAliasesOnlyTheBlob(t *testing.T) {
	path, raw := servingSnapshotFile(t)
	heap, err := LoadFile(path, Options{VecMode: "heap"})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := LoadFile(path, Options{VecMode: "mmap"})
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.Vecs.Residency(); got != "mmap" {
		t.Fatalf("mapped load is %q", got)
	}

	// The mapping starts at the file's first byte, which lies blobOff
	// bytes before the first row of the first segment.
	first, _ := sys.Vecs.View(sys.Vecs.Segments()[0])
	blobOff := len(raw) - int(sys.Vecs.BlobLen())
	page := os.Getpagesize()
	sections := unsafe.Slice((*byte)(unsafe.Add(unsafe.Pointer(&first.Vec(0)[0]), -blobOff)), blobOff/page*page)
	if !bytes.Equal(sections, raw[:len(sections)]) {
		t.Fatal("the store's rows do not lie blobOff bytes into the file mapping")
	}
	if err := syscall.Mprotect(sections, syscall.PROT_NONE); err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := sys.Save(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), raw) {
		t.Error("the mapped system saves other bytes than it loaded")
	}
	if got, want := answers(t, sys, true), answers(t, heap, true); got != want {
		t.Errorf("mapped answers differ from the heap load's:\n%s\nwant\n%s", got, want)
	}

	if err := sys.Vecs.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := strs(sys), strs(heap); got != want {
		t.Error("strings read after the mapping is released differ from the heap load's")
	}
	if got, want := answers(t, sys, false), answers(t, heap, false); got != want {
		t.Errorf("answers after the mapping is released differ from the heap load's:\n%s\nwant\n%s", got, want)
	}
}

// fileMappings counts the mappings /proc/self/maps lists under dir, or
// returns -1 where the process's mappings cannot be read.
func fileMappings(dir string) int {
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		return -1
	}
	return strings.Count(string(maps), dir)
}

// TestLoadFileRejectsCorruptFiles extends the corruption sweep from the
// stream Load reads to the file LoadFile reads, mapped and on the heap:
// the file truncated and bit-flipped at each frame boundary ±1 and at
// 64 seeded offsets before the vector blob, and empty or shorter than a
// header, or with a section that checksums but does not decode, must
// fail as corrupt — never a panic or SIGBUS. The mapped
// load leaves the blob's bytes unchecked (see vecstore.ViewBlob), so
// flips inside the blob are held to the heap load only. No failed
// load may keep its file mapped.
func TestLoadFileRejectsCorruptFiles(t *testing.T) {
	path, raw := servingSnapshotFile(t)
	good, err := LoadFile(path, Options{VecMode: "heap"})
	if err != nil {
		t.Fatal(err)
	}
	blobOff := len(raw) - int(good.Vecs.BlobLen())

	// Every frame boundary: where each frame, payload and checksum
	// starts, then where the pad, the blob and the file end.
	var cuts []int
	pos := snap.HeaderLen
	for id := secOptions; id <= secVecs; id++ {
		n := int(binary.LittleEndian.Uint64(raw[pos+2:]))
		cuts = append(cuts, pos, pos+10, pos+10+n)
		pos += 10 + n + 4
	}
	cuts = append(cuts, pos, blobOff, len(raw))
	var offsets []int
	for _, c := range cuts {
		offsets = append(offsets, c-1, c, c+1)
	}
	rng := rand.New(rand.NewSource(52))
	for i := 0; i < 64; i++ {
		offsets = append(offsets, rng.Intn(blobOff))
	}
	for i := 0; i < 8; i++ {
		offsets = append(offsets, blobOff+rng.Intn(len(raw)-blobOff))
	}

	dir := t.TempDir()
	before := fileMappings(dir)
	bad := filepath.Join(dir, "bad.snap")
	try := func(what string, b []byte, modes ...string) {
		t.Helper()
		if err := os.WriteFile(bad, b, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, mode := range modes {
			if _, err := LoadFile(bad, Options{VecMode: mode}); !errors.Is(err, ErrCorruptSnapshot) {
				t.Errorf("%s, VecMode %s: err = %v, want ErrCorruptSnapshot", what, mode, err)
			}
		}
	}
	// Frames that checksum but do not decode fail after the open.
	try("catalog section a byte short", withSection(t, raw, secCatalog, func(p []byte) []byte { return p[:len(p)-1] }), "mmap", "heap")
	try("empty file", nil, "mmap", "heap")
	try("short header", raw[:snap.HeaderLen-3], "mmap", "heap")
	for _, off := range offsets {
		if off < 0 || off > len(raw) {
			continue
		}
		if off < len(raw) {
			try(fmt.Sprintf("truncated to %d bytes", off), raw[:off], "mmap", "heap")
			flipped := bytes.Clone(raw)
			flipped[off] ^= 0x40
			modes := []string{"mmap", "heap"}
			if off >= blobOff {
				modes = modes[1:]
			}
			try(fmt.Sprintf("byte %d flipped", off), flipped, modes...)
		} else {
			try("trailing byte", append(bytes.Clone(raw), 0), "mmap", "heap")
		}
	}
	if before >= 0 {
		if after := fileMappings(dir); after != before {
			t.Errorf("failed loads left %d mappings of their files", after-before)
		}
	}
}
