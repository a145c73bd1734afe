package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"tablehound/internal/datagen"
	"tablehound/internal/dict"
	"tablehound/internal/lake"
	"tablehound/internal/minhash"
	"tablehound/internal/snap"
	"tablehound/internal/table"
	"tablehound/internal/union"
	"tablehound/internal/vecstore"
)

// roundTrip saves built to a buffer and loads it back at the given
// query parallelism, failing the test on any snapshot error.
func roundTrip(t *testing.T, built *System, qparallel int) *System {
	t.Helper()
	var buf bytes.Buffer
	if err := built.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := Load(bytes.NewReader(buf.Bytes()), Options{QueryParallelism: qparallel})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return loaded
}

// TestSnapshotRoundTripParity is the snapshot subsystem's core
// contract: a loaded system must answer every search surface
// bit-identically to the system it was saved from.
func TestSnapshotRoundTripParity(t *testing.T) {
	built, gen := buildAt(t, 4)
	loaded := roundTrip(t, built, 0)

	check := func(surface string, got, want any, err, werr error) {
		t.Helper()
		if err != nil || werr != nil {
			t.Fatalf("%s: loaded err %v, built err %v", surface, err, werr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s results differ:\nloaded %+v\nbuilt  %+v", surface, got, want)
		}
	}

	topic := gen.DomainNames[gen.Templates[0].Domains[0]]
	gotK, err := loaded.KeywordSearch(topic, 10)
	wantK, werr := built.KeywordSearch(topic, 10)
	check("keyword", gotK, wantK, err, werr)

	val := gen.Tables[3].Columns[0].Values[0]
	gotV, err := loaded.ValueSearch(val, 10)
	wantV, werr := built.ValueSearch(val, 10)
	check("value", gotV, wantV, err, werr)

	qcol := gen.Tables[0].Columns[0]
	gotJ, err := loaded.JoinableColumns(qcol.Values, 10)
	wantJ, werr := built.JoinableColumns(qcol.Values, 10)
	check("join-overlap", gotJ, wantJ, err, werr)

	gotC, err := loaded.ContainmentSearch(qcol.Values, 0.5, 10)
	wantC, werr := built.ContainmentSearch(qcol.Values, 0.5, 10)
	check("join-containment", gotC, wantC, err, werr)

	// Queries mixing indexed values with dictionary-OOV strings must
	// agree too: the loaded dictionary has to treat unseen values the
	// same way the built one does.
	oov := append([]string{"zzz-snapshot-oov-1", "zzz-snapshot-oov-2"}, qcol.Values[:4]...)
	gotO, err := loaded.JoinableColumns(oov, 10)
	wantO, werr := built.JoinableColumns(oov, 10)
	check("join-oov", gotO, wantO, err, werr)

	q := gen.Tables[0]
	gotU, err := loaded.UnionableTables(q, 10)
	wantU, werr := built.UnionableTables(q, 10)
	check("tus-union", gotU, wantU, err, werr)

	gotSa, err := loaded.Santos.Search(context.Background(), q, 5, union.Hybrid)
	wantSa, werr := built.Santos.Search(context.Background(), q, 5, union.Hybrid)
	check("santos", gotSa, wantSa, err, werr)

	gotD, err := loaded.D3L.Search(context.Background(), q, 5)
	wantD, werr := built.D3L.Search(context.Background(), q, 5)
	check("d3l", gotD, wantD, err, werr)
	gotDA, err := d3lAnswers(loaded, q)
	wantDA, werr := d3lAnswers(built, q)
	check("d3l-whole-lake", gotDA, wantDA, err, werr)

	gotS, err := loaded.Starmie.SearchTables(context.Background(), q, 5, 64, false)
	wantS, werr := built.Starmie.SearchTables(context.Background(), q, 5, 64, false)
	check("starmie", gotS, wantS, err, werr)

	gotF, _ := loaded.Fuzzy.Search(qcol.Values, 0.85, 0.5)
	wantF, _ := built.Fuzzy.Search(qcol.Values, 0.85, 0.5)
	check("fuzzy", gotF, wantF, nil, nil)

	gotLabels, gotID, err := loaded.Navigate(topic)
	wantLabels, wantID, werr := built.Navigate(topic)
	check("navigate-labels", gotLabels, wantLabels, err, werr)
	check("navigate-table", gotID, wantID, nil, nil)

	from, to := gen.Tables[0].ID, gen.Tables[len(gen.Tables)-1].ID
	gotP := loaded.JoinPath(from, to, 3)
	wantP := built.JoinPath(from, to, 3)
	check("joinpath", gotP, wantP, nil, nil)

	gotM := loaded.MatchSchemas(gen.Tables[0], gen.Tables[1], 0.5)
	wantM := built.MatchSchemas(gen.Tables[0], gen.Tables[1], 0.5)
	check("match-schemas", gotM, wantM, nil, nil)
}

// d3lAnswers is the D3L evidence the parity suites compare beyond the
// top of one ranking, each a score for every table of the lake: q as
// given, the system's own table of q's ID (whose staged analysis the
// engine reuses), and a copy of q under another ID with values and
// words the lake has never seen.
func d3lAnswers(s *System, q *table.Table) ([][]union.Result, error) {
	cols := make([]*table.Column, len(q.Columns))
	for j, c := range q.Columns {
		vals := append([]string(nil), c.Values...)
		for r := 0; r < len(vals); r += 3 {
			vals[r] = fmt.Sprintf("%s unseen-word-%d", vals[r], r)
		}
		cols[j] = table.NewColumn(c.Name, vals)
	}
	foreign := table.MustNew("d3l-parity-foreign", "foreign", cols)
	var out [][]union.Result
	for _, query := range []*table.Table{q, s.Catalog.Table(q.ID), foreign} {
		rs, err := s.D3L.Search(context.Background(), query, s.D3L.NumTables()+1)
		if err != nil {
			return nil, err
		}
		out = append(out, rs)
	}
	return out, nil
}

// TestSnapshotSkipFlagsRoundTrip checks that a snapshot of a system
// built with Skip* options loads with the same subsystems absent and
// the same stages marked skipped.
func TestSnapshotSkipFlagsRoundTrip(t *testing.T) {
	gen := datagen.Generate(datagen.Config{Seed: 5, NumTemplates: 2, TablesPerTemplate: 2})
	cat := lake.NewCatalog()
	if err := cat.AddBatch(gen.Tables); err != nil {
		t.Fatal(err)
	}
	built, err := Build(cat, Options{SkipFuzzy: true, SkipGraph: true, SkipOrganization: true})
	if err != nil {
		t.Fatal(err)
	}
	loaded := roundTrip(t, built, 0)
	if loaded.Fuzzy != nil {
		t.Error("fuzzy joiner rebuilt despite SkipFuzzy snapshot")
	}
	if loaded.Graph != nil {
		t.Error("graph present despite SkipGraph snapshot")
	}
	if loaded.Org != nil {
		t.Error("organization present despite SkipOrganization snapshot")
	}
	for _, name := range []string{"fuzzy", "graph", "org"} {
		st, ok := loaded.BuildStats.Stage(name)
		if !ok || !st.Skipped {
			t.Errorf("stage %s not marked skipped after load: %+v", name, st)
		}
	}
}

// TestSnapshotRejectsCorruption exercises the corruption contract on
// the full-system format: truncation at every prefix length, a flipped
// byte at every offset, trailing garbage, and a wrong version must all
// surface ErrCorruptSnapshot (never a panic or a silent success).
func TestSnapshotRejectsCorruption(t *testing.T) {
	gen := datagen.Generate(datagen.Config{Seed: 5, NumTemplates: 2, TablesPerTemplate: 2})
	cat := lake.NewCatalog()
	if err := cat.AddBatch(gen.Tables); err != nil {
		t.Fatal(err)
	}
	built, err := Build(cat, Options{KB: gen.BuildKB(0.8), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := built.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	t.Run("trailing garbage", func(t *testing.T) {
		bad := append(append([]byte{}, good...), 0xFF)
		if _, err := Load(bytes.NewReader(bad), Options{}); !errors.Is(err, ErrCorruptSnapshot) {
			t.Errorf("err = %v, want ErrCorruptSnapshot", err)
		}
	})
	t.Run("wrong version", func(t *testing.T) {
		// A clean header with the wrong version is a stale snapshot, not
		// bit rot: the typed ErrVersionMismatch (naming both versions)
		// lets operators tell the two apart, so it must not also satisfy
		// the corruption sentinel. The header claims v6, which still
		// stored the MATE, correlation and catalog-stats sections.
		bad := append([]byte{}, good...)
		bad[4], bad[5] = 6, 0 // version lives at header bytes 4..5
		_, err := Load(bytes.NewReader(bad), Options{})
		if !errors.Is(err, ErrVersionMismatch) {
			t.Errorf("err = %v, want ErrVersionMismatch", err)
		}
		if errors.Is(err, ErrCorruptSnapshot) {
			t.Errorf("version mismatch also satisfies ErrCorruptSnapshot: %v", err)
		}
		for _, want := range []string{"found version 6", "expected 7"} {
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("err %q does not name versions (%q missing)", err, want)
			}
		}
	})
	t.Run("truncation", func(t *testing.T) {
		// Every strict prefix must fail; step keeps runtime sane.
		for n := 0; n < len(good); n += 997 {
			if _, err := Load(bytes.NewReader(good[:n]), Options{}); !errors.Is(err, ErrCorruptSnapshot) {
				t.Fatalf("truncated to %d bytes: err = %v, want ErrCorruptSnapshot", n, err)
			}
		}
	})
	t.Run("bitflip", func(t *testing.T) {
		bad := make([]byte, len(good))
		for off := 0; off < len(good); off += 1009 {
			copy(bad, good)
			bad[off] ^= 0x40
			if _, err := Load(bytes.NewReader(bad), Options{}); err == nil {
				t.Fatalf("flipped byte at %d: Load succeeded", off)
			} else if !errors.Is(err, ErrCorruptSnapshot) {
				t.Fatalf("flipped byte at %d: err = %v, want ErrCorruptSnapshot", off, err)
			}
		}
	})
}

// TestSaveRejectsPartialSystem pins that Save refuses to serialize a
// system that never went through Build.
func TestSaveRejectsPartialSystem(t *testing.T) {
	var buf bytes.Buffer
	if err := (&System{}).Save(&buf); err == nil {
		t.Fatal("Save of empty system succeeded")
	}
	if buf.Len() != 0 {
		t.Errorf("partial Save wrote %d bytes", buf.Len())
	}
}

// TestSnapshotRejectsTUSIDBeyondDict forges a CRC-valid TUS section
// whose column references a value ID past the dictionary: the load must
// fail as corrupt rather than serve a set measure scored over a value
// that does not exist.
func TestSnapshotRejectsTUSIDBeyondDict(t *testing.T) {
	gen := datagen.Generate(datagen.Config{Seed: 5, NumTemplates: 2, TablesPerTemplate: 2})
	cat := lake.NewCatalog()
	if err := cat.AddBatch(gen.Tables); err != nil {
		t.Fatal(err)
	}
	built, err := Build(cat, Options{Seed: 3, SkipFuzzy: true, SkipGraph: true, SkipOrganization: true})
	if err != nil {
		t.Fatal(err)
	}
	// Parts alias the engine's column sets, so writing through them
	// forges the section Save encodes.
	ids := built.TUS.Parts()[0].Cols[0].IDs
	ids[len(ids)-1] = uint32(built.Dict.Size())
	if _, err := Load(bytes.NewReader(saved(t, built)), Options{}); !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("TUS ID %d with a %d-value dictionary: err = %v, want ErrCorruptSnapshot", built.Dict.Size(), built.Dict.Size(), err)
	}
}

// withSection returns the snapshot good with section id's payload
// replaced by edit(payload): every frame re-checksummed and the vector
// blob re-aligned, so only the forged content can fail a load.
func withSection(t *testing.T, good []byte, id uint16, edit func(payload []byte) []byte) []byte {
	t.Helper()
	var frames bytes.Buffer
	sw := snap.NewWriter(&frames)
	pos := snapHeaderLen
	for sid := secOptions; sid <= secVecs; sid++ {
		if got := binary.LittleEndian.Uint16(good[pos:]); got != sid {
			t.Fatalf("section %d at offset %d, want %d", got, pos, sid)
		}
		n := int(binary.LittleEndian.Uint64(good[pos+2:]))
		payload := good[pos+10 : pos+10+n]
		pos += 10 + n + 4
		if sid == id {
			payload = edit(append([]byte(nil), payload...))
		}
		if err := sw.Section(sid, func(e *snap.Encoder) {
			for _, b := range payload {
				e.U8(b)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	out := append(append([]byte(nil), good[:snapHeaderLen]...), frames.Bytes()...)
	out = append(out, make([]byte, vecstore.PadTo(snapHeaderLen+sw.Written()))...)
	return append(out, good[pos+vecstore.PadTo(int64(pos)):]...)
}

// TestSnapshotRejectsForgedIDSets re-encodes the SANTOS and join
// sections of a valid snapshot with one bad ID set at a time: an ID
// past its dictionary, IDs not strictly ascending, and pair IDs in a
// SANTOS section without a pair dictionary. Each one used to load, and
// then panicked in a later delta merge or Save; LoadFile must refuse it
// as corrupt.
func TestSnapshotRejectsForgedIDSets(t *testing.T) {
	gen := datagen.Generate(datagen.Config{Seed: 5, NumTemplates: 2, TablesPerTemplate: 2})
	cat := lake.NewCatalog()
	if err := cat.AddBatch(gen.Tables); err != nil {
		t.Fatal(err)
	}
	built, err := Build(cat, Options{Seed: 3, SkipFuzzy: true, SkipGraph: true, SkipOrganization: true})
	if err != nil {
		t.Fatal(err)
	}
	good := saved(t, built)
	at := func(p []byte, d *snap.Decoder) int { return len(p) - d.Remaining() }
	// santos walks a SANTOS payload to its pair dictionary and to the
	// first element of the first pair set with two or more IDs.
	santos := func(p []byte) (dictStart, dictEnd, set, pairs int) {
		d := snap.NewDecoder(p)
		d.Bool()
		if !d.Bool() {
			t.Fatal("SANTOS section has no pair dictionary")
		}
		dictStart = at(p, d)
		pd, err := dict.DecodeSnapshot(d)
		if err != nil {
			t.Fatal(err)
		}
		dictEnd = at(p, d)
		for range d.Strs() {
			for r := d.U32(); r > 0; r-- {
				d.Str()
				if n := binary.LittleEndian.Uint32(p[at(p, d):]); n >= 2 && set == 0 {
					set = at(p, d) + 4
				}
				d.U32s()
				d.Str()
				d.F64()
			}
		}
		if set == 0 {
			t.Fatal("no SANTOS pair set with two IDs")
		}
		return dictStart, dictEnd, set, pd.Size()
	}
	// joinSet is the offset of the first element of the first join
	// column set with two or more IDs.
	joinSet := func(p []byte) int {
		d := snap.NewDecoder(p)
		if !d.Bool() {
			t.Fatal("join section carries its own dictionary")
		}
		if _, err := minhash.DecodeSnapshot(d); err != nil {
			t.Fatal(err)
		}
		d.U32()
		d.U32()
		for range d.Strs() {
			if n := binary.LittleEndian.Uint32(p[at(p, d):]); n >= 2 {
				return at(p, d) + 4
			}
			d.U32s()
			d.U64s()
		}
		t.Fatal("no join column with two IDs")
		return 0
	}
	put := func(p []byte, off int, v uint32) []byte {
		binary.LittleEndian.PutUint32(p[off:], v)
		return p
	}
	// equalNext makes a set's first ID equal its second.
	equalNext := func(p []byte, off int) []byte { return put(p, off, binary.LittleEndian.Uint32(p[off+4:])) }

	dir := t.TempDir()
	for _, c := range []struct {
		name string
		sec  uint16
		edit func([]byte) []byte
	}{
		{"unchanged", secSantos, func(p []byte) []byte { return p }},
		{"SANTOS pair ID past the pair dictionary", secSantos, func(p []byte) []byte {
			_, _, set, pairs := santos(p)
			return put(p, set, uint32(pairs))
		}},
		{"SANTOS pair IDs not ascending", secSantos, func(p []byte) []byte {
			_, _, set, _ := santos(p)
			return equalNext(p, set)
		}},
		{"SANTOS pair IDs without a pair dictionary", secSantos, func(p []byte) []byte {
			start, end, _, _ := santos(p)
			return append(append(p[:start-1:start-1], 0), p[end:]...)
		}},
		{"join ID past the dictionary", secJoin, func(p []byte) []byte {
			return put(p, joinSet(p), uint32(built.Dict.Size()))
		}},
		{"join IDs not ascending", secJoin, func(p []byte) []byte { return equalNext(p, joinSet(p)) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(dir, "forged.snap")
			if err := os.WriteFile(path, withSection(t, good, c.sec, c.edit), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := LoadFile(path, Options{})
			if c.name == "unchanged" {
				if err != nil {
					t.Fatalf("re-framed snapshot does not load: %v", err)
				}
				return
			}
			if !errors.Is(err, ErrCorruptSnapshot) {
				t.Fatalf("err = %v, want ErrCorruptSnapshot", err)
			}
		})
	}
}

// TestLoadedBuildReportNamesEveryStage checks a loaded system's build
// report over every Skip* combination: each stage reads as exactly one
// of loaded (its section was decoded), derived (a rebuild-on-load stage
// that ran) or skipped, and the skipped set is the built system's. The
// report prints loaded stages as "loaded", never as an item count.
func TestLoadedBuildReportNamesEveryStage(t *testing.T) {
	gen := datagen.Generate(datagen.Config{Seed: 5, NumTemplates: 2, TablesPerTemplate: 2})
	for mask := 0; mask < 8; mask++ {
		opts := Options{Seed: 3, SkipFuzzy: mask&1 != 0, SkipOrganization: mask&2 != 0, SkipGraph: mask&4 != 0}
		t.Run(fmt.Sprintf("fuzzy=%v,org=%v,graph=%v", !opts.SkipFuzzy, !opts.SkipOrganization, !opts.SkipGraph), func(t *testing.T) {
			cat := lake.NewCatalog()
			if err := cat.AddBatch(gen.Tables); err != nil {
				t.Fatal(err)
			}
			built, err := Build(cat, opts)
			if err != nil {
				t.Fatal(err)
			}
			loaded, err := Load(bytes.NewReader(saved(t, built)), Options{})
			if err != nil {
				t.Fatal(err)
			}
			for i, st := range loaded.BuildStats.Stages {
				isLoaded := st.Items == loadedItems
				derived := !st.Skipped && !isLoaded && slices.Contains(derivedStages, i) && st.Wall > 0
				n := 0
				for _, b := range []bool{isLoaded, derived, st.Skipped} {
					if b {
						n++
					}
				}
				if n != 1 {
					t.Errorf("stage %s: loaded %v, derived %v, skipped %v (items %d, wall %v)", st.Name, isLoaded, derived, st.Skipped, st.Items, st.Wall)
				}
				if want := built.BuildStats.Stages[i].Skipped; st.Skipped != want {
					t.Errorf("stage %s: skipped %v after load, %v at build", st.Name, st.Skipped, want)
				}
				if isLoaded && st.Wall != 0 {
					t.Errorf("stage %s: loaded but timed %v", st.Name, st.Wall)
				}
			}
			report := loaded.BuildStats.Report()
			if strings.Contains(report, "-1") || !strings.Contains(report, "loaded") {
				t.Errorf("report misstates loaded stages:\n%s", report)
			}
		})
	}
}
