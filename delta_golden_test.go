package tablehound

import (
	"bytes"
	"encoding/binary"
	"path/filepath"
	"runtime"
	"testing"

	"tablehound/internal/core"
	"tablehound/internal/datagen"
	"tablehound/internal/lake"
	"tablehound/internal/table"
)

// goldenDelta is the SHA-256 of the delta TestDeltaGolden builds: six
// tables added, one replaced and one removed over a 58-table base. It
// pins the bytes `lakectl add` writes, which a change to how a delta's
// tables are analysed must leave alone; a deliberate change of the
// delta format or of what a build computes moves it: re-record it then,
// and say why.
//
// Re-recorded for delta format v6, whose SANTOS section is written as
// the SANTOS snapshot section's parts are (one pair list, and per
// relationship its positions there) instead of packed pairs per
// relationship; only the santos entry of goldenDeltaSections was
// re-recorded with it.
const goldenDelta = "78094fca4b5ef7d42e6b1f5207792fe1ec377b8069c1c5cf255e205b30f5422a"

// goldenDeltaSections is the SHA-256 of each section payload of that
// delta, in stream order, so the one whose digest moves names the
// section that changed.
var goldenDeltaSections = []struct{ name, sha string }{
	{"meta", "a08076823d644a67032eccc3b9b72b5549cbac5f2f8100b5d86f2f3b896a7ba4"},
	{"dict", "48a7e729187620278dd1bce931ca89c54d16bc9c5d192bdcaa103fa48e613bed"},
	{"catalog", "9d84d58b76a29c478053304e518b9d909278c7479da13dfa1ff956d286c88bf1"},
	{"join", "f9d3e59b523b24ce702222eb9ce0e34de850752e0d36384b9ebb72337b6a855e"},
	{"tus", "a83b65fb1a8526802a98c4657e802a45a2fa6b6f315fd582f02588b787d00b10"},
	{"santos", "5a2f8b81d54a5bfb043afaa0ef7285b773d8a95b2a3db064ec2c2e2f61d69518"},
	{"d3l", "fe2a601731b99b66ec9ebbe0531e8998b89c5685f4370f9bff2f7bd1160fad78"},
	{"starmie", "a1d245dc70e003303d8e721782e5d11f50f84d3e1cdd4ddf9b9e1d7e29611883"},
}

// TestDeltaGolden builds a base over a fixed datagen lake with a KB,
// saves it, and builds one delta over it at Parallelism 1 and 8: the
// held-out tables added, one base table replaced by a copy with one
// value changed, and another removed. Both deltas must hash to the
// recorded digests, whole and section by section.
func TestDeltaGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("recorded on amd64; other targets may fuse multiply-adds")
	}
	gen := datagen.Generate(datagen.Config{
		Seed:              17,
		NumDomains:        12,
		DomainSize:        60,
		NumTemplates:      8,
		TablesPerTemplate: 8,
	})
	const held = 6
	baseTables, add := gen.Tables[:len(gen.Tables)-held], gen.Tables[len(gen.Tables)-held:]
	cat := lake.NewCatalog()
	if err := cat.AddBatch(baseTables); err != nil {
		t.Fatal(err)
	}
	sys, err := core.Build(cat, core.Options{KB: gen.BuildKB(0.8), SkipFuzzy: true, SkipGraph: true, SkipOrganization: true})
	if err != nil {
		t.Fatal(err)
	}
	basePath := filepath.Join(t.TempDir(), "base.thsnap")
	if err := sys.SaveFile(basePath); err != nil {
		t.Fatal(err)
	}
	replaced, removed := baseTables[3], baseTables[11]
	add = append(append([]*table.Table(nil), add...), changedCopy(t, replaced))
	for _, par := range []int{1, 8} {
		d, err := core.BuildDelta(basePath, nil, add, []string{replaced.ID, removed.ID}, core.Options{Parallelism: par})
		if err != nil {
			t.Fatalf("Parallelism %d: %v", par, err)
		}
		var buf bytes.Buffer
		if err := d.Save(&buf); err != nil {
			t.Fatal(err)
		}
		b := buf.Bytes()
		if got := sha256Hex(b); got != goldenDelta {
			t.Errorf("Parallelism %d: delta hashes to %s, want %s", par, got, goldenDelta)
		}
		// The frames: 8-byte header, then per section a u16 ID, a u64
		// payload length, the payload and a CRC32.
		off := 8
		for i, want := range goldenDeltaSections {
			if off+10 > len(b) {
				t.Fatalf("Parallelism %d: delta ends before section %s", par, want.name)
			}
			if id := binary.LittleEndian.Uint16(b[off:]); int(id) != i+1 {
				t.Fatalf("Parallelism %d: section %s has ID %d, want %d", par, want.name, id, i+1)
			}
			n := int(binary.LittleEndian.Uint64(b[off+2:]))
			if got := sha256Hex(b[off+10 : off+10+n]); got != want.sha {
				t.Errorf("Parallelism %d: section %s hashes to %s, want %s", par, want.name, got, want.sha)
			}
			off += 10 + n + 4
		}
		if off != len(b) {
			t.Errorf("Parallelism %d: %d bytes after the last section", par, len(b)-off)
		}
	}
}

// changedCopy returns a copy of src under its ID with the first value
// of its first column changed.
func changedCopy(t *testing.T, src *table.Table) *table.Table {
	t.Helper()
	cols := make([]*table.Column, len(src.Columns))
	for i, c := range src.Columns {
		cols[i] = &table.Column{Name: c.Name, Type: c.Type, Values: append([]string(nil), c.Values...)}
	}
	cols[0].Values[0] += " changed"
	nt, err := table.New(src.ID, src.Name, cols)
	if err != nil {
		t.Fatal(err)
	}
	return nt
}
