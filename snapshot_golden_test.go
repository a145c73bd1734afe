package tablehound

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"runtime"
	"sync"
	"testing"

	"tablehound/internal/core"
	"tablehound/internal/datagen"
	"tablehound/internal/lake"
	"tablehound/internal/vecstore"
)

// harnessLake is the lake the end-to-end benchmark serves (bench/run.go:
// 20 domains of 80 values, 10 templates × 30 tables, lake seed 41) with
// the options it builds under: no stage that no endpoint reads.
var harnessLake = sync.OnceValues(func() (*datagen.Lake, core.Options) {
	gen := datagen.Generate(datagen.Config{
		Seed:              41,
		NumDomains:        20,
		DomainSize:        80,
		NumTemplates:      10,
		TablesPerTemplate: 30,
	})
	return gen, core.Options{SkipFuzzy: true, SkipGraph: true, SkipOrganization: true}
})

// goldenHarnessSnapshot is the SHA-256 of that lake's snapshot as the
// commit before the allocation-free cell-embedding kernel wrote it.
// Every vector the system stores comes out of embedding.RandomVector
// and CharGramVector, and every stored column type out of
// table.InferType, so a kernel that differed in one bit or one cell
// would move it. A deliberate change of the snapshot format or of what
// a build computes moves it too: re-record it then, and say why.
//
// Re-recorded for format v6: the keyword and values sections are
// written by the keyword package's one postings codec, and the options
// section no longer carries the four build parameters that became
// constants. Every other section and the vector blob hash as before;
// only the blob's alignment padding moved with the shorter sections.
//
// Re-recorded for format v7, which drops the MATE, correlation and
// catalog-stats sections and renumbers the rest. goldenHarnessSections
// was recorded from the v6 snapshot before that change and still
// matches, so only the framing and the dropped sections moved.
//
// Re-recorded for format v8, which drops the coarse quantizer over the
// Starmie column vectors: the options section loses its cluster count
// and the vecs directory its centroid tables, so exactly those two
// entries of goldenHarnessSections were re-recorded with it. The other
// fourteen sections and the blob hash as before.
//
// Re-recorded for format v9, which drops the organization and graph
// sections (both indexes are built by their first reader) and
// renumbers the vecs section. Their two entries left
// goldenHarnessSections; every other section digest and the blob hash
// as before, so only the framing and the blob's alignment padding
// moved.
//
// Re-recorded for format v10, which drops the join section's MinHash
// hasher, ensemble parameters and per-column signatures (containment is
// answered exactly from the inverted index). Only the join entry of
// goldenHarnessSections was re-recorded with it; every other section
// digest and the blob hash as before.
//
// Re-recorded for format v11, which stores D3L's values as dictionary
// IDs and its words as positions in one word list, and drops TUS's
// universe strings; SANTOS joins a pair's two values with "\n" instead
// of "||", which reorders its pair dictionary. Only the tus, santos and
// d3l entries of goldenHarnessSections were re-recorded with it; every
// other section digest and the blob hash as before.
//
// Re-recorded for format v12, which stores SANTOS's pairs as packed
// pairs of lake-dictionary IDs instead of a pair-token dictionary, and
// writes the join column keys once instead of again inside the
// inverted index. Only the join and santos entries of
// goldenHarnessSections were re-recorded with it; every other section
// digest and the blob hash as before.
//
// Re-recorded for format v13, which drops TUS's MinHash hasher and
// signature length and writes its NL graph's topology only (the nodes
// take the column vectors the TUS parts hold). Only the tus entry of
// goldenHarnessSections was re-recorded with it; every other section
// digest and the blob hash as before.
const goldenHarnessSnapshot = "e68574e1d9ce4f37e9bc2310b248e98c3643f71aa4968e67eab346a9380c0978"

// goldenHarnessSections is the SHA-256 of each section payload of that
// snapshot, in stream order, and of the vector blob after them. They
// were recorded from the v6 snapshot (options and vecs from v8, d3l
// from v11, join and santos from v12, tus from v13), so a format change
// that only drops or renumbers sections
// leaves them all in place, and the one whose digest moves names the
// section that changed.
var goldenHarnessSections = []struct{ name, sha string }{
	{"options", "2605eb361f9013a4a6494ae520facbf3ebc676bfbd23f54cc013c99ac03241d2"},
	{"meta", "bd874bd5dbdef034ecfe998554c1b0c8adab63fe1948dc60a2f7ff2a21660a1a"},
	{"catalog", "59fae7795703e1fffad10b04c40c4e3724f607f348877605ef6fab883ddf4579"},
	{"model", "a59b9d52506a6d72639cd8bbae3750018d78eba11795e96f3f71d087376aeac9"},
	{"kb", "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d"},
	{"dict", "355135e4e8ef8371f6cd69823ce0dfad8f2357c875b225d0fcfd3f2b4bd7a3e3"},
	{"keyword", "9ac97e224d0cc308137895e25020727651c2f6ee7ae27fd80a87e40d74dab859"},
	{"values", "688a3d7953c68020de6076bd31c65ed8ffdbf9578e56c4dfb3ebdea57332009a"},
	{"join", "9bf615e49716c7d6924303527603cfe828f18285bfa2b1997f216d735c6a04cf"},
	{"tus", "c3d14808f2048d0bb34afa76756105101ac9b88a9a484268169c05cb47785819"},
	{"santos", "4df1cc811b8213e535d228f0b9db147f9ddca17eec304355b8b21c0ade980c7f"},
	{"d3l", "37b488c4cc511bad6aa35fb3afe2afde1b059e0889631676d06a9cefc479c6b3"},
	{"starmie", "97b0b86176ea6c5efc373da07e672ad8790eee67b56f9359bbdde03ae578f6d2"},
	{"vecs", "b72d98b8dd78d9dbbf3148a1709584434a39f48f0526d8f2a859a234f0255d60"},
	{"blob", "30ae2d3244c5acdbe4af49a041630c8c8d43ea5fbcf081992cf7d234f6dd335e"},
}

func TestHarnessLakeSnapshotGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("recorded on amd64; other targets may fuse multiply-adds")
	}
	gen, opts := harnessLake()
	cat := lake.NewCatalog()
	for _, tbl := range gen.Tables {
		if err := cat.Add(tbl); err != nil {
			t.Fatal(err)
		}
	}
	sys, err := core.Build(cat, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sys.Save(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if got := sha256Hex(b); got != goldenHarnessSnapshot {
		t.Errorf("snapshot of the %d-table harness lake hashes to %s, want %s", len(gen.Tables), got, goldenHarnessSnapshot)
	}
	// Walk the frames (8-byte header; per section a u16 ID, a u64
	// payload length, the payload and a CRC32), then the vector blob
	// after its alignment padding.
	off := 8
	for i, want := range goldenHarnessSections {
		var payload []byte
		if want.name == "blob" {
			payload = b[off+int(vecstore.PadTo(int64(off))):]
		} else {
			if off+10 > len(b) {
				t.Fatalf("snapshot ends before section %s", want.name)
			}
			if id := binary.LittleEndian.Uint16(b[off:]); int(id) != i+1 {
				t.Fatalf("section %s has ID %d, want %d", want.name, id, i+1)
			}
			n := int(binary.LittleEndian.Uint64(b[off+2:]))
			payload = b[off+10 : off+10+n]
			off += 10 + n + 4
		}
		if got := sha256Hex(payload); got != want.sha {
			t.Errorf("section %s hashes to %s, want %s", want.name, got, want.sha)
		}
	}
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
