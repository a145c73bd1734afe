package tablehound

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"sync"
	"testing"

	"tablehound/internal/core"
	"tablehound/internal/datagen"
	"tablehound/internal/lake"
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
const goldenHarnessSnapshot = "aa0290a9e1e34ba47a361a4473419d484ea238494cf15d851a9e08d61e297c73"

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
	sum := sha256.New()
	if err := sys.Save(sum); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(sum.Sum(nil)); got != goldenHarnessSnapshot {
		t.Errorf("snapshot of the %d-table harness lake hashes to %s, want %s", len(gen.Tables), got, goldenHarnessSnapshot)
	}
}
