// Incremental-maintenance benchmarks: the cost of indexing 10 new
// tables into a 500-table lake as a delta snapshot (lakectl add),
// against the full from-scratch rebuild the delta replaces. The ratio
// is the headline number recorded in EXPERIMENTS.md — delta builds
// read only the base snapshot's prefix (options, model, dictionary)
// and analyze only the new tables, so the cost tracks the increment,
// not the lake.
package tablehound

import (
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"tablehound/internal/core"
	"tablehound/internal/datagen"
	"tablehound/internal/lake"
	"tablehound/internal/table"
)

// deltaFixture is one lake split into a base (built and saved to disk)
// plus the 10 held-out tables a delta will add, and the full catalog
// for the rebuild comparator — prepared once per process and outside
// every timer.
type deltaFixture struct {
	once     sync.Once
	dir      string
	basePath string
	add      []*table.Table
	fullCat  *lake.Catalog
	opts     core.Options
	err      error
}

// deltaBench is the 500-table bench lake (490-table base) with every
// stage but the quadratic graph; deltaBenchFull is the end-to-end
// benchmark's `lifecycle` lake shape (100 tables, 90-table base) with
// the program's default options, so every stage a chain load derives —
// fuzzy, organization, graph — is on.
var deltaBench, deltaBenchFull deltaFixture

func deltaBenchSetup(b *testing.B) {
	deltaBench.setup(b, 50, func(gen *datagen.Lake) core.Options {
		return core.Options{KB: gen.BuildKB(0.8), Seed: 7, SkipGraph: true}
	})
}

func (f *deltaFixture) setup(b *testing.B, tablesPerTemplate int, options func(*datagen.Lake) core.Options) {
	f.once.Do(func() {
		gen := datagen.Generate(datagen.Config{
			Seed:              41,
			NumDomains:        20,
			DomainSize:        80,
			NumTemplates:      10,
			TablesPerTemplate: tablesPerTemplate,
		})
		tables := append([]*table.Table(nil), gen.Tables...)
		sort.Slice(tables, func(i, j int) bool { return tables[i].ID < tables[j].ID })
		baseTables, add := tables[:len(tables)-10], tables[len(tables)-10:]

		opts := options(gen)
		cat := lake.NewCatalog()
		if f.err = cat.AddBatch(baseTables); f.err != nil {
			return
		}
		sys, err := core.Build(cat, opts)
		if err != nil {
			f.err = err
			return
		}
		dir, err := os.MkdirTemp("", "tablehound-delta-bench")
		if err != nil {
			f.err = err
			return
		}
		basePath := filepath.Join(dir, "base.snap")
		if f.err = sys.SaveFile(basePath); f.err != nil {
			return
		}
		full := lake.NewCatalog()
		if f.err = full.AddBatch(tables); f.err != nil {
			return
		}
		f.dir = dir
		f.basePath = basePath
		f.add = add
		f.fullCat = full
		f.opts = opts
	})
	if f.err != nil {
		b.Fatal(f.err)
	}
}

// BenchmarkDeltaAdd10 measures `lakectl add` over a 500-table lake:
// read the base snapshot prefix, analyze 10 new tables against the
// frozen model and extended dictionary, and persist the delta file.
// Compare against BenchmarkDeltaFullRebuild — the acceptance target is
// a ≥50x gap.
func BenchmarkDeltaAdd10(b *testing.B) {
	deltaBenchSetup(b)
	out := filepath.Join(deltaBench.dir, "bench.thdb")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := core.BuildDelta(deltaBench.basePath, nil, deltaBench.add, nil, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if err := d.SaveFile(out); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	os.Remove(out)
}

// BenchmarkDeltaFullRebuild is what the delta replaces: a from-scratch
// build over all 500 tables (same options as the base).
func BenchmarkDeltaFullRebuild(b *testing.B) {
	deltaBenchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Build(deltaBench.fullCat, deltaBench.opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeltaChainLoad measures serving-side merge-on-load: base
// snapshot plus one 10-table delta folded into a queryable system.
// Compare against BenchmarkSnapshotLoad for the merge overhead a
// compaction reclaims.
func BenchmarkDeltaChainLoad(b *testing.B) {
	deltaBenchSetup(b)
	deltaBench.chainLoad(b)
}

// BenchmarkDeltaChainLoadFullPipeline is the same merge-on-load with
// every rebuilt stage on, over the `lifecycle` lake shape: the
// rebuild-on-load indexes (fuzzy's k-means above all) are derived once
// per chain load, over the merged catalog, and this is what that costs.
func BenchmarkDeltaChainLoadFullPipeline(b *testing.B) {
	deltaBenchFull.setup(b, 10, func(*datagen.Lake) core.Options { return core.Options{} })
	deltaBenchFull.chainLoad(b)
}

func (f *deltaFixture) chainLoad(b *testing.B) {
	deltaPath := filepath.Join(f.dir, "chainload.thdb")
	d, err := core.BuildDelta(f.basePath, nil, f.add, nil, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if err := d.SaveFile(deltaPath); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.LoadChainFiles(f.basePath, []string{deltaPath}, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	os.Remove(deltaPath)
}
