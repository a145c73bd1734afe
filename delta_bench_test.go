// Incremental-maintenance benchmarks: the cost of indexing 10 new
// tables into a 500-table lake as a delta snapshot (lakectl add),
// against the full from-scratch rebuild the delta replaces. The ratio
// is the headline number recorded in EXPERIMENTS.md — delta builds
// read only the base snapshot's prefix (options, model, dictionary)
// and analyze only the new tables, so the cost tracks the increment,
// not the lake.
package tablehound

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"tablehound/internal/core"
	"tablehound/internal/datagen"
	"tablehound/internal/lake"
	"tablehound/internal/table"
	"tablehound/internal/union"
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

// deltaBench is the 500-table bench lake (490-table base) without the
// quadratic graph; deltaBenchFull is the end-to-end benchmark's
// `lifecycle` lake shape (100 tables, 90-table base) with the program's
// default options, so its systems may build the fuzzy index, the
// organization and the graph on demand; deltaBenchServing is its
// `serve_cold` shape (300 tables, 290-table base) with the serving
// options, which skip all three.
var deltaBench, deltaBenchFull, deltaBenchServing deltaFixture

// TestMain removes the fixture directories the benchmarks made once
// every test and benchmark of the package has run.
func TestMain(m *testing.M) {
	code := m.Run()
	for _, f := range []*deltaFixture{&deltaBench, &deltaBenchFull, &deltaBenchServing} {
		if f.dir != "" {
			os.RemoveAll(f.dir)
		}
	}
	os.Exit(code)
}

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
		f.dir = dir
		basePath := filepath.Join(dir, "base.snap")
		if f.err = sys.SaveFile(basePath); f.err != nil {
			return
		}
		full := lake.NewCatalog()
		if f.err = full.AddBatch(tables); f.err != nil {
			return
		}
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

// BenchmarkDeltaChainLoadFullPipeline is the same merge-on-load over
// the `lifecycle` lake shape with the program's default options; the
// fuzzy index, organization and graph wait for their first reader (see
// BenchmarkFuzzyFirstSearch, BenchmarkFirstNavigate and
// BenchmarkFirstJoinPath).
func BenchmarkDeltaChainLoadFullPipeline(b *testing.B) {
	deltaBenchFullSetup(b)
	deltaBenchFull.chainLoad(b)
}

func deltaBenchFullSetup(b *testing.B) {
	deltaBenchFull.setup(b, 10, func(*datagen.Lake) core.Options { return core.Options{} })
}

// BenchmarkSnapshotLoadFullPipeline is core.LoadFile of the `lifecycle`
// lake shape's 90-table base snapshot with the program's default
// options: what that workload's load_s times, the rebuild-on-load
// stage (stats) included.
func BenchmarkSnapshotLoadFullPipeline(b *testing.B) {
	deltaBenchFullSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.LoadFile(deltaBenchFull.basePath, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFuzzyFirstSearch times the first fuzzy search of a freshly
// built system over the `lifecycle` lake shape (100 tables, default
// options). That search builds the fuzzy index (a vector per value)
// and trains its k-means table, which no build, load, chain load or
// compaction does; later-ms/op is a second search of the same system,
// which finds both built. The builds run outside the timer.
func BenchmarkFuzzyFirstSearch(b *testing.B) {
	deltaBenchFullSetup(b)
	_, query := queryBenchInputs(deltaBenchFull.fullCat)
	firstCall(b, func() (*core.System, error) {
		return core.Build(deltaBenchFull.fullCat, deltaBenchFull.opts)
	}, func(sys *core.System) {
		fz, err := sys.Fuzzy()
		if err != nil {
			b.Fatal(err)
		}
		fz.Search(query, 0.85, 0.5)
	})
}

// BenchmarkFirstNavigate times the first Navigate of a freshly loaded
// `lifecycle`-shape base, which builds the organization; later-ms/op
// is a second call of the same system. The loads run outside the
// timer.
func BenchmarkFirstNavigate(b *testing.B) {
	deltaBenchFullSetup(b)
	firstCall(b, loadFullBase, func(sys *core.System) {
		if _, _, err := sys.Navigate("city"); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkFirstJoinPath times the first JoinPath of a freshly loaded
// `lifecycle`-shape base between its first and last table, which builds
// the Aurum discovery graph; later-ms/op is a second call of the same
// system. The loads run outside the timer.
func BenchmarkFirstJoinPath(b *testing.B) {
	deltaBenchFullSetup(b)
	tables := deltaBenchFull.fullCat.Tables()
	from, to := tables[0].ID, tables[len(tables)-11].ID // both in the base
	firstCall(b, loadFullBase, func(sys *core.System) {
		sys.JoinPath(from, to, 3)
	})
}

func loadFullBase() (*core.System, error) {
	return core.LoadFile(deltaBenchFull.basePath, core.Options{})
}

// firstCall times call's first run on a system fresh returns, fresh
// outside the timer, and reports a second run on the same system as
// later-ms/op.
func firstCall(b *testing.B, fresh func() (*core.System, error), call func(*core.System)) {
	var later time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys, err := fresh()
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		call(sys)
		b.StopTimer()
		t0 := time.Now()
		call(sys)
		later += time.Since(t0)
		b.StartTimer()
	}
	b.ReportMetric(later.Seconds()*1e3/float64(b.N), "later-ms/op")
}

// BenchmarkDeltaChainLoadServing is the merge-on-load behind the
// end-to-end benchmark's `serve_cold` delta_visible_s, over that lake
// shape. Besides the load it reports, in ms per load, the merge's own
// walls for the stages that fold the base's state instead of deriving
// it again — dict, keyword, join — for the three union engines that
// remap their folded ID sets — tus, santos, d3l — and for the vector
// store.
func BenchmarkDeltaChainLoadServing(b *testing.B) {
	deltaBenchServingSetup(b)
	b.ReportAllocs()
	deltaBenchServing.chainLoad(b, "dict", "keyword", "join", "tus", "santos", "d3l", "vecs")
}

// BenchmarkDeltaAddServing is `lakectl add` of the held-out 10 tables
// over the `serve_cold` lake shape's 290-table base: BuildDelta and
// SaveFile, the end-to-end benchmark's delta_build phase, which with
// the chain load makes that workload's delta_visible_s. Its B/op counts
// the base blob read (heap, so the blob's CRC is verified) and the
// extended dictionary.
func BenchmarkDeltaAddServing(b *testing.B) {
	deltaBenchServingSetup(b)
	out := filepath.Join(deltaBenchServing.dir, "add.thdb")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := core.BuildDelta(deltaBenchServing.basePath, nil, deltaBenchServing.add, nil, core.Options{})
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

func deltaBenchServingSetup(b *testing.B) {
	deltaBenchServing.setup(b, 30, func(*datagen.Lake) core.Options {
		return core.Options{SkipFuzzy: true, SkipGraph: true, SkipOrganization: true}
	})
}

func loadServingBase() (*core.System, error) {
	return core.LoadFile(deltaBenchServing.basePath, core.Options{})
}

// BenchmarkSnapshotLoadServing is core.LoadFile of the `serve_cold`
// lake shape's 290-table base snapshot with the serving options: what
// that workload's load_s times. heap-MiB is the heap one loaded system
// retains, measured outside the timer.
func BenchmarkSnapshotLoadServing(b *testing.B) {
	deltaBenchServingSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := loadServingBase(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	before := liveHeapMiB()
	sys, err := loadServingBase()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(liveHeapMiB()-before, "heap-MiB")
	runtime.KeepAlive(sys)
}

// BenchmarkFirstContainmentSearch times the first containment search
// (threshold 0.5) of a freshly loaded `serve_cold`-shape base;
// later-ms/op is a second search of the same column. Both read the
// posting lists the load decoded, so the first costs what the second
// does. The loads run outside the timer.
func BenchmarkFirstContainmentSearch(b *testing.B) {
	deltaBenchServingSetup(b)
	_, vals := queryBenchInputs(deltaBenchServing.fullCat)
	firstCall(b, loadServingBase, func(sys *core.System) {
		if _, err := sys.Join.ContainmentSearch(context.Background(), sys.Join.EncodeQuery(vals), 0.5); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkFirstTUSSearch times the first TUS search of a freshly
// loaded `serve_cold`-shape base, which builds the set-LSH band tables;
// later-ms/op is a second search of the same table. The loads run
// outside the timer.
func BenchmarkFirstTUSSearch(b *testing.B) {
	deltaBenchServingSetup(b)
	qt, _ := queryBenchInputs(deltaBenchServing.fullCat)
	firstCall(b, loadServingBase, func(sys *core.System) {
		if _, err := sys.TUS.Search(context.Background(), qt, 10, union.EnsembleMeasure); err != nil {
			b.Fatal(err)
		}
	})
}

// chainLoad times loading the base plus a delta of the held-out tables,
// and reports the mean wall of each named merge stage.
func (f *deltaFixture) chainLoad(b *testing.B, stages ...string) {
	deltaPath := filepath.Join(f.dir, "chainload.thdb")
	d, err := core.BuildDelta(f.basePath, nil, f.add, nil, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if err := d.SaveFile(deltaPath); err != nil {
		b.Fatal(err)
	}
	walls := make([]time.Duration, len(stages))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys, err := core.LoadChainFiles(f.basePath, []string{deltaPath}, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		for j, name := range stages {
			st, _ := sys.BuildStats.Stage(name)
			walls[j] += st.Wall
		}
	}
	b.StopTimer()
	for j, name := range stages {
		b.ReportMetric(walls[j].Seconds()*1e3/float64(b.N), name+"-ms/op")
	}
	os.Remove(deltaPath)
}
