package union

import (
	"context"
	"testing"

	"tablehound/internal/datagen"
	"tablehound/internal/embedding"
	"tablehound/internal/metrics"
	"tablehound/internal/table"
)

func lakeAndTUS(t *testing.T, exhaustive bool, useKB bool) (*datagen.Lake, *TUS) {
	t.Helper()
	lake := datagen.Generate(datagen.Config{
		Seed:              11,
		NumDomains:        16,
		DomainSize:        120,
		NumTemplates:      6,
		TablesPerTemplate: 5,
	})
	model := embedding.Train(lake.ColumnContexts(), embedding.Config{Dim: 64, Seed: 3})
	cfg := TUSConfig{Model: model, Exhaustive: exhaustive}
	if useKB {
		cfg.KB = lake.BuildKB(0.9)
	}
	return lake, buildTUS(t, cfg, lake.Tables)
}

func TestTUSFindsUnionableTables(t *testing.T) {
	lake, tus := lakeAndTUS(t, false, true)
	query := lake.Tables[0]
	truth := lake.UnionableWith(query.ID)
	res, err := tus.Search(context.Background(), query, 4, EnsembleMeasure)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("no results")
	}
	ids := make([]string, len(res))
	for i, r := range res {
		ids[i] = r.TableID
	}
	p := metrics.PrecisionAtK(ids, truth, 4)
	if p < 0.75 {
		t.Errorf("precision@4 = %v; results %v", p, ids)
	}
}

func TestTUSEnsembleAtLeastAsGoodAsSingles(t *testing.T) {
	lake, tus := lakeAndTUS(t, true, true)
	measures := []Measure{SetMeasure, SemMeasure, NLMeasure, EnsembleMeasure}
	maps := map[Measure]float64{}
	for _, m := range measures {
		var retrieved [][]string
		var relevant []map[string]bool
		for i := 0; i < 6; i++ {
			q := lake.Tables[i*5] // one query per template
			res, err := tus.Search(context.Background(), q, 4, m)
			if err != nil {
				t.Fatal(err)
			}
			ids := make([]string, len(res))
			for j, r := range res {
				ids[j] = r.TableID
			}
			retrieved = append(retrieved, ids)
			relevant = append(relevant, lake.UnionableWith(q.ID))
		}
		maps[m] = metrics.MAP(retrieved, relevant)
	}
	for _, m := range []Measure{SetMeasure, SemMeasure, NLMeasure} {
		if maps[EnsembleMeasure] < maps[m]-0.05 {
			t.Errorf("ensemble MAP %.3f below %v MAP %.3f", maps[EnsembleMeasure], m, maps[m])
		}
	}
	if maps[EnsembleMeasure] < 0.6 {
		t.Errorf("ensemble MAP = %.3f, too low", maps[EnsembleMeasure])
	}
}

func TestTUSColumnMeasures(t *testing.T) {
	lake, tus := lakeAndTUS(t, true, true)
	domA := lake.Domains[0]
	domB := lake.Domains[1]
	// Same-domain disjoint halves: set overlap is zero but sem + NL
	// recognize the shared domain.
	a, b := domA[:40], domA[40:80]
	if s := tus.ColumnUnionability(a, b, SetMeasure); s != 0 {
		t.Errorf("disjoint set measure = %v, want 0", s)
	}
	semSame := tus.ColumnUnionability(a, b, SemMeasure)
	semCross := tus.ColumnUnionability(a, domB[:40], SemMeasure)
	if semSame <= semCross {
		t.Errorf("sem measure: same-domain %v should beat cross-domain %v", semSame, semCross)
	}
	nlSame := tus.ColumnUnionability(a, b, NLMeasure)
	nlCross := tus.ColumnUnionability(a, domB[:40], NLMeasure)
	if nlSame <= nlCross {
		t.Errorf("nl measure: same-domain %v should beat cross-domain %v", nlSame, nlCross)
	}
	// Overlapping columns: set measure near 1.
	if s := tus.ColumnUnionability(domA[:50], domA[25:75], SetMeasure); s < 0.99 {
		t.Errorf("high-overlap set measure = %v", s)
	}
	// Ensemble is the max.
	ens := tus.ColumnUnionability(a, b, EnsembleMeasure)
	if ens < semSame || ens < nlSame {
		t.Errorf("ensemble %v below components %v/%v", ens, semSame, nlSame)
	}
}

func TestTUSWithoutKBSemIsZero(t *testing.T) {
	lake, tus := lakeAndTUS(t, true, false)
	a := lake.Domains[0][:30]
	b := lake.Domains[0][30:60]
	if s := tus.ColumnUnionability(a, b, SemMeasure); s != 0 {
		t.Errorf("sem without KB = %v, want 0", s)
	}
}

func TestTUSErrors(t *testing.T) {
	if _, err := NewTUSBuilder(TUSConfig{}); err == nil {
		t.Error("nil model should fail")
	}
	model := embedding.Train(nil, embedding.Config{Dim: 16})
	b, _ := NewTUSBuilder(TUSConfig{Model: model})
	if _, err := b.Build(); err == nil {
		t.Error("Build with no tables should fail")
	}
	tus := buildTUS(t, TUSConfig{Model: model}, []*table.Table{table.MustNew("t", "t", []*table.Column{
		table.NewColumn("a", []string{"x", "y", "z"}),
		table.NewColumn("b", []string{"p", "q", "r"}),
	})})
	// Query with only numeric columns fails.
	numQuery := table.MustNew("n", "n", []*table.Column{
		table.NewColumn("v", []string{"1", "2", "3"}),
	})
	if _, err := tus.Search(context.Background(), numQuery, 3, SetMeasure); err == nil {
		t.Error("numeric-only query should fail")
	}
	if tus.NumTables() != 1 {
		t.Error("NumTables wrong")
	}
}

func TestHypergeomCDF(t *testing.T) {
	// Overlap beyond the max is certain.
	if v := refHypergeomCDF(nil, 10, 100, 5, 5); v != 1 {
		t.Errorf("CDF beyond max = %v", v)
	}
	// CDF is monotone in k.
	prev := -1.0
	for k := 0; k <= 10; k++ {
		v := refHypergeomCDF(nil, k, 50, 10, 10)
		if v < prev {
			t.Fatalf("CDF not monotone at k=%d", k)
		}
		prev = v
	}
	// Large overlap is very unlikely by chance: CDF(overlap-1) ~ 1.
	if v := refHypergeomCDF(nil, 7, 1000, 10, 10); v < 0.999 {
		t.Errorf("CDF(7; 1000,10,10) = %v", v)
	}
}

func TestMeasureString(t *testing.T) {
	if SetMeasure.String() != "set" || EnsembleMeasure.String() != "ensemble" || Measure(9).String() != "unknown" {
		t.Error("Measure.String wrong")
	}
}

var tusBenchSink []Result

// BenchmarkTUSSearch is one ensemble-measure search, candidates and
// scoring on one goroutine, over the lake shape BenchmarkD3LSearch
// scans (the serving benchmark's: 300 tables), with the lake's
// dictionary and no KB as a served system has, queried by staged
// tables as the table_id endpoints do.
func BenchmarkTUSSearch(b *testing.B) {
	lake := datagen.Generate(datagen.Config{Seed: 1, NumDomains: 20, DomainSize: 80, NumTemplates: 10, TablesPerTemplate: 30})
	model := embedding.Train(lake.ColumnContexts(), embedding.Config{Dim: 64, Seed: 3})
	tus := buildTUS(b, TUSConfig{Model: model, Dict: valueDict(lake.Tables)}, lake.Tables)
	tus.QueryParallelism = 1
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := tus.Search(ctx, lake.Tables[i%len(lake.Tables)], 10, EnsembleMeasure)
		if err != nil {
			b.Fatal(err)
		}
		tusBenchSink = rs
	}
}
