package union

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"tablehound/internal/datagen"
	"tablehound/internal/dict"
	"tablehound/internal/embedding"
	"tablehound/internal/table"
)

// tusOracleScoreAmong is TUS's candidate scoring as it stood before the
// scoring kernel: per candidate a fresh matrix of row slices, each cell
// scored with its own sorted merge of the two columns' value IDs, its
// own dot product and the hypergeometric CDF summed in full, the rows
// matched, every positive score collected and the lot sorted. The
// engine must rank and score bit-identically to it.
func tusOracleScoreAmong(t *TUS, pq *TUSQuery, ids []string, k int, m Measure) []Result {
	var res []Result
	for _, id := range ids {
		if id == pq.id {
			continue
		}
		ccols := t.tables[id].cols
		w := make([][]float64, len(pq.qcols))
		for i, qc := range pq.qcols {
			w[i] = make([]float64, len(ccols))
			for j, cc := range ccols {
				w[i][j] = tusOracleColumnScore(t, qc, cc, m)
			}
		}
		if score := matchRows(w) / float64(len(pq.qcols)); score > 0 {
			res = append(res, Result{TableID: id, Score: score})
		}
	}
	sortResults(res)
	if len(res) > k {
		res = res[:k]
	}
	return res
}

// tusOracleColumnScore is TUS's column score under m from references
// alone: the set measure through refSetUnionability, the NL measure
// through CosineWithNorms, combined as max(set, sem, nl).
func tusOracleColumnScore(t *TUS, a, b *tusColumn, m Measure) float64 {
	set := refSetUnionability(t, a, b, dict.Overlap(a.ids, b.ids))
	sem := t.semUnionability(a, b)
	nl := (embedding.CosineWithNorms(a.vec, b.vec, a.norm, b.norm) + 1) / 2
	switch m {
	case SetMeasure:
		return set
	case SemMeasure:
		return sem
	case NLMeasure:
		return nl
	}
	return max(set, sem, nl)
}

// builtTUS builds a TUS engine over the lake's tables, with the lake's
// KB when useKB is set.
func builtTUS(t testing.TB, lake *datagen.Lake, model *embedding.Model, useKB bool) *TUS {
	t.Helper()
	cfg := TUSConfig{Model: model}
	if useKB {
		cfg.KB = lake.BuildKB(0.9)
	}
	return buildTUS(t, cfg, lake.Tables)
}

// buildTUS builds a TUS engine over tables.
func buildTUS(t testing.TB, cfg TUSConfig, tables []*table.Table) *TUS {
	t.Helper()
	b, err := NewTUSBuilder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b.AddTables(tables, 2)
	tus, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tus
}

// TestTUSMatchesOracle compares TUS.ScoreAmong with the oracle, scores
// compared with ==, over several lakes, every measure with and without
// a KB, sequential and fanned-out scoring, and staged queries, inline
// queries with out-of-vocabulary values, a query of only unseen values
// and one of more than 64 string columns; candidates are both the
// sketch's and the whole lake.
func TestTUSMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		lake := datagen.Generate(datagen.Config{
			Seed: seed, NumDomains: 10, DomainSize: 40, NumTemplates: 5, TablesPerTemplate: 4,
			RowsMin: 8, RowsMax: 24, DisjointInstances: seed%2 == 0,
		})
		model := embedding.Train(lake.ColumnContexts(), embedding.Config{Dim: 24, Seed: uint64(seed)})
		queries := []*table.Table{
			lake.Tables[int(seed)%len(lake.Tables)],
			foreignQuery(lake.Tables[int(seed*3)%len(lake.Tables)], int(seed)),
			unseenQuery([]string{"name", "city"}),
			wideQuery(t, lake.Tables, 12),
		}
		for _, useKB := range []bool{false, true} {
			tus := builtTUS(t, lake, model, useKB)
			for _, q := range queries {
				pq, err := tus.Prepare(q)
				if err != nil {
					t.Fatal(err)
				}
				for _, ids := range [][]string{tus.Candidates(pq), tus.ids} {
					for _, m := range []Measure{SetMeasure, SemMeasure, NLMeasure, EnsembleMeasure} {
						want := tusOracleScoreAmong(tus, pq, ids, 6, m)
						for _, par := range []int{1, 3} {
							tus.QueryParallelism = par
							got, err := tus.ScoreAmong(context.Background(), pq, ids, 6, m)
							if err != nil {
								t.Fatal(err)
							}
							if !reflect.DeepEqual(got, want) {
								t.Fatalf("seed %d kb=%v query %s (%d cols) measure %v par %d, %d ids:\n got %v\nwant %v",
									seed, useKB, q.ID, len(pq.qcols), m, par, len(ids), got, want)
							}
						}
					}
				}
			}
		}
	}
}

// TestScoreAmongSharesPreparedQuery scores one prepared query from
// several goroutines at once, on each engine (TUS and SANTOS fanned out
// too): the reused marks and scratch must keep every call to its own
// memory and leave the prepared query untouched (run with -race).
func TestScoreAmongSharesPreparedQuery(t *testing.T) {
	lake := datagen.Generate(datagen.Config{Seed: 3, NumDomains: 10, DomainSize: 40, NumTemplates: 5, TablesPerTemplate: 4})
	model := embedding.Train(lake.ColumnContexts(), embedding.Config{Dim: 24, Seed: 3})
	tus := builtTUS(t, lake, model, true)
	tus.QueryParallelism = 2
	d := builtD3L(t, model, lake.Tables)
	s := builtSantos(t, lake.Tables, lake.BuildKB(0.9))
	s.QueryParallelism = 2
	query := foreignQuery(lake.Tables[2], 3)
	tq, err := tus.Prepare(query)
	if err != nil {
		t.Fatal(err)
	}
	dq, err := d.Prepare(query)
	if err != nil {
		t.Fatal(err)
	}
	sq, err := s.Prepare(query)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	score := func() ([3][]Result, error) {
		var rs [3][]Result
		var err error
		if rs[0], err = tus.ScoreAmong(ctx, tq, tus.ids, 8, EnsembleMeasure); err != nil {
			return rs, err
		}
		if rs[1], err = d.ScoreAmong(ctx, dq, d.TableIDs(), 8); err != nil {
			return rs, err
		}
		rs[2], err = s.ScoreAmong(ctx, sq, s.ids, 8, Hybrid)
		return rs, err
	}
	want, err := score()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				got, err := score()
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, want) {
					t.Error("a concurrent score of the shared prepared query diverged")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestTUSScoreAmongAllocations: the scan reuses its marks and scratch
// and keeps k results, so scoring five times the tables
// costs not one allocation more, under every measure, with and
// without a KB (whose type similarity is memoized per pair of types).
func TestTUSScoreAmongAllocations(t *testing.T) {
	lake := datagen.Generate(datagen.Config{Seed: 9, NumTemplates: 5, TablesPerTemplate: 10})
	model := embedding.Train(lake.ColumnContexts(), embedding.Config{Dim: 24, Seed: 9})
	for _, useKB := range []bool{false, true} {
		tus := builtTUS(t, lake, model, useKB)
		tus.QueryParallelism = 1
		pq, err := tus.Prepare(lake.Tables[0])
		if err != nil {
			t.Fatal(err)
		}
		all := tus.ids
		few := all[:len(all)/5]
		for _, m := range []Measure{SetMeasure, SemMeasure, NLMeasure, EnsembleMeasure} {
			allocs := func(ids []string) float64 {
				return testing.AllocsPerRun(5, func() {
					if _, err := tus.ScoreAmong(context.Background(), pq, ids, 5, m); err != nil {
						t.Fatal(err)
					}
				})
			}
			if a, b := allocs(few), allocs(all); b > a {
				t.Errorf("kb=%v measure %v: ScoreAmong allocations grow with the candidates: %v over %d tables, %v over %d",
					useKB, m, a, len(few), b, len(all))
			}
		}
	}
}
