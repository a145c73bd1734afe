package exp

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"tablehound/internal/datagen"
	"tablehound/internal/embedding"
	"tablehound/internal/hnsw"
	"tablehound/internal/metrics"
	"tablehound/internal/starmie"
	"tablehound/internal/table"
	"tablehound/internal/union"
)

// unionLake builds the shared union-search benchmark lake. Disjoint
// instances make unionable tables share domains but few concrete
// values — the regime TUS's evaluation targets, where pure set
// overlap under-performs semantic measures.
func unionLake(seed int64) (*datagen.Lake, *embedding.Model) {
	lake := datagen.Generate(datagen.Config{
		Seed:              seed,
		NumDomains:        20,
		DomainSize:        150,
		NumTemplates:      10,
		TablesPerTemplate: 8,
		DisjointInstances: true,
	})
	model := embedding.Train(lake.ColumnContexts(), embedding.Config{Dim: 64, Seed: uint64(seed)})
	return lake, model
}

// E3TUS reproduces the table union search measure comparison
// (Nargesian et al., VLDB 2018, Table 3 shape): MAP of the set,
// semantic, and NL unionability measures and their ensemble, with the
// ensemble at least matching every single measure.
func E3TUS() Report {
	lake, model := unionLake(303)
	tb, err := union.NewTUSBuilder(union.TUSConfig{Model: model, KB: lake.BuildKB(0.85), Exhaustive: true})
	if err != nil {
		panic(err)
	}
	tb.AddTables(lake.Tables, 1)
	tus, err := tb.Build()
	if err != nil {
		panic(err)
	}
	rep := Report{
		ID:     "E3",
		Title:  "TUS: MAP by unionability measure (k=7, 10 query templates)",
		Header: []string{"measure", "MAP", "P@7", "query_ms"},
		Notes:  "ensemble >= each individual measure; set alone misses disjoint same-domain columns, sem alone limited by KB coverage",
	}
	k := 7
	for _, m := range []union.Measure{union.SetMeasure, union.SemMeasure, union.NLMeasure, union.EnsembleMeasure} {
		var retrieved [][]string
		var relevant []map[string]bool
		var pAtK float64
		var elapsed time.Duration
		nq := 0
		for tpl := 0; tpl < 10; tpl++ {
			q := lake.Tables[tpl*8]
			var res []union.Result
			elapsed += timeIt(func() {
				var err error
				res, err = tus.Search(context.Background(), q, k, m)
				if err != nil {
					panic(err)
				}
			})
			ids := make([]string, len(res))
			for i, r := range res {
				ids[i] = r.TableID
			}
			truth := lake.UnionableWith(q.ID)
			retrieved = append(retrieved, ids)
			relevant = append(relevant, truth)
			pAtK += metrics.PrecisionAtK(ids, truth, k)
			nq++
		}
		rep.Rows = append(rep.Rows, []string{
			m.String(), f(metrics.MAP(retrieved, relevant)), f(pAtK / float64(nq)),
			ms(elapsed / time.Duration(nq)),
		})
	}
	return rep
}

// E4Santos reproduces the SANTOS result (Khatiwada et al., SIGMOD
// 2023, Fig 5 shape): on relationship-confusable tables — same column
// domains, different relationships — relationship-aware search keeps
// precision high where column-only search confuses the groups.
func E4Santos() Report {
	// Two groups per domain pair with the same domains but different
	// functional mappings, across several domain pairs.
	const (
		groupsPerPair = 2
		tablesPer     = 6
		nPairs        = 4
		nRows         = 80
	)
	var tables []*table.Table
	groupOf := make(map[string]string)
	for p := 0; p < nPairs; p++ {
		for g := 0; g < groupsPerPair; g++ {
			shift := g * 7
			for t := 0; t < tablesPer; t++ {
				a := make([]string, nRows)
				bvals := make([]string, nRows)
				for r := 0; r < nRows; r++ {
					i := (t*11 + r) % 40
					a[r] = fmt.Sprintf("p%d_subj_%02d", p, i)
					bvals[r] = fmt.Sprintf("p%d_obj_%02d", p, (i+shift)%40)
				}
				id := fmt.Sprintf("p%dg%d_%d", p, g, t)
				groupOf[id] = fmt.Sprintf("p%dg%d", p, g)
				tables = append(tables, table.MustNew(id, id, []*table.Column{
					table.NewColumn("subject", a),
					table.NewColumn("object", bvals),
				}))
			}
		}
	}
	sb := union.NewSantosBuilder(nil, nil)
	sb.AddTables(tables, 1)
	santos, err := sb.Build()
	if err != nil {
		panic(err)
	}
	model := embedding.Train(columnContexts(tables), embedding.Config{Dim: 64, Seed: 4})
	tb, err := union.NewTUSBuilder(union.TUSConfig{Model: model, Exhaustive: true})
	if err != nil {
		panic(err)
	}
	tb.AddTables(tables, 1)
	tus, err := tb.Build()
	if err != nil {
		panic(err)
	}
	rep := Report{
		ID:     "E4",
		Title:  "SANTOS vs column-only union search on relationship-confusable tables",
		Header: []string{"method", "P@5", "MAP"},
		Notes:  "SANTOS separates same-domain/different-relationship groups; column-only methods confuse them (~half precision)",
	}
	k := 5
	eval := func(search func(q *table.Table) []string) (float64, float64) {
		var pAtK float64
		var retrieved [][]string
		var relevant []map[string]bool
		nq := 0
		for _, t := range tables {
			if t.ID[len(t.ID)-2:] != "_0" {
				continue // one query per group
			}
			ids := search(t)
			truth := make(map[string]bool)
			for id, g := range groupOf {
				if g == groupOf[t.ID] && id != t.ID {
					truth[id] = true
				}
			}
			pAtK += metrics.PrecisionAtK(ids, truth, k)
			retrieved = append(retrieved, ids)
			relevant = append(relevant, truth)
			nq++
		}
		return pAtK / float64(nq), metrics.MAP(retrieved, relevant)
	}
	pS, mS := eval(func(q *table.Table) []string {
		res, err := santos.Search(context.Background(), q, k, union.SynthOnly)
		if err != nil {
			panic(err)
		}
		return resultIDs(res)
	})
	pT, mT := eval(func(q *table.Table) []string {
		res, err := tus.Search(context.Background(), q, k, union.SetMeasure)
		if err != nil {
			panic(err)
		}
		return resultIDs(res)
	})
	rep.Rows = append(rep.Rows,
		[]string{"santos-synth", f(pS), f(mS)},
		[]string{"column-only(set)", f(pT), f(mT)},
	)
	return rep
}

func resultIDs(rs []union.Result) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.TableID
	}
	return out
}

func columnContexts(tables []*table.Table) [][]string {
	var out [][]string
	for _, t := range tables {
		for _, c := range t.Columns {
			out = append(out, c.Distinct())
		}
	}
	return out
}

// E5Starmie reproduces the Starmie efficiency result (Fan et al.,
// 2022, Fig 8 shape): contextualized column retrieval with HNSW
// approaches the linear-scan accuracy at a fraction of its latency,
// and context-aware encoding beats context-free encoding on MAP.
func E5Starmie() Report {
	lake, model := unionLake(505)
	rep := Report{
		ID:     "E5",
		Title:  "Starmie: contextual encoders + HNSW vs linear scan",
		Header: []string{"encoder", "retrieval", "MAP", "query_ms"},
		Notes:  "contextual MAP >= context-free MAP; HNSW column-retrieval latency flattens while scan grows linearly with lake size",
	}
	for _, ctx := range []struct {
		name string
		w    float64
	}{{"context-free", 0}, {"contextual", 0.3}} {
		b := starmie.NewBuilder(starmie.NewEncoder(model, ctx.w))
		b.AddTables(lake.Tables, 1)
		ix, err := b.Build()
		if err != nil {
			panic(err)
		}
		for _, mode := range []struct {
			name  string
			exact bool
		}{{"hnsw", false}, {"scan", true}} {
			var retrieved [][]string
			var relevant []map[string]bool
			var elapsed time.Duration
			nq := 0
			for tpl := 0; tpl < 10; tpl++ {
				q := lake.Tables[tpl*8]
				var res []starmie.Result
				elapsed += timeIt(func() {
					var err error
					res, err = ix.SearchTables(context.Background(), q, 7, 64, mode.exact)
					if err != nil {
						panic(err)
					}
				})
				ids := make([]string, len(res))
				for i, r := range res {
					ids[i] = r.TableID
				}
				retrieved = append(retrieved, ids)
				relevant = append(relevant, lake.UnionableWith(q.ID))
				nq++
			}
			rep.Rows = append(rep.Rows, []string{
				ctx.name, mode.name,
				f(metrics.MAP(retrieved, relevant)),
				ms(elapsed / time.Duration(nq)),
			})
		}
	}
	// Column-retrieval scaling: the efficiency half of the result.
	// Starmie's index advantage appears as lakes grow; measure raw
	// column top-10 retrieval at increasing column counts.
	enc := starmie.NewEncoder(model, 0.3)
	qv := enc.EncodeColumns(lake.Tables[0])[0]
	rng := rand.New(rand.NewSource(55))
	randUnit := func() embedding.Vector {
		v := make(embedding.Vector, model.Dim())
		for i := range v {
			v[i] = float32(rng.NormFloat64())
		}
		return v.Normalize()
	}
	for _, n := range []int{4000, 16000, 64000} {
		// Synthetic filler columns stand in for a larger lake, in a
		// graph shaped as a Starmie index's.
		big := hnsw.New(starmie.GraphConfig)
		for i := 0; i < n; i++ {
			if err := big.Add(fmt.Sprintf("t%06d.c", i), randUnit()); err != nil {
				panic(err)
			}
		}
		const reps = 20
		var tH, tS time.Duration
		for r := 0; r < reps; r++ {
			tH += timeIt(func() { big.Search(qv, 10, 64) })
			tS += timeIt(func() { big.BruteForce(qv, 10) })
		}
		rep.Rows = append(rep.Rows,
			[]string{fmt.Sprintf("cols=%d", n), "hnsw", "-", ms(tH / reps)},
			[]string{fmt.Sprintf("cols=%d", n), "scan", "-", ms(tS / reps)},
		)
	}
	return rep
}
