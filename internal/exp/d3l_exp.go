package exp

import (
	"sort"

	"tablehound/internal/datagen"
	"tablehound/internal/embedding"
	"tablehound/internal/graph"
	"tablehound/internal/metrics"
	"tablehound/internal/table"
	"tablehound/internal/union"
)

// E23D3L reproduces the D3L evidence ablation (Bogatu et al., ICDE
// 2020, Table III shape): related-table search with each evidence type
// alone versus all five combined, across two regimes — tables that
// share values, and tables from the same domains with disjoint values.
// No single evidence wins both regimes; the combination does.
func E23D3L() Report {
	rep := Report{
		ID:     "E23",
		Title:  "D3L: five-evidence related-table search, ablation by evidence",
		Header: []string{"regime", "evidence", "MAP"},
		Notes:  "value evidence wins only when instances overlap; words/embedding carry the disjoint regime; the combined score is competitive in both (the generator's clean headers also favor name evidence here — E21 covers its failure mode)",
	}
	for _, regime := range []struct {
		name     string
		disjoint bool
	}{{"overlapping", false}, {"disjoint", true}} {
		lake := datagen.Generate(datagen.Config{
			Seed:              2300,
			NumDomains:        14,
			DomainSize:        150,
			NumTemplates:      6,
			TablesPerTemplate: 4,
			DisjointInstances: regime.disjoint,
		})
		model := embedding.Train(lake.ColumnContexts(), embedding.Config{Dim: 48, Seed: 23})
		d3l, err := union.NewD3L(model, nil)
		if err != nil {
			panic(err)
		}
		for _, t := range lake.Tables {
			d3l.AddTable(t)
		}
		// Evidence selectors over the Evidence struct.
		kinds := []struct {
			name string
			get  func(e union.Evidence) float64
		}{
			{"name", func(e union.Evidence) float64 { return e.Name }},
			{"value", func(e union.Evidence) float64 { return e.Value }},
			{"format", func(e union.Evidence) float64 { return e.Format }},
			{"words", func(e union.Evidence) float64 { return e.Words }},
			{"embed", func(e union.Evidence) float64 { return e.Embed }},
			{"combined", func(e union.Evidence) float64 { return e.Combined() }},
		}
		for _, kind := range kinds {
			var retrieved [][]string
			var relevant []map[string]bool
			for tpl := 0; tpl < 6; tpl++ {
				q := lake.Tables[tpl*4]
				ids := rankTablesByEvidence(d3l, lake, q, kind.get, 5)
				retrieved = append(retrieved, ids)
				relevant = append(relevant, lake.UnionableWith(q.ID))
			}
			rep.Rows = append(rep.Rows, []string{
				regime.name, kind.name, f(metrics.MAP(retrieved, relevant)),
			})
		}
	}
	return rep
}

// rankTablesByEvidence scores every lake table against the query
// using one evidence selector, aggregating column pairs by bipartite
// matching (the same aggregation D3L.Search uses for the combined
// score).
func rankTablesByEvidence(d *union.D3L, lake *datagen.Lake, query *table.Table, get func(union.Evidence) float64, k int) []string {
	type scored struct {
		id    string
		score float64
	}
	qcols := usableColumns(query)
	var res []scored
	var matcher graph.Matcher
	for _, t := range lake.Tables {
		if t.ID == query.ID {
			continue
		}
		ccols := usableColumns(t)
		nq, nc := len(qcols), len(ccols)
		if nc == 0 || nq == 0 {
			continue
		}
		w := make([]float64, nq*nc)
		for i, qc := range qcols {
			for j, cc := range ccols {
				w[i*nc+j] = get(d.ColumnEvidence(qc, cc))
			}
		}
		res = append(res, scored{t.ID, matcher.MaxWeight(w, nq, nc) / float64(nq)})
	}
	sort.Slice(res, func(i, j int) bool {
		if res[i].score != res[j].score {
			return res[i].score > res[j].score
		}
		return res[i].id < res[j].id
	})
	ids := make([]string, 0, k)
	for i := 0; i < len(res) && i < k; i++ {
		ids = append(ids, res[i].id)
	}
	return ids
}

func usableColumns(t *table.Table) []*table.Column {
	var out []*table.Column
	for _, c := range t.Columns {
		if c.Type == table.TypeString || c.Type == table.TypeUnknown {
			if c.Cardinality() >= 2 {
				out = append(out, c)
			}
		}
	}
	return out
}
