package exp

import (
	"context"
	"fmt"
	"reflect"

	"tablehound/internal/core"
	"tablehound/internal/datagen"
	"tablehound/internal/discover"
	"tablehound/internal/lake"
	"tablehound/internal/table"
)

// E25Planner quantifies the cost-based discover planner against the
// fixed cheap→expensive stage order on an adversarial query: a broad
// metadata predicate (several column names plus a type, expensive per
// table, admitting much of the lake) next to a one-term keyword that
// admits a single template. The fixed order pays the full-lake meta
// sweep first; the cost order runs the selective keyword first, then
// evaluates meta only over its survivors. Both orders must return
// bit-identical results — the rows report deterministic work units
// (StageExplain.Cost summed over prefilter + candidates stages), not
// wall time.
//
// The last row measures the JOSIE allowed-set pushdown in isolation:
// restricted top-k overlap over every indexed column, answered by
// masking posting lists during traversal (work = postings + tokens
// read) versus enumerating each candidate's ID set (the EnumCost the
// engine would otherwise pay), with result parity against the
// whole-lake search those candidates amount to.
func E25Planner() Report {
	rep := Report{
		ID:    "E25",
		Title: "cost-based planner: stage reordering + JOSIE allowed-set pushdown",
		Header: []string{
			"scenario", "relation", "fixed_cost", "cost_cost", "ratio", "identical",
		},
	}

	gen := datagen.Generate(datagen.Config{
		Seed:              2500,
		NumDomains:        6,
		DomainSize:        120,
		NumTemplates:      12,
		TablesPerTemplate: 10,
		NoiseCols:         2,
	})
	cat := lake.NewCatalog()
	for _, t := range gen.Tables {
		if err := cat.Add(t); err != nil {
			panic(err)
		}
	}
	sys, err := core.Build(cat, core.Options{KB: gen.BuildKB(0.8), Seed: 25})
	if err != nil {
		panic(err)
	}

	// The adversarial predicate pairs. Every generated table carries
	// the note_0/note_1/metric_0 noise columns, so those names plus a
	// string type form a meta predicate that is expensive per table
	// (unit ≈ 5) yet admits the whole lake; the one-term keyword
	// admits a single template. The fixed order pays the full meta
	// sweep before the keyword can narrow anything.
	//
	// totalMeta is provably total from the exact marginal counts in
	// the stats block — the cost order skips it outright. broadMeta
	// swaps one noise column for the seed's widest-coverage domain
	// column: near-total but not provable, so the cost order runs it
	// last, restricted to the keyword's survivors.
	seed := gen.Tables[0]
	totalMeta := discover.Predicates{
		ColumnNames: []string{"note_0", "note_1", "metric_0"},
		ColumnTypes: []string{"string"},
		Keywords:    "template0",
	}
	broadMeta := discover.Predicates{
		ColumnNames: []string{"note_0", "metric_0", widestDomainColumn(gen, seed)},
		ColumnTypes: []string{"string"},
		Keywords:    "template0",
	}

	scenarios := []struct {
		name string
		q    discover.Query
	}{
		{"union-tus/total-meta+kw", discover.Query{
			Relation: "union", Method: "tus", K: 5,
			Seed: seed, Predicates: totalMeta,
		}},
		{"join-overlap/broad-meta+kw", discover.Query{
			Relation: "join", K: 5,
			Values: seed.Columns[0].Values, Predicates: broadMeta,
		}},
	}
	for _, sc := range scenarios {
		fixed := mustRunOrdered(sys, sc.q, discover.OrderFixed)
		cost := mustRunOrdered(sys, sc.q, discover.OrderCost)
		identical := reflect.DeepEqual(fixed.Matches, cost.Matches) &&
			reflect.DeepEqual(fixed.Tables, cost.Tables)
		fc, cc := planCost(fixed.Explain), planCost(cost.Explain)
		rep.Rows = append(rep.Rows, []string{
			sc.name, sc.q.Relation, d64(fc), d64(cc),
			fmt.Sprintf("%.1fx", float64(fc)/float64(max(cc, 1))), yesNo(identical),
		})
	}

	// Pushdown in isolation: top-k overlap restricted to every indexed
	// column. Enumerating reads each candidate's whole ID set; the
	// pushed traversal reads only the query tokens' posting lists.
	e := sys.Join
	q := e.EncodeQuery(seed.Columns[0].Values)
	var cands []string
	for _, t := range gen.Tables {
		cands = append(cands, e.ColumnKeysOf(t.ID)...)
	}
	ctx := context.Background()
	pushed, ast, err := e.TopKOverlap(ctx, q, 10, cands)
	if err != nil {
		panic(err)
	}
	plain, _, err := e.TopKOverlap(ctx, q, 10, nil)
	if err != nil {
		panic(err)
	}
	identical := ast.Pushdown && reflect.DeepEqual(pushed, plain)
	rep.Rows = append(rep.Rows, []string{
		"pushdown/all-columns", "join", d64(ast.EnumCost), d64(ast.Work),
		fmt.Sprintf("%.1fx", float64(ast.EnumCost)/float64(max(ast.Work, 1))),
		yesNo(identical),
	})

	rep.Notes = "cost ordering must cut prefilter+candidates work >=3x on the adversarial pair; the pushdown must read fewer postings than candidate enumeration; every row bit-identical across paths"
	return rep
}

func mustRunOrdered(sys *core.System, q discover.Query, ord discover.Order) *discover.Result {
	p, err := discover.NewPlanOrdered(sys, q, ord)
	if err != nil {
		panic(err)
	}
	res, err := p.Execute(context.Background())
	if err != nil {
		panic(err)
	}
	return res
}

// widestDomainColumn returns the seed's domain column name that the
// largest number of lake tables share — broad enough that the planner
// estimates near-total selectivity, but (unlike the noise columns)
// not provably total.
func widestDomainColumn(gen *datagen.Lake, seed *table.Table) string {
	best, bestCov := seed.Columns[0].Name, 0
	for _, name := range domainColumnNames(gen, seed) {
		cov := 0
		for _, t := range gen.Tables {
			if t.Column(name) != nil {
				cov++
			}
		}
		if cov > bestCov {
			best, bestCov = name, cov
		}
	}
	return best
}

// planCost sums the deterministic work units of the prefilter and
// candidates stages — the part of the plan the ordering can change.
// Verify cost is excluded: both orders verify the same survivor set.
func planCost(ex []discover.StageExplain) int64 {
	var total int64
	for _, st := range ex {
		switch st.Stage {
		case discover.StageMeta, discover.StageKeyword, discover.StageValues,
			discover.StageCandidates:
			total += st.Cost
		}
	}
	return total
}

func d64(v int64) string { return fmt.Sprintf("%d", v) }
