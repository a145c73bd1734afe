package discover

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"tablehound/internal/table"
	"tablehound/internal/tokenize"
)

// --- cost model: planning behavior ---

// TestCostOrderReordersAndSkips drives the adversarial shape the cost
// model exists for: a broad metadata predicate (admits everything)
// next to a selective keyword. The planner must run the keyword first
// and record the provably-total meta stage as skipped, untouched.
func TestCostOrderReordersAndSkips(t *testing.T) {
	sys, gen := fixture(t)
	seed := gen.Tables[0]
	q := Query{Seed: seed, Relation: "union", K: 5,
		// Every generated table has rows, so min_rows=1 is provably total
		// from the stats block; template0 tags only a few tables.
		Predicates: Predicates{MinRows: 1, Keywords: "template0"}}
	p, err := NewPlan(sys, q)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Stages(); got[0] != StageKeyword {
		t.Fatalf("cost order stages = %v, want keyword first", got)
	}
	res, err := p.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var meta, kw *StageExplain
	for i := range res.Explain {
		switch res.Explain[i].Stage {
		case StageMeta:
			meta = &res.Explain[i]
		case StageKeyword:
			kw = &res.Explain[i]
		}
	}
	if meta == nil || kw == nil {
		t.Fatalf("explain rows missing: %+v", res.Explain)
	}
	if !meta.Skipped || meta.In != meta.Out || meta.Cost != 0 {
		t.Errorf("total meta stage not skipped cleanly: %+v", *meta)
	}
	if kw.Skipped || kw.Cost == 0 {
		t.Errorf("keyword stage should have run with cost: %+v", *kw)
	}
	if kw.EstOut <= 0 || kw.EstOut > sys.Catalog.Len() {
		t.Errorf("keyword est_out = %d out of range", kw.EstOut)
	}
	// The skip must not change the answer.
	fixed, err := NewPlanOrdered(sys, q, OrderFixed)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fixed.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Tables, want.Tables) {
		t.Errorf("cost order diverged from fixed order:\n got %v\nwant %v", res.Tables, want.Tables)
	}
}

// TestEstimateChainMonotone checks the planned estimates are chained
// through the execution order: est_out never exceeds the lake and the
// rows appear for every prefilter stage.
func TestEstimateChainMonotone(t *testing.T) {
	sys, gen := fixture(t)
	seed := gen.Tables[0]
	p, err := NewPlan(sys, Query{Seed: seed, Relation: "union", K: 5,
		Predicates: Predicates{ColumnNames: []string{seed.Columns[0].Name},
			Keywords: gen.DomainNames[0], Values: []string{seed.Columns[0].Values[0]}}})
	if err != nil {
		t.Fatal(err)
	}
	n := sys.Catalog.Len()
	prev := n
	for _, sp := range p.pre {
		if sp.estOut < 0 || sp.estOut > n {
			t.Errorf("stage %s est_out = %d out of [0,%d]", sp.name, sp.estOut, n)
		}
		if sp.estOut > prev {
			t.Errorf("stage %s est_out %d above previous %d (chain not monotone)", sp.name, sp.estOut, prev)
		}
		prev = sp.estOut
	}
}

// --- satellite: stored column types (no per-query re-inference) ---

// TestMetaStoredTypeParity pins that matching on the ingest-time
// stored column type admits exactly the tables a fresh re-inference
// over the cell values would — the stored type IS the inferred type.
func TestMetaStoredTypeParity(t *testing.T) {
	sys, gen := fixture(t)
	seed := gen.Tables[0]
	for name, want := range typeByName {
		if name == "unknown" {
			continue
		}
		p, err := NewPlanOrdered(sys, Query{Seed: seed, Relation: "union", K: 5,
			Predicates: Predicates{ColumnTypes: []string{name}}}, OrderFixed)
		if err != nil {
			t.Fatal(err)
		}
		got := p.metaFilter()
		var oracle []string
		for _, tbl := range sys.Catalog.Tables() {
			for _, c := range tbl.Columns {
				if table.InferType(c.Values) == want {
					oracle = append(oracle, tbl.ID)
					break
				}
			}
		}
		sort.Strings(got)
		sort.Strings(oracle)
		if !reflect.DeepEqual(got, oracle) {
			t.Errorf("type %s: stored-type admit set %v != re-inferred %v", name, got, oracle)
		}
	}
}

// --- satellite: per-stage cache keys ---

// TestStageCacheKeyPerGroup pins that each prefilter caches under its
// own predicate group only: changing the keyword must not evict or
// miss the cached meta entry.
func TestStageCacheKeyPerGroup(t *testing.T) {
	sys, gen := fixture(t)
	seed := gen.Tables[0]
	cache := &mapCache{m: make(map[string][]byte)}
	meta := Predicates{ColumnNames: []string{seed.Columns[0].Name}}
	run := func(keywords string) {
		pr := meta
		pr.Keywords = keywords
		p, err := NewPlanOrdered(sys, Query{Seed: seed, Relation: "union", K: 5,
			Predicates: pr}, OrderFixed)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.ExecuteOpts(context.Background(), ExecOptions{Cache: cache, Gen: 3}); err != nil {
			t.Fatal(err)
		}
	}
	run("template0")
	if cache.hits != 0 || len(cache.m) != 2 {
		t.Fatalf("first run: hits=%d entries=%d, want 0 and 2", cache.hits, len(cache.m))
	}
	// Different keyword, same meta group: meta must hit, keyword must
	// miss and add exactly one entry.
	run("template1")
	if cache.hits != 1 {
		t.Errorf("after keyword change: hits=%d, want 1 (the meta entry)", cache.hits)
	}
	if len(cache.m) != 3 {
		t.Errorf("after keyword change: entries=%d, want 3", len(cache.m))
	}
}

// --- satellite: postings-answered values prefilter ---

// TestValuesFilterPostingsParity compares the posting-list values
// filter against the brute-force oracle it replaced — per table, every
// predicate value must be contained in some indexed column's ID set —
// over present values, out-of-vocabulary values, and duplicates.
func TestValuesFilterPostingsParity(t *testing.T) {
	sys, gen := fixture(t)
	seed := gen.Tables[0]
	cases := [][]string{
		{gen.Tables[7].Columns[0].Values[0]},
		{seed.Columns[0].Values[0], seed.Columns[0].Values[1]},
		{seed.Columns[0].Values[0], seed.Columns[0].Values[0]}, // duplicate
		{gen.Tables[3].Columns[0].Values[2], gen.Tables[15].Columns[0].Values[0]},
		{"zz-absent-everywhere"},                          // OOV
		{seed.Columns[0].Values[0], "zz-absent-anywhere"}, // mixed OOV
	}
	for i, vals := range cases {
		p, err := NewPlanOrdered(sys, Query{Seed: seed, Relation: "union", K: 5,
			Predicates: Predicates{Values: vals}}, OrderFixed)
		if err != nil {
			t.Fatal(err)
		}
		got := p.valuesFilter()

		// Brute-force oracle: the pre-postings implementation.
		d, e := sys.Dict, sys.Join
		norm := tokenize.NormalizeSet(vals)
		var ids []uint32
		oov := false
		for _, v := range norm {
			id, ok := d.ID(v)
			if !ok {
				oov = true
				break
			}
			ids = append(ids, id)
		}
		var oracle []string
		if !oov && len(norm) > 0 {
			for _, tbl := range sys.Catalog.Tables() {
				keys := e.ColumnKeysOf(tbl.ID)
				all := true
				for _, id := range ids {
					found := false
					for _, key := range keys {
						if e.IDSet(key).Contains(id) {
							found = true
							break
						}
					}
					if !found {
						all = false
						break
					}
				}
				if all {
					oracle = append(oracle, tbl.ID)
				}
			}
		}
		sort.Strings(got)
		sort.Strings(oracle)
		if !reflect.DeepEqual(got, oracle) {
			t.Errorf("case %d %v: postings admit set %v != oracle %v", i, vals, got, oracle)
		}
	}
}

// --- satellite: randomized fixed-vs-cost parity ---

// TestCostOrderParityRandomized sweeps seed tables × predicate
// combinations × relations and demands the cost-ordered plan's results
// be deeply equal to the fixed-order plan's. Reordering, skipping and
// restricted evaluation must all be invisible in the answer. (Whether a
// restricted overlap search enumerates or masks JOSIE is the join
// engine's choice under either order; internal/join tests that.)
func TestCostOrderParityRandomized(t *testing.T) {
	sys, gen := fixture(t)
	preds := []Predicates{
		{},
		{MinRows: 1},
		{MinRows: 1, Keywords: "template0"},
		{ColumnNames: []string{gen.Tables[0].Columns[0].Name}, Keywords: gen.DomainNames[0]},
		{Keywords: gen.DomainNames[1], Values: []string{gen.Tables[7].Columns[0].Values[0]}},
		{MinRows: 1, MinCols: 1, Keywords: "template1",
			Values: []string{gen.Tables[4].Columns[0].Values[0]}},
		{MaxRows: gen.Tables[0].NumRows(), ColumnTypes: []string{"string"}},
	}
	for _, si := range []int{0, 5, 13} {
		seed := gen.Tables[si]
		for pi, pr := range preds {
			for _, rel := range []string{"join", "join-containment", "union", "any"} {
				q := Query{Seed: seed, Relation: rel, K: 7, Predicates: pr}
				switch rel {
				case "join":
					q = Query{Values: seed.Columns[0].Values, Relation: "join", K: 7, Predicates: pr}
				case "join-containment":
					q = Query{Values: seed.Columns[0].Values, Relation: "join", Mode: "containment", Threshold: 0.3, K: 7, Predicates: pr}
				}
				name := fmt.Sprintf("seed%d/pred%d/%s", si, pi, rel)
				fp, err := NewPlanOrdered(sys, q, OrderFixed)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				cp, err := NewPlanOrdered(sys, q, OrderCost)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				want, err := fp.Execute(context.Background())
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				got, err := cp.Execute(context.Background())
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !reflect.DeepEqual(got.Matches, want.Matches) {
					t.Errorf("%s: matches diverged\n got %v\nwant %v", name, got.Matches, want.Matches)
				}
				if !reflect.DeepEqual(got.Tables, want.Tables) {
					t.Errorf("%s: tables diverged\n got %v\nwant %v", name, got.Tables, want.Tables)
				}
			}
		}
	}
}

// TestConcurrentCostExecution runs both orderings concurrently over a
// shared cache — the data-race check for the stats block, restricted
// evaluation, and masked-traversal paths.
func TestConcurrentCostExecution(t *testing.T) {
	sys, gen := fixture(t)
	seed := gen.Tables[0]
	q := Query{Seed: seed, Relation: "union", K: 5,
		Predicates: Predicates{MinRows: 1, Keywords: "template0",
			Values: []string{seed.Columns[0].Values[0]}}}
	jq := Query{Values: seed.Columns[0].Values, Relation: "join", K: 5, Predicates: q.Predicates}
	cache := &mapCache{m: make(map[string][]byte)}
	baseline := mustExecute(t, sys, q)
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 8; i++ {
		for _, ord := range []Order{OrderCost, OrderFixed} {
			for _, qq := range []Query{q, jq} {
				wg.Add(1)
				go func(qq Query, ord Order) {
					defer wg.Done()
					p, err := NewPlanOrdered(sys, qq, ord)
					if err != nil {
						errs <- err
						return
					}
					res, err := p.ExecuteOpts(context.Background(), ExecOptions{Cache: cache, Gen: 1})
					if err != nil {
						errs <- err
						return
					}
					if qq.Relation == "union" && !reflect.DeepEqual(res.Tables, baseline.Tables) {
						errs <- fmt.Errorf("concurrent run diverged: %v vs %v", res.Tables, baseline.Tables)
					}
				}(qq, ord)
			}
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
