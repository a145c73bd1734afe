package discover

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"sync"
	"testing"

	"tablehound/internal/core"
	"tablehound/internal/datagen"
	"tablehound/internal/lake"
	"tablehound/internal/table"
	"tablehound/internal/union"
)

// The fixture system is expensive to build, so all tests share one.
var (
	sysOnce sync.Once
	sysVal  *core.System
	genVal  *datagen.Lake
)

func fixture(t *testing.T) (*core.System, *datagen.Lake) {
	t.Helper()
	sysOnce.Do(func() {
		gen := datagen.Generate(datagen.Config{
			Seed:              51,
			NumDomains:        12,
			DomainSize:        80,
			NumTemplates:      5,
			TablesPerTemplate: 4,
		})
		cat := lake.NewCatalog()
		for _, tbl := range gen.Tables {
			if err := cat.Add(tbl); err != nil {
				panic(err)
			}
		}
		sys, err := core.Build(cat, core.Options{KB: gen.BuildKB(0.8), Seed: 3})
		if err != nil {
			panic(err)
		}
		sysVal, genVal = sys, gen
	})
	return sysVal, genVal
}

func mustExecute(t *testing.T, sys *core.System, q Query) *Result {
	t.Helper()
	p, err := NewPlan(sys, q)
	if err != nil {
		t.Fatalf("NewPlan: %v", err)
	}
	res, err := p.Execute(context.Background())
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	return res
}

// --- planner shape ---

func TestStageOrdering(t *testing.T) {
	sys, gen := fixture(t)
	seed := gen.Tables[0]
	cases := []struct {
		name  string
		preds Predicates
		want  []string
	}{
		{"no predicates", Predicates{}, []string{StageCandidates, StageVerify}},
		{"meta only", Predicates{MinRows: 1}, []string{StageMeta, StageCandidates, StageVerify}},
		{"keywords only", Predicates{Keywords: "x"}, []string{StageKeyword, StageCandidates, StageVerify}},
		{"values only", Predicates{Values: []string{"x"}}, []string{StageValues, StageCandidates, StageVerify}},
		{"all groups", Predicates{MinRows: 1, Keywords: "x", Values: []string{"x"}},
			[]string{StageMeta, StageKeyword, StageValues, StageCandidates, StageVerify}},
	}
	for _, c := range cases {
		q := Query{Seed: seed, Relation: "union", K: 5, Predicates: c.preds}
		p, err := NewPlanOrdered(sys, q, OrderFixed)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := p.Stages(); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: fixed stages = %v, want %v", c.name, got, c.want)
		}
		// Cost ordering may permute the prefilters but must plan exactly
		// the same stage set, with candidates and verify closing the plan.
		pc, err := NewPlan(sys, q)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got := pc.Stages()
		if len(got) != len(c.want) {
			t.Fatalf("%s: cost stages = %v, want a permutation of %v", c.name, got, c.want)
		}
		set := make(map[string]bool, len(got))
		for _, s := range got {
			set[s] = true
		}
		for _, s := range c.want {
			if !set[s] {
				t.Errorf("%s: cost stages %v missing %s", c.name, got, s)
			}
		}
		if got[len(got)-2] != StageCandidates || got[len(got)-1] != StageVerify {
			t.Errorf("%s: cost stages %v do not end with candidates, verify", c.name, got)
		}
	}
}

func TestBadQueries(t *testing.T) {
	sys, gen := fixture(t)
	seed := gen.Tables[0]
	cases := []struct {
		name string
		q    Query
	}{
		{"zero k", Query{Seed: seed, K: 0}},
		{"negative k", Query{Seed: seed, K: -3}},
		{"unknown relation", Query{Seed: seed, K: 5, Relation: "psychic"}},
		{"unknown mode", Query{Seed: seed, K: 5, Relation: "join", Mode: "fuzzy"}},
		{"unknown method", Query{Seed: seed, K: 5, Relation: "union", Method: "magic"}},
		{"unknown column type", Query{Seed: seed, K: 5, Predicates: Predicates{ColumnTypes: []string{"uuid"}}}},
		{"seed and values both", Query{Seed: seed, Values: []string{"x"}, K: 5, Relation: "join"}},
		{"union without seed table", Query{Values: []string{"x"}, K: 5, Relation: "union"}},
		{"any without seed table", Query{Values: []string{"x"}, K: 5}},
		{"join without any seed", Query{K: 5, Relation: "join"}},
		{"join seed column missing", Query{Seed: seed, K: 5, Relation: "join", Column: "no-such-column"}},
	}
	for _, c := range cases {
		if _, err := NewPlan(sys, c.q); !errors.Is(err, table.ErrBadQuery) {
			t.Errorf("%s: err = %v, want ErrBadQuery", c.name, err)
		}
	}
}

// --- degenerate-case parity: no predicates, single relation kind ---

func TestJoinOverlapParity(t *testing.T) {
	sys, gen := fixture(t)
	vals := gen.Tables[0].Columns[0].Values
	want, err := sys.JoinableColumns(vals, 10)
	if err != nil {
		t.Fatal(err)
	}
	res := mustExecute(t, sys, Query{Values: vals, Relation: "join", K: 10})
	if !reflect.DeepEqual(res.Matches, want) {
		t.Errorf("unfiltered overlap discover != JoinableColumns\n got %v\nwant %v", res.Matches, want)
	}
}

func TestJoinContainmentParity(t *testing.T) {
	sys, gen := fixture(t)
	vals := gen.Tables[0].Columns[0].Values
	want, err := sys.ContainmentSearch(vals, 0.3, 10)
	if err != nil {
		t.Fatal(err)
	}
	res := mustExecute(t, sys, Query{Values: vals, Relation: "join", Mode: "containment", Threshold: 0.3, K: 10})
	if !reflect.DeepEqual(res.Matches, want) {
		t.Errorf("unfiltered containment discover != ContainmentSearch\n got %v\nwant %v", res.Matches, want)
	}
}

func TestUnionParity(t *testing.T) {
	sys, gen := fixture(t)
	seed := gen.Tables[0]
	for _, method := range []string{"tus", "santos", "starmie", "d3l"} {
		var want []union.Result
		var err error
		switch method {
		case "tus":
			want, err = sys.TUS.Search(context.Background(), seed, 8, union.EnsembleMeasure)
		case "santos":
			want, err = sys.Santos.Search(context.Background(), seed, 8, union.Hybrid)
		case "starmie":
			rs, serr := sys.Starmie.SearchTables(context.Background(), seed, 8, 64, false)
			err = serr
			for _, r := range rs {
				want = append(want, union.Result{TableID: r.TableID, Score: r.Score})
			}
		case "d3l":
			want, err = sys.D3L.Search(context.Background(), seed, 8)
		}
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		res := mustExecute(t, sys, Query{Seed: seed, Relation: "union", Method: method, K: 8})
		if !reflect.DeepEqual(res.Tables, want) {
			t.Errorf("%s: unfiltered union discover != bare engine\n got %v\nwant %v", method, res.Tables, want)
		}
	}
}

// --- predicate evaluation ---

func TestMetaPredicates(t *testing.T) {
	sys, gen := fixture(t)
	seed := gen.Tables[0]

	// min_rows: every result table satisfies it, and the prefilter's
	// out-count matches the catalog census.
	minRows := seed.NumRows()
	res := mustExecute(t, sys, Query{Seed: seed, Relation: "union", K: 50,
		Predicates: Predicates{MinRows: minRows}})
	admitted := 0
	for _, tbl := range sys.Catalog.Tables() {
		if tbl.NumRows() >= minRows {
			admitted++
		}
	}
	if res.Explain[0].Stage != StageMeta || res.Explain[0].Out != admitted {
		t.Errorf("meta prefilter out = %+v, want %d admitted", res.Explain[0], admitted)
	}
	for _, r := range res.Tables {
		if got := sys.Catalog.Table(r.TableID).NumRows(); got < minRows {
			t.Errorf("result %s has %d rows < min %d", r.TableID, got, minRows)
		}
	}

	// column_names: results all carry the named column.
	colName := seed.Columns[0].Name
	res = mustExecute(t, sys, Query{Seed: seed, Relation: "union", K: 50,
		Predicates: Predicates{ColumnNames: []string{colName}}})
	for _, r := range res.Tables {
		if !hasColumnNamed(sys.Catalog.Table(r.TableID), colName) {
			t.Errorf("result %s lacks required column %q", r.TableID, colName)
		}
	}
}

func TestValuesPredicate(t *testing.T) {
	sys, gen := fixture(t)
	seed := gen.Tables[0]
	// A value from another template's table: only tables actually
	// containing it may appear.
	probe := gen.Tables[7].Columns[0].Values[0]
	res := mustExecute(t, sys, Query{Seed: seed, Relation: "union", K: 50,
		Predicates: Predicates{Values: []string{probe}}})
	for _, r := range res.Tables {
		tbl := sys.Catalog.Table(r.TableID)
		found := false
		for _, c := range tbl.Columns {
			for _, v := range c.Values {
				if v == probe {
					found = true
				}
			}
		}
		if !found {
			t.Errorf("result %s does not contain predicate value %q", r.TableID, probe)
		}
	}

	// An out-of-vocabulary value admits nothing.
	res = mustExecute(t, sys, Query{Seed: seed, Relation: "union", K: 50,
		Predicates: Predicates{Values: []string{"zz-absent-everywhere"}}})
	if len(res.Tables) != 0 {
		t.Errorf("OOV values predicate returned %d tables, want 0", len(res.Tables))
	}
}

// --- filtered-vs-brute-force correctness ---

// The staged execution must equal "run the bare engine over the whole
// lake, drop tables failing the predicates, truncate to k".
func TestFilteredEqualsPostFiltered(t *testing.T) {
	sys, gen := fixture(t)
	seed := gen.Tables[0]
	pr := Predicates{MinRows: 1, ColumnNames: []string{seed.Columns[0].Name}}

	// Oracle allowed set from the meta prefilter semantics.
	allowed := make(map[string]bool)
	for _, tbl := range sys.Catalog.Tables() {
		ok := tbl.NumRows() >= 1 && hasColumnNamed(tbl, seed.Columns[0].Name)
		if ok {
			allowed[tbl.ID] = true
		}
	}
	if len(allowed) == 0 || len(allowed) == sys.Catalog.Len() {
		t.Fatalf("degenerate predicate: admits %d of %d", len(allowed), sys.Catalog.Len())
	}

	k := 5
	t.Run("union-tus", func(t *testing.T) {
		full, err := sys.TUS.Search(context.Background(), seed, sys.Catalog.Len(), union.EnsembleMeasure)
		if err != nil {
			t.Fatal(err)
		}
		var want []union.Result
		for _, r := range full {
			if allowed[r.TableID] {
				want = append(want, r)
			}
		}
		if len(want) > k {
			want = want[:k]
		}
		res := mustExecute(t, sys, Query{Seed: seed, Relation: "union", K: k, Predicates: pr})
		if !reflect.DeepEqual(res.Tables, want) {
			t.Errorf("filtered union != post-filtered bare ranking\n got %v\nwant %v", res.Tables, want)
		}
	})
	t.Run("join-overlap", func(t *testing.T) {
		full, err := sys.JoinableColumns(seed.Columns[0].Values, sys.Join.NumColumns())
		if err != nil {
			t.Fatal(err)
		}
		want := full[:0:0]
		for _, m := range full {
			id, _ := table.SplitColumnKey(m.ColumnKey)
			if allowed[id] {
				want = append(want, m)
			}
		}
		if len(want) > k {
			want = want[:k]
		}
		res := mustExecute(t, sys, Query{Values: seed.Columns[0].Values, Relation: "join", K: k, Predicates: pr})
		if !reflect.DeepEqual(res.Matches, want) {
			t.Errorf("filtered join != post-filtered bare ranking\n got %v\nwant %v", res.Matches, want)
		}
	})
	t.Run("join-containment", func(t *testing.T) {
		full, err := sys.ContainmentSearch(seed.Columns[0].Values, 0.3, sys.Join.NumColumns())
		if err != nil {
			t.Fatal(err)
		}
		want := full[:0:0]
		for _, m := range full {
			id, _ := table.SplitColumnKey(m.ColumnKey)
			if allowed[id] {
				want = append(want, m)
			}
		}
		if len(want) > k {
			want = want[:k]
		}
		res := mustExecute(t, sys, Query{Values: seed.Columns[0].Values, Relation: "join",
			Mode: "containment", Threshold: 0.3, K: k, Predicates: pr})
		if !reflect.DeepEqual(res.Matches, want) {
			t.Errorf("filtered containment != post-filtered bare ranking\n got %v\nwant %v", res.Matches, want)
		}
	})
}

// --- explain block ---

func TestExplainChain(t *testing.T) {
	sys, gen := fixture(t)
	seed := gen.Tables[0]
	p, err := NewPlanOrdered(sys, Query{Seed: seed, Relation: "union", K: 5,
		Predicates: Predicates{MinRows: 1, Keywords: gen.DomainNames[0]}}, OrderFixed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	stages := make([]string, len(res.Explain))
	for i, st := range res.Explain {
		stages[i] = st.Stage
	}
	want := []string{StageMeta, StageKeyword, StageCandidates, StageVerify}
	if !reflect.DeepEqual(stages, want) {
		t.Fatalf("explain stages = %v, want %v", stages, want)
	}
	// The prefilter chain hands its out-count to the next stage's in.
	if res.Explain[0].In != sys.Catalog.Len() {
		t.Errorf("first stage in = %d, want lake size %d", res.Explain[0].In, sys.Catalog.Len())
	}
	for i := 0; i+1 < 2; i++ {
		if res.Explain[i].Out != res.Explain[i+1].In {
			t.Errorf("stage %d out %d != stage %d in %d",
				i, res.Explain[i].Out, i+1, res.Explain[i+1].In)
		}
	}
	if last := res.Explain[len(res.Explain)-1]; last.Out != len(res.Tables) {
		t.Errorf("verify out = %d, want result count %d", last.Out, len(res.Tables))
	}
}

// --- stage caching ---

type mapCache struct {
	mu   sync.Mutex
	m    map[string][]byte
	gets int
	hits int
}

func (c *mapCache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gets++
	v, ok := c.m[key]
	if ok {
		c.hits++
	}
	return v, ok
}

func (c *mapCache) Put(key string, val []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = val
}

func TestPrefilterCaching(t *testing.T) {
	sys, gen := fixture(t)
	seed := gen.Tables[0]
	cache := &mapCache{m: make(map[string][]byte)}
	q := Query{Seed: seed, Relation: "union", K: 5,
		Predicates: Predicates{MinRows: 1, Keywords: gen.DomainNames[0]}}
	// Fixed order: both prefilters always evaluate, so the cache sees
	// exactly one entry per stage per generation. (Under cost ordering a
	// provably-total stage is skipped and never touches the cache.)
	p, err := NewPlanOrdered(sys, q, OrderFixed)
	if err != nil {
		t.Fatal(err)
	}
	opts := ExecOptions{Cache: cache, Gen: 7}
	first, err := p.ExecuteOpts(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if cache.hits != 0 || len(cache.m) != 2 {
		t.Fatalf("after first run: hits=%d entries=%d, want 0 hits, 2 entries", cache.hits, len(cache.m))
	}
	second, err := p.ExecuteOpts(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if cache.hits != 2 {
		t.Errorf("after second run: hits=%d, want 2 (both prefilters recalled)", cache.hits)
	}
	if !reflect.DeepEqual(first.Tables, second.Tables) {
		t.Errorf("cached run diverged: %v vs %v", first.Tables, second.Tables)
	}

	// A different generation misses: stale sets cannot leak across
	// snapshot swaps.
	if _, err := p.ExecuteOpts(context.Background(), ExecOptions{Cache: cache, Gen: 8}); err != nil {
		t.Fatal(err)
	}
	if len(cache.m) != 4 {
		t.Errorf("after gen bump: entries=%d, want 4 (fresh keys per gen)", len(cache.m))
	}
}

// --- relation "any" ---

func TestAnyRelation(t *testing.T) {
	sys, gen := fixture(t)
	seed := gen.Tables[0]
	res := mustExecute(t, sys, Query{Seed: seed, K: 10})
	if len(res.Tables) == 0 {
		t.Fatal("any-relation discover found nothing for a template table")
	}
	for i := 1; i < len(res.Tables); i++ {
		a, b := res.Tables[i-1], res.Tables[i]
		if a.Score < b.Score || (a.Score == b.Score && a.TableID > b.TableID) {
			t.Errorf("any ranking not (score desc, id asc) at %d: %v then %v", i, a, b)
		}
	}
	for _, r := range res.Tables {
		if r.TableID == seed.ID {
			t.Errorf("seed table %s in its own results", seed.ID)
		}
	}
	// Determinism.
	again := mustExecute(t, sys, Query{Seed: seed, K: 10})
	if !reflect.DeepEqual(res.Tables, again.Tables) {
		t.Error("any-relation discover is not deterministic")
	}
}

// JSON wire shape of the explain block is part of the API contract.
func TestStageExplainJSON(t *testing.T) {
	b, err := json.Marshal(StageExplain{Stage: StageMeta, In: 20, Out: 5, ElapsedUS: 12})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"stage":"prefilter_meta","in":20,"out":5,"elapsed_us":12}`
	if string(b) != want {
		t.Errorf("explain JSON = %s, want %s", b, want)
	}
}
