package join

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"tablehound/internal/datagen"
)

// randomEngine builds a lake of nCols columns over a small shared
// vocabulary so overlaps are plentiful.
func randomEngine(t *testing.T, nCols int, seed int64) *Engine {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(2)
	for i := 0; i < nCols; i++ {
		n := 3 + rng.Intn(30)
		vs := make([]string, n)
		for j := range vs {
			vs[j] = fmt.Sprintf("v%03d", rng.Intn(120))
		}
		b.AddColumn(fmt.Sprintf("t%02d.c%02d", i/3, i%3), vs)
	}
	e, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// wholeLakeAmong is the oracle of a restricted overlap search: the
// unbounded whole-lake ranking filtered to the candidates and cut to k.
func wholeLakeAmong(t *testing.T, e *Engine, q Query, among []string, k int) []Match {
	t.Helper()
	all, _, err := e.TopKOverlap(context.Background(), q, e.NumColumns(), nil)
	if err != nil {
		t.Fatal(err)
	}
	allowed := make(map[string]bool, len(among))
	for _, key := range among {
		allowed[key] = true
	}
	var want []Match
	for _, m := range all {
		if allowed[m.ColumnKey] && len(want) < k {
			want = append(want, m)
		}
	}
	return want
}

// TestTopKOverlapAmongPushdownParity pins the contract that the masked
// posting-traversal path and the enumerate-and-score path both return
// the whole-lake ranking filtered to the candidates, for any candidate
// subset, including candidates that are out of the index and queries
// with out-of-vocabulary values — and that the cost-picked search is
// one of them.
func TestTopKOverlapAmongPushdownParity(t *testing.T) {
	ctx := context.Background()
	for seed := int64(0); seed < 12; seed++ {
		e := randomEngine(t, 24, seed)
		rng := rand.New(rand.NewSource(seed + 500))
		qvals := make([]string, 4+rng.Intn(12))
		for j := range qvals {
			qvals[j] = fmt.Sprintf("v%03d", rng.Intn(130)) // some OOV
		}
		q := e.EncodeQuery(qvals)
		if len(q.IDs) == 0 {
			continue
		}
		var cands []string
		for _, key := range append([]string(nil), e.keys...) {
			if rng.Intn(2) == 0 {
				cands = append(cands, key)
			}
		}
		cands = append(cands, "ghost.col") // unindexed candidate
		k := 1 + rng.Intn(8)
		want := wholeLakeAmong(t, e, q, cands, k)
		scored, err := e.overlapEnumerated(ctx, q, cands, k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(scored, want) {
			t.Errorf("seed %d: enumerated = %v, want %v", seed, scored, want)
		}
		if masked, _ := e.overlapMasked(q, cands, k); !reflect.DeepEqual(masked, want) {
			t.Errorf("seed %d: masked = %v, want %v", seed, masked, want)
		}
		got, st, err := e.TopKOverlap(ctx, q, k, cands)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d (pushdown=%v): among = %v, want %v", seed, st.Pushdown, got, want)
		}
		// An empty candidate list admits nothing; only nil lifts the
		// restriction.
		if none, _, err := e.TopKOverlap(ctx, q, k, []string{}); err != nil || len(none) != 0 {
			t.Errorf("seed %d: empty among = %v (%v), want no matches", seed, none, err)
		}
	}
}

// TestOverlapPathsAgreeOnTies runs every column of a lake whose tables
// all exist twice — so every overlap is tied at least once, mostly
// across the k-th place — through the three ways to ask for a top-k
// overlap. JOSIE over the whole lake, enumerate-and-score over every
// key, and the masked traversal must give one answer, keys included.
func TestOverlapPathsAgreeOnTies(t *testing.T) {
	lake := datagen.Generate(datagen.Config{Seed: 3, NumDomains: 6, DomainSize: 40, NumTemplates: 4, TablesPerTemplate: 5})
	b := NewBuilder(2)
	for _, tbl := range lake.Tables {
		b.AddTable(tbl)
		for _, c := range tbl.Columns {
			b.AddColumn("copy_"+tbl.ID+"."+c.Name, c.Values)
		}
	}
	e, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	pushed := 0
	for _, key := range e.keys {
		q := Query{IDs: e.IDSet(key)}
		for _, k := range []int{1, 10} {
			whole, _, err := e.TopKOverlap(ctx, q, k, nil)
			if err != nil {
				t.Fatal(err)
			}
			scored, err := e.overlapEnumerated(ctx, q, e.keys, k)
			if err != nil {
				t.Fatal(err)
			}
			masked, _ := e.overlapMasked(q, e.keys, k)
			picked, st, err := e.TopKOverlap(ctx, q, k, e.keys)
			if err != nil {
				t.Fatal(err)
			}
			if st.Pushdown {
				pushed++
			}
			if !reflect.DeepEqual(whole, scored) || !reflect.DeepEqual(masked, scored) || !reflect.DeepEqual(picked, scored) {
				t.Fatalf("%s k=%d (pushdown=%v):\n  whole lake %v\n  enumerated %v\n      masked %v\n      picked %v", key, k, st.Pushdown, whole, scored, masked, picked)
			}
			if len(scored) < min(k, 2) {
				t.Fatalf("%s k=%d: %d matches, want the column and its copy at least", key, k, len(scored))
			}
		}
	}
	if pushed == 0 {
		t.Error("no query took the masked traversal")
	}
}

// TestPushdownReadsFewerPostings drives the adversarial shape the
// pushdown exists for — a short query against a large candidate set —
// and checks the masked traversal both triggers and is priced below
// enumerate-then-score.
func TestPushdownReadsFewerPostings(t *testing.T) {
	b := NewBuilder(2)
	// Many wide candidate columns sharing a domain, one rare value.
	for i := 0; i < 40; i++ {
		vs := genVals("city", 200)
		if i == 0 {
			vs = append(vs, "needle")
		}
		b.AddColumn(fmt.Sprintf("t%02d.wide", i), vs)
	}
	e, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	q := e.EncodeQuery([]string{"needle", "city_0001", "city_0002"})
	cands := append([]string(nil), e.keys...)
	ms, st, err := e.TopKOverlap(context.Background(), q, 5, cands)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Pushdown {
		t.Fatalf("short query over %d wide candidates did not push down: %+v", len(cands), st)
	}
	if st.Work >= st.EnumCost {
		t.Errorf("pushdown work %d not below enumerate cost %d", st.Work, st.EnumCost)
	}
	if len(ms) == 0 || ms[0].ColumnKey != "t00.wide" {
		t.Errorf("needle column not ranked first: %v", ms)
	}
	if want := wholeLakeAmong(t, e, q, cands, 5); !reflect.DeepEqual(ms, want) {
		t.Errorf("pushdown = %v, want the whole-lake ranking %v", ms, want)
	}
}

// TestValueDFAndColumnsWithValue checks the posting-derived accessors
// the planner's values prefilter and cost model are built on.
func TestValueDFAndColumnsWithValue(t *testing.T) {
	e := demoEngine(t)
	id, ok := e.Dict().ID("city_0001")
	if !ok {
		t.Fatal("city_0001 not in dict")
	}
	cols := e.ColumnsWithValue(id)
	if got := e.ValueDF(id); got != len(cols) {
		t.Errorf("ValueDF = %d, columns = %d", got, len(cols))
	}
	want := map[string]bool{"big.city": true, "small.city": true, "half.city": true, "mixed.place": true}
	if len(cols) != len(want) {
		t.Fatalf("columns with city_0001 = %v", cols)
	}
	for _, c := range cols {
		if !want[c] {
			t.Errorf("unexpected column %s", c)
		}
	}
	if df := e.ValueDF(1 << 30); df != 0 {
		t.Errorf("OOV ValueDF = %d, want 0", df)
	}
	if cols := e.ColumnsWithValue(1 << 30); cols != nil {
		t.Errorf("OOV ColumnsWithValue = %v, want nil", cols)
	}
}
