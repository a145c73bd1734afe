package join

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"tablehound/internal/table"
)

func genVals(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s_%04d", prefix, i)
	}
	return out
}

func demoEngine(t *testing.T) *Engine {
	t.Helper()
	b := NewBuilder(2)
	b.AddColumn("big.city", genVals("city", 500))       // superset domain
	b.AddColumn("small.city", genVals("city", 60))      // subset
	b.AddColumn("half.city", genVals("city", 30))       // smaller subset
	b.AddColumn("other.person", genVals("person", 100)) // disjoint
	b.AddColumn("mixed.place", append(genVals("city", 40), genVals("country", 40)...))
	e, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestTopKOverlap(t *testing.T) {
	e := demoEngine(t)
	q := genVals("city", 50)
	res, _, err := e.TopKOverlap(context.Background(), e.EncodeQuery(q), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("results = %d", len(res))
	}
	// big.city and small.city both contain all 50; mixed has 40.
	if res[0].Overlap != 50 || res[1].Overlap != 50 {
		t.Errorf("top overlaps = %d, %d, want 50, 50", res[0].Overlap, res[1].Overlap)
	}
	if res[2].ColumnKey != "mixed.place" || res[2].Overlap != 40 {
		t.Errorf("third = %+v", res[2])
	}
	if res[0].Containment != 1.0 {
		t.Errorf("containment = %v", res[0].Containment)
	}
}

// TestTopKOverlapAlgoStats checks the work units an overlap search
// reports: a whole-lake search prices JOSIE's reads and estimates
// nothing, a restricted one carries both estimates and spends the
// cheaper.
func TestTopKOverlapAlgoStats(t *testing.T) {
	e := demoEngine(t)
	q := e.EncodeQuery(genVals("city", 50))
	for _, among := range [][]string{nil, e.keys} {
		res, st, err := e.TopKOverlap(context.Background(), q, 2, among)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 2 || res[0].Overlap != 50 {
			t.Errorf("among %v: res = %+v", among, res)
		}
		if st.Work == 0 {
			t.Errorf("among %v: no work reported: %+v", among, st)
		}
		if among == nil && (st.Pushdown || st.EnumCost != 0 || st.PushCost != 0) {
			t.Errorf("whole-lake search carries restricted-path estimates: %+v", st)
		}
		if among != nil && st.Work > min(st.EnumCost, st.PushCost) && !st.Pushdown {
			t.Errorf("restricted search spent %d, estimates %d / %d", st.Work, st.EnumCost, st.PushCost)
		}
	}
}

func TestContainmentSearchVerified(t *testing.T) {
	e := demoEngine(t)
	q := genVals("city", 50)
	res, err := e.ContainmentSearch(context.Background(), e.EncodeQuery(q), 0.7)
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	for _, m := range res {
		keys[m.ColumnKey] = true
		if m.Containment < 0.7 {
			t.Errorf("verified match below threshold: %+v", m)
		}
	}
	if !keys["big.city"] || !keys["small.city"] {
		t.Errorf("missing true containers: %v", keys)
	}
	if keys["other.person"] {
		t.Error("disjoint column retrieved")
	}
}

func TestContainmentSearchEmptyQuery(t *testing.T) {
	e := demoEngine(t)
	if _, err := e.ContainmentSearch(context.Background(), e.EncodeQuery(nil), 0.5); !errors.Is(err, table.ErrBadQuery) {
		t.Errorf("empty query: err = %v, want table.ErrBadQuery", err)
	}
}

func TestJaccardBiasAgainstLargeDomains(t *testing.T) {
	// The documented weakness: a small subset column scores higher
	// Jaccard than a large superset column, even though the superset
	// fully contains the query too.
	e := demoEngine(t)
	q := genVals("city", 50)
	res := e.JaccardSearch(q, 0.05)
	var bigJ, smallJ float64
	for _, m := range res {
		switch m.ColumnKey {
		case "big.city":
			bigJ = m.Jaccard
		case "small.city":
			smallJ = m.Jaccard
		}
	}
	if smallJ <= bigJ {
		t.Errorf("Jaccard bias not reproduced: small=%v big=%v", smallJ, bigJ)
	}
	// Containment treats both as perfect containers.
	exact := e.ExactContainmentScan(q, 0.99)
	found := map[string]bool{}
	for _, m := range exact {
		found[m.ColumnKey] = true
	}
	if !found["big.city"] || !found["small.city"] {
		t.Error("containment scan should find both containers")
	}
}

func TestBuilderFiltersAndDedups(t *testing.T) {
	b := NewBuilder(5)
	b.AddColumn("tiny.col", []string{"a", "b"}) // below min cardinality
	b.AddColumn("ok.col", genVals("v", 10))
	b.AddColumn("ok.col", genVals("w", 10)) // duplicate key ignored
	e, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if e.NumColumns() != 1 {
		t.Errorf("NumColumns = %d, want 1", e.NumColumns())
	}
	vals, ok := e.ColumnValues("ok.col")
	if !ok || len(vals) != 10 || vals[0][0] != 'v' {
		t.Error("first Add should win for duplicate keys")
	}
}

func TestBuildEmpty(t *testing.T) {
	if _, err := NewBuilder(1).Build(); err == nil {
		t.Error("empty Build should fail")
	}
}

func TestAddTableOnlyStringColumns(t *testing.T) {
	tbl := table.MustNew("t", "t", []*table.Column{
		table.NewColumn("name", genVals("name", 20)),
		table.NewColumn("score", []string{"1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11", "12", "13", "14", "15", "16", "17", "18", "19", "20"}),
	})
	b := NewBuilder(2)
	b.AddTable(tbl)
	e, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if e.NumColumns() != 1 {
		t.Errorf("NumColumns = %d, want 1 (numeric skipped)", e.NumColumns())
	}
}
