package profile

import (
	"fmt"
	"strings"
	"testing"

	"tablehound/internal/datagen"
	"tablehound/internal/table"
)

func demoTables() []*table.Table {
	sales := table.MustNew("sales", "sales", []*table.Column{
		table.NewColumn("store", []string{"s1", "s2", "s3", "s1"}),
		table.NewColumn("amount", []string{"10.5", "20", "5", "100"}),
		table.NewColumn("day", []string{"2020-01-01", "2020-06-15", "2021-02-02", "2020-03-03"}),
	})
	temps := table.MustNew("temps", "temps", []*table.Column{
		table.NewColumn("city", []string{"boston", "nyc", "chicago"}),
		table.NewColumn("celsius", []string{"-5", "0", "30"}),
		table.NewColumn("when", []string{"2023/01/01", "2023/07/01", "2023/12/31"}),
	})
	ids := table.MustNew("ids", "ids", []*table.Column{
		table.NewColumn("uid", []string{"u1", "u2", "u3", "u4", "u5", "u6", "u7", "u8", "u9", "u10"}),
		table.NewColumn("note", []string{"a", "a", "a", "a", "a", "a", "a", "a", "a", ""}),
	})
	return []*table.Table{sales, temps, ids}
}

func TestBuildProfile(t *testing.T) {
	tp := Build(demoTables()[0])
	if tp.TableID != "sales" || tp.Rows != 4 {
		t.Fatalf("profile header = %+v", tp)
	}
	amt, ok := tp.Column("amount")
	if !ok || !amt.Type.IsNumeric() {
		t.Fatal("amount not numeric")
	}
	if amt.Min != 5 || amt.Max != 100 {
		t.Errorf("amount range = [%v, %v]", amt.Min, amt.Max)
	}
	if amt.Mean != (10.5+20+5+100)/4 {
		t.Errorf("mean = %v", amt.Mean)
	}
	day, _ := tp.Column("day")
	if day.MinDate != "2020-01-01" || day.MaxDate != "2021-02-02" {
		t.Errorf("day coverage = [%s, %s]", day.MinDate, day.MaxDate)
	}
	store, _ := tp.Column("store")
	if store.Cardinality != 3 {
		t.Errorf("store cardinality = %d", store.Cardinality)
	}
	if _, ok := tp.Column("nope"); ok {
		t.Error("missing column reported")
	}
}

func TestSlashDatesNormalized(t *testing.T) {
	tp := Build(demoTables()[1])
	when, _ := tp.Column("when")
	if when.MinDate != "2023-01-01" || when.MaxDate != "2023-12-31" {
		t.Errorf("slash dates = [%s, %s]", when.MinDate, when.MaxDate)
	}
}

func TestKMVCardinalityOnLargeColumn(t *testing.T) {
	vals := make([]string, 20000)
	for i := range vals {
		vals[i] = fmt.Sprintf("v%d", i%5000)
	}
	tp := Build(table.MustNew("big", "big", []*table.Column{table.NewColumn("x", vals)}))
	c, _ := tp.Column("x")
	if c.Cardinality < 4000 || c.Cardinality > 6000 {
		t.Errorf("estimated cardinality = %d, want ~5000", c.Cardinality)
	}
}

func TestNumericRangeSearch(t *testing.T) {
	ix := NewIndex(demoTables())
	// [0, 50] overlaps amount ([5,100] clipped to [5,50], 90% of span)
	// and celsius ([-5,30] clipped to [0,30], 60%).
	hits := ix.NumericRangeSearch(0, 50, 0.5)
	if len(hits) != 2 {
		t.Fatalf("hits = %+v", hits)
	}
	if hits[0].TableID != "sales" || hits[1].TableID != "temps" {
		t.Errorf("hits = %+v", hits)
	}
	// Demand near-full overlap: only amount survives.
	hits = ix.NumericRangeSearch(0, 50, 0.8)
	if len(hits) != 1 || hits[0].Column != "amount" {
		t.Errorf("strict hits = %+v", hits)
	}
	// Disjoint range.
	if hits := ix.NumericRangeSearch(5000, 9000, 0.1); len(hits) != 0 {
		t.Errorf("disjoint range hits = %+v", hits)
	}
	// Reversed bounds are normalized.
	if hits := ix.NumericRangeSearch(50, 0, 0.5); len(hits) != 2 {
		t.Errorf("reversed bounds hits = %+v", hits)
	}
}

func TestTemporalSearch(t *testing.T) {
	ix := NewIndex(demoTables())
	hits := ix.TemporalSearch("2020-06-01", "2020-12-31")
	if len(hits) != 1 || hits[0].TableID != "sales" {
		t.Errorf("2020 hits = %+v", hits)
	}
	hits = ix.TemporalSearch("2023/06/01", "2023/06/30")
	if len(hits) != 1 || hits[0].TableID != "temps" {
		t.Errorf("2023 hits = %+v", hits)
	}
	if hits := ix.TemporalSearch("1990-01-01", "1991-01-01"); len(hits) != 0 {
		t.Errorf("ancient hits = %+v", hits)
	}
}

func TestKeyCandidates(t *testing.T) {
	ix := NewIndex(demoTables())
	hits := ix.KeyCandidates(0.9, 5)
	// Only ids.uid is unique enough with >= 5 rows; note has card 1
	// and nulls; sales/temps have < 5 rows.
	if len(hits) != 1 || hits[0].TableID != "ids" || hits[0].Column != "uid" {
		t.Errorf("key candidates = %+v", hits)
	}
}

func TestIndexAccessors(t *testing.T) {
	ix := NewIndex(demoTables())
	if ix.Len() != 3 {
		t.Errorf("Len = %d", ix.Len())
	}
	if _, ok := ix.Profile("sales"); !ok {
		t.Error("Profile lookup failed")
	}
	if _, ok := ix.Profile("nope"); ok {
		t.Error("missing profile reported")
	}
	tp, _ := ix.Profile("sales")
	s := tp.FormatSummary()
	if !strings.Contains(s, "amount") || !strings.Contains(s, "range=") {
		t.Errorf("summary = %q", s)
	}
}

// TestProfilesEndToEnd profiles a generated lake: a table's profile
// counts its rows, and the generated metric columns are numeric, so a
// wide range search finds them.
func TestProfilesEndToEnd(t *testing.T) {
	gen := datagen.Generate(datagen.Config{
		Seed:              51,
		NumDomains:        12,
		DomainSize:        80,
		NumTemplates:      5,
		TablesPerTemplate: 4,
	})
	ix := NewIndexN(gen.Tables, 2)
	tp, ok := ix.Profile(gen.Tables[0].ID)
	if !ok {
		t.Fatal("no profile for first table")
	}
	if tp.Rows != gen.Tables[0].NumRows() {
		t.Error("profile rows wrong")
	}
	if hits := ix.NumericRangeSearch(-1e6, 1e6, 0); len(hits) == 0 {
		t.Error("no numeric columns found by range search")
	}
}
