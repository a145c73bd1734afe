package core

import (
	"bytes"
	"reflect"
	"testing"

	"tablehound/internal/datagen"
	"tablehound/internal/lake"
	"tablehound/internal/table"
	"tablehound/internal/tokenize"
)

func statsFixture(t *testing.T) ([]*table.Table, *CatalogStats) {
	t.Helper()
	gen := datagen.Generate(datagen.Config{Seed: 9, NumTemplates: 3, TablesPerTemplate: 3})
	return gen.Tables, BuildCatalogStats(gen.Tables)
}

// TestCatalogStatsCountsExact checks every marginal count the cost
// model consumes against a brute-force census of the same tables.
func TestCatalogStatsCountsExact(t *testing.T) {
	tables, st := statsFixture(t)
	n := len(tables)
	if st.Tables != n {
		t.Fatalf("Tables = %d, want %d", st.Tables, n)
	}
	wantCols := 0
	for _, tbl := range tables {
		wantCols += tbl.NumCols()
	}
	if st.Columns != wantCols {
		t.Errorf("Columns = %d, want %d", st.Columns, wantCols)
	}

	ranges := []struct{ min, max int }{
		{0, 0}, {1, 0}, {0, 10}, {5, 40}, {1000000, 0}, {0, 1}, {3, 3},
	}
	for _, r := range ranges {
		want := 0
		for _, tbl := range tables {
			rows := tbl.NumRows()
			if (r.min <= 0 || rows >= r.min) && (r.max <= 0 || rows <= r.max) {
				want++
			}
		}
		if got := st.CountRows(r.min, r.max); got != want {
			t.Errorf("CountRows(%d,%d) = %d, want %d", r.min, r.max, got, want)
		}
		want = 0
		for _, tbl := range tables {
			cols := tbl.NumCols()
			if (r.min <= 0 || cols >= r.min) && (r.max <= 0 || cols <= r.max) {
				want++
			}
		}
		if got := st.CountCols(r.min, r.max); got != want {
			t.Errorf("CountCols(%d,%d) = %d, want %d", r.min, r.max, got, want)
		}
	}

	// Column-name DF: every distinct name, plus a case variant, plus a
	// missing name.
	names := map[string]bool{"No Such Column Anywhere": true}
	for _, tbl := range tables {
		for _, c := range tbl.Columns {
			names[c.Name] = true
		}
	}
	for name := range names {
		want := 0
		for _, tbl := range tables {
			for _, c := range tbl.Columns {
				if tokenize.Normalize(c.Name) == tokenize.Normalize(name) {
					want++
					break
				}
			}
		}
		if got := st.CountColName(name); got != want {
			t.Errorf("CountColName(%q) = %d, want %d", name, got, want)
		}
	}

	for _, ty := range []table.Type{table.TypeBool, table.TypeInt, table.TypeFloat, table.TypeDate, table.TypeString} {
		want := 0
		for _, tbl := range tables {
			for _, c := range tbl.Columns {
				if c.Type == ty {
					want++
					break
				}
			}
		}
		if got := st.CountType(ty); got != want {
			t.Errorf("CountType(%v) = %d, want %d", ty, got, want)
		}
	}
}

// TestCatalogStatsRebuiltOnLoad checks that the stats block a load
// rebuilds from the decoded catalog equals the one the build computed:
// snapshots do not store it, so this is the built ≡ loaded contract
// for the cost model's input.
func TestCatalogStatsRebuiltOnLoad(t *testing.T) {
	tables, want := statsFixture(t)
	cat := lake.NewCatalog()
	if err := cat.AddBatch(tables); err != nil {
		t.Fatal(err)
	}
	sys, err := Build(cat, Options{SkipFuzzy: true, SkipGraph: true, SkipOrganization: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sys.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sys.Stats, want) || !reflect.DeepEqual(loaded.Stats, want) {
		t.Errorf("stats: built %+v, loaded %+v, want %+v", sys.Stats, loaded.Stats, want)
	}
}
