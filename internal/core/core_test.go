package core

import (
	"bytes"
	"context"
	"testing"

	"tablehound/internal/datagen"
	"tablehound/internal/lake"
)

func demoSystem(t *testing.T) (*System, *datagen.Lake) {
	t.Helper()
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
			t.Fatal(err)
		}
	}
	sys, err := Build(cat, Options{KB: gen.BuildKB(0.8), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return sys, gen
}

func TestBuildWiresEverything(t *testing.T) {
	sys, _ := demoSystem(t)
	if sys.Model == nil || sys.Dict == nil || sys.Keyword == nil || sys.Values == nil ||
		sys.Join == nil || sys.Fuzzy == nil || sys.TUS == nil || sys.Santos == nil ||
		sys.D3L == nil || sys.Starmie == nil || sys.Org == nil || sys.Graph == nil ||
		sys.Stats == nil || sys.Vecs == nil {
		t.Fatal("missing components")
	}
	if got := len(sys.BuildStats.Stages); got != 13 {
		t.Errorf("%d stages, want 13", got)
	}
	for _, st := range sys.BuildStats.Stages {
		if st.Skipped || st.Items < 0 {
			t.Errorf("stage %s of a default build: skipped %v, items %d", st.Name, st.Skipped, st.Items)
		}
	}
}

func TestValueSearchEndToEnd(t *testing.T) {
	sys, gen := demoSystem(t)
	// Query a concrete cell value from a table.
	val := gen.Tables[3].Columns[0].Values[0]
	clusters, err := sys.ValueSearch(val, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) == 0 {
		t.Fatalf("no clusters for value %q", val)
	}
	found := false
	for _, cl := range clusters {
		for _, id := range cl.TableIDs {
			if id == gen.Tables[3].ID {
				found = true
			}
		}
	}
	if !found {
		t.Error("table containing the value not in any cluster")
	}
}

func TestMatchSchemasEndToEnd(t *testing.T) {
	sys, gen := demoSystem(t)
	// Two tables of the same template share schema; combined matcher
	// aligns every template column.
	src, dst := gen.Tables[0], gen.Tables[1]
	corr := sys.MatchSchemas(src, dst, 0.4)
	if len(corr) < len(gen.Templates[0].Domains) {
		t.Errorf("correspondences = %d, want >= %d: %+v",
			len(corr), len(gen.Templates[0].Domains), corr)
	}
}

func TestD3LEndToEnd(t *testing.T) {
	sys, gen := demoSystem(t)
	q := gen.Tables[0]
	res, err := sys.D3L.Search(context.Background(), q, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("D3L found nothing")
	}
	// The five-evidence score should also surface the same-template
	// tables near the top.
	truth := gen.UnionableWith(q.ID)
	hit := false
	for _, r := range res {
		if truth[r.TableID] {
			hit = true
		}
	}
	if !hit {
		t.Errorf("no ground-truth unionable table in D3L top-3: %+v", res)
	}
}

func TestBuildEmptyCatalogFails(t *testing.T) {
	if _, err := Build(lake.NewCatalog(), Options{}); err == nil {
		t.Error("empty catalog should fail")
	}
}

func TestKeywordSearchEndToEnd(t *testing.T) {
	sys, gen := demoSystem(t)
	// Search for the first template's first domain name.
	topic := gen.DomainNames[gen.Templates[0].Domains[0]]
	res, err := sys.KeywordSearch(topic, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatalf("no results for topic %q", topic)
	}
}

func TestJoinableColumnsEndToEnd(t *testing.T) {
	sys, gen := demoSystem(t)
	q := gen.Tables[0].Columns[0]
	res, err := sys.JoinableColumns(q.Values, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("no joinable columns")
	}
	// The column itself is indexed and matches fully.
	if res[0].Containment < 0.99 {
		t.Errorf("top containment = %v", res[0].Containment)
	}
}

func TestUnionableTablesEndToEnd(t *testing.T) {
	sys, gen := demoSystem(t)
	q := gen.Tables[0]
	res, err := sys.UnionableTables(q, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("no unionable tables")
	}
	truth := gen.UnionableWith(q.ID)
	if !truth[res[0].TableID] {
		t.Errorf("top unionable %s not in ground truth", res[0].TableID)
	}
}

func TestNavigateEndToEnd(t *testing.T) {
	sys, gen := demoSystem(t)
	topic := gen.DomainNames[gen.Templates[0].Domains[0]]
	labels, tableID, err := sys.Navigate(topic)
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) == 0 || tableID == "" {
		t.Error("navigation returned nothing")
	}
	// SkipOrganization path.
	cat := lake.NewCatalog()
	for _, tbl := range gen.Tables[:4] {
		cat.Add(tbl)
	}
	sys2, err := Build(cat, Options{SkipOrganization: true, SkipFuzzy: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sys2.Navigate("x"); err == nil {
		t.Error("Navigate without organization should fail")
	}
	if sys2.Fuzzy != nil {
		t.Error("SkipFuzzy ignored")
	}
}

// TestMemStatsCountsLSHTables checks that the memory report accounts
// for the LSH band tables of the join engine and of TUS — rebuilt on
// every load, never serialized, and a third of the loaded heap while
// the report could not see them — the same on a loaded system as on
// the built one.
func TestMemStatsCountsLSHTables(t *testing.T) {
	sys, _ := demoSystem(t)
	var buf bytes.Buffer
	if err := sys.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(buf.Bytes()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	rows := func(s *System) map[string]MemEntry {
		m := make(map[string]MemEntry)
		for _, e := range s.MemStats().Entries {
			m[e.Name] = e
		}
		return m
	}
	built := rows(sys)
	for _, name := range []string{"join-lsh", "tus-lsh"} {
		e, ok := built[name]
		if !ok {
			t.Fatalf("no %s row in %+v", name, sys.MemStats().Entries)
		}
		if e.Sets == 0 || e.Count < e.Sets || e.Bytes <= int64(e.Count)*4 || e.LegacyBytes <= e.Bytes {
			t.Errorf("%s = %+v: want entries for every set, bytes beyond the bare ordinals, and a costlier legacy form", name, e)
		}
		if got := rows(loaded)[name]; got != e {
			t.Errorf("%s of the loaded system = %+v, built %+v", name, got, e)
		}
	}
	if total := sys.MemStats().Totals(); total.Bytes < built["join-lsh"].Bytes+built["tus-lsh"].Bytes {
		t.Errorf("total %d B leaves out the LSH rows", total.Bytes)
	}
}
