package core

import (
	"bytes"
	"context"
	"testing"

	"tablehound/internal/annotate"
	"tablehound/internal/datagen"
	"tablehound/internal/lake"
	"tablehound/internal/table"
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
	if sys.Model == nil || sys.Keyword == nil || sys.Join == nil ||
		sys.Fuzzy == nil || sys.Mate == nil || sys.TUS == nil ||
		sys.Santos == nil || sys.Starmie == nil || sys.Org == nil ||
		sys.Values == nil || sys.Profiles == nil || sys.Entities == nil {
		t.Fatal("missing components")
	}
	if sys.Corr == nil {
		t.Error("correlation engine missing despite numeric columns")
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

func TestProfilesEndToEnd(t *testing.T) {
	sys, gen := demoSystem(t)
	tp, ok := sys.Profiles.Profile(gen.Tables[0].ID)
	if !ok {
		t.Fatal("no profile for first table")
	}
	if tp.Rows != gen.Tables[0].NumRows() {
		t.Error("profile rows wrong")
	}
	// The generated metric column is numeric and must be range-
	// searchable.
	hits := sys.Profiles.NumericRangeSearch(-1e6, 1e6, 0)
	if len(hits) == 0 {
		t.Error("no numeric columns found by range search")
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

func TestAugmentEntitiesEndToEnd(t *testing.T) {
	sys, gen := demoSystem(t)
	// Use a template table's first two columns as the relation; two
	// rows as examples, ask for a third entity.
	tbl := gen.Tables[0]
	ents := tbl.Columns[0].Values
	vals := tbl.Columns[1].Values
	examples := map[string]string{ents[0]: vals[0]}
	// Find a second distinct example and a target entity.
	var target string
	for i := 1; i < len(ents); i++ {
		if ents[i] != ents[0] {
			if len(examples) < 2 {
				examples[ents[i]] = vals[i]
			} else {
				target = ents[i]
				break
			}
		}
	}
	if target == "" {
		t.Skip("not enough distinct entities")
	}
	got := sys.AugmentEntities([]string{target}, examples)
	if len(got) == 0 {
		t.Fatalf("no augmentation for %q", target)
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

func TestAnnotateEndToEnd(t *testing.T) {
	sys, gen := demoSystem(t)
	if _, err := sys.AnnotateTable(gen.Tables[0]); err == nil {
		t.Error("annotation before training should fail")
	}
	var examples []annotate.Example
	for _, tbl := range gen.Tables[:10] {
		for _, c := range tbl.Columns {
			if d, ok := gen.ColumnDomain[table.ColumnKey(tbl.ID, c.Name)]; ok {
				examples = append(examples, annotate.Example{
					Values: c.Values, Header: c.Name, Label: gen.DomainNames[d],
				})
			}
		}
	}
	if err := sys.TrainAnnotator(examples); err != nil {
		t.Fatal(err)
	}
	preds, err := sys.AnnotateTable(gen.Tables[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != gen.Tables[0].NumCols() {
		t.Errorf("predictions = %d", len(preds))
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
