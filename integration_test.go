package tablehound

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"tablehound/internal/annotate"
	"tablehound/internal/apps"
	"tablehound/internal/core"
	"tablehound/internal/datagen"
	"tablehound/internal/lake"
	"tablehound/internal/metrics"
	"tablehound/internal/table"
	"tablehound/internal/union"
)

// buildIntegrationSystem generates a lake, persists it through the
// CSV path (exercising ingest), and builds the full system — the
// end-to-end pipeline a user of the library runs.
func buildIntegrationSystem(t *testing.T) (*core.System, *datagen.Lake) {
	t.Helper()
	gen := datagen.Generate(datagen.Config{
		Seed:              99,
		NumDomains:        14,
		DomainSize:        100,
		NumTemplates:      6,
		TablesPerTemplate: 5,
	})
	dir := t.TempDir()
	for _, tbl := range gen.Tables {
		f, err := os.Create(filepath.Join(dir, tbl.ID+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		if err := tbl.WriteCSV(f); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	cat, err := lake.LoadCSVDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cat.Len() != len(gen.Tables) {
		t.Fatalf("CSV round trip lost tables: %d vs %d", cat.Len(), len(gen.Tables))
	}
	// Reattach metadata lost by CSV (names/descriptions), as a user
	// with a metadata sidecar would.
	for _, tbl := range gen.Tables {
		got := cat.Table(tbl.ID)
		got.Name = tbl.Name
		got.Description = tbl.Description
		got.Tags = tbl.Tags
	}
	sys, err := core.Build(cat, core.Options{KB: gen.BuildKB(0.8), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return sys, gen
}

func TestEndToEndDiscoveryPipeline(t *testing.T) {
	sys, gen := buildIntegrationSystem(t)

	// 1. Keyword search reaches topically relevant tables.
	topic := gen.DomainNames[gen.Templates[2].Domains[0]]
	kres, err := sys.KeywordSearch(topic, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(kres) == 0 {
		t.Fatalf("keyword search for %q found nothing", topic)
	}

	// 2. Joinable search: a ground-truth same-domain column must
	// surface for a query column.
	qt := gen.Tables[7]
	qc := qt.Columns[0]
	jres, err := sys.JoinableColumns(qc.Values, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(jres) == 0 {
		t.Fatal("joinable search found nothing")
	}
	sameDomain := gen.SameDomainColumns(table.ColumnKey(qt.ID, qc.Name))
	foundSame := false
	for _, m := range jres {
		if sameDomain[m.ColumnKey] {
			foundSame = true
			break
		}
	}
	if !foundSame {
		t.Error("joinable results contain no ground-truth same-domain column")
	}

	// 3. Unionable search (all three engines) against ground truth.
	truth := gen.UnionableWith(qt.ID)
	check := func(name string, ids []string) {
		if p := metrics.PrecisionAtK(ids, truth, 3); p < 1.0/3 {
			t.Errorf("%s precision@3 = %v (ids %v)", name, p, ids)
		}
	}
	tres, err := sys.UnionableTables(qt, 3)
	if err != nil {
		t.Fatal(err)
	}
	check("tus", resultIDs(tres))
	sres, err := sys.Santos.Search(context.Background(), qt, 3, union.Hybrid)
	if err != nil {
		t.Fatal(err)
	}
	check("santos", resultIDs(sres))
	stres, err := sys.Starmie.SearchTables(context.Background(), qt, 3, 64, false)
	if err != nil {
		t.Fatal(err)
	}
	stIDs := make([]string, len(stres))
	for i, r := range stres {
		stIDs[i] = r.TableID
	}
	check("starmie", stIDs)

	// 4. Navigation reaches a table.
	labels, reached, err := sys.Navigate(topic)
	if err != nil || reached == "" || len(labels) == 0 {
		t.Errorf("navigation failed: %v %q %v", labels, reached, err)
	}

	// 5. Annotation round trip using lake ground truth for training.
	var examples []annotate.Example
	for _, tbl := range gen.Tables[:15] {
		for _, c := range tbl.Columns {
			if d, ok := gen.ColumnDomain[table.ColumnKey(tbl.ID, c.Name)]; ok {
				examples = append(examples, annotate.Example{Values: c.Values, Header: c.Name, Label: gen.DomainNames[d]})
			}
		}
	}
	annotator, err := annotate.Train(examples, annotate.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	preds := annotator.AnnotateTable(gen.Tables[20], true)
	hit, total := 0, 0
	for i, c := range gen.Tables[20].Columns {
		d, ok := gen.ColumnDomain[table.ColumnKey(gen.Tables[20].ID, c.Name)]
		if !ok {
			continue
		}
		total++
		if preds[i].Label == gen.DomainNames[d] {
			hit++
		}
	}
	if total > 0 && hit == 0 {
		t.Error("annotator got every ground-truth column wrong")
	}
}

func resultIDs(rs []union.Result) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.TableID
	}
	return out
}

func TestCatalogPersistenceWithSystemRebuild(t *testing.T) {
	gen := datagen.Generate(datagen.Config{
		Seed: 123, NumDomains: 8, DomainSize: 60, NumTemplates: 3, TablesPerTemplate: 3,
	})
	cat := lake.NewCatalog()
	for _, tbl := range gen.Tables {
		if err := cat.Add(tbl); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "lake.gob")
	if err := cat.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := lake.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.Build(back, core.Options{SkipOrganization: true})
	if err != nil {
		t.Fatal(err)
	}
	q := gen.Tables[0]
	res, err := sys.UnionableTables(back.Table(q.ID), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Error("system over reloaded catalog returned nothing")
	}
}

func TestAugmentationOverDiscoveredJoins(t *testing.T) {
	// Cross-module: join engine feeds the augmenter; ridge model
	// validates the discovered feature end to end.
	sys, gen := buildIntegrationSystem(t)
	base := gen.Tables[0]
	keyCol := base.Columns[0]
	// The generated numeric metric correlates with the entity index,
	// so tables of the same template provide real features.
	aug := apps.NewAugmenter(sys.Join, func(id string) *table.Table { return sys.Catalog.Table(id) })
	feats, err := aug.Discover(base, keyCol.Name, "metric_0", 3, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(feats) == 0 {
		t.Skip("no features above coverage threshold in this lake")
	}
	augmented, err := apps.Apply(base, feats)
	if err != nil {
		t.Fatal(err)
	}
	if augmented.NumCols() != base.NumCols()+len(feats) {
		t.Error("augmented table column count wrong")
	}
}

func TestHomographsInGeneratedLake(t *testing.T) {
	gen := datagen.Generate(datagen.Config{
		Seed: 77, NumDomains: 10, DomainSize: 50,
		NumTemplates: 8, TablesPerTemplate: 4, NumHomographs: 4,
		NoiseCols: -1, NumericCols: -1,
	})
	var cols []apps.ValueColumn
	for _, tbl := range gen.Tables {
		for _, c := range tbl.Columns {
			cols = append(cols, apps.ValueColumn{Key: table.ColumnKey(tbl.ID, c.Name), Values: c.Values})
		}
	}
	ranked := apps.DetectHomographs(cols, 8)
	truth := map[string]bool{}
	for _, h := range gen.Homographs {
		truth[h] = true
	}
	found := 0
	for _, r := range ranked {
		if truth[r.Value] {
			found++
		}
	}
	if found == 0 {
		t.Error("no planted homograph in top-8 centrality ranking")
	}
}
