package union

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"tablehound/internal/datagen"
	"tablehound/internal/embedding"
	"tablehound/internal/table"
)

func d3lModel() *embedding.Model {
	return embedding.Train(nil, embedding.Config{Dim: 48, Seed: 3})
}

func TestFormatSignature(t *testing.T) {
	phones := FormatSignature([]string{"555-0001", "555-9873", "555-1212"})
	names := FormatSignature([]string{"alice smith", "bob jones"})
	codes := FormatSignature([]string{"AB-12", "CD-99"})
	// Phones are digit+punct heavy; names are lower+space heavy.
	if phones[2] < 0.5 {
		t.Errorf("phone digit fraction = %v", phones[2])
	}
	if names[0] < 0.5 {
		t.Errorf("name lowercase fraction = %v", names[0])
	}
	// Same-format columns more similar than cross-format.
	phones2 := FormatSignature([]string{"444-1000", "333-2000"})
	if formatSimilarity(phones, phones2) <= formatSimilarity(phones, names) {
		t.Error("same-format similarity should beat cross-format")
	}
	if len(FormatSignature(nil)) != 9 {
		t.Error("empty signature wrong size")
	}
	_ = codes
}

func TestFormatExample(t *testing.T) {
	if got := FormatExample(FormatSignature([]string{"555-0001"})); got == "" || got == "invalid" {
		t.Errorf("FormatExample = %q", got)
	}
	if FormatExample([]float64{1}) != "invalid" {
		t.Error("short signature should be invalid")
	}
}

func TestColumnEvidenceSignals(t *testing.T) {
	d, err := NewD3L(d3lModel(), nil)
	if err != nil {
		t.Fatal(err)
	}
	a := table.NewColumn("phone", []string{"555-0001", "555-1212", "555-8080"})
	b := table.NewColumn("phone_number", []string{"444-9999", "333-1111"})
	c := table.NewColumn("name", []string{"alice smith", "bob jones"})
	evAB := d.ColumnEvidence(a, b)
	evAC := d.ColumnEvidence(a, c)
	if evAB.Value != 0 {
		t.Errorf("disjoint phones value overlap = %v", evAB.Value)
	}
	if evAB.Format <= evAC.Format {
		t.Error("format evidence should favor phone-phone")
	}
	if evAB.Name <= evAC.Name {
		t.Error("name evidence should favor phone-phone_number")
	}
	if evAB.Combined() <= evAC.Combined() {
		t.Errorf("combined %v should beat %v", evAB.Combined(), evAC.Combined())
	}
	// Combined is the mean of the five signals.
	want := (evAB.Name + evAB.Value + evAB.Format + evAB.Words + evAB.Embed) / 5
	if math.Abs(evAB.Combined()-want) > 1e-12 {
		t.Error("Combined is not the mean")
	}
}

func TestD3LSearchFindsRelatedTables(t *testing.T) {
	d, err := NewD3L(d3lModel(), nil)
	if err != nil {
		t.Fatal(err)
	}
	mkPhones := func(id string, offset int) *table.Table {
		ph := make([]string, 20)
		who := make([]string, 20)
		for i := range ph {
			ph[i] = fmt.Sprintf("555-%04d", offset+i)
			who[i] = fmt.Sprintf("person_%03d", offset+i)
		}
		return table.MustNew(id, id, []*table.Column{
			table.NewColumn("phone", ph),
			table.NewColumn("owner", who),
		})
	}
	genes := table.MustNew("genes", "genes", []*table.Column{
		table.NewColumn("gene", []string{"BRCA1", "TP53", "EGFR", "MYC"}),
		table.NewColumn("chrom", []string{"chr17", "chr17", "chr7", "chr8"}),
	})
	d.AddTable(mkPhones("phones1", 0))
	d.AddTable(mkPhones("phones2", 1000)) // zero value overlap, same shape
	d.AddTable(genes)
	if d.NumTables() != 3 {
		t.Fatal("staging failed")
	}
	if _, err := d.Search(context.Background(), mkPhones("query", 2000), 3); !errors.Is(err, ErrNotBuilt) {
		t.Fatalf("search before Build: err = %v, want ErrNotBuilt", err)
	}
	d.Build()
	res, err := d.Search(context.Background(), mkPhones("query", 2000), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("results = %+v", res)
	}
	// Both phone tables outrank the gene table despite no shared values.
	if res[0].TableID == "genes" || res[1].TableID == "genes" {
		t.Errorf("gene table ranked above a phone table: %+v", res)
	}
}

func TestD3LErrors(t *testing.T) {
	if _, err := NewD3L(nil, nil); err == nil {
		t.Error("nil model should fail")
	}
	d, _ := NewD3L(d3lModel(), nil)
	numeric := table.MustNew("n", "n", []*table.Column{
		table.NewColumn("v", []string{"1", "2", "3"}),
	})
	d.AddTable(numeric) // no string columns: skipped
	if d.NumTables() != 0 {
		t.Error("numeric-only table staged")
	}
	d.Build()
	if _, err := d.Search(context.Background(), numeric, 3); !errors.Is(err, table.ErrBadQuery) {
		t.Errorf("numeric-only query: err = %v, want ErrBadQuery", err)
	}
}

func TestD3LDuplicateAdd(t *testing.T) {
	d, _ := NewD3L(d3lModel(), nil)
	tbl := table.MustNew("t", "t", []*table.Column{
		table.NewColumn("a", []string{"x", "y"}),
	})
	d.AddTable(tbl)
	d.AddTable(tbl)
	if d.NumTables() != 1 {
		t.Error("duplicate add changed count")
	}
}

func TestD3LCancelledContext(t *testing.T) {
	lake := datagen.Generate(datagen.Config{Seed: 4, NumTemplates: 2, TablesPerTemplate: 3})
	d := builtD3L(t, d3lModel(), lake.Tables)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := d.Search(ctx, lake.Tables[0], 3); !errors.Is(err, context.Canceled) {
		t.Errorf("Search on a cancelled context: err = %v, want context.Canceled", err)
	}
	pq, err := d.Prepare(lake.Tables[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.ScoreAmong(ctx, pq, d.TableIDs(), 3); !errors.Is(err, context.Canceled) {
		t.Errorf("ScoreAmong on a cancelled context: err = %v, want context.Canceled", err)
	}
}

// TestD3LScoreAmongAllocations: a scan allocates its scratch once and
// the name matcher runs once per (query column, distinct label), so
// scoring ten times the tables over the same labels costs not one
// allocation more.
func TestD3LScoreAmongAllocations(t *testing.T) {
	const templates, perTemplate = 5, 20
	lake := datagen.Generate(datagen.Config{Seed: 9, NumTemplates: templates, TablesPerTemplate: perTemplate})
	d := builtD3L(t, d3lModel(), lake.Tables)
	pq, err := d.Prepare(lake.Tables[0])
	if err != nil {
		t.Fatal(err)
	}
	all := d.TableIDs()
	var twoPerTemplate []string
	for i, id := range all {
		if i%perTemplate < 2 {
			twoPerTemplate = append(twoPerTemplate, id)
		}
	}
	allocs := func(ids []string) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := d.ScoreAmong(context.Background(), pq, ids, 10); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, many := allocs(twoPerTemplate), allocs(all)
	if many > few {
		t.Errorf("ScoreAmong allocations grow with the candidates: %v over %d tables, %v over %d",
			few, len(twoPerTemplate), many, len(all))
	}
	// 16 covers the scan's own scratch; the rest is the name matcher's.
	if limit := float64(16 + 16*len(pq.qcols)*len(d.vocab.labels)); many > limit {
		t.Errorf("ScoreAmong over %d tables: %v allocations, want at most %v", len(all), many, limit)
	}
}

var d3lBenchSink []Result

// BenchmarkD3LSearch is the whole-lake scan over the shape of lake the
// serving benchmark uses (300 tables), queried by staged tables as the
// table_id endpoints do.
func BenchmarkD3LSearch(b *testing.B) {
	lake := datagen.Generate(datagen.Config{Seed: 1, NumDomains: 20, DomainSize: 80, NumTemplates: 10, TablesPerTemplate: 30})
	model := embedding.Train(lake.ColumnContexts(), embedding.Config{Dim: 64, Seed: 3})
	d := builtD3L(b, model, lake.Tables)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := d.Search(ctx, lake.Tables[i%len(lake.Tables)], 10)
		if err != nil {
			b.Fatal(err)
		}
		d3lBenchSink = rs
	}
}
