package union

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
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
	a := table.NewColumn("phone", []string{"555-0001", "555-1212", "555-8080"})
	b := table.NewColumn("phone_number", []string{"444-9999", "333-1111"})
	c := table.NewColumn("name", []string{"alice smith", "bob jones"})
	evAB := ColumnEvidence(d3lModel(), a, b)
	evAC := ColumnEvidence(d3lModel(), a, c)
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
	// phones2 shares no value with phones1, only its shape.
	d := builtD3L(t, d3lModel(), []*table.Table{mkPhones("phones1", 0), mkPhones("phones2", 1000), genes})
	if d.NumTables() != 3 {
		t.Fatal("staging failed")
	}
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
	if _, err := NewD3LBuilder(nil, nil); err == nil {
		t.Error("nil model should fail")
	}
	b, _ := NewD3LBuilder(d3lModel(), nil)
	numeric := table.MustNew("n", "n", []*table.Column{
		table.NewColumn("v", []string{"1", "2", "3"}),
	})
	b.AddTables([]*table.Table{numeric}, 1) // no string columns: skipped
	if _, p := b.Parts(); len(p.Tables) != 0 {
		t.Error("numeric-only table staged")
	}
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Search(context.Background(), numeric, 3); !errors.Is(err, table.ErrBadQuery) {
		t.Errorf("numeric-only query: err = %v, want ErrBadQuery", err)
	}
}

func TestD3LDuplicateAdd(t *testing.T) {
	b, _ := NewD3LBuilder(d3lModel(), nil)
	tbl := table.MustNew("t", "t", []*table.Column{
		table.NewColumn("a", []string{"x", "y"}),
	})
	b.AddTables([]*table.Table{tbl}, 1)
	b.AddTables([]*table.Table{tbl}, 1)
	if _, p := b.Parts(); len(p.Tables) != 1 {
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
// the name matcher scores analyzed labels with reused rows, so scoring
// ten times the tables costs not one allocation more, and a scan
// allocates a constant number of times.
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
	// The scan's scratch and the label matcher's rows are reused, so
	// what is left is a constant: the kept results and their sort.
	if limit := float64(8); many > limit {
		t.Errorf("ScoreAmong over %d tables: %v allocations, want at most %v", len(all), many, limit)
	}
}

// errAfter is a context whose Err reports cancellation from its n-th
// call on, so a test can cancel a scan at a chosen check.
type errAfter struct {
	context.Context
	calls, n int
}

func (c *errAfter) Err() error {
	if c.calls++; c.calls >= c.n {
		return context.Canceled
	}
	return nil
}

// d3lShapeLake is the serving benchmark's lake of templates×perTemplate
// tables with a model trained on it, and a D3L engine built over it.
func d3lShapeLake(tb testing.TB, templates, perTemplate int) (*datagen.Lake, *D3L) {
	tb.Helper()
	lake := datagen.Generate(datagen.Config{Seed: 1, NumDomains: 20, DomainSize: 80, NumTemplates: templates, TablesPerTemplate: perTemplate})
	model := embedding.Train(lake.ColumnContexts(), embedding.Config{Dim: 64, Seed: 3})
	return lake, builtD3L(tb, model, lake.Tables)
}

// TestD3LBoundPrunes: on the 300-table serving lake at k = 10, a
// staged query takes at most 15 % of the tables to pass 2's format
// step and scores exactly at most 15 % of them, and at k at least the
// lake size it scores every one. A cancelled context stops either
// pass.
func TestD3LBoundPrunes(t *testing.T) {
	lake, d := d3lShapeLake(t, 10, 30)
	ids := d.TableIDs()
	ctx := context.Background()
	limit := len(ids) * 15 / 100
	for qi := 0; qi < len(lake.Tables); qi += 23 {
		pq, err := d.Prepare(lake.Tables[qi])
		if err != nil {
			t.Fatal(err)
		}
		_, st, err := d.scoreAmong(ctx, pq, ids, 10)
		if err != nil {
			t.Fatal(err)
		}
		if st.formatted > limit || st.scored > limit {
			t.Errorf("query %s at k=10 formatted %d and scored %d of %d tables, want each at most %d",
				pq.id, st.formatted, st.scored, len(ids), limit)
		}
		for _, k := range []int{len(ids) - 1, len(ids), len(ids) + 5} {
			rs, st, err := d.scoreAmong(ctx, pq, ids, k)
			if err != nil {
				t.Fatal(err)
			}
			if st.formatted != len(ids)-1 || st.scored != len(ids)-1 || len(rs) != len(ids)-1 {
				t.Errorf("query %s at k=%d formatted %d, scored %d and kept %d of the %d other tables",
					pq.id, k, st.formatted, st.scored, len(rs), len(ids)-1)
			}
		}
	}
	pq, err := d.Prepare(lake.Tables[0])
	if err != nil {
		t.Fatal(err)
	}
	// Pass 1 checks ctx once per id; the next check is pass 2's.
	for _, n := range []int{1, len(ids), len(ids) + 1, len(ids) + 3} {
		if _, err := d.ScoreAmong(&errAfter{Context: ctx, n: n}, pq, ids, 10); !errors.Is(err, context.Canceled) {
			t.Errorf("context cancelled at check %d: err = %v, want context.Canceled", n, err)
		}
	}
}

var d3lBenchSink []Result

// BenchmarkD3LSearch is the whole-lake scan, queried by staged tables
// as the table_id endpoints do, over the lake shapes the serving
// benchmark uses: /300 is the serving workloads' lake, where the bound
// passes over most tables, and /100 the lifecycle workload's, where
// k = 10 reaches past the 9 same-template tables and it prunes little.
// /300/inline queries copies of the lake's tables under new IDs, as an
// inline query table arrives: Prepare analyzes and interns each one.
// /300/template scores each staged query among the tables of its own
// template only, 30 of 300: the allowed set discover's planner hands
// ScoreAmong when a predicate keeps one template (its tag).
func BenchmarkD3LSearch(b *testing.B) {
	search := func(b *testing.B, d *D3L, queries []*table.Table) {
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rs, err := d.Search(ctx, queries[i%len(queries)], 10)
			if err != nil {
				b.Fatal(err)
			}
			d3lBenchSink = rs
		}
	}
	for _, shape := range []struct{ templates, perTemplate int }{{10, 30}, {10, 10}} {
		name := fmt.Sprint(shape.templates * shape.perTemplate)
		lake, d := d3lShapeLake(b, shape.templates, shape.perTemplate)
		b.Run(name, func(b *testing.B) { search(b, d, lake.Tables) })
		if shape.perTemplate != 30 {
			continue
		}
		inline := make([]*table.Table, len(lake.Tables))
		for i, tbl := range lake.Tables {
			cols := make([]*table.Column, len(tbl.Columns))
			for j, c := range tbl.Columns {
				cols[j] = table.NewColumn(c.Name, c.Values)
			}
			inline[i] = table.MustNew("inline_"+tbl.ID, tbl.Name, cols)
		}
		b.Run(name+"/inline", func(b *testing.B) { search(b, d, inline) })
		byTemplate := make(map[string][]string)
		for _, id := range d.TableIDs() {
			tpl, _, _ := strings.Cut(id, "_")
			byTemplate[tpl] = append(byTemplate[tpl], id)
		}
		b.Run(name+"/template", func(b *testing.B) {
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := lake.Tables[i%len(lake.Tables)]
				pq, err := d.Prepare(q)
				if err != nil {
					b.Fatal(err)
				}
				tpl, _, _ := strings.Cut(q.ID, "_")
				rs, err := d.ScoreAmong(ctx, pq, byTemplate[tpl], 10)
				if err != nil {
					b.Fatal(err)
				}
				d3lBenchSink = rs
			}
		})
	}
}
