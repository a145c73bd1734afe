package union

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"tablehound/internal/datagen"
	"tablehound/internal/dict"
	"tablehound/internal/embedding"
	"tablehound/internal/graph"
	"tablehound/internal/minhash"
	"tablehound/internal/schema"
	"tablehound/internal/table"
	"tablehound/internal/tokenize"
)

// d3lOracle is the D3L scoring path as it stood before columns were
// interned: every column pair rebuilds string sets and maps, shared
// words are collected and sorted per pair, the name matcher runs per
// pair, and the whole lake is collected and sorted. The engine must
// rank and score bit-identically to it.
type d3lOracle struct {
	model  *embedding.Model
	tables map[string][]*oracleColumn
}

type oracleColumn struct {
	col      *table.Column
	distinct []string
	format   []float64
	words    map[string]float64
	vec      embedding.Vector
}

func newD3LOracle(model *embedding.Model, tables []*table.Table) *d3lOracle {
	o := &d3lOracle{model: model, tables: make(map[string][]*oracleColumn)}
	for _, t := range tables {
		if cols := o.analyze(t); len(cols) > 0 {
			o.tables[t.ID] = cols
		}
	}
	return o
}

func (o *d3lOracle) analyze(t *table.Table) []*oracleColumn {
	var out []*oracleColumn
	for _, c := range stringColumns(t) {
		distinct := tokenize.NormalizeSet(c.Values)
		words := make(map[string]float64)
		var total float64
		for _, v := range distinct {
			for _, w := range tokenize.Words(v) {
				words[w]++
				total++
			}
		}
		for w := range words {
			words[w] /= total
		}
		out = append(out, &oracleColumn{
			col: c, distinct: distinct, format: FormatSignature(distinct),
			words: words, vec: o.model.ColumnVector(distinct),
		})
	}
	return out
}

func oracleWordSimilarity(a, b map[string]float64) float64 {
	small, big := a, b
	if len(big) < len(small) {
		small, big = big, small
	}
	shared := make([]string, 0, len(small))
	for w := range small {
		if _, ok := big[w]; ok {
			shared = append(shared, w)
		}
	}
	sort.Strings(shared)
	var s float64
	for _, w := range shared {
		s += math.Sqrt(small[w] * big[w])
	}
	return s
}

func oracleEvidence(a, b *oracleColumn) Evidence {
	return Evidence{
		Name:   (schema.NameMatcher{}).Score(a.col, b.col),
		Value:  minhash.ExactJaccard(a.distinct, b.distinct),
		Format: formatSimilarity(a.format, b.format),
		Words:  oracleWordSimilarity(a.words, b.words),
		Embed:  (embedding.Cosine(a.vec, b.vec) + 1) / 2,
	}
}

func (o *d3lOracle) scoreAmong(query *table.Table, ids []string, k int) []Result {
	qcols := o.analyze(query)
	var res []Result
	for _, id := range ids {
		if id == query.ID {
			continue
		}
		ccols := o.tables[id]
		w := make([][]float64, len(qcols))
		for i, qc := range qcols {
			w[i] = make([]float64, len(ccols))
			for j, cc := range ccols {
				w[i][j] = oracleEvidence(qc, cc).Combined()
			}
		}
		res = append(res, Result{TableID: id, Score: matchRows(w) / float64(len(qcols))})
	}
	sortResults(res)
	if len(res) > k {
		res = res[:k]
	}
	return res
}

// matchRows is the total weight of a maximum-weight matching of a
// weight matrix given as equal-length rows, as the scans computed it
// before they kept one flat matrix: the rows copied into one and
// matched by a fresh Matcher (graph's tests hold the Matcher to a
// per-call reference implementation).
func matchRows(w [][]float64) float64 {
	if len(w) == 0 {
		return 0
	}
	nl, nr := len(w), len(w[0])
	flat := make([]float64, 0, nl*nr)
	for _, row := range w {
		flat = append(flat, row...)
	}
	var m graph.Matcher
	return m.MaxWeight(flat, nl, nr)
}

// builtD3L stages and freezes a stand-alone engine over tables.
func builtD3L(t testing.TB, model *embedding.Model, tables []*table.Table) *D3L {
	t.Helper()
	return builtD3LOver(t, model, nil, tables)
}

// valueDict is the dictionary core builds over tables.
func valueDict(tables []*table.Table) *dict.Dict {
	b := dict.NewBuilder()
	for _, tbl := range tables {
		for _, c := range tbl.Columns {
			b.Add(tokenize.NormalizeSet(c.Values)...)
		}
	}
	return b.Build()
}

// builtD3LOver stages and freezes an engine over tables that takes its
// value IDs from lake.
func builtD3LOver(t testing.TB, model *embedding.Model, lake *dict.Dict, tables []*table.Table) *D3L {
	t.Helper()
	d, err := NewD3L(model, lake)
	if err != nil {
		t.Fatal(err)
	}
	for _, tbl := range tables {
		d.AddTable(tbl)
	}
	d.Build()
	return d
}

func checkAgainstOracle(t *testing.T, d *D3L, o *d3lOracle, query *table.Table, ids []string, k int, what string) {
	t.Helper()
	pq, err := d.Prepare(query)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	got, err := d.ScoreAmong(context.Background(), pq, ids, k)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if want := o.scoreAmong(query, ids, k); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s (query %s, %d ids, k=%d):\n got %v\nwant %v", what, query.ID, len(ids), k, got, want)
	}
}

// foreignQuery copies a lake table under a new ID, swapping some of
// its values for ones no lake column holds: values whose words the
// lake knows, values whose words it does not, and values with no word
// at all.
func foreignQuery(src *table.Table, seed int) *table.Table {
	cols := make([]*table.Column, len(src.Columns))
	for j, c := range src.Columns {
		vals := append([]string(nil), c.Values...)
		for r := range vals {
			switch (r + j + seed) % 5 {
			case 0:
				vals[r] = fmt.Sprintf("%s zzqx%d", vals[r], r%7)
			case 1:
				vals[r] = fmt.Sprintf("Unseen-%d_%d", seed, r)
			case 2:
				vals[r] = fmt.Sprintf("--%s--", string(rune('!'+r%10)))
			}
		}
		cols[j] = table.NewColumn(c.Name, vals)
	}
	return table.MustNew(fmt.Sprintf("foreign_%d", seed), "foreign", cols)
}

// wideQuery joins the string columns of tables, in order, into one
// query table of more than 64 string columns, each cut or cycled to
// rows values.
func wideQuery(t *testing.T, tables []*table.Table, rows int) *table.Table {
	t.Helper()
	var cols []*table.Column
	for _, tbl := range tables {
		for _, c := range stringColumns(tbl) {
			vals := make([]string, rows)
			for r := range vals {
				vals[r] = c.Values[r%len(c.Values)]
			}
			if wc := table.NewColumn(c.Name, vals); isStringColumn(wc) {
				cols = append(cols, wc)
			}
			if len(cols) > 64 {
				return table.MustNew("wide", "wide", cols)
			}
		}
	}
	t.Fatalf("the lake has only %d string columns, want more than 64", len(cols))
	return nil
}

// unseenQuery is a query none of whose values, and none of whose
// words, any lake column holds.
func unseenQuery(names []string) *table.Table {
	cols := make([]*table.Column, len(names))
	for j, name := range names {
		vals := make([]string, 10)
		for r := range vals {
			vals[r] = fmt.Sprintf("qzvx%d wqyj%d", r%(3+j), j)
		}
		cols[j] = table.NewColumn(name, vals)
	}
	return table.MustNew("unseen", "unseen", cols)
}

// TestD3LMatchesOracleOverSeeds compares rankings and scores with the
// oracle over generated lakes: staged queries (the analysis-reuse
// path), foreign queries with out-of-vocabulary values and words, ID
// subsets as the discover planner passes them, and k on both sides of
// the lake size. The engine's value IDs come, by seed, from a vocabulary
// of its own, from the lake's dictionary, or from a dictionary that
// lacks half the lake.
func TestD3LMatchesOracleOverSeeds(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		lake := datagen.Generate(datagen.Config{
			Seed: seed, NumDomains: 8, DomainSize: 30, NumTemplates: 4, TablesPerTemplate: 4,
			RowsMin: 8, RowsMax: 24, NumHomographs: 2, DisjointInstances: seed%2 == 0,
		})
		model := embedding.Train(lake.ColumnContexts(), embedding.Config{Dim: 24, Seed: uint64(seed)})
		var values *dict.Dict
		switch seed % 3 {
		case 1:
			values = valueDict(lake.Tables)
		case 2:
			values = valueDict(lake.Tables[:len(lake.Tables)/2])
		}
		d := builtD3LOver(t, model, values, lake.Tables)
		o := newD3LOracle(model, lake.Tables)
		all := d.TableIDs()
		var subset []string
		for i, id := range all {
			if (i+int(seed))%3 != 0 {
				subset = append(subset, id)
			}
		}
		staged := lake.Tables[int(seed)%len(lake.Tables)]
		foreign := foreignQuery(lake.Tables[int(seed*5)%len(lake.Tables)], int(seed))
		for _, q := range []*table.Table{staged, foreign} {
			checkAgainstOracle(t, d, o, q, all, 5, "whole lake")
			checkAgainstOracle(t, d, o, q, all, len(all)+10, "k beyond the lake")
			checkAgainstOracle(t, d, o, q, subset, 3, "id subset")
			checkAgainstOracle(t, d, o, q, subset[:1], 1, "single id")
			checkAgainstOracle(t, d, o, q, nil, 4, "no ids")
		}
		got, err := d.Search(context.Background(), foreign, 7)
		if err != nil {
			t.Fatal(err)
		}
		if want := o.scoreAmong(foreign, all, 7); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: Search differs from the oracle:\n got %v\nwant %v", seed, got, want)
		}
	}
}

// TestD3LMatchesOracleEdgeColumns covers what generated lakes lack:
// columns whose values hold no word, labels repeated within and across
// tables, labels that differ only before normalization, and a query
// that shares an ID with a staged table without being it.
func TestD3LMatchesOracleEdgeColumns(t *testing.T) {
	symbols := []string{"--", "!!", "??", "**", "++"}
	mixed := []string{"alpha beta", "--", "beta gamma", "!!", "gamma"}
	words := []string{"alpha", "beta gamma", "gamma delta", "delta", "alpha"}
	tables := []*table.Table{
		table.MustNew("a", "a", []*table.Column{
			table.NewColumn("Sym_Col", symbols),
			table.NewColumn("name", words),
			table.NewColumn("name", mixed),
		}),
		table.MustNew("b", "b", []*table.Column{
			table.NewColumn("sym-col", []string{"--", "!!", "??", "--", "!!"}),
			table.NewColumn("NAME", mixed),
		}),
		table.MustNew("c", "c", []*table.Column{
			table.NewColumn("sym col", []string{"~~", "^^", "~~", "^^", "~~"}),
			table.NewColumn("other", words),
			table.NewColumn("", mixed),
		}),
	}
	model := d3lModel()
	o := newD3LOracle(model, tables)
	queries := append([]*table.Table{
		table.MustNew("q", "q", []*table.Column{
			table.NewColumn("name", []string{"alpha", "epsilon zeta", "--"}),
			table.NewColumn("sym_col", []string{"--", "%%", "!!"}),
		}),
		// Same ID as a staged table, different content: must be analyzed
		// afresh, and still skips the staged table of that ID.
		table.MustNew("a", "a", []*table.Column{table.NewColumn("other", words)}),
	}, tables...)
	for _, values := range []*dict.Dict{nil, valueDict(tables), valueDict(tables[:1])} {
		d := builtD3LOver(t, model, values, tables)
		for _, q := range queries {
			for _, k := range []int{1, 2, 10} {
				checkAgainstOracle(t, d, o, q, d.TableIDs(), k, "edge columns")
			}
		}
	}
}

// TestD3LMatchesOracleWideAndUnseenQueries extends the D3L oracle
// comparison to a query of more than 64 string columns and a query
// whose every word is out of vocabulary.
func TestD3LMatchesOracleWideAndUnseenQueries(t *testing.T) {
	lake := datagen.Generate(datagen.Config{
		Seed: 5, NumDomains: 10, DomainSize: 40, NumTemplates: 5, TablesPerTemplate: 4, RowsMin: 8, RowsMax: 24,
	})
	model := embedding.Train(lake.ColumnContexts(), embedding.Config{Dim: 24, Seed: 5})
	o := newD3LOracle(model, lake.Tables)
	names := []string{"name", lake.Tables[0].Columns[0].Name, "zzunseen"}
	for _, values := range []*dict.Dict{nil, valueDict(lake.Tables)} {
		d := builtD3LOver(t, model, values, lake.Tables)
		for _, q := range []*table.Table{wideQuery(t, lake.Tables, 12), unseenQuery(names)} {
			checkAgainstOracle(t, d, o, q, d.TableIDs(), 5, "whole lake")
			checkAgainstOracle(t, d, o, q, d.TableIDs()[3:9], 2, "id subset")
		}
	}
}
