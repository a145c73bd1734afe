package union

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"tablehound/internal/datagen"
	"tablehound/internal/dict"
	"tablehound/internal/embedding"
	"tablehound/internal/graph"
	"tablehound/internal/minhash"
	"tablehound/internal/schema"
	"tablehound/internal/snap"
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

// builtD3LOver builds an engine over tables that takes its value IDs
// from lake.
func builtD3LOver(t testing.TB, model *embedding.Model, lake *dict.Dict, tables []*table.Table) *D3L {
	t.Helper()
	b, err := NewD3LBuilder(model, lake)
	if err != nil {
		t.Fatal(err)
	}
	b.AddTables(tables, 2)
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
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

// d3lRoundTrips returns an engine over tables that takes its value IDs
// from values as built, as decoded from its snapshot section, and as
// assembled from the parts of a staged-only engine sent through the
// delta codec (a delta's scratch build, whose parts travel in the
// dictionary they were encoded in).
func d3lRoundTrips(t *testing.T, model *embedding.Model, values *dict.Dict, tables []*table.Table) []struct {
	what string
	d    *D3L
} {
	t.Helper()
	lookup := tablesByID(tables)
	built := builtD3LOver(t, model, values, tables)
	e := new(snap.Encoder)
	built.AppendSnapshot(e, values)
	decoded, err := loadD3L(e.Bytes(), model, values, lookup)
	if err != nil {
		t.Fatal(err)
	}
	fromParts := d3lFromCodecParts(t, model, values, tables)
	return []struct {
		what string
		d    *D3L
	}{{"built", built}, {"snapshot round trip", decoded}, {"delta parts round trip", fromParts}}
}

// TestD3LMatchesOracleOverSeeds compares rankings and scores with the
// oracle over generated lakes: staged queries (the analysis-reuse
// path), foreign queries with out-of-vocabulary values and words, ID
// subsets as the discover planner passes them, and k on both sides of
// the lake size. The engine's value IDs come, by seed, from a
// dictionary of its own, from the lake's dictionary, or from one that
// lacks half the lake (which the engine then replaces with its own),
// and each engine is checked as built, after a snapshot round trip and
// after a delta-parts round trip.
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
		o := newD3LOracle(model, lake.Tables)
		for _, eng := range d3lRoundTrips(t, model, values, lake.Tables) {
			d := eng.d
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
				checkAgainstOracle(t, d, o, q, all, 5, eng.what+", whole lake")
				checkAgainstOracle(t, d, o, q, all, len(all)+10, eng.what+", k beyond the lake")
				checkAgainstOracle(t, d, o, q, subset, 3, eng.what+", id subset")
				checkAgainstOracle(t, d, o, q, subset[:1], 1, eng.what+", single id")
				checkAgainstOracle(t, d, o, q, nil, 4, eng.what+", no ids")
			}
			got, err := d.Search(context.Background(), foreign, 7)
			if err != nil {
				t.Fatal(err)
			}
			if want := o.scoreAmong(foreign, all, 7); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d, %s: Search differs from the oracle:\n got %v\nwant %v", seed, eng.what, got, want)
			}
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

// oracleLake is the generated lake of TestD3LMatchesOracleOverSeeds
// for a seed, with the engine over it (value IDs from its own
// dictionary, the lake's dictionary or half of it, by seed) and the
// oracle.
func oracleLake(t *testing.T, seed int64, extra func([]*table.Table) []*table.Table) ([]*table.Table, *D3L, *d3lOracle) {
	t.Helper()
	lake := datagen.Generate(datagen.Config{
		Seed: seed, NumDomains: 8, DomainSize: 30, NumTemplates: 4, TablesPerTemplate: 4,
		RowsMin: 8, RowsMax: 24, NumHomographs: 2, DisjointInstances: seed%2 == 0,
	})
	tables := lake.Tables
	if extra != nil {
		tables = extra(tables)
	}
	model := embedding.Train(lake.ColumnContexts(), embedding.Config{Dim: 24, Seed: uint64(seed)})
	var values *dict.Dict
	switch seed % 3 {
	case 1:
		values = valueDict(tables)
	case 2:
		values = valueDict(tables[:len(tables)/2])
	}
	return tables, builtD3LOver(t, model, values, tables), newD3LOracle(model, tables)
}

// TestD3LMatchesOracleOverKAndSubsets holds the bounded scan to the
// oracle at k from 1 to past the lake, over the whole lake and over
// seeded random ID subsets — kept in lake order, as the discover
// planner passes an allowed set, and shuffled.
func TestD3LMatchesOracleOverKAndSubsets(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		tables, d, o := oracleLake(t, seed, nil)
		all := d.TableIDs()
		rng := rand.New(rand.NewSource(seed))
		staged := tables[rng.Intn(len(tables))]
		foreign := foreignQuery(tables[rng.Intn(len(tables))], int(seed))
		for _, q := range []*table.Table{staged, foreign} {
			for _, k := range []int{1, 3, 10, len(all) - 1, len(all) + 5} {
				checkAgainstOracle(t, d, o, q, all, k, "whole lake")
			}
			for r := 0; r < 4; r++ {
				var subset []string
				for _, id := range all {
					if rng.Intn(2) == 0 {
						subset = append(subset, id)
					}
				}
				if r%2 == 1 {
					rng.Shuffle(len(subset), func(i, j int) { subset[i], subset[j] = subset[j], subset[i] })
				}
				for _, k := range []int{1, 3, 10, len(subset) + 5} {
					checkAgainstOracle(t, d, o, q, subset, k, fmt.Sprintf("random subset %d", r))
				}
			}
		}
	}
}

// TestD3LMatchesOracleWithTies duplicates tables under new IDs, one
// sorting before its original and one after, so exact score ties fall
// across the k-th place: the bounded scan must keep the tied tables
// with the smaller IDs, as the oracle's full sort does, also when the
// IDs come in descending order and the scan meets the larger ones
// first. A staged query with copies ties at the top, where a copy's
// score is its bound give or take the rounding of its word and
// embedding evidence.
func TestD3LMatchesOracleWithTies(t *testing.T) {
	withCopies := func(tables []*table.Table) []*table.Table {
		out := slices.Clone(tables)
		for i, tbl := range tables {
			if i%2 != 0 {
				continue
			}
			for _, id := range []string{"a_" + tbl.ID, tbl.ID + "_copy"} {
				cols := make([]*table.Column, len(tbl.Columns))
				for j, c := range tbl.Columns {
					cols[j] = table.NewColumn(c.Name, c.Values)
				}
				out = append(out, table.MustNew(id, tbl.Name, cols))
			}
		}
		return out
	}
	straddled := 0
	for seed := int64(1); seed <= 8; seed++ {
		tables, d, o := oracleLake(t, seed, withCopies)
		all := d.TableIDs()
		descending := slices.Clone(all)
		slices.Reverse(descending)
		for _, q := range []*table.Table{tables[0], tables[int(seed)%len(tables)], foreignQuery(tables[int(seed*3)%len(tables)], int(seed))} {
			ranked := o.scoreAmong(q, all, len(all))
			// The first few ties down the ranking, where the bound prunes most.
			for k, n := 1, 0; k < len(ranked) && n < 4; k++ {
				if ranked[k-1].Score == ranked[k].Score {
					checkAgainstOracle(t, d, o, q, all, k, "tie at the k-th place")
					checkAgainstOracle(t, d, o, q, descending, k, "tie at the k-th place, IDs descending")
					n++
					straddled++
				}
			}
		}
	}
	if straddled < 10 {
		t.Fatalf("only %d ties across the k-th place, want at least 10", straddled)
	}
}

// TestD3LPostingsPassMatchesMerge holds pass 1's intersection counts,
// read from the value index, to the merge of the two columns' value
// IDs, for every query column and staged column: on a built engine, one
// assembled from its parts and one decoded from its snapshot section,
// with staged queries and inline ones (out-of-vocabulary values, and a
// query sharing no value). Each engine also ranks as the oracle does
// over the candidate sets the discover planner's allowed-set filter
// passes: every third ID, none, and all but the query's own table.
func TestD3LPostingsPassMatchesMerge(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		tables, built, o := oracleLake(t, seed, nil)
		lookup := func(id string) *table.Table {
			for _, tbl := range tables {
				if tbl.ID == id {
					return tbl
				}
			}
			return nil
		}
		fromParts, err := NewD3LFromParts(built.model, built.dict, built.Parts(), lookup)
		if err != nil {
			t.Fatal(err)
		}
		e := new(snap.Encoder)
		built.AppendSnapshot(e, nil)
		decoded, err := loadD3L(e.Bytes(), built.model, nil, lookup)
		if err != nil {
			t.Fatal(err)
		}
		staged := tables[int(seed)%len(tables)]
		queries := []*table.Table{staged, foreignQuery(tables[int(seed*5)%len(tables)], int(seed)), unseenQuery([]string{"name", "zzunseen"})}
		for _, eng := range []struct {
			what string
			d    *D3L
		}{{"built", built}, {"from parts", fromParts}, {"decoded", decoded}} {
			d := eng.d
			shared := 0
			for _, q := range queries {
				pq, err := d.Prepare(q)
				if err != nil {
					t.Fatal(err)
				}
				nq := len(pq.qcols)
				sc := newScanScratch(nq)
				counts := d.intersections(pq, sc)
				cols := 0
				for _, id := range d.TableIDs() {
					tbl := d.tables[id]
					if tbl.first != cols {
						t.Fatalf("seed %d, %s: table %s starts at column %d, want %d", seed, eng.what, id, tbl.first, cols)
					}
					for j, cc := range tbl.cols {
						for i, qc := range pq.qcols {
							got, want := int(counts[(tbl.first+j)*nq+i]), dict.Overlap(qc.valueIDs, cc.valueIDs)
							if got != want {
								t.Fatalf("seed %d, %s, query %s: column %d against %s.%d: postings count %d, merge %d",
									seed, eng.what, q.ID, i, id, j, got, want)
							}
							if q == staged {
								shared += got
							}
						}
					}
					cols += len(tbl.cols)
				}
				freeScratch.put(sc)
				if cols != d.values.n || len(counts) != cols*nq {
					t.Fatalf("seed %d, %s: %d staged columns, index over %d, %d counts for %d query columns",
						seed, eng.what, cols, d.values.n, len(counts), nq)
				}
			}
			if shared == 0 {
				t.Fatalf("seed %d, %s: the staged query shares no value with the lake", seed, eng.what)
			}
			all := d.TableIDs()
			var thirds, others []string
			for i, id := range all {
				if i%3 == 0 {
					thirds = append(thirds, id)
				}
				if id != staged.ID {
					others = append(others, id)
				}
			}
			for _, q := range queries[:2] {
				checkAgainstOracle(t, d, o, q, thirds, 4, eng.what+", every third id")
				checkAgainstOracle(t, d, o, q, all[:0:0], 4, eng.what+", no allowed id")
				checkAgainstOracle(t, d, o, q, others, 5, eng.what+", without the staged query's table")
			}
		}
	}
}
