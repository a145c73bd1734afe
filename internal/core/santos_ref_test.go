package core

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"tablehound/internal/datagen"
	"tablehound/internal/kb"
	"tablehound/internal/lake"
	"tablehound/internal/table"
	"tablehound/internal/tokenize"
	"tablehound/internal/union"
)

// santosRefRel is one relationship as SANTOS keyed it before its pairs
// were encoded at all: the set of subject "\n" object tokens of its
// normalized values, and its curated annotation.
type santosRefRel struct {
	tokens   map[string]bool
	pred     string
	predFrac float64
}

// santosRefAnalyze returns a table's relationships — its first string
// column related to each other one — or nil when it has no second
// string column.
func santosRefAnalyze(curated *kb.KB, t *table.Table) []santosRefRel {
	var cols []*table.Column
	for _, c := range t.Columns {
		if (c.Type == table.TypeString || c.Type == table.TypeDate || c.Type == table.TypeUnknown) && c.Cardinality() >= 2 {
			cols = append(cols, c)
		}
	}
	if len(cols) < 2 {
		return nil
	}
	var rels []santosRefRel
	for _, c := range cols[1:] {
		rel := santosRefRel{tokens: make(map[string]bool)}
		var pairs [][2]string
		for r := range c.Values {
			a, b := tokenize.Normalize(cols[0].Values[r]), tokenize.Normalize(c.Values[r])
			if a == "" || b == "" || rel.tokens[a+"\n"+b] {
				continue
			}
			rel.tokens[a+"\n"+b] = true
			pairs = append(pairs, [2]string{a, b})
		}
		if curated != nil && len(pairs) > 0 {
			if pred, frac, ok := curated.DominantPredicate(pairs); ok && frac >= 0.5 {
				rel.pred, rel.predFrac = pred, frac
			}
		}
		rels = append(rels, rel)
	}
	return rels
}

// santosRefScore is the alignment of query relationships q with a
// candidate's c: per query relationship the best of its scores against
// c's, averaged. Synthesized evidence is the share of the smaller token
// set the two sets hold in common.
func santosRefScore(q, c []santosRefRel, mode union.SantosMode) float64 {
	var total float64
	for _, qr := range q {
		best := 0.0
		for _, cr := range c {
			var curated, synth float64
			if qr.pred != "" && qr.pred == cr.pred {
				curated = (qr.predFrac + cr.predFrac) / 2
			}
			if n := min(len(qr.tokens), len(cr.tokens)); n > 0 {
				inter := 0
				for tok := range qr.tokens {
					if cr.tokens[tok] {
						inter++
					}
				}
				synth = float64(inter) / float64(n)
			}
			v := synth
			if mode == union.CuratedOnly || mode == union.Hybrid && qr.pred != "" && cr.pred != "" {
				v = curated
			}
			best = max(best, v)
		}
		total += best
	}
	return total / float64(len(q))
}

// santosRef answers a SANTOS query over a lake's tables from raw token
// sets: the sorted candidates (a shared token, or in the curated modes
// a shared predicate) and the top k of the candidates by score, the
// query's own ID skipped and scores of 0 dropped.
func santosRef(curated *kb.KB, tables []*table.Table, query *table.Table, mode union.SantosMode, k int) ([]string, []union.Result) {
	q := santosRefAnalyze(curated, query)
	var cands []string
	var res []union.Result
	for _, t := range tables {
		c := santosRefAnalyze(curated, t)
		hit := false
		for _, qr := range q {
			for _, cr := range c {
				if mode != union.CuratedOnly {
					for tok := range qr.tokens {
						hit = hit || cr.tokens[tok]
					}
				}
				hit = hit || mode != union.SynthOnly && qr.pred != "" && qr.pred == cr.pred
			}
		}
		if !hit {
			continue
		}
		cands = append(cands, t.ID)
		if score := santosRefScore(q, c, mode); t.ID != query.ID && score > 0 {
			res = append(res, union.Result{TableID: t.ID, Score: score})
		}
	}
	sort.Strings(cands)
	sort.Slice(res, func(i, j int) bool {
		if res[i].Score != res[j].Score {
			return res[i].Score > res[j].Score
		}
		return res[i].TableID < res[j].TableID
	})
	return cands, res[:min(k, len(res))]
}

// santosRefQueries derives inline queries from a lake table src with
// two string columns (subject, object): rows with an out-of-vocabulary
// subject, object or both, an object column repeated (each of its
// pairs in two relationships), and every row twice.
func santosRefQueries(src *table.Table) []*table.Table {
	subj, obj := src.Columns[0], src.Columns[1]
	oov := func(values []string, tag string) []string {
		out := append([]string(nil), values...)
		for r := 0; r < len(out); r += 3 {
			out[r] = fmt.Sprintf("zzz %s %d", tag, r)
		}
		return out
	}
	mk := func(id string, cols ...*table.Column) *table.Table { return table.MustNew(id, id, cols) }
	return []*table.Table{
		mk("q-oov-subject", table.NewColumn(subj.Name, oov(subj.Values, "subject")), obj),
		mk("q-oov-object", subj, table.NewColumn(obj.Name, oov(obj.Values, "object"))),
		mk("q-oov-both", table.NewColumn(subj.Name, oov(subj.Values, "subject")), table.NewColumn(obj.Name, oov(obj.Values, "object"))),
		mk("q-twice", subj, obj, table.NewColumn("again", obj.Values)),
		mk("q-duplicate-rows", table.NewColumn(subj.Name, append(subj.Values, subj.Values...)), table.NewColumn(obj.Name, append(obj.Values, obj.Values...))),
	}
}

// TestSantosMatchesReference holds SANTOS's candidates and scores,
// compared with ==, to santosRef, which keys pairs by their raw
// normalized strings as the engine did before it encoded them, so an
// encoding that merged two pairs, split one, or changed a
// relationship's pair count would show. It checks a built, a loaded, a
// parts-assembled and a chain-merged engine (a delta that adds tables
// and tombstones one), with and without a KB, in every mode, for lake
// tables, their inline copies with out-of-vocabulary subjects, objects
// or both, a query holding a pair in two relationships, one with every
// row twice, and the tombstoned table.
func TestSantosMatchesReference(t *testing.T) {
	gen := datagen.Generate(datagen.Config{Seed: 7, NumTemplates: 4, TablesPerTemplate: 4})
	all := append([]*table.Table(nil), gen.Tables...)
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	baseTables, added := all[:len(all)-3], all[len(all)-3:]
	removed := baseTables[2]
	var src *table.Table // the first table whose first two columns relate
	for _, tb := range all {
		if len(tb.Columns) >= 2 && len(santosRefAnalyze(nil, table.MustNew("x", "x", tb.Columns[:2]))) == 1 {
			src = tb
			break
		}
	}
	if src == nil {
		t.Fatal("no table whose first two columns are string columns")
	}
	inline := append(santosRefQueries(src), table.MustNew("q-removed", removed.Name, removed.Columns))
	for _, withKB := range []bool{false, true} {
		var curated *kb.KB
		if withKB {
			curated = gen.BuildKB(0.8)
		}
		opts := Options{KB: curated, Seed: 3, SkipFuzzy: true, SkipGraph: true, SkipOrganization: true}
		for how, sys := range santosRefEngines(t, opts, baseTables, added, removed) {
			tables := sys.tables
			queries := append([]*table.Table{tables[0], tables[len(tables)/2], all[len(all)/2]}, inline...)
			for _, q := range queries {
				pq, err := sys.santos.Prepare(q)
				if err != nil {
					t.Fatalf("kb=%v %s query %s: %v", withKB, how, q.ID, err)
				}
				for _, mode := range []union.SantosMode{union.CuratedOnly, union.SynthOnly, union.Hybrid} {
					wantCands, want := santosRef(curated, tables, q, mode, 6)
					cands := sys.santos.Candidates(pq, mode)
					if !reflect.DeepEqual(cands, wantCands) {
						t.Fatalf("kb=%v %s query %s mode %v: candidates\n got %v\nwant %v", withKB, how, q.ID, mode, cands, wantCands)
					}
					got, err := sys.santos.ScoreAmong(context.Background(), pq, cands, 6, mode)
					if err != nil {
						t.Fatal(err)
					}
					if len(got) == 0 && len(want) == 0 {
						continue
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("kb=%v %s query %s mode %v:\n got %v\nwant %v", withKB, how, q.ID, mode, got, want)
					}
				}
			}
		}
	}
}

// santosRefEngine is a SANTOS engine and the tables of its lake.
type santosRefEngine struct {
	santos *union.Santos
	tables []*table.Table
}

// santosRefEngines returns the four engines TestSantosMatchesReference
// reads: built over base, loaded from its snapshot, reassembled from
// the built one's parts, and merged by a chain load of base plus a
// delta adding added and removing removed.
func santosRefEngines(t *testing.T, opts Options, base, added []*table.Table, removed *table.Table) map[string]santosRefEngine {
	t.Helper()
	cat := lake.NewCatalog()
	if err := cat.AddBatch(base); err != nil {
		t.Fatal(err)
	}
	built, err := Build(cat, opts)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(saved(t, built)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := union.NewSantosFromParts(built.KB, built.Dict, built.Santos.Parts(), built.Catalog.Table)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	basePath := filepath.Join(dir, "base.snap")
	if err := built.SaveFile(basePath); err != nil {
		t.Fatal(err)
	}
	d, err := BuildDelta(basePath, nil, added, []string{removed.ID}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	deltaPath := filepath.Join(dir, "d1.thdb")
	if err := d.SaveFile(deltaPath); err != nil {
		t.Fatal(err)
	}
	chain, err := LoadChainFiles(basePath, []string{deltaPath}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	engine := func(s *System) santosRefEngine { return santosRefEngine{s.Santos, s.Catalog.Tables()} }
	return map[string]santosRefEngine{
		"built": engine(built), "loaded": engine(loaded), "chain": engine(chain),
		"parts": {parts, built.Catalog.Tables()},
	}
}
