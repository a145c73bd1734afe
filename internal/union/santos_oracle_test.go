package union

import (
	"context"
	"reflect"
	"sort"
	"testing"

	"tablehound/internal/datagen"
	"tablehound/internal/dict"
	"tablehound/internal/kb"
	"tablehound/internal/snap"
	"tablehound/internal/table"
)

// santosOracle is SANTOS's retrieval and scoring as they stood before
// the scoring kernel and the flat pair index: a map from pair ID to
// the IDs of the tables holding it, a string set to deduplicate the
// candidates, and one sorted merge per (query relationship, candidate
// relationship) pair. The engine must retrieve, rank and score
// bit-identically to it.
type santosOracle struct {
	s         *Santos
	pairIndex map[uint32][]string
}

func newSantosOracle(s *Santos) *santosOracle {
	o := &santosOracle{s: s, pairIndex: make(map[uint32][]string)}
	for _, id := range s.ids {
		for _, rel := range s.tables[id].rels {
			for _, p := range rel.pairIDs {
				o.pairIndex[p] = append(o.pairIndex[p], id)
			}
		}
	}
	return o
}

func (o *santosOracle) candidates(q *santosTable, mode SantosMode) []string {
	seen := make(map[string]bool)
	var out []string
	add := func(id string) {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	if mode != CuratedOnly {
		for _, rel := range q.rels {
			for _, p := range rel.pairIDs {
				for _, id := range o.pairIndex[p] {
					add(id)
				}
			}
		}
	}
	if mode != SynthOnly {
		for _, rel := range q.rels {
			if rel.pred == "" {
				continue
			}
			for _, id := range o.s.ids {
				for _, crel := range o.s.tables[id].rels {
					if crel.pred == rel.pred {
						add(id)
					}
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

func (o *santosOracle) scoreAmong(pq *SantosQuery, ids []string, k int, mode SantosMode) []Result {
	var res []Result
	for _, id := range ids {
		if id == pq.id {
			continue
		}
		if score := santosOracleTableScore(pq.q, o.s.tables[id], mode); score > 0 {
			res = append(res, Result{TableID: id, Score: score})
		}
	}
	sortResults(res)
	if len(res) > k {
		res = res[:k]
	}
	return res
}

func santosOracleTableScore(q, c *santosTable, mode SantosMode) float64 {
	if len(q.rels) == 0 {
		return 0
	}
	var total float64
	for _, qr := range q.rels {
		best := 0.0
		for _, cr := range c.rels {
			if v := santosOracleRelScore(qr, cr, mode); v > best {
				best = v
			}
		}
		total += best
	}
	return total / float64(len(q.rels))
}

func santosOracleRelScore(a, b santosRel, mode SantosMode) float64 {
	var curated, synth float64
	if a.pred != "" && a.pred == b.pred {
		curated = (a.predFrac + b.predFrac) / 2
	}
	if mode != CuratedOnly {
		small, big := a.pairIDs, b.pairIDs
		if len(big) < len(small) {
			small, big = big, small
		}
		synth = dict.Containment(small, big)
	}
	switch {
	case mode == CuratedOnly, mode == Hybrid && a.pred != "" && b.pred != "":
		return curated
	default:
		return synth
	}
}

// builtSantos builds a SANTOS engine over tables, in a dictionary it
// builds over their values.
func builtSantos(t testing.TB, tables []*table.Table, curated *kb.KB) *Santos {
	t.Helper()
	b := NewSantosBuilder(curated, nil)
	b.AddTables(tables, 2)
	s, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// santosRebuilds returns s decoded from its snapshot and assembled from
// its parts: the other two ways an engine's indexes are made.
func santosRebuilds(t *testing.T, s *Santos, tables []*table.Table) map[string]*Santos {
	t.Helper()
	byID := make(map[string]*table.Table)
	for _, tbl := range tables {
		byID[tbl.ID] = tbl
	}
	lookup := func(id string) *table.Table { return byID[id] }
	e := new(snap.Encoder)
	s.AppendSnapshot(e, nil)
	loaded, err := loadSantos(e.Bytes(), s.curated, nil, lookup)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := NewSantosFromParts(s.curated, s.values, s.Parts(), lookup)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Santos{"built": s, "loaded": loaded, "parts": merged}
}

// TestSantosMatchesOracle compares SANTOS's candidates and
// ScoreAmong with the oracle, scores compared with ==, over several
// lakes, every mode with and without a curated KB, sequential and
// fanned-out scoring, on a built, a decoded and a parts-assembled
// engine, for staged queries (one holding a pair in two of its
// relationships), an inline copy of a staged table under
// its ID, inline queries with out-of-vocabulary pairs and a query of
// only unseen pairs; candidates are both the engine's and the whole
// lake.
func TestSantosMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		lake := datagen.Generate(datagen.Config{
			Seed: seed, NumDomains: 10, DomainSize: 40, NumTemplates: 5, TablesPerTemplate: 4,
			RowsMin: 8, RowsMax: 24, DisjointInstances: seed%2 == 0,
		})
		// A table whose two non-intent columns are one column twice
		// holds each of their pairs in two relationships.
		src := lake.Tables[int(seed*7)%len(lake.Tables)]
		twin := table.MustNew("twin", "twin", append(append([]*table.Column(nil), src.Columns...),
			table.NewColumn("again", stringColumns(src)[1].Values)))
		tables := append(append([]*table.Table(nil), lake.Tables...), twin)
		staged := lake.Tables[int(seed)%len(lake.Tables)]
		queries := []*table.Table{
			staged,
			lake.Tables[int(seed*5)%len(lake.Tables)],
			table.MustNew(staged.ID, staged.Name, staged.Columns),
			foreignQuery(lake.Tables[int(seed*3)%len(lake.Tables)], int(seed)),
			unseenQuery([]string{"name", "city", "country"}),
		}
		for _, useKB := range []bool{false, true} {
			var curated *kb.KB
			if useKB {
				curated = lake.BuildKB(0.9)
			}
			for how, s := range santosRebuilds(t, builtSantos(t, tables, curated), tables) {
				o := newSantosOracle(s)
				for _, q := range queries {
					pq, err := s.Prepare(q)
					if err != nil {
						t.Fatal(err)
					}
					for _, mode := range []SantosMode{CuratedOnly, SynthOnly, Hybrid} {
						cands := s.Candidates(pq, mode)
						if want := o.candidates(pq.q, mode); !reflect.DeepEqual(cands, want) {
							t.Fatalf("seed %d kb=%v %s query %s mode %v: candidates\n got %v\nwant %v",
								seed, useKB, how, q.ID, mode, cands, want)
						}
						for _, ids := range [][]string{cands, s.ids} {
							want := o.scoreAmong(pq, ids, 6, mode)
							for _, par := range []int{1, 3} {
								s.QueryParallelism = par
								got, err := s.ScoreAmong(context.Background(), pq, ids, 6, mode)
								if err != nil {
									t.Fatal(err)
								}
								if !reflect.DeepEqual(got, want) {
									t.Fatalf("seed %d kb=%v %s query %s mode %v par %d, %d ids:\n got %v\nwant %v",
										seed, useKB, how, q.ID, mode, par, len(ids), got, want)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestSantosScoreAmongAllocations: the scan reuses its marks and
// scratch and keeps k results, so scoring five times the tables costs
// not one allocation more, in every mode.
func TestSantosScoreAmongAllocations(t *testing.T) {
	lake := datagen.Generate(datagen.Config{Seed: 9, NumTemplates: 5, TablesPerTemplate: 10})
	s := builtSantos(t, lake.Tables, lake.BuildKB(0.9))
	s.QueryParallelism = 1
	pq, err := s.Prepare(lake.Tables[0])
	if err != nil {
		t.Fatal(err)
	}
	all := s.ids
	few := all[:len(all)/5]
	for _, mode := range []SantosMode{CuratedOnly, SynthOnly, Hybrid} {
		allocs := func(ids []string) float64 {
			return testing.AllocsPerRun(5, func() {
				if _, err := s.ScoreAmong(context.Background(), pq, ids, 5, mode); err != nil {
					t.Fatal(err)
				}
			})
		}
		if a, b := allocs(few), allocs(all); b > a {
			t.Errorf("mode %v: ScoreAmong allocations grow with the candidates: %v over %d tables, %v over %d",
				mode, a, len(few), b, len(all))
		}
	}
}

var santosBenchSink []Result

// BenchmarkSantosSearch is one hybrid-mode search, candidates and
// scoring on one goroutine, over the lake shape BenchmarkD3LSearch
// scans (the serving benchmark's: 300 tables), without a KB as a
// served system has. /staged queries by staged tables, as the table_id
// endpoints do; /inline sends copies of them under their own IDs,
// which Prepare analyzes and looks up in the pair list, as a routed
// shard that does not own the table does.
func BenchmarkSantosSearch(b *testing.B) {
	lake := datagen.Generate(datagen.Config{Seed: 1, NumDomains: 20, DomainSize: 80, NumTemplates: 10, TablesPerTemplate: 30})
	s := builtSantos(b, lake.Tables, nil)
	s.QueryParallelism = 1
	inline := make([]*table.Table, len(lake.Tables))
	for i, tb := range lake.Tables {
		inline[i] = table.MustNew(tb.ID, tb.Name, tb.Columns)
	}
	search := func(b *testing.B, queries []*table.Table) {
		ctx := context.Background()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rs, err := s.Search(ctx, queries[i%len(queries)], 10, Hybrid)
			if err != nil {
				b.Fatal(err)
			}
			santosBenchSink = rs
		}
	}
	b.Run("staged", func(b *testing.B) { search(b, lake.Tables) })
	b.Run("inline", func(b *testing.B) { search(b, inline) })
}
