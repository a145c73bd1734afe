package union

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"tablehound/internal/dict"
	"tablehound/internal/kb"
	"tablehound/internal/parallel"
	"tablehound/internal/table"
	"tablehound/internal/tokenize"
)

// SantosMode selects which knowledge source annotates relationships.
type SantosMode int

// Modes. Hybrid prefers the curated KB where it covers the pair and
// falls back to the synthesized (lake-mined) evidence elsewhere —
// exploiting the precision/coverage trade-off the tutorial discusses.
const (
	CuratedOnly SantosMode = iota
	SynthOnly
	Hybrid
)

func (m SantosMode) String() string {
	switch m {
	case CuratedOnly:
		return "curated"
	case SynthOnly:
		return "synth"
	case Hybrid:
		return "hybrid"
	}
	return "unknown"
}

// Santos is a relationship-aware union search engine. A table is
// modeled as its intent column (the first usable string column, the
// subject of the table) plus the binary relationships between the
// intent column and every other column. A candidate is unionable when
// its columns AND its relationships align with the query's.
//
// Search is read-only and safe for concurrent use once Build has
// returned; AddTable/Build must not run concurrently with Search.
type Santos struct {
	curated *kb.KB
	tables  map[string]*santosTable
	ids     []string
	// pairDict interns every "subject||object" pair token mined from
	// the lake; relationships hold sorted ID sets over it, so pair
	// containment is an integer merge. Rebuilt by Build (the pair
	// vocabulary is lake-derived, never external).
	pairDict *dict.Dict
	// pairIndex maps a pair token ID to tables containing it — the
	// synthesized KB, mined from the lake itself.
	pairIndex map[uint32][]string
	built     bool

	// QueryParallelism bounds the per-query candidate-verification
	// fan-out in Search: 0 = GOMAXPROCS, negative or 1 = sequential.
	// Results are bit-identical at every setting. Set before serving
	// queries.
	QueryParallelism int
}

type santosTable struct {
	tbl *table.Table
	// rels[i] holds the relationship between the intent column and
	// non-intent column i.
	rels []santosRel
}

type santosRel struct {
	colName string
	// pairs holds the "subject||object" value-pair tokens between
	// staging and Build; Build encodes them into pairIDs and clears the
	// slice. Query relationships are encoded immediately.
	pairs []string
	// pairIDs is the same token set as sorted pair-dictionary IDs.
	pairIDs dict.IDSet
	// pred is the curated-KB dominant predicate, when covered.
	pred     string
	predFrac float64
}

// NewSantos creates an engine; curated may be nil (SynthOnly then).
func NewSantos(curated *kb.KB) *Santos {
	return &Santos{
		curated:   curated,
		tables:    make(map[string]*santosTable),
		pairIndex: make(map[uint32][]string),
	}
}

// AddTable stages a table.
func (s *Santos) AddTable(tbl *table.Table) {
	if _, dup := s.tables[tbl.ID]; dup {
		return
	}
	st := s.analyze(tbl)
	if st == nil {
		return
	}
	s.tables[tbl.ID] = st
	s.ids = append(s.ids, tbl.ID)
	s.built = false
}

// analyze extracts the intent column and its relationships.
func (s *Santos) analyze(tbl *table.Table) *santosTable {
	cols := stringColumns(tbl)
	if len(cols) < 2 {
		return nil
	}
	intent := cols[0]
	st := &santosTable{tbl: tbl}
	for _, c := range cols[1:] {
		rel := santosRel{colName: c.Name}
		seen := make(map[string]bool)
		var kbPairs [][2]string
		for r := 0; r < tbl.NumRows(); r++ {
			a := tokenize.Normalize(intent.Values[r])
			b := tokenize.Normalize(c.Values[r])
			if a == "" || b == "" {
				continue
			}
			tok := a + "||" + b
			if !seen[tok] {
				seen[tok] = true
				rel.pairs = append(rel.pairs, tok)
				kbPairs = append(kbPairs, [2]string{a, b})
			}
		}
		if s.curated != nil && len(kbPairs) > 0 {
			if pred, frac, ok := s.curated.DominantPredicate(kbPairs); ok && frac >= 0.5 {
				rel.pred, rel.predFrac = pred, frac
			}
		}
		st.rels = append(st.rels, rel)
	}
	return st
}

// Build freezes the synthesized pair index: it interns the pair
// vocabulary into a fresh dictionary, encodes every relationship's
// pair set to sorted IDs, and indexes pair ID -> owning tables.
// Relationships encoded by an earlier Build are first decoded through
// the old dictionary — IDs from two dictionaries must never mix.
func (s *Santos) Build() error {
	if len(s.tables) == 0 {
		return errors.New("union: no tables added to SANTOS")
	}
	sort.Strings(s.ids)
	db := dict.NewBuilder()
	for _, id := range s.ids {
		for i := range s.tables[id].rels {
			rel := &s.tables[id].rels[i]
			if rel.pairs == nil && rel.pairIDs != nil {
				rel.pairs = s.pairDict.Decode(rel.pairIDs)
			}
			db.Add(rel.pairs...)
		}
	}
	s.pairDict = db.Build()
	s.pairIndex = make(map[uint32][]string)
	for _, id := range s.ids {
		for i := range s.tables[id].rels {
			rel := &s.tables[id].rels[i]
			rel.pairIDs, _ = s.pairDict.EncodeKnown(rel.pairs)
			rel.pairs = nil
			for _, p := range rel.pairIDs {
				s.pairIndex[p] = append(s.pairIndex[p], id)
			}
		}
	}
	s.built = true
	return nil
}

// NumTables returns the number of indexed tables.
func (s *Santos) NumTables() int { return len(s.tables) }

// PairDict returns the pair-token dictionary (nil before Build).
func (s *Santos) PairDict() *dict.Dict { return s.pairDict }

// PairFootprint reports the resident cost of the ID-encoded pair sets
// next to an estimate of the per-relationship string maps they
// replaced.
func (s *Santos) PairFootprint() dict.Footprint {
	var f dict.Footprint
	for _, id := range s.ids {
		for _, rel := range s.tables[id].rels {
			f.Accumulate(s.pairDict.SetFootprint(rel.pairIDs))
		}
	}
	return f
}

// Search returns the k tables whose relationships best align with the
// query's, under the given knowledge mode. Search is a pure read: it
// requires a prior Build (ErrNotBuilt otherwise) and is safe for
// concurrent use; candidate verification fans out over
// QueryParallelism workers with bit-identical results and checks ctx
// between candidate tables. A query table without the shape SANTOS
// needs wraps table.ErrBadQuery.
func (s *Santos) Search(ctx context.Context, query *table.Table, k int, mode SantosMode) ([]Result, error) {
	pq, err := s.Prepare(query)
	if err != nil {
		return nil, err
	}
	return s.ScoreAmong(ctx, pq, s.Candidates(pq, mode), k, mode)
}

// SantosQuery is a query table analyzed and pair-encoded against the
// frozen pair dictionary. Prepare once, then reuse across Candidates
// and ScoreAmong so staged planners do not re-encode per stage.
type SantosQuery struct {
	id string
	q  *santosTable
}

// Prepare analyzes a query table into relationships and encodes its
// pair sets against the frozen pair dictionary. One encoder across
// relationships: pairs absent from the lake get ephemeral IDs (never
// matching an indexed pair) that are shared between query
// relationships. A query that is a staged table reuses its staged
// relationships (all its pairs are in the dictionary). A query without
// the shape SANTOS needs wraps table.ErrBadQuery.
func (s *Santos) Prepare(query *table.Table) (*SantosQuery, error) {
	if !s.built {
		return nil, ErrNotBuilt
	}
	if st := s.tables[query.ID]; st != nil && st.tbl == query {
		return &SantosQuery{id: query.ID, q: st}, nil
	}
	q := s.analyze(query)
	if q == nil {
		return nil, fmt.Errorf("union: query table needs an intent column and one other string column: %w", table.ErrBadQuery)
	}
	enc := s.pairDict.Encoder()
	for i := range q.rels {
		q.rels[i].pairIDs = enc.Encode(q.rels[i].pairs)
		q.rels[i].pairs = nil
	}
	return &SantosQuery{id: query.ID, q: q}, nil
}

// Candidates returns the sorted candidate table IDs for a prepared
// query: tables sharing any value pair with the query, plus (curated
// modes) tables sharing a predicate.
func (s *Santos) Candidates(pq *SantosQuery, mode SantosMode) []string {
	return s.candidates(pq.q, mode)
}

// ScoreAmong exactly scores the given candidate tables and returns
// the top k; with ids = Candidates(pq, mode) it is bit-identical to
// Search.
func (s *Santos) ScoreAmong(ctx context.Context, pq *SantosQuery, ids []string, k int, mode SantosMode) ([]Result, error) {
	scores, err := parallel.MapCtx(ctx, len(ids), parallel.Resolve(s.QueryParallelism), func(i int) (float64, error) {
		if ids[i] == pq.id {
			return 0, nil
		}
		return s.tableScore(pq.q, s.tables[ids[i]], mode), nil
	})
	if err != nil {
		return nil, err
	}
	var res []Result
	for i, id := range ids {
		if id == pq.id {
			continue
		}
		if scores[i] > 0 {
			res = append(res, Result{TableID: id, Score: scores[i]})
		}
	}
	sortResults(res)
	if len(res) > k {
		res = res[:k]
	}
	return res, nil
}

func (s *Santos) candidates(q *santosTable, mode SantosMode) []string {
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
				for _, id := range s.pairIndex[p] {
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
			for _, id := range s.ids {
				for _, crel := range s.tables[id].rels {
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

// tableScore averages, over the query's relationships, the best
// relationship alignment found in the candidate.
func (s *Santos) tableScore(q, c *santosTable, mode SantosMode) float64 {
	if len(q.rels) == 0 {
		return 0
	}
	var total float64
	for _, qr := range q.rels {
		best := 0.0
		for _, cr := range c.rels {
			if v := relScore(qr, cr, mode); v > best {
				best = v
			}
		}
		total += best
	}
	return total / float64(len(q.rels))
}

// relScore scores one relationship pair. Curated predicate equality is
// decisive evidence; synthesized evidence is the containment of the
// smaller pair set in the larger.
func relScore(a, b santosRel, mode SantosMode) float64 {
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
	switch mode {
	case CuratedOnly:
		return curated
	case SynthOnly:
		return synth
	default:
		if a.pred != "" && b.pred != "" {
			// Both covered: trust the curated verdict (including a
			// decisive mismatch — different predicates mean different
			// relationships even when value pairs overlap).
			return curated
		}
		return synth
	}
}
