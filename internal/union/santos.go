package union

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"

	"tablehound/internal/dict"
	"tablehound/internal/kb"
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
	// The synthesized KB, mined from the lake itself: the tables
	// holding pair ID p are pairTables[pairOff[p]:pairOff[p+1]], as
	// ascending ordinals into ids, each once.
	pairOff    []uint32
	pairTables []int32
	// predTables maps a curated predicate to the ordinals of the tables
	// with a relationship annotated by it, ascending, each once.
	predTables map[string][]int32
	built      bool

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
		curated: curated,
		tables:  make(map[string]*santosTable),
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
	if !SantosIndexes(tbl) {
		return nil
	}
	cols := stringColumns(tbl)
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
// pair set to sorted IDs, and indexes the tables by pair and by
// predicate. Relationships encoded by an earlier Build are first
// decoded through the old dictionary — IDs from two dictionaries must
// never mix.
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
	for _, id := range s.ids {
		for i := range s.tables[id].rels {
			rel := &s.tables[id].rels[i]
			rel.pairIDs, _ = s.pairDict.EncodeKnown(rel.pairs)
			rel.pairs = nil
		}
	}
	s.index()
	s.built = true
	return nil
}

// index builds the candidate indexes over the tables in ids order:
// the pair index's CSR arrays and the predicate index. Every
// relationship's pair IDs must lie below the pair dictionary's size,
// as Build encodes them and DecodeSantosSnapshot checks them.
func (s *Santos) index() {
	n := s.pairDict.Size()
	s.pairOff = make([]uint32, n+1)
	s.predTables = make(map[string][]int32)
	last := make([]int32, n) // 1 + the ordinal of the last table counted for a pair
	for ti, id := range s.ids {
		o := int32(ti)
		for _, rel := range s.tables[id].rels {
			for _, p := range rel.pairIDs {
				if last[p] != o+1 {
					last[p] = o + 1
					s.pairOff[p+1]++
				}
			}
			if rel.pred == "" {
				continue
			}
			if ts := s.predTables[rel.pred]; len(ts) == 0 || ts[len(ts)-1] != o {
				s.predTables[rel.pred] = append(ts, o)
			}
		}
	}
	for p := 0; p < n; p++ {
		s.pairOff[p+1] += s.pairOff[p]
	}
	s.pairTables = make([]int32, s.pairOff[n])
	next := last // reused as each pair's write cursor
	for p := range next {
		next[p] = int32(s.pairOff[p])
	}
	for ti, id := range s.ids {
		o := int32(ti)
		for _, rel := range s.tables[id].rels {
			for _, p := range rel.pairIDs {
				if c := next[p]; uint32(c) == s.pairOff[p] || s.pairTables[c-1] != o {
					s.pairTables[c] = o
					next[p]++
				}
			}
		}
	}
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
// Search. Each of the QueryParallelism workers scores the tables it
// takes with its own reused scratch, reading each candidate
// relationship's pair IDs once against every query relationship (see
// queryMarks), so allocations do not grow with len(ids).
func (s *Santos) ScoreAmong(ctx context.Context, pq *SantosQuery, ids []string, k int, mode SantosMode) ([]Result, error) {
	q := pq.q
	var marks *queryMarks // only synthesized evidence reads overlaps
	if mode != CuratedOnly {
		marks = newQueryMarks(s.pairDict.Size())
		defer marks.release()
		for i, rel := range q.rels {
			marks.add(i, rel.pairIDs, nil)
		}
	}
	return scoreAmong(ctx, ids, pq.id, s.QueryParallelism, len(q.rels), k, func(id string, sc *scanScratch) float64 {
		return tableScore(marks, q, s.tables[id], mode, sc)
	})
}

// candidates returns the sorted IDs of the tables sharing a value pair
// with the query (unless mode is CuratedOnly) or a curated predicate
// (unless mode is SynthOnly). It gathers ordinals, and ids is sorted,
// so sorting them sorts the IDs.
func (s *Santos) candidates(q *santosTable, mode SantosMode) []string {
	sc := candidateScratchPool.Get().(*candidateScratch)
	defer candidateScratchPool.Put(sc)
	sc.tables.Reset(len(s.ids))
	ords := sc.ords[:0]
	if mode != CuratedOnly {
		n := uint32(len(s.pairOff) - 1)
		for _, rel := range q.rels {
			for _, p := range rel.pairIDs {
				if p >= n { // the query's own pair, in no table
					continue
				}
				for _, o := range s.pairTables[s.pairOff[p]:s.pairOff[p+1]] {
					if sc.tables.Add(o) {
						ords = append(ords, o)
					}
				}
			}
		}
	}
	if mode != SynthOnly {
		for _, rel := range q.rels {
			if rel.pred == "" {
				continue
			}
			for _, o := range s.predTables[rel.pred] {
				if sc.tables.Add(o) {
					ords = append(ords, o)
				}
			}
		}
	}
	sc.ords = ords
	if len(ords) == 0 {
		return nil
	}
	slices.Sort(ords)
	out := make([]string, len(ords))
	for i, o := range ords {
		out[i] = s.ids[o]
	}
	return out
}

// tableScore averages, over the query's relationships, the best
// relationship alignment found in the candidate. marks, nil in
// CuratedOnly mode, count each candidate relationship's pair overlap
// with every query relationship in one pass; sc.words holds the bests.
func tableScore(marks *queryMarks, q, c *santosTable, mode SantosMode, sc *scanScratch) float64 {
	if len(q.rels) == 0 {
		return 0
	}
	best := sc.words
	clear(best)
	for _, cr := range c.rels {
		if marks != nil {
			marks.overlaps(cr.pairIDs, sc.inter)
		}
		for i, qr := range q.rels {
			if v := relScore(qr, cr, int(sc.inter[i]), mode); v > best[i] {
				best[i] = v
			}
		}
	}
	var total float64
	for _, b := range best {
		total += b
	}
	return total / float64(len(q.rels))
}

// relScore scores one relationship pair sharing inter value pairs.
// Curated predicate equality is decisive evidence; synthesized
// evidence is the containment of the smaller pair set in the larger.
func relScore(a, b santosRel, inter int, mode SantosMode) float64 {
	var curated, synth float64
	if a.pred != "" && a.pred == b.pred {
		curated = (a.predFrac + b.predFrac) / 2
	}
	if mode != CuratedOnly {
		if n := min(len(a.pairIDs), len(b.pairIDs)); n > 0 {
			synth = float64(inter) / float64(n)
		}
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
