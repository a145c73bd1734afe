package union

import (
	"context"
	"fmt"
	"slices"
	"strings"

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

// SantosBuilder analyzes tables for a SANTOS engine: add tables, then
// take their Parts (a delta's analysis) or Build the engine from them.
// It must not be used concurrently.
type SantosBuilder struct {
	curated *kb.KB
	values  *dict.Dict
	tables  map[string]*table.Table
	staged  []santosStaged
}

// santosStaged is one staged table's relationships, pairs still as
// strings.
type santosStaged struct {
	id   string
	rels []santosAnalysis
}

// santosAnalysis is one analyzed relationship: its distinct normalized
// (subject, object) value pairs in first-occurrence order, and its
// curated-KB annotation.
type santosAnalysis struct {
	colName  string
	pairs    [][2]string
	pred     string
	predFrac float64
}

// NewSantosBuilder creates a builder; curated may be nil (SynthOnly
// then). values is the lake-wide value dictionary, optional: when it
// holds every staged value, Parts encodes pairs in it, otherwise in
// one built over the staged values.
func NewSantosBuilder(curated *kb.KB, values *dict.Dict) *SantosBuilder {
	return &SantosBuilder{curated: curated, values: values, tables: make(map[string]*table.Table)}
}

// AddTables stages a batch of tables using up to workers goroutines:
// relationship extraction fans out per table, and registration commits
// sequentially in batch order, so the staged state is identical at
// any worker count. A table already staged, or without the intent
// column and second string column SANTOS needs, is skipped.
func (b *SantosBuilder) AddTables(tbls []*table.Table, workers int) {
	rels, _ := parallel.Map(len(tbls), workers, func(i int) ([]santosAnalysis, error) {
		return analyzeSantos(b.curated, tbls[i]), nil
	})
	for i, t := range tbls {
		if _, dup := b.tables[t.ID]; dup || rels[i] == nil {
			continue
		}
		b.tables[t.ID] = t
		b.staged = append(b.staged, santosStaged{id: t.ID, rels: rels[i]})
	}
}

// Parts returns the staged tables' relationships in sorted-ID order,
// every pair packed (see packPair) and gathered into the ascending pair
// list whose positions the relationships hold, and the dictionary the
// pairs' halves are IDs in: the configured one when it holds every
// staged value, otherwise one built over those values.
func (b *SantosBuilder) Parts() (*dict.Dict, SantosParts) {
	slices.SortFunc(b.staged, func(x, y santosStaged) int { return strings.Compare(x.id, y.id) })
	d := b.values
	packed, ok := b.pack(d)
	if !ok {
		db := dict.NewBuilder()
		for _, st := range b.staged {
			for _, r := range st.rels {
				for _, p := range r.pairs {
					db.Add(p[0], p[1])
				}
			}
		}
		d = db.Build()
		packed, _ = b.pack(d)
	}
	var all []uint64
	for _, p := range packed {
		all = append(all, p...)
	}
	slices.Sort(all)
	parts := SantosParts{Pairs: slices.Clip(slices.Compact(all)), Tables: make([]SantosTableParts, len(b.staged))}
	next := 0 // the next relationship's packed pairs
	for i, st := range b.staged {
		rels := make([]SantosRelParts, len(st.rels))
		for j, r := range st.rels {
			var ids dict.IDSet
			if len(packed[next]) > 0 {
				ids = make(dict.IDSet, len(packed[next]))
			}
			for k, p := range packed[next] {
				pos, _ := slices.BinarySearch(parts.Pairs, p)
				ids[k] = uint32(pos)
			}
			slices.Sort(ids)
			next++
			rels[j] = SantosRelParts{ColName: r.colName, PairIDs: ids, Pred: r.pred, PredFrac: r.predFrac}
		}
		parts.Tables[i] = SantosTableParts{ID: st.id, Rels: rels}
	}
	return d, parts
}

// pack returns every staged relationship's pairs packed from IDs of d,
// relationships in staged order, or false when d (which may be nil)
// lacks a value.
func (b *SantosBuilder) pack(d *dict.Dict) ([][]uint64, bool) {
	if d == nil {
		return nil, false
	}
	var packed [][]uint64
	for _, st := range b.staged {
		for _, r := range st.rels {
			pairs := make([]uint64, len(r.pairs))
			for k, p := range r.pairs {
				sub, ok := d.ID(p[0])
				obj, ok2 := d.ID(p[1])
				if !ok || !ok2 {
					return nil, false
				}
				pairs[k] = packPair(sub, obj)
			}
			packed = append(packed, pairs)
		}
	}
	return packed, true
}

// Build assembles the engine over the staged tables from their Parts.
func (b *SantosBuilder) Build() (*Santos, error) {
	d, parts := b.Parts()
	return NewSantosFromParts(b.curated, d, parts, func(id string) *table.Table { return b.tables[id] })
}

// packPair packs a (subject, object) pair of value IDs into one
// integer; packed pairs order as their (subject, object) IDs do.
func packPair(sub, obj uint32) uint64 { return uint64(sub)<<32 | uint64(obj) }

// analyzeSantos extracts a table's relationships: those between its
// intent column (the first usable string column) and each other
// string column, nil when the table has no second one.
func analyzeSantos(curated *kb.KB, tbl *table.Table) []santosAnalysis {
	if !SantosIndexes(tbl) {
		return nil
	}
	cols := stringColumns(tbl)
	intent := cols[0]
	rels := make([]santosAnalysis, 0, len(cols)-1)
	for _, c := range cols[1:] {
		rel := santosAnalysis{colName: c.Name}
		seen := make(map[[2]string]bool)
		for r := 0; r < tbl.NumRows(); r++ {
			p := [2]string{tokenize.Normalize(intent.Values[r]), tokenize.Normalize(c.Values[r])}
			if p[0] == "" || p[1] == "" || seen[p] {
				continue
			}
			seen[p] = true
			rel.pairs = append(rel.pairs, p)
		}
		if curated != nil && len(rel.pairs) > 0 {
			if pred, frac, ok := curated.DominantPredicate(rel.pairs); ok && frac >= 0.5 {
				rel.pred, rel.predFrac = pred, frac
			}
		}
		rels = append(rels, rel)
	}
	return rels
}

// Santos is a relationship-aware union search engine. A table is
// modeled as its intent column (the first usable string column, the
// subject of the table) plus the binary relationships between the
// intent column and every other column. A candidate is unionable when
// its columns AND its relationships align with the query's.
//
// An engine is built by a SantosBuilder or assembled from parts
// (NewSantosFromParts). Search is read-only and safe for
// concurrent use.
type Santos struct {
	curated *kb.KB
	tables  map[string]*santosTable
	ids     []string
	// values is the dictionary the pairs' halves are IDs in (a
	// system's lake dictionary), and pairs every distinct (subject,
	// object) pair the relationships hold, packed (see packPair) and
	// ascending. A pair's ID is its position in pairs, and
	// relationships hold sorted sets of them, so pair containment is an
	// integer merge.
	values *dict.Dict
	pairs  []uint64
	// The synthesized KB, mined from the lake itself: the tables
	// holding pair ID p are pairTables[pairOff[p]:pairOff[p+1]], as
	// ascending ordinals into ids, each once.
	pairOff    []uint32
	pairTables []int32
	// predTables maps a curated predicate to the ordinals of the tables
	// with a relationship annotated by it, ascending, each once.
	predTables map[string][]int32

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
	// pairIDs is the (subject, object) value-pair set as sorted pair
	// IDs, positions in Santos.pairs.
	pairIDs dict.IDSet
	// pred is the curated-KB dominant predicate, when covered.
	pred     string
	predFrac float64
}

// index builds the candidate indexes over the tables in ids order:
// the pair index's CSR arrays and the predicate index. Every
// relationship's pair IDs must lie below the pair count, as
// NewSantosFromParts checks them.
func (s *Santos) index() {
	n := len(s.pairs)
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

// NumPairs returns the number of distinct (subject, object) value
// pairs the relationships hold.
func (s *Santos) NumPairs() int { return len(s.pairs) }

// PairListFootprint reports the resident cost of the packed pair list,
// 8 bytes a pair, next to an estimate of the pair-token dictionary it
// replaced: each pair's subject "\n" object string, twice a string
// header, and a map entry with its 4-byte ID.
func (s *Santos) PairListFootprint() dict.Footprint {
	f := dict.Footprint{Count: len(s.pairs), Bytes: int64(len(s.pairs)) * 8}
	for _, p := range s.pairs {
		f.LegacyBytes += s.pairTokenBytes(p) + 2*dict.StringHeaderBytes + 4 + dict.MapEntryBytes
	}
	return f
}

// PairFootprint reports the resident cost of the ID-encoded pair sets
// next to an estimate of the per-relationship string maps they
// replaced, whose keys were the pairs' subject "\n" object strings.
func (s *Santos) PairFootprint() dict.Footprint {
	var f dict.Footprint
	for _, id := range s.ids {
		for _, rel := range s.tables[id].rels {
			f.Count += len(rel.pairIDs)
			f.Bytes += int64(len(rel.pairIDs)) * 4
			for _, p := range rel.pairIDs {
				f.LegacyBytes += s.pairTokenBytes(s.pairs[p]) + dict.StringHeaderBytes + dict.MapEntryBytes
			}
		}
	}
	return f
}

// pairTokenBytes is the length of a packed pair's subject "\n" object
// string.
func (s *Santos) pairTokenBytes(p uint64) int64 {
	return int64(len(s.values.Value(uint32(p>>32))) + 1 + len(s.values.Value(uint32(p))))
}

// Search returns the k tables whose relationships best align with the
// query's, under the given knowledge mode. Search is a pure read and
// safe for concurrent use; candidate verification fans out over
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
// engine's frozen pair list. Prepare once, then reuse across Candidates
// and ScoreAmong so staged planners do not re-encode per stage.
type SantosQuery struct {
	id string
	q  *santosTable
}

// Prepare analyzes a query table into relationships and encodes its
// pair sets against the frozen pair list: a pair whose halves are both
// values of the dictionary is looked up by binary search, and a pair
// absent from the lake gets an ephemeral ID at or past the pair count
// (never matching an indexed pair), shared between the query's
// relationships. A query that is an indexed table reuses its
// relationships (all its pairs are in the list). A query without the
// shape SANTOS needs wraps table.ErrBadQuery.
func (s *Santos) Prepare(query *table.Table) (*SantosQuery, error) {
	if st := s.tables[query.ID]; st != nil && st.tbl == query {
		return &SantosQuery{id: query.ID, q: st}, nil
	}
	rels := analyzeSantos(s.curated, query)
	if rels == nil {
		return nil, fmt.Errorf("union: query table needs an intent column and one other string column: %w", table.ErrBadQuery)
	}
	q := &santosTable{tbl: query, rels: make([]santosRel, len(rels))}
	var oov map[[2]string]uint32 // the ephemeral IDs given so far
	for i, r := range rels {
		ids := make(dict.IDSet, 0, len(r.pairs))
		for _, p := range r.pairs {
			id, ok := s.pairID(p)
			if !ok {
				if id, ok = oov[p]; !ok {
					if oov == nil {
						oov = make(map[[2]string]uint32)
					}
					id = uint32(len(s.pairs) + len(oov))
					oov[p] = id
				}
			}
			ids = append(ids, id)
		}
		slices.Sort(ids) // distinct pairs have distinct IDs
		q.rels[i] = santosRel{colName: r.colName, pairIDs: ids, pred: r.pred, predFrac: r.predFrac}
	}
	return &SantosQuery{id: query.ID, q: q}, nil
}

// pairID returns the ID of a (subject, object) pair of normalized
// values, if the lake holds it.
func (s *Santos) pairID(p [2]string) (uint32, bool) {
	sub, ok := s.values.ID(p[0])
	if !ok {
		return 0, false
	}
	obj, ok := s.values.ID(p[1])
	if !ok {
		return 0, false
	}
	i, ok := slices.BinarySearch(s.pairs, packPair(sub, obj))
	return uint32(i), ok
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
		marks = newQueryMarks(len(s.pairs))
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
