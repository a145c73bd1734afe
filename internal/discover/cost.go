// Planner cost model: per-prefilter selectivity and cost estimates
// derived from the build-time catalog statistics block
// (core.CatalogStats) plus the postings lengths already persisted in
// the keyword and join indexes. The planner orders prefilters by
// estimated (cost × survivor fraction) and elides stages that provably
// admit every table; because prefilters intersect commutatively, every
// ordering — and every elision of a provably-total stage — yields
// bit-identical results, so the estimates only ever move work, never
// answers.
package discover

import (
	"math"
	"sort"

	"tablehound/internal/tokenize"
)

// Order selects the planner's prefilter ordering policy.
type Order byte

const (
	// OrderCost (the default) orders prefilters by estimated
	// (cost × survivor fraction), skips provably-total stages, and
	// evaluates a later stage over the narrowed allowed set when that
	// is cheaper than a full-lake pass.
	OrderCost Order = iota
	// OrderFixed runs prefilters in the fixed cheap→expensive
	// declaration order (meta, keyword, values), always over the full
	// lake — the pre-cost-model baseline the parity tests and the e25
	// experiment compare against.
	OrderFixed
)

// stagePlan carries one planned prefilter's cost-model estimates.
type stagePlan struct {
	name string
	// sel is the estimated fraction of lake tables the stage admits
	// (the product of its predicate factors' marginal fractions).
	sel float64
	// cost is the estimated full-lake evaluation cost in deterministic
	// work units (per-table predicate checks, or posting entries).
	cost int64
	// unit is the per-table cost of the stage's restricted evaluation
	// path; 0 when the stage has none (keyword and values always run
	// their full path).
	unit int64
	// estOut is the estimated surviving table count after this stage,
	// chained through the planned order from the lake size.
	estOut int
	// skip marks a stage whose predicate provably admits every table
	// (each marginal factor's exact count equals the lake size): the
	// executor records it and elides the evaluation.
	skip bool
}

// score is the ordering key: expected cost weighted by how little the
// stage narrows the chain. Lower runs earlier.
func (sp stagePlan) score() float64 { return float64(sp.cost) * sp.sel }

// estimateMeta prices the metadata prefilter from the catalog stats
// block. Each predicate factor's marginal fraction is exact (row/col
// range counts by binary search, column-name and type document
// frequencies); only the independence assumption across ANDed factors
// is approximate. The stage is provably total exactly when every
// factor admits all N tables — then their conjunction does too.
func (p *Plan) estimateMeta() stagePlan {
	sp := stagePlan{name: StageMeta, sel: 1}
	pr := p.q.Predicates
	stats := p.sys.Stats
	n := p.sys.Catalog.Len()
	sp.unit = int64(1 + len(pr.ColumnNames) + len(p.colTypes))
	sp.cost = int64(n) * sp.unit
	if stats == nil || n == 0 {
		return sp
	}
	total := true
	factor := func(count int) {
		sp.sel *= float64(count) / float64(n)
		total = total && count == n
	}
	if pr.MinRows > 0 || pr.MaxRows > 0 {
		factor(stats.CountRows(pr.MinRows, pr.MaxRows))
	}
	if pr.MinCols > 0 || pr.MaxCols > 0 {
		factor(stats.CountCols(pr.MinCols, pr.MaxCols))
	}
	for _, name := range pr.ColumnNames {
		factor(stats.CountColName(name))
	}
	for _, t := range p.colTypes {
		factor(stats.CountType(t))
	}
	sp.skip = total
	return sp
}

// estimateKeyword prices the keyword prefilter from the metadata
// index's per-term document frequencies. BooleanSearch reads exactly
// the query terms' posting lists, so the cost is Σ df(t), the postings
// it reads, and there is no restricted path. A query whose terms are
// all stopwords admits nothing (selectivity 0); a query whose every
// term appears in every document provably admits all tables.
func (p *Plan) estimateKeyword() stagePlan {
	sp := stagePlan{name: StageKeyword, sel: 1}
	n := p.sys.Catalog.Len()
	dfs := p.sys.Keyword.QueryDFs(p.q.Predicates.Keywords)
	if len(dfs) == 0 {
		sp.sel = 0
		return sp
	}
	for _, df := range dfs {
		sp.cost += int64(df)
	}
	if n == 0 {
		return sp
	}
	total := true
	for _, df := range dfs {
		sp.sel *= float64(df) / float64(n)
		total = total && df == n
	}
	sp.skip = total
	return sp
}

// estimateValues prices the cell-value prefilter from the join
// inverted index's posting-list lengths: the postings-based filter
// scans exactly the predicate values' posting lists. Posting lengths
// count columns, not tables, so per-value fractions are clamped to 1;
// the stage is never provably total (that would require every table to
// contain every value, which the column-level DF cannot establish).
func (p *Plan) estimateValues() stagePlan {
	sp := stagePlan{name: StageValues, sel: 1}
	n := p.sys.Catalog.Len()
	d := p.sys.Dict
	vals := tokenize.NormalizeSet(p.q.Predicates.Values)
	if len(vals) == 0 || d == nil || n == 0 {
		sp.sel = 0
		return sp
	}
	for _, v := range vals {
		id, ok := d.ID(v)
		if !ok {
			// Out of vocabulary: the filter admits nothing and costs
			// only the dictionary lookups.
			sp.sel = 0
			sp.cost = int64(len(vals))
			return sp
		}
		df := int64(p.sys.Join.ValueDF(id))
		sp.cost += df
		sp.sel *= math.Min(1, float64(df)/float64(n))
	}
	return sp
}

// planPrefilters builds, orders, and chains the prefilter stage plans
// for the query's present predicate groups.
func (p *Plan) planPrefilters() []stagePlan {
	var pre []stagePlan
	if p.q.Predicates.HasMeta() {
		pre = append(pre, p.estimateMeta())
	}
	if p.q.Predicates.HasKeywords() {
		pre = append(pre, p.estimateKeyword())
	}
	if p.q.Predicates.HasValues() {
		pre = append(pre, p.estimateValues())
	}
	if p.order == OrderFixed {
		// The baseline neither reorders, skips, nor restricts.
		for i := range pre {
			pre[i].skip = false
			pre[i].unit = 0
		}
	} else {
		// Stable sort: equal scores keep the canonical fixed order.
		sort.SliceStable(pre, func(i, j int) bool { return pre[i].score() < pre[j].score() })
	}
	// Chain the survivor estimates through the planned order. Skipped
	// stages have selectivity exactly 1, so they pass the estimate
	// through unchanged.
	est := float64(p.sys.Catalog.Len())
	for i := range pre {
		est *= pre[i].sel
		pre[i].estOut = int(math.Round(est))
	}
	return pre
}
