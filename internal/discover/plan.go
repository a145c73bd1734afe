package discover

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"tablehound/internal/core"
	"tablehound/internal/join"
	"tablehound/internal/qcache"
	"tablehound/internal/table"
	"tablehound/internal/tokenize"
	"tablehound/internal/union"
)

// Result is a ranked discovery answer. Join-relation queries rank
// columns (Matches); union/any-relation queries rank tables (Tables).
// Explain carries one row per executed stage in execution order.
type Result struct {
	Matches []join.Match
	Tables  []union.Result
	Explain []StageExplain
}

// StageCache is the per-stage cache contract; qcache.Cache satisfies
// it. Only prefilter stages cache: their output (the table-ID set a
// predicate group admits) is seed-independent, so it is shared across
// every discover query with the same predicates on the same
// generation.
type StageCache interface {
	Get(key string) ([]byte, bool)
	Put(key string, val []byte)
}

// ExecOptions tune one execution. The zero value runs uncached.
type ExecOptions struct {
	// Cache, when set, memoizes prefilter-stage outputs keyed by
	// (Gen, stage, predicates).
	Cache StageCache
	// Gen is the data generation folded into stage cache keys, so a
	// snapshot swap invalidates them.
	Gen uint64
}

// Plan is a compiled discover query: validated parameters, the
// pre-encoded seed (EncodeQuery / Prepare run once at compile time,
// not per stage), and the ordered stage list. A Plan is a pure read
// over the frozen System and safe for concurrent Execute calls.
type Plan struct {
	sys       *core.System
	q         Query
	relation  Relation
	mode      JoinMode
	method    UnionMethod
	threshold float64
	order     Order
	stages    []string
	pre       []stagePlan // prefilters in execution order, with estimates
	colTypes  []table.Type

	// The pre-encoded seed, filled per relation at compile time: the
	// join column (join or any), and the union method's two stages bound
	// to its prepared query table (union; any uses TUS).
	joinQ      join.Query
	unionCands func() []string
	unionScore func(ctx context.Context, ids []string, k int) ([]union.Result, error)
}

// Stages returns the ordered stage names the planner compiled, for
// display and tests.
func (p *Plan) Stages() []string { return append([]string(nil), p.stages...) }

// typeByName mirrors table.Type's String() names for predicate
// parsing.
var typeByName = map[string]table.Type{
	"unknown": table.TypeUnknown,
	"bool":    table.TypeBool,
	"int":     table.TypeInt,
	"float":   table.TypeFloat,
	"date":    table.TypeDate,
	"string":  table.TypeString,
}

// NewPlan validates and compiles a query against a frozen System with
// the default cost-based stage ordering. Invalid parameters
// (non-positive k, unknown relation/mode/method or column type,
// missing or unusable seed) wrap table.ErrBadQuery.
func NewPlan(sys *core.System, q Query) (*Plan, error) {
	return NewPlanOrdered(sys, q, OrderCost)
}

// NewPlanOrdered is NewPlan with an explicit ordering policy.
//
// Stage ordering rule: a prefilter stage is planned only when its
// predicate group is present. Under OrderCost, present prefilters are
// ordered by estimated (cost × survivor fraction) from the catalog
// stats block and index postings lengths, and a stage whose predicate
// provably admits every table is marked skipped; under OrderFixed they
// run in the fixed cheap→expensive order (meta, keyword, values) with
// no skips. Prefilter intersection is commutative, so both policies
// return bit-identical results. Candidates and verify always close
// the plan.
func NewPlanOrdered(sys *core.System, q Query, ord Order) (*Plan, error) {
	p := &Plan{sys: sys, q: q, threshold: q.Threshold, order: ord}
	if q.K <= 0 {
		return nil, fmt.Errorf("discover: k must be positive (got %d): %w", q.K, table.ErrBadQuery)
	}
	var err error
	if p.relation, err = ParseRelation(q.Relation); err != nil {
		return nil, err
	}
	if p.mode, err = ParseJoinMode(q.Mode); err != nil {
		return nil, err
	}
	if p.method, err = ParseUnionMethod(q.Method); err != nil {
		return nil, err
	}
	if p.threshold <= 0 {
		p.threshold = 0.5
	}
	for _, name := range q.Predicates.ColumnTypes {
		t, ok := typeByName[name]
		if !ok {
			return nil, fmt.Errorf("discover: unknown column type %q: %w", name, table.ErrBadQuery)
		}
		p.colTypes = append(p.colTypes, t)
	}
	if q.Seed != nil && len(q.Values) > 0 {
		return nil, fmt.Errorf("discover: seed table and seed values are exclusive: %w", table.ErrBadQuery)
	}
	if err := p.prepareSeed(); err != nil {
		return nil, err
	}
	p.pre = p.planPrefilters()
	for _, sp := range p.pre {
		p.stages = append(p.stages, sp.name)
	}
	p.stages = append(p.stages, StageCandidates, StageVerify)
	return p, nil
}

// prepareSeed pre-encodes the seed against the engines the relation
// needs. A join seed with no usable values is not checked here: the
// join engine raises that error, once, when the plan runs.
func (p *Plan) prepareSeed() error {
	q := p.q
	switch p.relation {
	case RelationJoin:
		vals := q.Values
		if len(vals) == 0 {
			if q.Seed == nil {
				return fmt.Errorf("discover: join relation needs seed values or a seed table: %w", table.ErrBadQuery)
			}
			var err error
			if vals, err = seedColumnValues(q.Seed, q.Column); err != nil {
				return err
			}
		}
		p.joinQ = p.sys.Join.EncodeQuery(vals)
	case RelationUnion:
		if q.Seed == nil {
			return fmt.Errorf("discover: union relation needs a seed table: %w", table.ErrBadQuery)
		}
		return p.prepareUnion(p.method)
	case RelationAny:
		if q.Seed == nil {
			return fmt.Errorf("discover: relation \"any\" needs a seed table: %w", table.ErrBadQuery)
		}
		if err := p.prepareUnion(MethodTUS); err != nil {
			return err
		}
		// The join side is best-effort: a seed table whose columns all
		// fall out of the join vocabulary still discovers by union, so an
		// empty joinQ is legitimate here and runAny skips the join engine.
		if vals, err := seedColumnValues(q.Seed, q.Column); err == nil {
			p.joinQ = p.sys.Join.EncodeQuery(vals)
		} else if q.Column != "" {
			return err
		}
	}
	return nil
}

// prepareUnion is the one place a union method name becomes engine
// calls: it prepares the seed table against the method's engine and
// binds the candidates and scoring stages to the result, with the
// defaults every surface shares (TUS ensemble measure, SANTOS hybrid
// mode, Starmie approximate retrieval at efSearch 64).
func (p *Plan) prepareUnion(method UnionMethod) error {
	sys, seed := p.sys, p.q.Seed
	switch method {
	case MethodTUS:
		pq, err := sys.TUS.Prepare(seed)
		if err != nil {
			return err
		}
		p.unionCands = func() []string { return sys.TUS.Candidates(pq) }
		p.unionScore = func(ctx context.Context, ids []string, k int) ([]union.Result, error) {
			return sys.TUS.ScoreAmong(ctx, pq, ids, k, union.EnsembleMeasure)
		}
	case MethodSantos:
		pq, err := sys.Santos.Prepare(seed)
		if err != nil {
			return err
		}
		p.unionCands = func() []string { return sys.Santos.Candidates(pq, union.Hybrid) }
		p.unionScore = func(ctx context.Context, ids []string, k int) ([]union.Result, error) {
			return sys.Santos.ScoreAmong(ctx, pq, ids, k, union.Hybrid)
		}
	case MethodStarmie:
		pq, err := sys.Starmie.PrepareTable(seed)
		if err != nil {
			return err
		}
		p.unionCands = func() []string { return sys.Starmie.CandidateTables(pq, 64, false) }
		p.unionScore = func(ctx context.Context, ids []string, k int) ([]union.Result, error) {
			ms, err := sys.Starmie.ScoreTablesAmong(ctx, pq, ids, k)
			var rs []union.Result
			for _, m := range ms {
				rs = append(rs, union.Result{TableID: m.TableID, Score: m.Score})
			}
			return rs, err
		}
	case MethodD3L:
		pq, err := sys.D3L.Prepare(seed)
		if err != nil {
			return err
		}
		// D3L has no sketch: its candidate set is the whole lake.
		p.unionCands = sys.D3L.TableIDs
		p.unionScore = func(ctx context.Context, ids []string, k int) ([]union.Result, error) {
			return sys.D3L.ScoreAmong(ctx, pq, ids, k)
		}
	}
	return nil
}

// seedColumnValues picks the seed column from a seed table: the named
// column, or the first column with values usable after normalization.
func seedColumnValues(t *table.Table, column string) ([]string, error) {
	if column != "" {
		c := t.Column(column)
		if c == nil {
			return nil, fmt.Errorf("discover: seed table %q has no column %q: %w", t.ID, column, table.ErrBadQuery)
		}
		return c.Values, nil
	}
	for _, c := range t.Columns {
		if len(tokenize.NormalizeSet(c.Values)) > 0 {
			return c.Values, nil
		}
	}
	return nil, fmt.Errorf("discover: seed table %q has no usable column: %w", t.ID, table.ErrBadQuery)
}

// Execute runs the plan uncached.
func (p *Plan) Execute(ctx context.Context) (*Result, error) {
	return p.ExecuteOpts(ctx, ExecOptions{})
}

// ExecuteOpts runs the compiled stages in order. Prefilter stages
// narrow an allowed-table set (nil = unrestricted); the candidates
// stage intersects engine candidate generation with it; the verify
// stage exactly scores what is left. Because every engine scores
// candidates independently and ranks by a total order
// (score desc, key asc), restricting candidates before scoring
// returns exactly the bare engine's ranking restricted to allowed
// tables — and with no predicates, the bare ranking itself.
//
// Under OrderCost, three executor shortcuts apply, each preserving
// bit-identical results:
//   - a stage the planner proved total is recorded skipped (allowing
//     every table intersects to the identity);
//   - once the allowed set is empty, remaining prefilters are
//     recorded skipped (intersecting with the empty set is absorbing);
//   - a prefilter whose restricted evaluation over the current
//     allowed set is cheaper than its full-lake pass evaluates only
//     the allowed tables (allowed ∩ fullAdmit ≡ the per-allowed-table
//     predicate checks, since the predicate is per-table).
func (p *Plan) ExecuteOpts(ctx context.Context, opts ExecOptions) (*Result, error) {
	res := &Result{Explain: make([]StageExplain, 0, len(p.stages))}
	lakeN := p.sys.Catalog.Len()
	var allowed map[string]bool // nil = unrestricted
	count := func() int {
		if allowed == nil {
			return lakeN
		}
		return len(allowed)
	}
	for _, stage := range p.stages {
		switch stage {
		case StageMeta, StageKeyword, StageValues:
			sp := p.stagePlanOf(stage)
			in := count()
			start := time.Now()
			if p.order == OrderCost && (sp.skip || (allowed != nil && len(allowed) == 0)) {
				res.recordStage(StageExplain{Stage: stage, In: in, Out: in,
					EstOut: sp.estOut, Skipped: true}, start)
				continue
			}
			ids, cost := p.prefilter(stage, opts, allowed)
			next := make(map[string]bool, len(ids))
			for _, id := range ids {
				if allowed == nil || allowed[id] {
					next[id] = true
				}
			}
			allowed = next
			res.recordStage(StageExplain{Stage: stage, In: in, Out: len(allowed),
				EstOut: sp.estOut, Cost: cost}, start)
		case StageCandidates:
			if err := p.runSearch(ctx, res, allowed, count()); err != nil {
				return nil, err
			}
		case StageVerify:
			// Recorded by runSearch together with the candidates stage;
			// the two share the pre-encoded seed.
		}
	}
	return res, nil
}

// stagePlanOf returns the planned estimates for a prefilter stage.
func (p *Plan) stagePlanOf(stage string) stagePlan {
	for _, sp := range p.pre {
		if sp.name == stage {
			return sp
		}
	}
	return stagePlan{name: stage}
}

func (r *Result) recordCost(stage string, in, out int, cost int64, start time.Time) {
	r.recordStage(StageExplain{Stage: stage, In: in, Out: out, Cost: cost}, start)
}

func (r *Result) recordStage(se StageExplain, start time.Time) {
	se.ElapsedUS = time.Since(start).Microseconds()
	r.Explain = append(r.Explain, se)
}

// prefilter computes (or recalls) the table-ID set one predicate
// group admits, and reports the deterministic work units it spent.
// The cache key covers only the stage's own predicate group, so a
// change in an unrelated group (a different keyword next to the same
// meta predicate) still hits. Full-lake outputs are allowed-set
// independent and cache cleanly; a restricted evaluation (cost
// ordering only) returns allowed ∩ admit directly and is never
// cached.
func (p *Plan) prefilter(stage string, opts ExecOptions, allowed map[string]bool) ([]string, int64) {
	var key string
	if opts.Cache != nil {
		var kb qcache.KeyBuilder
		kb.Byte('P').U64(opts.Gen).Str(stage).Str(p.stagePredicates(stage))
		key = kb.String()
		if raw, ok := opts.Cache.Get(key); ok {
			var ids []string
			if json.Unmarshal(raw, &ids) == nil {
				return ids, 0
			}
		}
	}
	sp := p.stagePlanOf(stage)
	if p.order == OrderCost && allowed != nil && sp.unit > 0 {
		if restricted := int64(len(allowed)) * sp.unit; restricted < sp.cost {
			var ids []string
			for _, id := range sortedIDs(allowed) {
				if p.matchesMeta(p.sys.Catalog.Table(id)) {
					ids = append(ids, id)
				}
			}
			return ids, restricted
		}
	}
	var ids []string
	switch stage {
	case StageMeta:
		ids = p.metaFilter()
	case StageKeyword:
		ids = p.keywordFilter()
	case StageValues:
		ids = p.valuesFilter()
	}
	if opts.Cache != nil {
		if raw, err := json.Marshal(ids); err == nil {
			opts.Cache.Put(key, raw)
		}
	}
	return ids, sp.cost
}

// stagePredicates renders only the predicate group a stage evaluates,
// as its cache-key payload.
func (p *Plan) stagePredicates(stage string) string {
	pr := p.q.Predicates
	var group Predicates
	switch stage {
	case StageMeta:
		group = Predicates{
			ColumnNames: pr.ColumnNames, ColumnTypes: pr.ColumnTypes,
			MinRows: pr.MinRows, MaxRows: pr.MaxRows,
			MinCols: pr.MinCols, MaxCols: pr.MaxCols,
		}
	case StageKeyword:
		group = Predicates{Keywords: pr.Keywords}
	case StageValues:
		group = Predicates{Values: pr.Values}
	}
	b, _ := json.Marshal(group)
	return string(b)
}

func (p *Plan) metaFilter() []string {
	var out []string
	for _, t := range p.sys.Catalog.Tables() {
		if p.matchesMeta(t) {
			out = append(out, t.ID)
		}
	}
	return out
}

func (p *Plan) matchesMeta(t *table.Table) bool {
	pr := p.q.Predicates
	if pr.MinRows > 0 && t.NumRows() < pr.MinRows {
		return false
	}
	if pr.MaxRows > 0 && t.NumRows() > pr.MaxRows {
		return false
	}
	if pr.MinCols > 0 && t.NumCols() < pr.MinCols {
		return false
	}
	if pr.MaxCols > 0 && t.NumCols() > pr.MaxCols {
		return false
	}
	for _, want := range pr.ColumnNames {
		if !hasColumnNamed(t, want) {
			return false
		}
	}
	for _, want := range p.colTypes {
		found := false
		for _, c := range t.Columns {
			// Column types are inferred once at ingest and stored; re-running
			// InferType over the cell values here would repeat that work per
			// table × column × query.
			if c.Type == want {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func hasColumnNamed(t *table.Table, name string) bool {
	want := tokenize.Normalize(name)
	for _, c := range t.Columns {
		if tokenize.Normalize(c.Name) == want {
			return true
		}
	}
	return false
}

func (p *Plan) keywordFilter() []string {
	rs := p.sys.Keyword.BooleanSearch(p.q.Predicates.Keywords, p.sys.Catalog.Len(), true)
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.TableID
	}
	sort.Strings(out)
	return out
}

// valuesFilter admits tables where every predicate value appears in
// some join-indexed column. A value outside the lake vocabulary
// admits nothing. Each value is answered straight from the join
// inverted index's posting list — the columns containing the value —
// so the work is Σ posting lengths rather than a
// tables × values × columns membership sweep over every ID set.
func (p *Plan) valuesFilter() []string {
	d := p.sys.Dict
	e := p.sys.Join
	vals := tokenize.NormalizeSet(p.q.Predicates.Values)
	if len(vals) == 0 || d == nil {
		return nil
	}
	var admit map[string]bool
	for _, v := range vals {
		id, ok := d.ID(v)
		if !ok {
			return nil
		}
		tabs := make(map[string]bool)
		for _, key := range e.ColumnsWithValue(id) {
			tid, _ := table.SplitColumnKey(key)
			tabs[tid] = true
		}
		if admit == nil {
			admit = tabs
		} else {
			for t := range admit {
				if !tabs[t] {
					delete(admit, t)
				}
			}
		}
		if len(admit) == 0 {
			return nil
		}
	}
	return sortedIDs(admit)
}

// sortedIDs renders the allowed set in deterministic order.
func sortedIDs(allowed map[string]bool) []string {
	out := make([]string, 0, len(allowed))
	for id := range allowed {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// keepAllowed filters table IDs by the allowed set, preserving order.
func keepAllowed(ids []string, allowed map[string]bool) []string {
	if allowed == nil {
		return ids
	}
	kept := ids[:0:0]
	for _, id := range ids {
		if allowed[id] {
			kept = append(kept, id)
		}
	}
	return kept
}

// runSearch executes the candidates and verify stages for the plan's
// relation, recording one explain row each.
func (p *Plan) runSearch(ctx context.Context, res *Result, allowed map[string]bool, in int) error {
	switch p.relation {
	case RelationJoin:
		return p.runJoin(ctx, res, allowed, in)
	case RelationUnion:
		return p.runUnion(ctx, res, allowed, in)
	default:
		return p.runAny(ctx, res, allowed, in)
	}
}

func (p *Plan) runJoin(ctx context.Context, res *Result, allowed map[string]bool, in int) error {
	e := p.sys.Join
	k := p.q.K
	if p.mode == ModeOverlap {
		// No predicates: JOSIE's own pruning is the candidate stage and
		// every indexed column is in play. Otherwise the columns of the
		// allowed tables are; the list stays non-nil when nothing is
		// allowed, because a nil one would lift the restriction.
		start := time.Now()
		var among []string
		cands := e.NumColumns()
		if allowed != nil {
			among = []string{}
			for _, id := range sortedIDs(allowed) {
				among = append(among, e.ColumnKeysOf(id)...)
			}
			cands = len(among)
		}
		res.recordCost(StageCandidates, in, cands, int64(len(among)), start)
		vstart := time.Now()
		ms, st, err := e.TopKOverlap(ctx, p.joinQ, k, among)
		if err != nil {
			return err
		}
		res.Matches = ms
		res.recordCost(StageVerify, cands, len(ms), st.Work, vstart)
		return nil
	}
	// Containment: LSH Ensemble candidates, restricted, then exactly
	// verified — the unfiltered composition is literally the engine's
	// ContainmentSearch.
	start := time.Now()
	cands, err := e.ContainmentCandidates(p.joinQ, p.threshold)
	if err != nil {
		return err
	}
	cands = p.keepAllowedColumns(cands, allowed, "")
	res.recordCost(StageCandidates, in, len(cands), int64(len(cands)), start)
	vstart := time.Now()
	ms, err := e.VerifyContainment(ctx, p.joinQ, cands, p.threshold)
	if err != nil {
		return err
	}
	if len(ms) > k {
		ms = ms[:k]
	}
	res.Matches = ms
	res.recordCost(StageVerify, len(cands), len(ms), int64(len(cands)), vstart)
	return nil
}

// keepAllowedColumns filters join candidate ordinals to the columns of
// allowed tables (nil = every table) other than the table named skip,
// preserving order.
func (p *Plan) keepAllowedColumns(cands []int32, allowed map[string]bool, skip string) []int32 {
	if allowed == nil && skip == "" {
		return cands
	}
	kept := cands[:0:0]
	for _, c := range cands {
		id, _ := table.SplitColumnKey(p.sys.Join.Key(c))
		if id != skip && (allowed == nil || allowed[id]) {
			kept = append(kept, c)
		}
	}
	return kept
}

func (p *Plan) runUnion(ctx context.Context, res *Result, allowed map[string]bool, in int) error {
	start := time.Now()
	cands := keepAllowed(p.unionCands(), allowed)
	res.recordCost(StageCandidates, in, len(cands), int64(len(cands)), start)
	vstart := time.Now()
	rs, err := p.unionScore(ctx, cands, p.q.K)
	if err != nil {
		return err
	}
	res.Tables = rs
	res.recordCost(StageVerify, len(cands), len(rs), int64(len(cands)), vstart)
	return nil
}

// runAny blends both primitives: a candidate table's score is the max
// of its TUS union score and the best exact containment of the seed
// column among its columns. Deterministic (score desc, id asc), but
// not comparable to either bare endpoint — "any" answers "related in
// any way".
func (p *Plan) runAny(ctx context.Context, res *Result, allowed map[string]bool, in int) error {
	sys, k := p.sys, p.q.K
	start := time.Now()
	ucands := keepAllowed(p.unionCands(), allowed)
	var jcands []int32
	if len(p.joinQ.IDs) > 0 {
		all, err := sys.Join.ContainmentCandidates(p.joinQ, p.threshold)
		if err != nil {
			return err
		}
		jcands = p.keepAllowedColumns(all, allowed, p.q.Seed.ID)
	}
	res.recordCost(StageCandidates, in, len(ucands)+len(jcands),
		int64(len(ucands)+len(jcands)), start)

	vstart := time.Now()
	urs, err := p.unionScore(ctx, ucands, len(ucands))
	if err != nil {
		return err
	}
	best := make(map[string]float64, len(urs))
	for _, r := range urs {
		best[r.TableID] = r.Score
	}
	if len(jcands) > 0 {
		ms, err := sys.Join.VerifyContainment(ctx, p.joinQ, jcands, p.threshold)
		if err != nil {
			return err
		}
		for _, m := range ms {
			id, _ := table.SplitColumnKey(m.ColumnKey)
			if m.Containment > best[id] {
				best[id] = m.Containment
			}
		}
	}
	out := make([]union.Result, 0, len(best))
	for id, score := range best {
		out = append(out, union.Result{TableID: id, Score: score})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].TableID < out[j].TableID
	})
	if len(out) > k {
		out = out[:k]
	}
	res.Tables = out
	res.recordCost(StageVerify, len(ucands)+len(jcands), len(out),
		int64(len(ucands)+len(jcands)), vstart)
	return nil
}
