package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"time"

	"tablehound/internal/discover"
	"tablehound/internal/qcache"
	"tablehound/internal/table"
)

// DiscoverRequest asks /v1/discover for tables conditionally: a
// relational seed (exactly one of table_id, table, or values) plus
// optional predicates restricting the result tables.
type DiscoverRequest struct {
	// TableID seeds from a lake table.
	TableID string `json:"table_id,omitempty"`
	// Table seeds from an inline query table.
	Table *InlineTable `json:"table,omitempty"`
	// Values seeds from a bare column (join relation only).
	Values []string `json:"values,omitempty"`
	// Column names the seed-table column feeding the join side;
	// empty picks the first usable column.
	Column string `json:"column,omitempty"`
	// Relation is "join", "union", or "any" (default).
	Relation string `json:"relation,omitempty"`
	// Mode is the join scoring mode: "overlap" (default) or
	// "containment".
	Mode string `json:"mode,omitempty"`
	// Method is the union engine: "tus" (default), "santos",
	// "starmie", or "d3l".
	Method string `json:"method,omitempty"`
	// Threshold is the containment cutoff (default 0.5).
	Threshold float64 `json:"threshold,omitempty"`
	// K is required and must be positive.
	K int `json:"k,omitempty"`
	// Predicates restrict which tables may appear in the results.
	Predicates discover.Predicates `json:"predicates"`
	// Explain asks for the per-stage explanation block.
	Explain bool `json:"explain,omitempty"`
}

// DiscoverResponse is the /v1/discover answer. Matches is set for the
// join relation, Results for union/any. Both are slice pointers so an
// unfiltered single-relation response marshals bit-identically to the
// corresponding bare JoinResponse/UnionResponse ("matches":[] vs the
// field being absent).
type DiscoverResponse struct {
	Matches *[]JoinMatch            `json:"matches,omitempty"`
	Results *[]TableScore           `json:"results,omitempty"`
	Explain []discover.StageExplain `json:"explain,omitempty"`
}

// RankedRequest is a validated /v1/join, /v1/union or /v1/discover
// request in the one form the plan executor and the router's merge tail
// take: the discover wire request the two bare endpoints are special
// cases of — K capped, Threshold defaulted — with its relation, mode
// and method parsed.
type RankedRequest struct {
	DiscoverRequest
	Rel         discover.Relation
	JoinMode    discover.JoinMode
	UnionMethod discover.UnionMethod
}

// Validate checks a /v1/join request. A query column with no usable
// values is left to the join engine, which raises that error once.
func (req JoinRequest) Validate() (RankedRequest, error) {
	return validateRanked(DiscoverRequest{
		Values: req.Values, Relation: "join", Mode: req.Mode, Threshold: req.Threshold, K: req.K,
	}, "")
}

// Validate checks a /v1/union request.
func (req UnionRequest) Validate() (RankedRequest, error) {
	return validateRanked(DiscoverRequest{
		TableID: req.TableID, Table: req.Table, Relation: "union", Method: req.Method, K: req.K,
	}, "table_id or table")
}

// Validate checks a /v1/discover request.
func (req DiscoverRequest) Validate() (RankedRequest, error) {
	return validateRanked(req, "table_id, table, or values")
}

// validateRanked is the request policy the three ranked endpoints and
// the router in front of them share, in the order every surface
// reports it: k, relation, mode, method, then — when seeds names the
// seed members the endpoint accepts — that exactly one of them is set.
// Every error wraps table.ErrBadQuery.
func validateRanked(req DiscoverRequest, seeds string) (RankedRequest, error) {
	q := RankedRequest{DiscoverRequest: req}
	var err error
	if q.K, err = CheckK(req.K); err != nil {
		return q, err
	}
	if q.Rel, err = discover.ParseRelation(req.Relation); err != nil {
		return q, err
	}
	if q.JoinMode, err = discover.ParseJoinMode(req.Mode); err != nil {
		return q, err
	}
	if q.UnionMethod, err = discover.ParseUnionMethod(req.Method); err != nil {
		return q, err
	}
	if q.Threshold <= 0 {
		q.Threshold = 0.5
	}
	n := 0
	if req.TableID != "" {
		n++
	}
	if req.Table != nil {
		n++
	}
	if len(req.Values) > 0 {
		n++
	}
	if seeds != "" && n != 1 {
		return q, fmt.Errorf("exactly one of %s must be set: %w", seeds, table.ErrBadQuery)
	}
	return q, nil
}

func (s *Server) handleDiscover(w http.ResponseWriter, r *http.Request) {
	var req DiscoverRequest
	if _, ok := DecodeBody(w, r, &req); !ok {
		return
	}
	q, err := req.Validate()
	if err != nil {
		WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	snap := s.snap.Load()
	// Like /v1/union, only table_id seeds are cached: inline tables
	// and bare value columns would need their whole content hashed
	// into the key.
	var key string
	if q.TableID != "" {
		key = discoverKey(snap, q)
	}
	s.serveRanked(w, r, snap, key, q, true)
}

// serveRanked is the one way from a validated ranked request to the
// engines, whichever endpoint it arrived on: resolve the seed against
// the snapshot, compile the discover plan, run it under admission
// control, and encode the answer — a DiscoverResponse, which for an
// unpredicated join or union request is byte for byte the bare
// endpoint's JoinResponse or UnionResponse. observe feeds the planner
// stage metrics, which count /v1/discover traffic only.
func (s *Server) serveRanked(w http.ResponseWriter, r *http.Request, snap *snapshot, key string, q RankedRequest, observe bool) {
	s.serveQuery(w, r, key, func(ctx context.Context) (any, error) {
		dq := discover.Query{
			Values:     q.Values,
			Column:     q.Column,
			Relation:   q.Relation,
			Mode:       q.Mode,
			Method:     q.Method,
			Threshold:  q.Threshold,
			K:          q.K,
			Predicates: q.Predicates,
		}
		switch {
		case q.TableID != "":
			if dq.Seed = snap.sys.Catalog.Table(q.TableID); dq.Seed == nil {
				return nil, fmt.Errorf("table %q: %w", q.TableID, errNotFound)
			}
		case q.Table != nil:
			t, err := inlineTable(q.Table)
			if err != nil {
				return nil, err
			}
			dq.Seed = t
		}
		plan, err := discover.NewPlan(snap.sys, dq)
		if err != nil {
			return nil, err
		}
		res, err := plan.ExecuteOpts(ctx, discover.ExecOptions{Cache: s.cache, Gen: snap.dataGen})
		if err != nil {
			return nil, err
		}
		if observe {
			s.observeStages(res.Explain)
		}
		var resp DiscoverResponse
		if q.Rel == discover.RelationJoin {
			out := make([]JoinMatch, len(res.Matches))
			for i, m := range res.Matches {
				out[i] = JoinMatch{
					ColumnKey: m.ColumnKey, Overlap: m.Overlap,
					Containment: m.Containment, Jaccard: m.Jaccard,
				}
			}
			resp.Matches = &out
		} else {
			out := make([]TableScore, len(res.Tables))
			for i, t := range res.Tables {
				out[i] = TableScore{TableID: t.TableID, Score: t.Score}
			}
			resp.Results = &out
		}
		if q.Explain {
			resp.Explain = res.Explain
		}
		return resp, nil
	})
}

// discoverKey builds the cache key for a table_id-seeded discover
// query: generation, relation/mode/method bytes, k, threshold, the
// explain flag, the seed coordinates, and the predicate block.
func discoverKey(snap *snapshot, q RankedRequest) string {
	preds, _ := json.Marshal(q.Predicates)
	var explain byte
	if q.Explain {
		explain = 1
	}
	var kb qcache.KeyBuilder
	kb.Byte('D').U64(snap.dataGen).Byte(byte(q.Rel)).Byte(byte(q.JoinMode)).Byte(byte(q.UnionMethod)).
		U32(uint32(q.K)).U64(math.Float64bits(q.Threshold)).Byte(explain).
		Str(q.TableID).Str(q.Column).Str(string(preds))
	return kb.String()
}

// inlineTable materializes an inline request table.
func inlineTable(in *InlineTable) (*table.Table, error) {
	cols := make([]*table.Column, len(in.Columns))
	for i, c := range in.Columns {
		cols[i] = table.NewColumn(c.Name, c.Values)
	}
	id := in.ID
	if id == "" {
		id = "inline-query"
	}
	t, err := table.New(id, in.Name, cols)
	if err != nil {
		return nil, fmt.Errorf("inline table: %v: %w", err, table.ErrBadQuery)
	}
	return t, nil
}

// observeStages feeds one execution's explain block into the
// per-stage histograms, candidate-reduction counters, and
// estimate-quality counters. Cache hits skip this — the stages did
// not run. Estimates are recorded only for stages the planner priced
// (prefilters carry est_out; candidates/verify do not).
func (s *Server) observeStages(stages []discover.StageExplain) {
	for _, st := range stages {
		m := s.stages[st.Stage]
		if m == nil {
			continue
		}
		m.latency.Observe(time.Duration(st.ElapsedUS) * time.Microsecond)
		m.in.Add(int64(st.In))
		m.out.Add(int64(st.Out))
		switch st.Stage {
		case discover.StageMeta, discover.StageKeyword, discover.StageValues:
			m.estOut.Add(int64(st.EstOut))
			diff := int64(st.EstOut - st.Out)
			if diff < 0 {
				diff = -diff
			}
			m.estErr.Add(diff)
		}
	}
}
