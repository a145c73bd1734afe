package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"tablehound/internal/core"
	"tablehound/internal/discover"
	"tablehound/internal/server"
)

// answer is what a request yields when the engines are called
// directly, below the serving layer: the response value the server
// would marshal, and the discover explain rows when the call went
// through a plan.
type answer struct {
	resp    any
	explain []discover.StageExplain
	// plan is the part of a plan-based call spent compiling the plan.
	plan time.Duration
}

// direct answers a request through the core.System facade where it
// has a method for the query, and through a discover plan otherwise
// (an unpredicated plan ranks exactly like the bare endpoint). It
// reaches no engine method, so it survives their consolidation.
func direct(ctx context.Context, sys *core.System, r *request) (answer, error) {
	switch req := r.spec.(type) {
	case server.JoinRequest:
		// The match type lives in the join package, which this harness
		// does not import, so the two facade calls cannot share a variable
		// declared ahead of them.
		if req.Mode != "containment" {
			ms, err := sys.JoinableColumns(req.Values, req.K)
			if err != nil {
				return answer{}, err
			}
			out := make([]server.JoinMatch, len(ms))
			for i, m := range ms {
				out[i] = server.JoinMatch{ColumnKey: m.ColumnKey, Overlap: m.Overlap, Containment: m.Containment, Jaccard: m.Jaccard}
			}
			return answer{resp: server.JoinResponse{Matches: out}}, nil
		}
		ms, err := sys.ContainmentSearch(req.Values, req.Threshold, req.K)
		if err != nil {
			return answer{}, err
		}
		out := make([]server.JoinMatch, len(ms))
		for i, m := range ms {
			out[i] = server.JoinMatch{ColumnKey: m.ColumnKey, Overlap: m.Overlap, Containment: m.Containment, Jaccard: m.Jaccard}
		}
		return answer{resp: server.JoinResponse{Matches: out}}, nil

	case server.UnionRequest:
		t := sys.Catalog.Table(req.TableID)
		if t == nil {
			return answer{}, fmt.Errorf("direct: no table %q", req.TableID)
		}
		if req.Method == "tus" {
			rs, err := sys.UnionableTables(t, req.K)
			if err != nil {
				return answer{}, err
			}
			out := make([]server.TableScore, len(rs))
			for i, r := range rs {
				out[i] = server.TableScore{TableID: r.TableID, Score: r.Score}
			}
			return answer{resp: server.UnionResponse{Results: out}}, nil
		}
		a, res, err := runPlan(ctx, sys, discover.Query{Seed: t, Relation: "union", Method: req.Method, K: req.K})
		if err != nil {
			return answer{}, err
		}
		a.resp = server.UnionResponse{Results: tableScores(res)}
		return a, nil

	case server.KeywordRequest:
		rs, err := sys.KeywordSearch(req.Query, req.K)
		if err != nil {
			return answer{}, err
		}
		out := make([]server.TableScore, len(rs))
		for i, r := range rs {
			out[i] = server.TableScore{TableID: r.TableID, Score: r.Score}
		}
		return answer{resp: server.KeywordResponse{Results: out}}, nil

	case server.DiscoverRequest:
		t := sys.Catalog.Table(req.TableID)
		if t == nil {
			return answer{}, fmt.Errorf("direct: no table %q", req.TableID)
		}
		a, res, err := runPlan(ctx, sys, discover.Query{
			Seed: t, Column: req.Column, Relation: req.Relation, Mode: req.Mode,
			Method: req.Method, Threshold: req.Threshold, K: req.K, Predicates: req.Predicates,
		})
		if err != nil {
			return answer{}, err
		}
		var resp server.DiscoverResponse
		if req.Relation == "join" {
			out := make([]server.JoinMatch, len(res.Matches))
			for i, m := range res.Matches {
				out[i] = server.JoinMatch{ColumnKey: m.ColumnKey, Overlap: m.Overlap, Containment: m.Containment, Jaccard: m.Jaccard}
			}
			resp.Matches = &out
		} else {
			out := tableScores(res)
			resp.Results = &out
		}
		a.resp = resp
		return a, nil
	}
	return answer{}, fmt.Errorf("direct: unknown request type %T", r.spec)
}

func runPlan(ctx context.Context, sys *core.System, q discover.Query) (answer, *discover.Result, error) {
	t0 := time.Now()
	plan, err := discover.NewPlan(sys, q)
	if err != nil {
		return answer{}, nil, err
	}
	compile := time.Since(t0)
	res, err := plan.Execute(ctx)
	if err != nil {
		return answer{}, nil, err
	}
	return answer{explain: res.Explain, plan: compile}, res, nil
}

func tableScores(res *discover.Result) []server.TableScore {
	out := make([]server.TableScore, len(res.Tables))
	for i, r := range res.Tables {
		out[i] = server.TableScore{TableID: r.TableID, Score: r.Score}
	}
	return out
}

// unpredicated is the discover query that ranks exactly like the bare
// join or union request r; the traced pass runs it to read the
// candidates/verify split the bare endpoints do not expose.
func unpredicated(sys *core.System, r *request) (discover.Query, bool) {
	switch req := r.spec.(type) {
	case server.JoinRequest:
		return discover.Query{Values: req.Values, Relation: "join", Mode: req.Mode, Threshold: req.Threshold, K: req.K}, true
	case server.UnionRequest:
		return discover.Query{Seed: sys.Catalog.Table(req.TableID), Relation: "union", Method: req.Method, K: req.K}, true
	}
	return discover.Query{}, false
}

// directJSON is the bytes the server must answer r with.
func directJSON(ctx context.Context, sys *core.System, r *request) ([]byte, error) {
	a, err := direct(ctx, sys, r)
	if err != nil {
		return nil, err
	}
	return json.Marshal(a.resp)
}
