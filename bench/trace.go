package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"tablehound/bench/stat"
	"tablehound/internal/core"
	"tablehound/internal/datagen"
	"tablehound/internal/discover"
	"tablehound/internal/server"
	"tablehound/internal/snap"
)

// span is one timed execution. Spans of one request share request_id;
// parent names the span of the enclosing layer. The layers of a
// request are measured in separate executions (over TCP, into a
// recorder, by direct call), so nesting is by parent name and
// duration, not by wall-clock containment: a layer's self time is its
// duration minus its children's.
type span struct {
	Name      string             `json:"name"`
	RequestID string             `json:"request_id"`
	Parent    string             `json:"parent,omitempty"`
	StartNS   int64              `json:"start_ns"`
	EndNS     int64              `json:"end_ns"`
	Counts    map[string]float64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, which is how the untraced runs call the same code.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) add(name, id, parent string, start time.Time, d time.Duration, counts map[string]float64) {
	if t == nil {
		return
	}
	s := start.Sub(t.epoch).Nanoseconds()
	t.spans = append(t.spans, span{Name: name, RequestID: id, Parent: parent, StartNS: s, EndNS: s + d.Nanoseconds(), Counts: counts})
}

func (t *tracer) writeFile(path string) error {
	raw, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// tracedPerClass is how many requests of each class the traced pass
// replays; D3L scans the lake on every query and gets half.
func tracedPerClass(class, perClass int) int {
	if class == clsUnionD3L {
		return (perClass + 1) / 2
	}
	return perClass
}

// memo is a discover.StageCache for the memo-hit measurement.
type memo map[string][]byte

func (m memo) Get(k string) ([]byte, bool) { v, ok := m[k]; return v, ok }
func (m memo) Put(k string, v []byte)      { m[k] = v }

// tracedPass replays a fixed sample of requests one at a time at three
// depths — loopback HTTP, the handler into a recorder, and the direct
// facade or plan call — first against a server with the cache off
// (miss path), then against a primed one (hit path), and measures the
// router of the cache-less stack `routed` the same way. It fills the
// per-layer metrics that need it and returns the derived consistency
// checks.
func tracedPass(ctx context.Context, sys *core.System, gen *datagen.Lake, routed *stack, sample [numClasses][]*request, tr *tracer, ms *metricSet) (map[string]float64, []string, error) {
	var problems []string
	missStack, err := startStack([]*core.System{sys}, nil, false, 0)
	if err != nil {
		return nil, nil, err
	}
	defer missStack.close()
	hitStack, err := startStack([]*core.System{sys}, nil, false, 4096)
	if err != nil {
		return nil, nil, err
	}
	defer hitStack.close()
	missHandler, hitHandler := missStack.servers[0].Handler(), hitStack.servers[0].Handler()
	client := newClient()
	defer client.CloseIdleConnections()

	serve := func(h http.Handler, r *request) (*httptest.ResponseRecorder, time.Duration) {
		// A second try only ever happens on the server's spurious
		// cancellation (see reply.spuriousCancel).
		for try := 0; ; try++ {
			req := httptest.NewRequest(http.MethodPost, r.path, bytes.NewReader(r.body))
			rec := httptest.NewRecorder()
			t0 := time.Now()
			h.ServeHTTP(rec, req)
			d := time.Since(t0)
			if try == 1 || !(reply{status: rec.Code, body: rec.Body.Bytes()}).spuriousCancel() {
				return rec, d
			}
		}
	}

	var (
		decode, marshal, hitPath          []float64
		loopback, handler, transport      [numClasses][]float64
		stageUS                           = map[string][]float64{}
		memoHit                           []float64
		estErr, estOut, stageSum, execSum float64
		ms0, ms1                          runtime.MemStats
	)
	for class := 0; class < numClasses; class++ {
		var search, allocs, kib, candidates, verify, planUS, execUS []float64
		var verified, results float64
		var relevant, returned int // against datagen's ground truth
		for i, r := range sample[class] {
			id := fmt.Sprintf("%s#%d", classNames[class], i)

			// Depth 1: loopback TCP, cache off.
			t0 := time.Now()
			rep, _, err := postRetrying(client, missStack.front+r.path, r.body)
			lb := time.Since(t0)
			if err == nil && rep.failed() != "" {
				err = fmt.Errorf("%s", rep.failed())
			}
			if err != nil {
				return nil, nil, fmt.Errorf("traced %s over loopback: %w", id, err)
			}
			tr.add("loopback", id, "", t0, lb, map[string]float64{"bytes_in": float64(len(r.body)), "bytes_out": float64(len(rep.body))})

			// Depth 2: the handler into a recorder, cache off.
			t0 = time.Now()
			rec, hd := serve(missHandler, r)
			if rec.Code != http.StatusOK {
				return nil, nil, fmt.Errorf("traced %s into recorder: status %d", id, rec.Code)
			}
			tr.add("handler", id, "loopback", t0, hd, nil)
			loopback[class] = append(loopback[class], us(lb))
			handler[class] = append(handler[class], us(hd))
			transport[class] = append(transport[class], us(lb-hd))

			// Depth 3: the engine, by direct call, with its allocations.
			runtime.ReadMemStats(&ms0)
			engStart := time.Now()
			a, err := direct(ctx, sys, r)
			eng := time.Since(engStart)
			runtime.ReadMemStats(&ms1)
			if err != nil {
				return nil, nil, fmt.Errorf("traced %s direct: %w", id, err)
			}
			nAllocs, nBytes := float64(ms1.Mallocs-ms0.Mallocs), float64(ms1.TotalAlloc-ms0.TotalAlloc)
			tr.add("engine", id, "handler", engStart, eng, map[string]float64{"allocs": nAllocs, "bytes": nBytes})
			search = append(search, us(eng))
			allocs = append(allocs, nAllocs)
			kib = append(kib, nBytes/1024)
			want, err := json.Marshal(a.resp)
			if err != nil {
				return nil, nil, err
			}
			if !sameAnswer(class, rep.body, want) {
				problems = append(problems, fmt.Sprintf("traced %s: loopback bytes differ from the direct answer", id))
			}

			// JSON alone: the request body into its type, the answer out.
			t0 = time.Now()
			err = decodeSpec(r)
			d := time.Since(t0)
			if err != nil {
				return nil, nil, err
			}
			tr.add("decode", id, "handler", t0, d, nil)
			decode = append(decode, us(d))
			t0 = time.Now()
			_, _ = json.Marshal(a.resp)
			d = time.Since(t0)
			tr.add("marshal", id, "handler", t0, d, nil)
			marshal = append(marshal, us(d))

			// The candidates/verify split, from a plan's explain rows.
			explain := a.explain
			if q, ok := unpredicated(sys, r); ok && explain == nil {
				_, res, err := runPlan(ctx, sys, q)
				if err != nil {
					return nil, nil, fmt.Errorf("traced %s plan: %w", id, err)
				}
				explain = res.Explain
			}
			for _, st := range explain {
				// Explain rows carry each stage's duration, not its start.
				tr.add(st.Stage, id, "engine", engStart, time.Duration(st.ElapsedUS)*time.Microsecond,
					map[string]float64{"in": float64(st.In), "out": float64(st.Out), "est_out": float64(st.EstOut), "cost": float64(st.Cost)})
				if class == clsDiscover {
					if !st.Skipped {
						stageUS[st.Stage] = append(stageUS[st.Stage], float64(st.ElapsedUS))
					}
					stageSum += float64(st.ElapsedUS)
					switch st.Stage {
					case discover.StageMeta, discover.StageKeyword, discover.StageValues:
						estOut += float64(st.Out)
						estErr += abs(float64(st.EstOut - st.Out))
					}
					continue
				}
				switch st.Stage {
				case discover.StageCandidates:
					candidates = append(candidates, float64(st.ElapsedUS))
				case discover.StageVerify:
					verify = append(verify, float64(st.ElapsedUS))
					verified += float64(st.In)
					results += float64(st.Out)
				}
			}
			if class == clsDiscover {
				planUS = append(planUS, us(a.plan))
				execUS = append(execUS, us(eng-a.plan))
				execSum += us(eng - a.plan)
			}
			if class <= clsUnionD3L {
				h, n := precision(gen, r, a.resp)
				relevant += h
				returned += n
			}

			// Hit path: the first request fills the primed server's cache,
			// the second must be answered from it with the same bytes.
			first, _ := serve(hitHandler, r)
			t0 = time.Now()
			second, hd2 := serve(hitHandler, r)
			if second.Header().Get("X-Cache") != "HIT" {
				problems = append(problems, fmt.Sprintf("traced %s: repeated request was %q, not a cache hit", id, second.Header().Get("X-Cache")))
			} else if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
				problems = append(problems, fmt.Sprintf("traced %s: hit bytes differ from the miss that filled the cache", id))
			}
			tr.add("handler_hit", id, "", t0, hd2, nil)
			hitPath = append(hitPath, us(hd2))
		}

		e := engineNames[class]
		ms.set("server."+classNames[class]+".handler_us", median(handler[class]))
		ms.set("server."+classNames[class]+".transport_us", median(transport[class]))
		if class == clsDiscover {
			ms.set("discover.execute_us", median(execUS))
			ms.set("discover.plan_us", median(planUS))
		} else {
			ms.set(e+".search_us", median(search))
		}
		ms.set(e+".allocs_per_op", median(allocs))
		ms.set(e+".kib_per_op", median(kib))
		if class != clsKeyword && class != clsDiscover {
			ms.set(e+".candidates_us", median(candidates))
			ms.set(e+".verify_us", median(verify))
			ms.set(e+".verified_per_result", ratio(verified, results))
		}
		if class <= clsUnionD3L {
			ms.set("quality."+classNames[class]+"_p_at_10", ratio(float64(relevant), float64(returned)))
		}
	}
	var pooled []float64
	for _, xs := range transport {
		pooled = append(pooled, xs...)
	}
	ms.set("server.transport_us", median(pooled))
	ms.set("server.decode_us", median(decode))
	ms.set("server.marshal_us", median(marshal))
	ms.set("server.hit_path_us", median(hitPath))
	for _, st := range []string{discover.StageMeta, discover.StageKeyword, discover.StageValues, discover.StageCandidates, discover.StageVerify} {
		ms.set("discover."+st+"_us", median(stageUS[st]))
	}
	ms.set("discover.est_rel_err", ratio(estErr, estOut))
	ms.set("discover.stage_coverage", ratio(stageSum, execSum))

	// Prefilter memo: hot predicates, fresh seed. The first execution
	// fills the memo; the next one, seeded by another table, finds its
	// predicate groups there.
	ds := sample[clsDiscover]
	for i := 0; i+1 < len(ds); i += 2 {
		a, b := ds[i].spec.(server.DiscoverRequest), ds[i+1].spec.(server.DiscoverRequest)
		m := memo{}
		for j, seed := range []string{a.TableID, b.TableID} {
			plan, err := discover.NewPlan(sys, discover.Query{Seed: sys.Catalog.Table(seed), Relation: "union", K: a.K, Predicates: a.Predicates})
			if err != nil {
				return nil, nil, err
			}
			res, err := plan.ExecuteOpts(ctx, discover.ExecOptions{Cache: m, Gen: 1})
			if err != nil {
				return nil, nil, err
			}
			for _, st := range res.Explain {
				if j == 1 && !st.Skipped && st.Stage != discover.StageCandidates && st.Stage != discover.StageVerify {
					memoHit = append(memoHit, float64(st.ElapsedUS))
				}
			}
		}
	}
	ms.set("discover.prefilter_memo_hit_us", median(memoHit))

	if err := tracedRouter(ctx, routed, sample, client, tr, ms); err != nil {
		return nil, nil, err
	}

	// Layer sum: a class's transport and handler medians must rebuild its
	// loopback median (the handler contains the engine). The three come
	// from separate executions, so the ratio is not 1 by construction.
	checks := make(map[string]float64)
	for class := 0; class < numClasses; class++ {
		checks["reconstruct."+classNames[class]] = ratio(median(transport[class])+median(handler[class]), median(loopback[class]))
	}
	return checks, problems, nil
}

// tracedRouter measures the scatter-gather tier from outside: the same
// body sent through the router and straight to every shard, and the
// owner fetch a union-by-id needs first.
func tracedRouter(ctx context.Context, routed *stack, sample [numClasses][]*request, client *http.Client, tr *tracer, ms *metricSet) error {
	before, err := routed.published(ctx)
	if err != nil {
		return err
	}
	var overhead, fetch []float64
	for _, class := range []int{clsJoinOverlap, clsKeyword} {
		for i, r := range sample[class] {
			id := fmt.Sprintf("%s#%d", classNames[class], i)
			t0 := time.Now()
			rep, _, err := postRetrying(client, routed.front+r.path, r.body)
			via := time.Since(t0)
			if err == nil && rep.failed() != "" {
				err = fmt.Errorf("%s", rep.failed())
			}
			if err != nil {
				return fmt.Errorf("traced %s through the router: %w", id, err)
			}
			tr.add("router", id, "", t0, via, nil)
			var slowest time.Duration
			for si, ts := range routed.shards {
				t0 = time.Now()
				if _, err := post(client, ts.URL+r.path, r.body); err != nil {
					return fmt.Errorf("traced %s on shard %d: %w", id, si, err)
				}
				d := time.Since(t0)
				tr.add(fmt.Sprintf("shard%d", si), id, "router", t0, d, nil)
				if d > slowest {
					slowest = d
				}
			}
			overhead = append(overhead, us(via-slowest))
		}
	}
	for i, r := range sample[clsUnionTUS] {
		tid := r.spec.(server.UnionRequest).TableID
		owner := routed.shards[snap.ShardOf(tid, len(routed.shards))]
		t0 := time.Now()
		if _, err := server.NewClientHTTP(owner.URL, client).Table(ctx, tid); err != nil {
			return fmt.Errorf("owner fetch of %s: %w", tid, err)
		}
		d := time.Since(t0)
		tr.add("owner_fetch", fmt.Sprintf("%s#%d", classNames[clsUnionTUS], i), "router", t0, d, nil)
		fetch = append(fetch, us(d))
	}
	after, err := routed.published(ctx)
	if err != nil {
		return err
	}
	ms.set("router.fanout_overhead_us", median(overhead))
	ms.set("router.owner_fetch_us", median(fetch))
	ms.set("router.partial_responses", float64(after.partials-before.partials))
	return nil
}

// decodeSpec parses r's body into a fresh value of its request type,
// as the handler does first.
func decodeSpec(r *request) error {
	switch r.spec.(type) {
	case server.JoinRequest:
		return json.Unmarshal(r.body, new(server.JoinRequest))
	case server.UnionRequest:
		return json.Unmarshal(r.body, new(server.UnionRequest))
	case server.KeywordRequest:
		return json.Unmarshal(r.body, new(server.KeywordRequest))
	default:
		return json.Unmarshal(r.body, new(server.DiscoverRequest))
	}
}

// precision counts, for a join or union answer, how many of the
// returned items datagen's ground truth calls relevant (same domain
// for a column, same template for a table) and how many were returned,
// leaving the query itself out of both.
func precision(gen *datagen.Lake, r *request, resp any) (hits, returned int) {
	switch v := resp.(type) {
	case server.JoinResponse:
		want := gen.ColumnDomain[r.truth]
		for _, m := range v.Matches {
			if m.ColumnKey == r.truth {
				continue
			}
			returned++
			if d, ok := gen.ColumnDomain[m.ColumnKey]; ok && d == want {
				hits++
			}
		}
	case server.UnionResponse:
		want := gen.TableTemplate[r.truth]
		for _, m := range v.Results {
			if m.TableID == r.truth {
				continue
			}
			returned++
			if tpl, ok := gen.TableTemplate[m.TableID]; ok && tpl == want {
				hits++
			}
		}
	}
	return hits, returned
}

// sampleAfter picks, per class, the first n(class) requests of the
// stream at or after position from — requests the timed window has not
// sent, so no server has them cached.
func sampleAfter(s *stream, from, perClass int) [numClasses][]*request {
	var out [numClasses][]*request
	seen := make(map[int32]bool)
	for pos := from; pos < len(s.order); pos++ {
		i := s.order[pos]
		r := &s.reqs[i]
		if seen[i] || len(out[r.class]) >= tracedPerClass(r.class, perClass) {
			continue
		}
		seen[i] = true
		out[r.class] = append(out[r.class], r)
	}
	return out
}

// median is stat.Median, with 0 standing for "no samples" so that a
// stage no sampled request exercised still reports a number.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stat.Median(xs)
}

// percentile is stat.Percentile under the same rule.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stat.Percentile(xs, p)
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// ratio is a/b, and 0 when there is nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
