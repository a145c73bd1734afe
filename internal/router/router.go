// Package router is the scatter-gather tier over a partitioned lake:
// it fans each query across every shard server concurrently, merges
// the per-shard top-k lists in the engines' exact (score, key) order,
// and degrades gracefully when shards are slow or down — partial
// results come back with HTTP 200 and a "shards_ok": "M/N" field,
// never a 5xx.
//
// Layering per request, outermost first:
//
//	panic recovery → a handler panic becomes HTTP 500, never a dead
//	                 process
//	metrics        → per-endpoint request/error/partial counters and
//	                 latency quantiles, per-shard latency histograms
//	                 and up gauges (internal/obs)
//	cache          → exact-key response cache (internal/qcache), keyed
//	                 on the endpoint, the request bytes, and the
//	                 fingerprint of every shard's snapshot generation;
//	                 only complete (all-shards-ok) responses are ever
//	                 cached, so a degraded answer cannot outlive the
//	                 outage that produced it
//	fan-out        → one concurrent sub-request per shard under a
//	                 per-shard timeout; failures (refused, timed out,
//	                 5xx, shed) only shrink shards_ok. A table_id seed
//	                 goes to its owner shard by id while the table is
//	                 fetched for the shards that do not hold it
//	merge          → concatenate + re-sort with the engine comparator,
//	                 truncate to k (merge.go)
//
// A background health loop polls every shard's /healthz: it feeds the
// shard_up gauges, tracks snapshot generations (a change purges the
// cache), and quarantines shards whose manifest hash differs from
// shard 0's — queries are never fanned to a shard built from a
// different partitioning, because its results would be wrong, not
// merely stale.
package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"tablehound/internal/obs"
	"tablehound/internal/qcache"
	"tablehound/internal/server"
	"tablehound/internal/snap"
)

// maxBodyBytes mirrors the shard servers' request/response body bound.
const maxBodyBytes = 8 << 20

// Config tunes the router. Addrs is required; everything else has
// defaults.
type Config struct {
	// Addrs lists the shard servers; index i must serve shard i of the
	// manifest the lake was built with.
	Addrs []string
	// ShardTimeout bounds each per-shard sub-request. A shard that
	// misses it contributes nothing to the merged answer and is counted
	// out of shards_ok. Default: 10s.
	ShardTimeout time.Duration
	// HealthInterval is the /healthz polling period. Default: 2s.
	HealthInterval time.Duration
	// CacheEntries sizes the complete-response cache; 0 disables it.
	CacheEntries int
	// Transport, when non-nil, overrides the HTTP transport used for
	// shard requests (tests inject httptest transports).
	Transport http.RoundTripper
}

func (c *Config) applyDefaults() {
	if c.ShardTimeout <= 0 {
		c.ShardTimeout = 10 * time.Second
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = 2 * time.Second
	}
}

// shardState is the health loop's last observation of one shard,
// stored atomically so the serving path reads it without locks.
type shardState struct {
	up           bool
	quarantined  bool   // manifest mismatch: excluded from fan-out
	generation   uint64 // snapshot generation from /healthz
	tables       int
	manifestHash string
}

type shard struct {
	addr   string
	base   string // http://addr
	client *server.Client
	state  atomic.Pointer[shardState]

	upGauge *obs.Gauge
	latency *obs.Histogram
	fails   *obs.Counter
}

// Router fans queries across shard servers and merges the results.
type Router struct {
	cfg    Config
	shards []*shard
	http   *http.Client
	cache  *qcache.Cache
	mux    *http.ServeMux
	start  time.Time

	healthOnce sync.Once
	healthStop chan struct{}
	healthDone chan struct{}

	// genHash fingerprints the per-shard generation vector; cache keys
	// embed it so answers computed against one set of snapshots are
	// unreachable after any shard reloads.
	genHash atomic.Uint64

	reg        *obs.Registry
	endpoints  map[string]*endpointMetrics
	partials   *obs.Counter
	allDown    *obs.Counter
	mismatches *obs.Counter
	panics     *obs.Counter
}

type endpointMetrics struct {
	server.EndpointMetrics
	partial *obs.Counter
}

// New builds a Router over the given shard addresses. The health loop
// is not started; call Start (or poke CheckShards once) after
// construction.
func New(cfg Config) (*Router, error) {
	cfg.applyDefaults()
	if len(cfg.Addrs) == 0 {
		return nil, fmt.Errorf("router: no shard addresses")
	}
	rt := &Router{
		cfg:        cfg,
		http:       &http.Client{Transport: shardTransport(cfg.Transport)},
		cache:      qcache.New(cfg.CacheEntries),
		reg:        obs.NewRegistry(),
		start:      time.Now(),
		healthStop: make(chan struct{}),
		healthDone: make(chan struct{}),
	}
	rt.endpoints = make(map[string]*endpointMetrics)
	for _, name := range []string{"join", "union", "keyword", "discover"} {
		lbl := fmt.Sprintf("endpoint=%q", name)
		rt.endpoints[name] = &endpointMetrics{
			EndpointMetrics: server.EndpointMetrics{
				Requests: rt.reg.Counter("lakerouter_requests_total", "Requests handled, by endpoint.", lbl),
				Errors:   rt.reg.Counter("lakerouter_errors_total", "Requests answered with a non-2xx status, by endpoint.", lbl),
				Latency:  rt.reg.Histogram("lakerouter_request_seconds", "End-to-end request latency, by endpoint.", lbl),
			},
			partial: rt.reg.Counter("lakerouter_partial_total", "Requests answered 200 with fewer than all shards, by endpoint.", lbl),
		}
	}
	rt.partials = rt.reg.Counter("lakerouter_partial_responses_total", "Responses merged from fewer than all shards.", "")
	rt.allDown = rt.reg.Counter("lakerouter_all_shards_down_total", "Requests answered with zero reachable shards.", "")
	rt.mismatches = rt.reg.Counter("lakerouter_manifest_mismatch_total", "Health checks that quarantined a shard over a manifest mismatch.", "")
	rt.panics = rt.reg.Counter("lakerouter_panics_total", "Handler panics recovered into HTTP 500.", "")
	rt.reg.GaugeFunc("lakerouter_cache_hit_ratio", "Complete-response cache hit ratio since start.", "", rt.cache.HitRatio)
	rt.reg.GaugeFunc("lakerouter_uptime_seconds", "Seconds since the router started.", "", func() float64 {
		return time.Since(rt.start).Seconds()
	})

	rt.shards = make([]*shard, len(cfg.Addrs))
	for i, addr := range cfg.Addrs {
		base := addr
		if !hasScheme(base) {
			base = "http://" + base
		}
		lbl := fmt.Sprintf("shard=%q", fmt.Sprint(i))
		sh := &shard{
			addr:    addr,
			base:    base,
			client:  server.NewClientHTTP(addr, rt.http),
			upGauge: rt.reg.Gauge("lakerouter_shard_up", "Shard reachability: 1 when the last health check succeeded.", lbl),
			latency: rt.reg.Histogram("lakerouter_shard_seconds", "Per-shard sub-request latency.", lbl),
			fails:   rt.reg.Counter("lakerouter_shard_failures_total", "Per-shard sub-request failures (refused, timeout, 5xx, shed).", lbl),
		}
		sh.state.Store(&shardState{})
		rt.shards[i] = sh
	}

	rt.mux = http.NewServeMux()
	rt.mux.HandleFunc("/v1/join", rt.endpoints["join"].Handler(rt.handleJoin))
	rt.mux.HandleFunc("/v1/union", rt.endpoints["union"].Handler(rt.handleUnion))
	rt.mux.HandleFunc("/v1/keyword", rt.endpoints["keyword"].Handler(rt.handleKeyword))
	rt.mux.HandleFunc("/v1/discover", rt.endpoints["discover"].Handler(rt.handleDiscover))
	rt.mux.HandleFunc("/v1/admin/reload", rt.handleReload)
	rt.mux.HandleFunc("/healthz", rt.handleHealthz)
	rt.mux.HandleFunc("/stats", rt.handleStats)
	rt.mux.HandleFunc("/metrics", rt.handleMetrics)
	return rt, nil
}

// idleConnsPerShard sizes the keep-alive pool per shard. The default
// transport keeps two idle connections per host, so a third concurrent
// sub-request to a shard dials a connection, uses it once and closes
// it; a shard admits NumCPU queries at a time by default and a routed
// seed adds a fetch beside the owner's query, so keep enough for a
// fan-out that wide.
const idleConnsPerShard = 64

// shardTransport returns the transport shard requests travel on: the
// override when one is given, otherwise a clone of the default one
// whose idle pool fits a fan-out.
func shardTransport(override http.RoundTripper) http.RoundTripper {
	if override != nil {
		return override
	}
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConns = 0 // no global cap: the per-host one bounds it
	t.MaxIdleConnsPerHost = idleConnsPerShard
	return t
}

func hasScheme(addr string) bool {
	for i := 0; i < len(addr); i++ {
		if addr[i] == ':' {
			return i+2 < len(addr) && addr[i+1] == '/' && addr[i+2] == '/'
		}
	}
	return false
}

// Handler returns the router's HTTP handler.
func (rt *Router) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				rt.panics.Inc()
				server.WriteError(w, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", v))
			}
		}()
		rt.mux.ServeHTTP(w, r)
	})
}

// Metrics exposes the registry for embedding and tests.
func (rt *Router) Metrics() *obs.Registry { return rt.reg }

// Start launches the background health loop. Stop terminates it.
func (rt *Router) Start() {
	rt.healthOnce.Do(func() {
		go func() {
			defer close(rt.healthDone)
			t := time.NewTicker(rt.cfg.HealthInterval)
			defer t.Stop()
			for {
				select {
				case <-rt.healthStop:
					return
				case <-t.C:
					rt.CheckShards(context.Background())
				}
			}
		}()
	})
}

// Stop terminates the health loop (idempotent; safe before Start).
func (rt *Router) Stop() {
	select {
	case <-rt.healthStop:
	default:
		close(rt.healthStop)
	}
}

// CheckShards polls every shard's /healthz once, concurrently, and
// updates the health state: up gauges, generation tracking (a change
// purges the cache), and manifest policing — any shard whose manifest
// hash differs from the reference (the lowest-indexed reachable shard
// that reports one) is quarantined out of the fan-out set, because a
// shard built from a different partitioning returns wrong results,
// not stale ones. Returns the number of reachable shards.
func (rt *Router) CheckShards(ctx context.Context) int {
	states := make([]*shardState, len(rt.shards))
	var wg sync.WaitGroup
	for i, sh := range rt.shards {
		wg.Add(1)
		go func(i int, sh *shard) {
			defer wg.Done()
			hctx, cancel := context.WithTimeout(ctx, rt.cfg.ShardTimeout)
			defer cancel()
			h, err := sh.client.Healthz(hctx)
			if err != nil {
				states[i] = &shardState{}
				return
			}
			st := &shardState{up: true, generation: h.Generation, tables: h.Tables}
			if h.Shard != nil {
				st.manifestHash = h.Shard.ManifestHash
				if h.Shard.Count != len(rt.shards) || h.Shard.Index != i {
					// Wrong partitioning arity or a shard serving under the
					// wrong index: its results cannot be merged.
					st.quarantined = true
				}
			}
			states[i] = st
		}(i, sh)
	}
	wg.Wait()

	// Manifest policing: the reference hash is the lowest-indexed
	// reachable shard that reports one.
	ref := ""
	for _, st := range states {
		if st.up && st.manifestHash != "" {
			ref = st.manifestHash
			break
		}
	}
	up := 0
	for i, st := range states {
		if st.up && !st.quarantined && st.manifestHash != ref {
			st.quarantined = true
		}
		if st.quarantined {
			rt.mismatches.Inc()
		}
		rt.shards[i].state.Store(st)
		if st.up && !st.quarantined {
			rt.shards[i].upGauge.Set(1)
			up++
		} else {
			rt.shards[i].upGauge.Set(0)
		}
	}

	// Fingerprint the generation vector; purge the cache when it moves.
	h := uint64(1469598103934665603)
	for _, st := range states {
		h ^= st.generation + 0x9e3779b97f4a7c15
		h *= 1099511628211
	}
	if rt.genHash.Swap(h) != h {
		rt.cache.Purge()
	}
	return up
}

// --- fan-out ---

// shardResult is one shard's answer to a fanned-out sub-request.
type shardResult struct {
	status int
	body   []byte
	err    error
}

// ok reports whether the sub-request produced a mergeable 2xx answer.
func (r shardResult) ok() bool { return r.err == nil && r.status/100 == 2 }

// clientError reports a deterministic 4xx the shard computed from the
// request itself (bad query, unknown table) — every shard would agree,
// so the router propagates it instead of degrading. Overload (429) is
// a shard-local condition and counts as a failure instead.
func (r shardResult) clientError() bool {
	return r.err == nil && r.status/100 == 4 && r.status != http.StatusTooManyRequests
}

// eligible returns the shards queries fan out to: everything not
// quarantined by manifest policing. Shards currently marked down are
// still attempted — a refused connection is cheap, and it makes
// recovery immediate rather than waiting a health interval.
func (rt *Router) eligible() []*shard {
	out := make([]*shard, 0, len(rt.shards))
	for _, sh := range rt.shards {
		if !sh.state.Load().quarantined {
			out = append(out, sh)
		}
	}
	return out
}

// seedRoute is how a table_id seed reaches the shards that do not hold
// the table: the owner answers the caller's own request, resolving the
// ID in its catalog, and the others get rest — the request without its
// seed — with the owner's copy of the table spliced in as "table".
type seedRoute struct {
	owner *shard
	id    string
	rest  any
}

// seedFor routes a request seeded by table id, whose seedless form is
// rest. A single shard owns every table: nothing has to travel.
func (rt *Router) seedFor(id string, rest any) *seedRoute {
	if id == "" || len(rt.shards) == 1 {
		return nil
	}
	return &seedRoute{owner: rt.shards[snap.ShardOf(id, len(rt.shards))], id: id, rest: rest}
}

// fetch GETs the seed table from its owner as raw bytes and returns
// the inline request for the other shards. When there is none to
// send, the second result is what those shards contribute instead: the
// owner's deterministic 4xx (it has the table or nobody does), or a
// failure, which is counted against the owner.
func (rt *Router) fetch(ctx context.Context, seed *seedRoute) ([]byte, shardResult) {
	var res shardResult
	res.status, res.body, res.err = rt.callShard(ctx, seed.owner, http.MethodGet, "/v1/table?id="+url.QueryEscape(seed.id), nil)
	if !res.ok() {
		if !res.clientError() {
			seed.owner.fails.Inc()
		}
		return nil, res
	}
	// /v1/table answers in the inline-table wire form, so its bytes are
	// the "table" member as they stand.
	head, err := json.Marshal(seed.rest)
	if err != nil {
		return nil, shardResult{err: err}
	}
	inline := make([]byte, 0, len(head)+len(res.body)+len(`,"table":`))
	inline = append(inline, head[:len(head)-1]...)
	if len(head) > len(`{}`) {
		inline = append(inline, ',')
	}
	inline = append(inline, `"table":`...)
	inline = append(inline, res.body...)
	return append(inline, '}'), shardResult{}
}

// fanout POSTs body to path on every given shard concurrently, each
// under its own ShardTimeout, and returns one result per shard. With a
// seed to route, only its owner gets body, at once; the fetch of the
// table runs beside that query, and the other shards are posted the
// inline form the moment it lands.
func (rt *Router) fanout(ctx context.Context, path string, body []byte, shards []*shard, seed *seedRoute) []shardResult {
	results := make([]shardResult, len(shards))
	var wg sync.WaitGroup
	post := func(i int, sh *shard, body []byte) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			status, out, err := rt.callShard(ctx, sh, http.MethodPost, path, body)
			sh.latency.Observe(time.Since(t0))
			results[i] = shardResult{status: status, body: out, err: err}
			if !results[i].ok() && !results[i].clientError() {
				sh.fails.Inc()
			}
		}()
	}
	for i, sh := range shards {
		if seed == nil || sh == seed.owner {
			post(i, sh, body)
		}
	}
	if seed != nil {
		inline, failed := rt.fetch(ctx, seed)
		for i, sh := range shards {
			if sh == seed.owner {
				continue
			}
			if inline == nil {
				results[i] = failed
				continue
			}
			post(i, sh, inline)
		}
	}
	wg.Wait()
	return results
}

// callShard sends one sub-request to a shard under ShardTimeout and
// returns the status and the whole body.
func (rt *Router) callShard(ctx context.Context, sh *shard, method, path string, body []byte) (int, []byte, error) {
	sctx, cancel := context.WithTimeout(ctx, rt.cfg.ShardTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(sctx, method, sh.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if method == http.MethodPost {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := rt.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, out, nil
}
