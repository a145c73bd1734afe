// Package server is the lakeserved serving layer: it wraps a built
// core.System in an HTTP API with admission control, a query-result
// cache, live observability, and graceful lifecycle management.
//
// Layering, outermost first:
//
//	panic recovery  → a handler panic becomes HTTP 500 + a counter,
//	                  never a dead process
//	drain gate      → during shutdown new requests get 503 while
//	                  in-flight ones finish
//	metrics         → per-endpoint request counts, error counts, and
//	                  streaming latency quantiles (internal/obs)
//	admission       → a semaphore bounds concurrent queries, a bounded
//	                  queue absorbs bursts, and beyond that requests
//	                  are shed with 429 + Retry-After
//	cache           → exact-key query-result cache (internal/qcache);
//	                  a hit returns the bit-identical bytes of the
//	                  original response
//	query           → the core.System search surfaces, run under a
//	                  per-request timeout with cooperative cancellation
//
// The lake snapshot is an atomic pointer: Swap installs a new
// core.System without pausing traffic and invalidates the cache (both
// eagerly, via Purge, and structurally — cache keys embed the snapshot
// generation, so a response computed against an old snapshot can never
// be served against a new one).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tablehound/internal/core"
	"tablehound/internal/discover"
	"tablehound/internal/lake"
	"tablehound/internal/obs"
	"tablehound/internal/qcache"
	"tablehound/internal/table"
)

// Config tunes the serving layer. The zero value gets sensible
// defaults from New.
type Config struct {
	// MaxInFlight bounds concurrently executing queries. Default:
	// NumCPU, min 2.
	MaxInFlight int
	// MaxQueue bounds requests waiting for an execution slot; beyond
	// it requests are shed with 429. Default: 4*MaxInFlight.
	MaxQueue int
	// QueryTimeout is the per-request execution budget. Expired
	// requests get 504; surfaces with context plumbing abort early.
	// Default: 30s.
	QueryTimeout time.Duration
	// DrainTimeout bounds how long Shutdown waits for in-flight
	// queries. Default: 10s.
	DrainTimeout time.Duration
	// CacheEntries sizes the query-result cache; 0 disables caching.
	CacheEntries int
	// Shard, when non-nil, marks this server as serving one shard of a
	// partitioned lake. /healthz reports it, so a router can verify
	// that every upstream was built from the same manifest before
	// fanning queries across them.
	Shard *ShardIdentity
}

// ShardIdentity names the shard a server is serving and the manifest
// it was partitioned under.
type ShardIdentity struct {
	// Index is the shard number in [0, Count).
	Index int
	// Count is the total shard count of the partitioning.
	Count int
	// ManifestHash fingerprints the build manifest (snap.Manifest.Hash).
	ManifestHash uint64
}

func (c *Config) applyDefaults() {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = runtime.NumCPU()
		if c.MaxInFlight < 2 {
			c.MaxInFlight = 2
		}
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxInFlight
	}
	if c.QueryTimeout <= 0 {
		c.QueryTimeout = 30 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
}

// snapshot bundles a built system with its precomputed lake stats, the
// monotonic swap generation (observability), and the data generation
// (core.System.Generation — the hash of the live table membership)
// that namespaces cache keys. Two snapshots with the same dataGen
// answer every query bit-identically (the delta parity invariant), so
// cache entries survive swaps that do not change the data — e.g. a
// compaction that folds a delta chain into an equivalent base.
type snapshot struct {
	sys     *core.System
	stats   lake.Stats
	gen     uint64
	dataGen uint64
}

// Server serves discovery queries over one atomically swappable lake
// snapshot.
type Server struct {
	cfg   Config
	snap  atomic.Pointer[snapshot]
	gen   atomic.Uint64
	cache *qcache.Cache
	lim   *limiter
	mux   *http.ServeMux
	start time.Time

	draining atomic.Bool
	queries  sync.WaitGroup // query goroutines, incl. ones orphaned by timeout

	// reloader, when set, produces a replacement system for the
	// /v1/admin/reload endpoint (typically by loading a snapshot file).
	// compactor, when set, folds the serving delta chain into a new
	// base for /v1/admin/compact (typically core.CompactFiles plus
	// delta-file retirement). reloadMu serializes both so concurrent
	// requests install their snapshots one at a time, in order.
	reloadMu  sync.Mutex
	reloader  func() (*core.System, error)
	compactor func() (*core.System, error)

	// Observability.
	reg       *obs.Registry
	endpoints map[string]*EndpointMetrics
	stages    map[string]*stageMetrics
	inflight  *obs.Gauge
	queued    *obs.Gauge
	shed      *obs.Counter
	timeouts  *obs.Counter
	panics    *obs.Counter
	swaps     *obs.Counter
	// service tracks pure query execution time (excluding queueing),
	// the input to the Retry-After estimate for shed requests.
	service *obs.Histogram

	// testHookQueryStart, when set, runs at the start of every query
	// goroutine while its admission slot is held. Tests use it to pin
	// queries and saturate admission deterministically.
	testHookQueryStart func()
}

// EndpointMetrics are one query endpoint's serving counters: requests,
// non-2xx answers, and latency. The server and the router each register
// theirs under their own metric names and share the middleware that
// feeds them and the /stats row that reads them.
type EndpointMetrics struct {
	Requests *obs.Counter
	Errors   *obs.Counter
	Latency  *obs.Histogram
}

// Handler wraps a query handler so every request is counted and timed;
// the handler's final status code is read off the response writer.
func (m *EndpointMetrics) Handler(h func(http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r)
		m.Requests.Inc()
		if sw.status >= 400 {
			m.Errors.Inc()
		}
		m.Latency.Observe(time.Since(start))
	}
}

// Stats renders the endpoint's /stats row for a process up uptime
// seconds.
func (m *EndpointMetrics) Stats(uptime float64) EndpointStats {
	reqs := m.Requests.Value()
	qps := 0.0
	if uptime > 0 {
		qps = float64(reqs) / uptime
	}
	return EndpointStats{
		Requests: reqs,
		Errors:   m.Errors.Value(),
		QPS:      qps,
		P50Ms:    ms(m.Latency.Quantile(0.5)),
		P95Ms:    ms(m.Latency.Quantile(0.95)),
		P99Ms:    ms(m.Latency.Quantile(0.99)),
	}
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// stageMetrics tracks one discover planner stage: latency,
// candidate-reduction counters (candidates entering vs surviving), and
// the planner's survivor estimates vs reality (estimate totals and
// absolute estimate error, for est-quality dashboards).
type stageMetrics struct {
	latency *obs.Histogram
	in      *obs.Counter
	out     *obs.Counter
	estOut  *obs.Counter
	estErr  *obs.Counter
}

// New builds a Server around an already-built system.
func New(sys *core.System, cfg Config) *Server {
	cfg.applyDefaults()
	s := &Server{
		cfg:   cfg,
		cache: qcache.New(cfg.CacheEntries),
		lim:   newLimiter(cfg.MaxInFlight, cfg.MaxQueue),
		reg:   obs.NewRegistry(),
		start: time.Now(),
	}
	s.snap.Store(&snapshot{sys: sys, stats: sys.Catalog.Stats(), gen: 0, dataGen: sys.Generation()})

	s.endpoints = make(map[string]*EndpointMetrics)
	for _, name := range []string{"join", "union", "keyword", "discover"} {
		lbl := fmt.Sprintf("endpoint=%q", name)
		s.endpoints[name] = &EndpointMetrics{
			Requests: s.reg.Counter("lakeserved_requests_total", "Requests handled, by endpoint.", lbl),
			Errors:   s.reg.Counter("lakeserved_errors_total", "Requests answered with a non-2xx status, by endpoint.", lbl),
			Latency:  s.reg.Histogram("lakeserved_request_seconds", "Request latency, by endpoint.", lbl),
		}
	}
	s.stages = make(map[string]*stageMetrics)
	for _, name := range []string{
		discover.StageMeta, discover.StageKeyword, discover.StageValues,
		discover.StageCandidates, discover.StageVerify,
	} {
		lbl := fmt.Sprintf("stage=%q", name)
		s.stages[name] = &stageMetrics{
			latency: s.reg.Histogram("lakeserved_discover_stage_seconds", "Discover planner stage latency, by stage.", lbl),
			in:      s.reg.Counter("lakeserved_discover_stage_candidates_in_total", "Candidates entering a discover planner stage.", lbl),
			out:     s.reg.Counter("lakeserved_discover_stage_candidates_out_total", "Candidates surviving a discover planner stage.", lbl),
			estOut:  s.reg.Counter("lakeserved_discover_stage_est_out_total", "Planner-estimated survivors of a discover stage.", lbl),
			estErr:  s.reg.Counter("lakeserved_discover_stage_est_abs_err_total", "Absolute error of the planner's survivor estimate, by stage.", lbl),
		}
	}
	s.inflight = s.reg.Gauge("lakeserved_inflight", "Queries currently executing.", "")
	s.queued = s.reg.Gauge("lakeserved_queue_depth", "Queries waiting for an execution slot.", "")
	s.shed = s.reg.Counter("lakeserved_shed_total", "Requests shed with 429 because the wait queue was full.", "")
	s.timeouts = s.reg.Counter("lakeserved_timeouts_total", "Queries that exceeded the per-request timeout.", "")
	s.panics = s.reg.Counter("lakeserved_panics_total", "Handler panics recovered into HTTP 500.", "")
	s.swaps = s.reg.Counter("lakeserved_snapshot_swaps_total", "Lake snapshot swaps.", "")
	s.service = s.reg.Histogram("lakeserved_service_seconds", "Query execution time, excluding admission queueing.", "")
	s.reg.GaugeFunc("lakeserved_cache_hit_ratio", "Query cache hit ratio since start.", "", s.cache.HitRatio)
	s.reg.GaugeFunc("lakeserved_cache_entries", "Query cache resident entries.", "", func() float64 {
		return float64(s.cache.Len())
	})
	s.reg.GaugeFunc("lakeserved_uptime_seconds", "Seconds since the server started.", "", func() float64 {
		return time.Since(s.start).Seconds()
	})

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/join", s.endpoints["join"].Handler(s.handleJoin))
	s.mux.HandleFunc("/v1/union", s.endpoints["union"].Handler(s.handleUnion))
	s.mux.HandleFunc("/v1/keyword", s.endpoints["keyword"].Handler(s.handleKeyword))
	s.mux.HandleFunc("/v1/discover", s.endpoints["discover"].Handler(s.handleDiscover))
	s.mux.HandleFunc("/v1/table", s.handleTable)
	s.mux.HandleFunc("/v1/admin/reload", s.handleReload)
	s.mux.HandleFunc("/v1/admin/compact", s.handleCompact)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	return s
}

// Handler returns the full middleware-wrapped HTTP handler.
func (s *Server) Handler() http.Handler {
	return s.recoverMiddleware(s.drainMiddleware(s.mux))
}

// System returns the currently served system snapshot.
func (s *Server) System() *core.System { return s.snap.Load().sys }

// Generation returns the current snapshot generation (0 at startup,
// bumped by every Swap).
func (s *Server) Generation() uint64 { return s.snap.Load().gen }

// Swap atomically installs a new lake snapshot. In-flight queries
// finish against the snapshot they started with. The query cache is
// purged only when the data generation actually changes: cache keys
// embed the data generation, and two systems at the same generation
// answer bit-identically (the delta parity invariant), so a swap to an
// equivalent system — a compaction folding the serving delta chain
// into a new base, or a reload of the same files — keeps every entry.
func (s *Server) Swap(sys *core.System) {
	gen := s.gen.Add(1)
	dataGen := sys.Generation()
	prev := s.snap.Load()
	s.snap.Store(&snapshot{sys: sys, stats: sys.Catalog.Stats(), gen: gen, dataGen: dataGen})
	if prev == nil || prev.dataGen != dataGen {
		// Keys embed dataGen, so stale entries are already unreachable;
		// Purge just reclaims their memory eagerly.
		s.cache.Purge()
	}
	s.swaps.Inc()
}

// SetReloader installs the function /v1/admin/reload uses to produce
// a replacement system (typically core.LoadFile over a snapshot path).
// Without one, reload requests get 501.
func (s *Server) SetReloader(fn func() (*core.System, error)) {
	s.reloadMu.Lock()
	s.reloader = fn
	s.reloadMu.Unlock()
}

// Reload runs the configured reloader and, on success, installs the
// new system via Swap. It is the programmatic twin of the HTTP
// endpoint (the daemon's SIGHUP handler calls it too). Reloads are
// serialized; the snapshot load runs outside the admission limiter so
// serving is never blocked behind it.
func (s *Server) Reload() (*core.System, error) {
	s.reloadMu.Lock()
	fn := s.reloader
	if fn == nil {
		s.reloadMu.Unlock()
		return nil, errNoReloader
	}
	defer s.reloadMu.Unlock()
	sys, err := fn()
	if err != nil {
		return nil, err
	}
	s.Swap(sys)
	return sys, nil
}

// SetCompactor installs the function POST /v1/admin/compact uses to
// fold the serving snapshot's delta chain into a fresh base (typically
// core.CompactFiles plus retirement of the consumed delta files).
// Without one, compact requests get 501.
func (s *Server) SetCompactor(fn func() (*core.System, error)) {
	s.reloadMu.Lock()
	s.compactor = fn
	s.reloadMu.Unlock()
}

// Compact runs the configured compactor and, on success, installs the
// merged system via Swap. The merged system has the same data
// generation as the chain it folds, so the swap keeps the query cache.
// Compactions share the reload mutex: a reload cannot interleave with
// a compaction and observe a half-retired delta chain.
func (s *Server) Compact() (*core.System, error) {
	s.reloadMu.Lock()
	fn := s.compactor
	if fn == nil {
		s.reloadMu.Unlock()
		return nil, errNoCompactor
	}
	defer s.reloadMu.Unlock()
	sys, err := fn()
	if err != nil {
		return nil, err
	}
	s.Swap(sys)
	return sys, nil
}

func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		WriteError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	sys, err := s.Compact()
	if err != nil {
		if errors.Is(err, errNoCompactor) {
			WriteError(w, http.StatusNotImplemented, err.Error())
			return
		}
		WriteError(w, http.StatusInternalServerError, "compact failed: "+err.Error())
		return
	}
	WriteJSON(w, http.StatusOK, CompactResponse{
		Generation: s.gen.Load(),
		Tables:     sys.Catalog.Stats().Tables,
		DeltaDepth: sys.Lineage.Depth(),
	})
}

// CompactResponse is the body of a successful /v1/admin/compact.
type CompactResponse struct {
	Generation uint64 `json:"generation"`
	Tables     int    `json:"tables"`
	DeltaDepth int    `json:"delta_depth"`
}

// errNoReloader marks a reload request on a server with no reloader.
var errNoReloader = errors.New("server: no reloader configured")

// errNoCompactor marks a compact request on a server with no compactor.
var errNoCompactor = errors.New("server: no compactor configured")

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		WriteError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	sys, err := s.Reload()
	if err != nil {
		if errors.Is(err, errNoReloader) {
			WriteError(w, http.StatusNotImplemented, err.Error())
			return
		}
		WriteError(w, http.StatusInternalServerError, "reload failed: "+err.Error())
		return
	}
	st := sys.Catalog.Stats()
	WriteJSON(w, http.StatusOK, ReloadResponse{
		Generation: s.gen.Load(),
		Tables:     st.Tables,
		Columns:    st.Columns,
	})
}

// ReloadResponse is the body of a successful /v1/admin/reload.
type ReloadResponse struct {
	Generation uint64 `json:"generation"`
	Tables     int    `json:"tables"`
	Columns    int    `json:"columns"`
}

// Shutdown drains the server: new requests are refused with 503 and
// in-flight queries get until ctx (or Config.DrainTimeout, whichever
// is sooner) to finish. Returns an error if the drain deadline passed
// with queries still running.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	drainCtx, cancel := context.WithTimeout(ctx, s.cfg.DrainTimeout)
	defer cancel()
	done := make(chan struct{})
	go func() {
		s.queries.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-drainCtx.Done():
		return fmt.Errorf("server: drain deadline exceeded with queries still in flight: %w", drainCtx.Err())
	}
}

// Metrics exposes the registry (for embedding and tests).
func (s *Server) Metrics() *obs.Registry { return s.reg }

// CacheStats exposes the query-cache counters.
func (s *Server) CacheStats() qcache.Stats { return s.cache.Stats() }

// --- middleware ---

func (s *Server) recoverMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				s.panics.Inc()
				WriteError(w, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", v))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

func (s *Server) drainMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			w.Header().Set("Connection", "close")
			WriteError(w, http.StatusServiceUnavailable, "server is shutting down")
			return
		}
		next.ServeHTTP(w, r)
	})
}

// --- query execution ---

// errShed marks a request refused by admission control.
var errShed = errors.New("server: overloaded, request shed")

// runQuery executes fn under admission control and the per-request
// timeout. The admission slot is released when fn actually returns —
// if the deadline fires first the caller gets the timeout error
// immediately but the slot stays held by the orphaned goroutine, so
// MaxInFlight truly bounds concurrent execution.
func (s *Server) runQuery(ctx context.Context, fn func(context.Context) (any, error)) (any, error) {
	release, err := s.lim.acquire(ctx, s.queued)
	if err != nil {
		return nil, err
	}
	qctx, cancel := context.WithTimeout(ctx, s.cfg.QueryTimeout)

	type out struct {
		v   any
		err error
	}
	ch := make(chan out, 1)
	s.queries.Add(1)
	s.inflight.Inc()
	go func() {
		defer func() {
			if v := recover(); v != nil {
				ch <- out{err: fmt.Errorf("query panic: %v", v)}
			}
			s.inflight.Dec()
			s.queries.Done()
			cancel()
			release()
		}()
		if hook := s.testHookQueryStart; hook != nil {
			hook()
		}
		t0 := time.Now()
		v, err := fn(qctx)
		s.service.Observe(time.Since(t0))
		ch <- out{v: v, err: err}
	}()

	select {
	case o := <-ch:
		return o.v, o.err
	case <-qctx.Done():
		// The query goroutine cancels qctx on its way out, after it has
		// sent its result; a handler that gets here only then finds both
		// cases ready and select picks at random. A result that is there
		// wins over the cancellation it caused.
		select {
		case o := <-ch:
			return o.v, o.err
		default:
		}
		s.timeouts.Inc()
		return nil, qctx.Err()
	}
}

// serveQuery is the shared tail of every query endpoint: cache lookup,
// admission, execution, error mapping, cache fill, response. key == ""
// bypasses the cache.
func (s *Server) serveQuery(w http.ResponseWriter, r *http.Request, key string, fn func(context.Context) (any, error)) {
	if key != "" {
		if body, ok := s.cache.Get(key); ok {
			w.Header().Set("X-Cache", "HIT")
			WriteJSONBytes(w, http.StatusOK, body)
			return
		}
		w.Header().Set("X-Cache", "MISS")
	} else {
		w.Header().Set("X-Cache", "BYPASS")
	}

	v, err := s.runQuery(r.Context(), fn)
	if err != nil {
		status, msg := errorStatus(err)
		if status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", s.retryAfter())
			s.shed.Inc()
		} else if errors.Is(err, errSlotWait) {
			w.Header().Set("Retry-After", s.retryAfter())
		}
		WriteError(w, status, msg)
		return
	}
	body, err := json.Marshal(v)
	if err != nil {
		WriteError(w, http.StatusInternalServerError, "encoding response: "+err.Error())
		return
	}
	if key != "" {
		s.cache.Put(key, body)
	}
	WriteJSONBytes(w, http.StatusOK, body)
}

// retryAfter estimates how long a shed client should wait before
// retrying, as whole seconds: the current queue must drain ahead of a
// fresh arrival, queued requests drain MaxInFlight at a time, and each
// wave takes about one p95 service time. With no service history yet
// (or a sub-second estimate) the floor is 1s; the ceiling is 60s so a
// latency spike cannot park clients for minutes.
func (s *Server) retryAfter() string {
	return strconv.Itoa(s.retryAfterSeconds(s.lim.queueLen(), s.service.Quantile(0.95)))
}

func (s *Server) retryAfterSeconds(queueDepth int, p95 time.Duration) int {
	waves := queueDepth/s.cfg.MaxInFlight + 1
	secs := int(math.Ceil((time.Duration(waves) * p95).Seconds()))
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// errorStatus maps a query error to an HTTP status.
func errorStatus(err error) (int, string) {
	switch {
	case errors.Is(err, errShed):
		return http.StatusTooManyRequests, "server overloaded, retry later"
	case errors.Is(err, errSlotWait):
		// Expired while queued for admission: the query never executed,
		// so this is overload (retryable), not an execution timeout.
		return http.StatusServiceUnavailable, "server overloaded, gave up waiting for an execution slot"
	case errors.Is(err, table.ErrBadQuery):
		return http.StatusBadRequest, err.Error()
	case errors.Is(err, errNotFound):
		return http.StatusNotFound, err.Error()
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "query exceeded the server's time budget"
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable, "request canceled"
	default:
		return http.StatusInternalServerError, err.Error()
	}
}

// errNotFound marks a lookup of an unknown table ID.
var errNotFound = errors.New("not found")

// --- the HTTP edge, shared with the router so a 1-shard router is
// byte-identical on error paths too ---

// DecodeBody enforces POST, bounds the body, and parses JSON into v.
// On failure it writes the error response and returns false; on
// success it also returns the raw bytes (the router forwards them).
func DecodeBody(w http.ResponseWriter, r *http.Request, v any) ([]byte, bool) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		WriteError(w, http.StatusMethodNotAllowed, "use POST with a JSON body")
		return nil, false
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		WriteError(w, http.StatusBadRequest, "reading body: "+err.Error())
		return nil, false
	}
	if err := json.Unmarshal(body, v); err != nil {
		WriteError(w, http.StatusBadRequest, "parsing JSON body: "+err.Error())
		return nil, false
	}
	return body, true
}

// WriteJSONBytes answers with an already-encoded JSON body.
func WriteJSONBytes(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// WriteJSON encodes v and answers with it.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	WriteJSONBytes(w, status, body)
}

// WriteError answers with the ErrorResponse envelope.
func WriteError(w http.ResponseWriter, status int, msg string) {
	WriteJSONBytes(w, status, mustMarshal(ErrorResponse{Error: msg}))
}

func mustMarshal(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// ErrorResponse is the body of every non-2xx answer.
type ErrorResponse struct {
	Error string `json:"error"`
}
