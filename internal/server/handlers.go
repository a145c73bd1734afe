package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"time"

	"tablehound/internal/join"
	"tablehound/internal/qcache"
	"tablehound/internal/table"
	"tablehound/internal/tokenize"
	"tablehound/internal/union"
)

// maxBodyBytes bounds request bodies; inline query tables fit well
// under this, and it keeps a misbehaving client from ballooning the
// heap.
const maxBodyBytes = 8 << 20

// maxK is the server-side top-k ceiling.
const maxK = 1000

// --- request / response types (shared with the client) ---

// JoinRequest asks for joinable columns for a query column.
type JoinRequest struct {
	// Values is the query column.
	Values []string `json:"values"`
	// K is required and must be positive (capped at the server's
	// maximum); omitting it is a bad query on every endpoint.
	K int `json:"k,omitempty"`
	// Mode is "overlap" (default; exact top-k by value overlap) or
	// "containment" (LSH Ensemble candidates above Threshold, exactly
	// verified).
	Mode string `json:"mode,omitempty"`
	// Threshold is the containment cutoff for mode "containment"
	// (default 0.5).
	Threshold float64 `json:"threshold,omitempty"`
}

// JoinMatch is one joinable column hit.
type JoinMatch struct {
	ColumnKey   string  `json:"column_key"`
	Overlap     int     `json:"overlap"`
	Containment float64 `json:"containment"`
	Jaccard     float64 `json:"jaccard"`
}

// JoinResponse is the /v1/join answer.
type JoinResponse struct {
	Matches []JoinMatch `json:"matches"`
}

// InlineColumn is one column of an inline query table.
type InlineColumn struct {
	Name   string   `json:"name"`
	Values []string `json:"values"`
}

// InlineTable carries a query table in the request body for union
// search against tables not in the lake.
type InlineTable struct {
	ID      string         `json:"id,omitempty"`
	Name    string         `json:"name,omitempty"`
	Columns []InlineColumn `json:"columns"`
}

// UnionRequest asks for unionable tables. Exactly one of TableID (a
// lake table) or Table (an inline query table) must be set.
type UnionRequest struct {
	TableID string       `json:"table_id,omitempty"`
	Table   *InlineTable `json:"table,omitempty"`
	K       int          `json:"k,omitempty"`
	// Method is "tus" (default), "santos", "starmie", or "d3l".
	Method string `json:"method,omitempty"`
}

// TableScore is one ranked table.
type TableScore struct {
	TableID string  `json:"table_id"`
	Score   float64 `json:"score"`
}

// UnionResponse is the /v1/union answer.
type UnionResponse struct {
	Results []TableScore `json:"results"`
}

// KeywordRequest asks for tables by keyword.
type KeywordRequest struct {
	Query string `json:"q"`
	K     int    `json:"k,omitempty"`
	// Mode is "meta" (default; BM25 over table metadata) or "values"
	// (keyword hits in cell values, grouped into same-schema
	// clusters).
	Mode string `json:"mode,omitempty"`
}

// ValueCluster is one same-schema group of value-search results.
type ValueCluster struct {
	Schema   []string `json:"schema"`
	TableIDs []string `json:"table_ids"`
	Score    float64  `json:"score"`
}

// KeywordResponse is the /v1/keyword answer; Results is set in mode
// "meta", Clusters in mode "values".
type KeywordResponse struct {
	Results  []TableScore   `json:"results,omitempty"`
	Clusters []ValueCluster `json:"clusters,omitempty"`
}

// HealthResponse is the /healthz answer. Generation is the snapshot
// generation (bumped on every Swap); Shard is present only on servers
// serving one shard of a partitioned lake — the router uses it to
// health-check upstreams and to refuse mixing shards built from
// different manifests.
type HealthResponse struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Tables        int     `json:"tables"`
	Generation    uint64  `json:"generation"`
	// DeltaDepth is the length of the delta chain merged into the
	// serving snapshot (0 when serving a plain base); a deep chain is a
	// signal to compact.
	DeltaDepth int `json:"delta_depth,omitempty"`
	// VecMode is how the serving snapshot's vector block is resident:
	// "mmap" (zero-copy, page-cache shared) or "heap".
	VecMode string       `json:"vec_mode,omitempty"`
	Shard   *ShardHealth `json:"shard,omitempty"`
}

// ShardHealth is the shard identity block of /healthz. The manifest
// hash travels as a hex string: JSON numbers cannot carry a uint64
// exactly.
type ShardHealth struct {
	Index        int    `json:"index"`
	Count        int    `json:"count"`
	ManifestHash string `json:"manifest_hash"`
}

// TableResponse is the /v1/table answer: one lake table in the inline
// form union queries accept, so a router can relocate a table_id query
// to shards that do not own the table. Its members must stay
// InlineTable's: the router splices the answer's bytes into a request
// as the "table" member without decoding them.
type TableResponse struct {
	ID      string         `json:"id"`
	Name    string         `json:"name"`
	Columns []InlineColumn `json:"columns"`
}

// StatsResponse is the /stats answer.
type StatsResponse struct {
	UptimeSeconds float64                  `json:"uptime_seconds"`
	SnapshotGen   uint64                   `json:"snapshot_gen"`
	Lake          LakeStats                `json:"lake"`
	Cache         CacheStats               `json:"cache"`
	InFlight      int64                    `json:"inflight"`
	QueueDepth    int64                    `json:"queue_depth"`
	Shed          int64                    `json:"shed"`
	Timeouts      int64                    `json:"timeouts"`
	Panics        int64                    `json:"panics"`
	SnapshotSwaps int64                    `json:"snapshot_swaps"`
	VecStore      *VecStoreStats           `json:"vecstore,omitempty"`
	Delta         *DeltaStats              `json:"delta,omitempty"`
	Endpoints     map[string]EndpointStats `json:"endpoints"`
	// Discover summarizes the /v1/discover planner stages; stages that
	// have not run yet report zeros.
	Discover map[string]DiscoverStageStats `json:"discover,omitempty"`
}

// DiscoverStageStats is the per-stage /v1/discover summary: total
// candidates entering and surviving the stage since start, the
// planner's estimated survivors and cumulative absolute estimate
// error (prefilter stages only; zeros elsewhere), plus latency
// quantiles.
type DiscoverStageStats struct {
	CandidatesIn  int64   `json:"candidates_in"`
	CandidatesOut int64   `json:"candidates_out"`
	EstOut        int64   `json:"est_out"`
	EstAbsErr     int64   `json:"est_abs_err"`
	P50Ms         float64 `json:"p50_ms"`
	P95Ms         float64 `json:"p95_ms"`
}

// DeltaStats describes the delta chain merged into the serving
// snapshot; present only when the system carries lineage (loaded from
// a snapshot or a delta chain). Generations travel as hex strings:
// JSON numbers cannot carry a uint64 exactly.
type DeltaStats struct {
	// DeltaCount is the chain length (0 = serving a plain base).
	DeltaCount int `json:"delta_count"`
	// Tombstones is the total removed-table count across the chain.
	Tombstones int `json:"tombstones"`
	// LastCompactGen is the generation of the base the chain grows from
	// — what the most recent compaction (or initial build) produced.
	LastCompactGen string `json:"last_compact_gen"`
}

// VecStoreStats describes the serving system's shared vector block:
// residency mode, shape, on-disk bytes, and the coarse-quantizer
// footprint (0 when no centroid tables are attached).
type VecStoreStats struct {
	Mode          string `json:"mode"` // "heap" | "mmap"
	Vectors       int    `json:"vectors"`
	Dim           int    `json:"dim"`
	Segments      int    `json:"segments"`
	Bytes         int64  `json:"bytes"`
	CentroidBytes int64  `json:"centroid_bytes"`
}

// LakeStats mirrors lake.Stats for the wire.
type LakeStats struct {
	Tables         int `json:"tables"`
	Columns        int `json:"columns"`
	Rows           int `json:"rows"`
	DistinctValues int `json:"distinct_values"`
}

// CacheStats mirrors qcache.Stats plus the derived hit ratio.
type CacheStats struct {
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	Evictions int64   `json:"evictions"`
	Entries   int     `json:"entries"`
	HitRatio  float64 `json:"hit_ratio"`
}

// EndpointStats is the per-endpoint serving summary.
type EndpointStats struct {
	Requests int64   `json:"requests"`
	Errors   int64   `json:"errors"`
	QPS      float64 `json:"qps"`
	P50Ms    float64 `json:"p50_ms"`
	P95Ms    float64 `json:"p95_ms"`
	P99Ms    float64 `json:"p99_ms"`
}

// --- endpoint handlers ---

func (s *Server) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req JoinRequest
	if !decodeBody(w, r, &req) {
		return
	}
	k, err := CheckK(req.K)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	modeByte, err := ParseJoinMode(req.Mode)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	threshold := req.Threshold
	if threshold <= 0 {
		threshold = 0.5
	}

	snap := s.snap.Load()
	key := s.joinKey(snap, modeByte, k, threshold, req.Values)
	s.serveQuery(w, r, key, func(ctx context.Context) (any, error) {
		var (
			ms  []join.Match
			err error
		)
		if modeByte == 0 {
			ms, err = snap.sys.JoinableColumns(req.Values, k)
		} else {
			q := snap.sys.Join.EncodeQuery(req.Values)
			if len(q.IDs) == 0 {
				return nil, fmt.Errorf("query column has no usable values: %w", table.ErrBadQuery)
			}
			ms, err = snap.sys.Join.ContainmentSearchQueryCtx(ctx, q, threshold, true)
			if err == nil && len(ms) > k {
				ms = ms[:k]
			}
		}
		if err != nil {
			return nil, err
		}
		out := make([]JoinMatch, len(ms))
		for i, m := range ms {
			out[i] = JoinMatch{
				ColumnKey: m.ColumnKey, Overlap: m.Overlap,
				Containment: m.Containment, Jaccard: m.Jaccard,
			}
		}
		return JoinResponse{Matches: out}, nil
	})
}

func (s *Server) handleUnion(w http.ResponseWriter, r *http.Request) {
	var req UnionRequest
	if !decodeBody(w, r, &req) {
		return
	}
	k, err := CheckK(req.K)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	methodByte, err := ParseUnionMethod(req.Method)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if (req.TableID == "") == (req.Table == nil) {
		writeError(w, http.StatusBadRequest, "exactly one of table_id or table must be set")
		return
	}

	snap := s.snap.Load()
	var key string
	resolve := func() (*table.Table, error) {
		if req.TableID != "" {
			t := snap.sys.Catalog.Table(req.TableID)
			if t == nil {
				return nil, fmt.Errorf("table %q: %w", req.TableID, errNotFound)
			}
			return t, nil
		}
		return inlineTable(req.Table)
	}
	if req.TableID != "" {
		// Inline tables are not cached: their content is the key and
		// hashing it wholesale buys little for one-off queries.
		var kb qcache.KeyBuilder
		kb.Byte('U').U64(snap.dataGen).Byte(methodByte).U32(uint32(k)).Str(req.TableID)
		key = kb.String()
	}
	s.serveQuery(w, r, key, func(ctx context.Context) (any, error) {
		q, err := resolve()
		if err != nil {
			return nil, err
		}
		var results []TableScore
		switch methodByte {
		case 0:
			rs, err := snap.sys.TUS.SearchCtx(ctx, q, k, union.EnsembleMeasure)
			if err != nil {
				return nil, err
			}
			results = unionScores(rs)
		case 1:
			rs, err := snap.sys.Santos.SearchCtx(ctx, q, k, union.Hybrid)
			if err != nil {
				return nil, err
			}
			results = unionScores(rs)
		case 2:
			rs, err := snap.sys.Starmie.SearchTables(ctx, q, k, 64, false)
			if err != nil {
				return nil, err
			}
			results = make([]TableScore, len(rs))
			for i, m := range rs {
				results[i] = TableScore{TableID: m.TableID, Score: m.Score}
			}
		default:
			rs, err := snap.sys.D3L.Search(ctx, q, k)
			if err != nil {
				return nil, err
			}
			results = unionScores(rs)
		}
		return UnionResponse{Results: results}, nil
	})
}

func (s *Server) handleKeyword(w http.ResponseWriter, r *http.Request) {
	var req KeywordRequest
	if !decodeBody(w, r, &req) {
		return
	}
	k, err := CheckK(req.K)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	modeByte, err := ParseKeywordMode(req.Mode)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	snap := s.snap.Load()
	var kb qcache.KeyBuilder
	kb.Byte('K').U64(snap.dataGen).Byte(modeByte).U32(uint32(k)).Str(req.Query)
	s.serveQuery(w, r, kb.String(), func(ctx context.Context) (any, error) {
		if modeByte == 0 {
			rs, err := snap.sys.KeywordSearch(req.Query, k)
			if err != nil {
				return nil, err
			}
			out := make([]TableScore, len(rs))
			for i, m := range rs {
				out[i] = TableScore{TableID: m.TableID, Score: m.Score}
			}
			return KeywordResponse{Results: out}, nil
		}
		cls, err := snap.sys.ValueSearch(req.Query, k)
		if err != nil {
			return nil, err
		}
		out := make([]ValueCluster, len(cls))
		for i, c := range cls {
			out[i] = ValueCluster{Schema: c.Schema, TableIDs: c.TableIDs, Score: c.Score}
		}
		return KeywordResponse{Clusters: out}, nil
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	snap := s.snap.Load()
	resp := HealthResponse{
		Status:        "ok",
		UptimeSeconds: time.Since(s.start).Seconds(),
		Tables:        snap.stats.Tables,
		Generation:    snap.gen,
		DeltaDepth:    snap.sys.Lineage.Depth(),
	}
	if v := snap.sys.Vecs; v != nil {
		resp.VecMode = "heap"
		if v.Mapped() {
			resp.VecMode = "mmap"
		}
	}
	if sh := s.cfg.Shard; sh != nil {
		resp.Shard = &ShardHealth{
			Index:        sh.Index,
			Count:        sh.Count,
			ManifestHash: fmt.Sprintf("%016x", sh.ManifestHash),
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleTable serves GET /v1/table?id=X: the named lake table in
// inline form. It reads the current snapshot without admission
// control — it is a catalog lookup, not a search.
func (s *Server) handleTable(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, "use GET with an id parameter")
		return
	}
	id := r.URL.Query().Get("id")
	if id == "" {
		writeError(w, http.StatusBadRequest, "missing id parameter")
		return
	}
	snap := s.snap.Load()
	t := snap.sys.Catalog.Table(id)
	if t == nil {
		writeError(w, http.StatusNotFound, fmt.Sprintf("table %q: not found", id))
		return
	}
	resp := TableResponse{ID: t.ID, Name: t.Name, Columns: make([]InlineColumn, len(t.Columns))}
	for i, c := range t.Columns {
		resp.Columns[i] = InlineColumn{Name: c.Name, Values: c.Values}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	snap := s.snap.Load()
	cs := s.cache.Stats()
	uptime := time.Since(s.start).Seconds()
	eps := make(map[string]EndpointStats, len(s.endpoints))
	for name, m := range s.endpoints {
		reqs := m.requests.Value()
		qps := 0.0
		if uptime > 0 {
			qps = float64(reqs) / uptime
		}
		eps[name] = EndpointStats{
			Requests: reqs,
			Errors:   m.errors.Value(),
			QPS:      qps,
			P50Ms:    ms(m.latency.Quantile(0.5)),
			P95Ms:    ms(m.latency.Quantile(0.95)),
			P99Ms:    ms(m.latency.Quantile(0.99)),
		}
	}
	ds2 := make(map[string]DiscoverStageStats, len(s.stages))
	for name, m := range s.stages {
		ds2[name] = DiscoverStageStats{
			CandidatesIn:  m.in.Value(),
			CandidatesOut: m.out.Value(),
			EstOut:        m.estOut.Value(),
			EstAbsErr:     m.estErr.Value(),
			P50Ms:         ms(m.latency.Quantile(0.5)),
			P95Ms:         ms(m.latency.Quantile(0.95)),
		}
	}
	var vs *VecStoreStats
	if v := snap.sys.Vecs; v != nil {
		mode := "heap"
		if v.Mapped() {
			mode = "mmap"
		}
		vs = &VecStoreStats{
			Mode:          mode,
			Vectors:       v.Count(),
			Dim:           v.Dim(),
			Segments:      len(v.Segments()),
			Bytes:         v.DataBytes() + v.NormBytes(),
			CentroidBytes: v.CentroidBytes(),
		}
	}
	var ds *DeltaStats
	if lin := snap.sys.Lineage; lin != nil {
		ds = &DeltaStats{
			DeltaCount:     lin.Depth(),
			Tombstones:     lin.TombstoneCount(),
			LastCompactGen: fmt.Sprintf("%016x", lin.LastCompactGen()),
		}
	}
	writeJSON(w, http.StatusOK, StatsResponse{
		UptimeSeconds: uptime,
		SnapshotGen:   snap.gen,
		VecStore:      vs,
		Delta:         ds,
		Lake: LakeStats{
			Tables:         snap.stats.Tables,
			Columns:        snap.stats.Columns,
			Rows:           snap.stats.Rows,
			DistinctValues: snap.stats.DistinctValues,
		},
		Cache: CacheStats{
			Hits: cs.Hits, Misses: cs.Misses, Evictions: cs.Evictions,
			Entries: cs.Entries, HitRatio: s.cache.HitRatio(),
		},
		InFlight:      s.inflight.Value(),
		QueueDepth:    s.queued.Value(),
		Shed:          s.shed.Value(),
		Timeouts:      s.timeouts.Value(),
		Panics:        s.panics.Value(),
		SnapshotSwaps: s.swaps.Value(),
		Endpoints:     eps,
		Discover:      ds2,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = s.reg.WriteText(w)
}

// --- helpers ---

// joinKey builds the cache key for a join query: the snapshot
// generation, mode, k, threshold, and the normalized distinct query
// values — in-vocabulary values as their stable dictionary ID,
// out-of-vocabulary ones as length-prefixed literals (ephemeral
// encoder IDs are not stable across queries and must not be keys).
// This matches exactly the information join.EncodeQuery extracts, so
// two requests with the same key provably produce the same result.
func (s *Server) joinKey(snap *snapshot, modeByte byte, k int, threshold float64, values []string) string {
	vals := tokenize.NormalizeSet(values)
	sort.Strings(vals)
	var kb qcache.KeyBuilder
	kb.Byte('J').U64(snap.dataGen).Byte(modeByte).U32(uint32(k))
	if modeByte == 1 {
		kb.U64(math.Float64bits(threshold))
	}
	d := snap.sys.Dict
	for _, v := range vals {
		if d != nil {
			if id, ok := d.ID(v); ok {
				kb.Byte(0).U32(id)
				continue
			}
		}
		kb.Byte(1).Str(v)
	}
	return kb.String()
}

func unionScores(rs []union.Result) []TableScore {
	out := make([]TableScore, len(rs))
	for i, r := range rs {
		out[i] = TableScore{TableID: r.TableID, Score: r.Score}
	}
	return out
}

// CheckK applies the server-side top-k policy: an absent or
// non-positive k is a bad query (wrapping table.ErrBadQuery → HTTP
// 400) on every endpoint, and k is capped at maxK. Exported so the
// shard-fanout router rejects and truncates with exactly the same
// policy as the shards it fans to.
func CheckK(k int) (int, error) {
	if k <= 0 {
		return 0, fmt.Errorf("k must be a positive integer (got %d): %w", k, table.ErrBadQuery)
	}
	if k > maxK {
		return maxK, nil
	}
	return k, nil
}

// ParseJoinMode maps the /v1/join mode string to its cache-key byte:
// "" or "overlap" → 0, "containment" → 1. Unknown strings wrap
// table.ErrBadQuery so every surface rejects them identically.
func ParseJoinMode(mode string) (byte, error) {
	switch mode {
	case "", "overlap":
		return 0, nil
	case "containment":
		return 1, nil
	}
	return 0, fmt.Errorf("unknown join mode %q (want overlap or containment): %w", mode, table.ErrBadQuery)
}

// ParseUnionMethod maps the /v1/union method string to its cache-key
// byte: "" or "tus" → 0, "santos" → 1, "starmie" → 2, "d3l" → 3.
// Unknown strings wrap table.ErrBadQuery.
func ParseUnionMethod(method string) (byte, error) {
	switch method {
	case "", "tus":
		return 0, nil
	case "santos":
		return 1, nil
	case "starmie":
		return 2, nil
	case "d3l":
		return 3, nil
	}
	return 0, fmt.Errorf("unknown union method %q (want tus, santos, starmie, or d3l): %w", method, table.ErrBadQuery)
}

// ParseKeywordMode maps the /v1/keyword mode string to its cache-key
// byte: "" or "meta" → 0, "values" → 1. Unknown strings wrap
// table.ErrBadQuery.
func ParseKeywordMode(mode string) (byte, error) {
	switch mode {
	case "", "meta":
		return 0, nil
	case "values":
		return 1, nil
	}
	return 0, fmt.Errorf("unknown keyword mode %q (want meta or values): %w", mode, table.ErrBadQuery)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// decodeBody enforces POST, bounds the body, and parses JSON. On
// failure it writes the error response and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "use POST with a JSON body")
		return false
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading body: "+err.Error())
		return false
	}
	if err := json.Unmarshal(body, v); err != nil {
		writeError(w, http.StatusBadRequest, "parsing JSON body: "+err.Error())
		return false
	}
	return true
}
