package server

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"sort"
	"time"

	"tablehound/internal/discover"
	"tablehound/internal/qcache"
	"tablehound/internal/table"
	"tablehound/internal/tokenize"
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
	if _, ok := DecodeBody(w, r, &req); !ok {
		return
	}
	q, err := req.Validate()
	if err != nil {
		WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	snap := s.snap.Load()
	s.serveRanked(w, r, snap, joinKey(snap, q), q, false)
}

func (s *Server) handleUnion(w http.ResponseWriter, r *http.Request) {
	var req UnionRequest
	if _, ok := DecodeBody(w, r, &req); !ok {
		return
	}
	q, err := req.Validate()
	if err != nil {
		WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	snap := s.snap.Load()
	var key string
	if q.TableID != "" {
		// Inline tables are not cached: their content is the key and
		// hashing it wholesale buys little for one-off queries.
		var kb qcache.KeyBuilder
		kb.Byte('U').U64(snap.dataGen).Byte(byte(q.UnionMethod)).U32(uint32(q.K)).Str(q.TableID)
		key = kb.String()
	}
	s.serveRanked(w, r, snap, key, q, false)
}

func (s *Server) handleKeyword(w http.ResponseWriter, r *http.Request) {
	var req KeywordRequest
	if _, ok := DecodeBody(w, r, &req); !ok {
		return
	}
	k, modeByte, err := req.Validate()
	if err != nil {
		WriteError(w, http.StatusBadRequest, err.Error())
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
	WriteJSON(w, http.StatusOK, resp)
}

// handleTable serves GET /v1/table?id=X: the named lake table in
// inline form. It reads the current snapshot without admission
// control — it is a catalog lookup, not a search.
func (s *Server) handleTable(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		WriteError(w, http.StatusMethodNotAllowed, "use GET with an id parameter")
		return
	}
	id := r.URL.Query().Get("id")
	if id == "" {
		WriteError(w, http.StatusBadRequest, "missing id parameter")
		return
	}
	snap := s.snap.Load()
	t := snap.sys.Catalog.Table(id)
	if t == nil {
		WriteError(w, http.StatusNotFound, fmt.Sprintf("table %q: not found", id))
		return
	}
	resp := TableResponse{ID: t.ID, Name: t.Name, Columns: make([]InlineColumn, len(t.Columns))}
	for i, c := range t.Columns {
		resp.Columns[i] = InlineColumn{Name: c.Name, Values: c.Values}
	}
	WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	snap := s.snap.Load()
	cs := s.cache.Stats()
	uptime := time.Since(s.start).Seconds()
	eps := make(map[string]EndpointStats, len(s.endpoints))
	for name, m := range s.endpoints {
		eps[name] = m.Stats(uptime)
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
	WriteJSON(w, http.StatusOK, StatsResponse{
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
func joinKey(snap *snapshot, q RankedRequest) string {
	vals := tokenize.NormalizeSet(q.Values)
	sort.Strings(vals)
	var kb qcache.KeyBuilder
	kb.Byte('J').U64(snap.dataGen).Byte(byte(q.JoinMode)).U32(uint32(q.K))
	if q.JoinMode == discover.ModeContainment {
		kb.U64(math.Float64bits(q.Threshold))
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

// CheckK applies the server-side top-k policy: an absent or
// non-positive k is a bad query (wrapping table.ErrBadQuery → HTTP
// 400) on every endpoint, and k is capped at maxK.
func CheckK(k int) (int, error) {
	if k <= 0 {
		return 0, fmt.Errorf("k must be a positive integer (got %d): %w", k, table.ErrBadQuery)
	}
	if k > maxK {
		return maxK, nil
	}
	return k, nil
}

// Validate checks a /v1/keyword request and returns the capped k and
// the mode as its cache-key byte: "" or "meta" → 0, "values" → 1.
// Errors wrap table.ErrBadQuery.
func (req KeywordRequest) Validate() (k int, mode byte, err error) {
	if k, err = CheckK(req.K); err != nil {
		return 0, 0, err
	}
	switch req.Mode {
	case "", "meta":
		return k, 0, nil
	case "values":
		return k, 1, nil
	}
	return 0, 0, fmt.Errorf("unknown keyword mode %q (want meta or values): %w", req.Mode, table.ErrBadQuery)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
