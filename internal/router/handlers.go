package router

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"tablehound/internal/discover"
	"tablehound/internal/qcache"
	"tablehound/internal/server"
)

// --- response types ---
//
// Query responses embed the shard server's response struct, so the
// field layout (and therefore the marshaled bytes) match the unsharded
// server exactly; ShardsOK is appended only when at least one shard
// failed to contribute. A complete answer from a 1-shard router is
// byte-identical to the shard's own answer. The three ranked endpoints
// share one wrapper: a DiscoverResponse marshals exactly like the
// JoinResponse or UnionResponse it stands for.

type discoverRouterResponse struct {
	server.DiscoverResponse
	ShardsOK string `json:"shards_ok,omitempty"`
}

type keywordRouterResponse struct {
	server.KeywordResponse
	ShardsOK string `json:"shards_ok,omitempty"`
}

func (r *discoverRouterResponse) setShardsOK(s string) { r.ShardsOK = s }
func (r *keywordRouterResponse) setShardsOK(s string)  { r.ShardsOK = s }

// routerResponse is a merged answer that can be marked incomplete.
type routerResponse interface{ setShardsOK(string) }

// ShardStatus is one shard's health as the router last observed it.
type ShardStatus struct {
	Shard        int    `json:"shard"`
	Addr         string `json:"addr"`
	Up           bool   `json:"up"`
	Quarantined  bool   `json:"quarantined,omitempty"`
	Generation   uint64 `json:"generation"`
	Tables       int    `json:"tables"`
	ManifestHash string `json:"manifest_hash,omitempty"`
}

// HealthResponse is the router's /healthz answer.
type HealthResponse struct {
	Status        string        `json:"status"` // ok | degraded | down
	UptimeSeconds float64       `json:"uptime_seconds"`
	ShardsOK      string        `json:"shards_ok"`
	Shards        []ShardStatus `json:"shards"`
}

// StatsResponse is the router's /stats answer.
type StatsResponse struct {
	UptimeSeconds float64                         `json:"uptime_seconds"`
	ShardsOK      string                          `json:"shards_ok"`
	Partials      int64                           `json:"partial_responses"`
	Cache         server.CacheStats               `json:"cache"`
	Endpoints     map[string]server.EndpointStats `json:"endpoints"`
	Shards        []ShardStatus                   `json:"shards"`
}

// ReloadShard is one shard's outcome in a rolling reload.
type ReloadShard struct {
	Shard      int    `json:"shard"`
	OK         bool   `json:"ok"`
	Generation uint64 `json:"generation,omitempty"`
	Tables     int    `json:"tables,omitempty"`
	Error      string `json:"error,omitempty"`
}

// ReloadResponse is the router's /v1/admin/reload answer.
type ReloadResponse struct {
	ShardsOK string        `json:"shards_ok"`
	Shards   []ReloadShard `json:"shards"`
}

// --- shared fan-out tail ---

// gather runs the scatter-gather tail shared by every query endpoint:
// cache lookup (keyed on the endpoint, the generation vector, and the
// exact request bytes), fan-out of body to every eligible shard — with
// a seed to route, as fanout describes — ok/failure triage, and the
// degradation decision. merge turns the ok shard bodies into the
// response value — given none, into the empty answer — which is marked
// with the shards that contributed when the answer is incomplete. Only
// complete answers are cached.
func (rt *Router) gather(
	w http.ResponseWriter, r *http.Request,
	endpoint string, path string, body []byte, seed *seedRoute,
	merge func(bodies [][]byte) (routerResponse, error),
) {
	total := len(rt.shards)
	// Operational failure degrades to an empty 200, never a 5xx.
	allDown := func() {
		rt.allDown.Inc()
		rt.markPartial(endpoint)
		empty, _ := merge(nil)
		empty.setShardsOK(fmt.Sprintf("0/%d", total))
		server.WriteJSON(w, http.StatusOK, empty)
	}
	if seed != nil && seed.owner.state.Load().quarantined {
		// Without the seed table no shard can answer.
		allDown()
		return
	}

	var key string
	if rt.cache != nil {
		var kb qcache.KeyBuilder
		kb.Byte(endpointKeyByte[endpoint]).U64(rt.genHash.Load()).Str(string(body))
		key = kb.String()
		if hit, ok := rt.cache.Get(key); ok {
			w.Header().Set("X-Cache", "HIT")
			server.WriteJSONBytes(w, http.StatusOK, hit)
			return
		}
		w.Header().Set("X-Cache", "MISS")
	} else {
		w.Header().Set("X-Cache", "BYPASS")
	}

	results := rt.fanout(r.Context(), path, body, rt.eligible(), seed)

	bodies := make([][]byte, 0, len(results))
	for _, res := range results {
		if res.ok() {
			bodies = append(bodies, res.body)
		}
	}
	if len(bodies) == 0 {
		// No shard produced a mergeable answer. A deterministic client
		// error (every shard computes it from the request alone) is
		// propagated verbatim.
		for _, res := range results {
			if res.clientError() {
				server.WriteJSONBytes(w, res.status, res.body)
				return
			}
		}
		allDown()
		return
	}

	v, err := merge(bodies)
	if err != nil {
		server.WriteError(w, http.StatusBadGateway, "merging shard responses: "+err.Error())
		return
	}
	complete := len(bodies) == total
	if !complete {
		rt.markPartial(endpoint)
		v.setShardsOK(fmt.Sprintf("%d/%d", len(bodies), total))
	}
	out, err := json.Marshal(v)
	if err != nil {
		server.WriteError(w, http.StatusInternalServerError, "encoding response: "+err.Error())
		return
	}
	if complete && key != "" {
		rt.cache.Put(key, out)
	}
	server.WriteJSONBytes(w, http.StatusOK, out)
}

// endpointKeyByte namespaces each query endpoint's cache keys.
var endpointKeyByte = map[string]byte{"join": 'J', "union": 'U', "keyword": 'K', "discover": 'D'}

func (rt *Router) markPartial(endpoint string) {
	rt.partials.Inc()
	rt.endpoints[endpoint].partial.Inc()
}

// gatherRanked is the tail /v1/join, /v1/union and /v1/discover share
// once each has decoded and validated its own request: every shard
// answers with a body that decodes as a DiscoverResponse, the lists are
// merged in the engines' order and cut to k, and the merged answer goes
// out in the same wrapper.
func (rt *Router) gatherRanked(w http.ResponseWriter, r *http.Request, endpoint string, body []byte, seed *seedRoute, q server.RankedRequest) {
	rt.gather(w, r, endpoint, "/v1/"+endpoint, body, seed, func(bodies [][]byte) (routerResponse, error) {
		matchLists := make([][]server.JoinMatch, 0, len(bodies))
		scoreLists := make([][]server.TableScore, 0, len(bodies))
		explains := make([][]discover.StageExplain, 0, len(bodies))
		for _, b := range bodies {
			var resp server.DiscoverResponse
			if err := json.Unmarshal(b, &resp); err != nil {
				return nil, err
			}
			if resp.Matches != nil {
				matchLists = append(matchLists, *resp.Matches)
			}
			if resp.Results != nil {
				scoreLists = append(scoreLists, *resp.Results)
			}
			explains = append(explains, resp.Explain)
		}
		out := &discoverRouterResponse{}
		if q.Rel == discover.RelationJoin {
			m := mergeJoinMatches(q.JoinMode == discover.ModeContainment, matchLists, q.K)
			out.Matches = &m
		} else {
			rs := mergeScores(scoreLists, q.K)
			out.Results = &rs
		}
		if q.Explain {
			out.Explain = mergeExplains(explains)
		}
		return out, nil
	})
}

// --- query endpoints ---

func (rt *Router) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req server.JoinRequest
	body, ok := server.DecodeBody(w, r, &req)
	if !ok {
		return
	}
	q, err := req.Validate()
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	rt.gatherRanked(w, r, "join", body, nil, q)
}

func (rt *Router) handleUnion(w http.ResponseWriter, r *http.Request) {
	var req server.UnionRequest
	body, ok := server.DecodeBody(w, r, &req)
	if !ok {
		return
	}
	q, err := req.Validate()
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	// A table_id query names a lake table that lives on exactly one
	// shard; the others would answer 404, so they get it inline. The
	// table keeps its ID there, which is what excludes it from results.
	inline := req
	inline.TableID = ""
	rt.gatherRanked(w, r, "union", body, rt.seedFor(req.TableID, inline), q)
}

func (rt *Router) handleKeyword(w http.ResponseWriter, r *http.Request) {
	var req server.KeywordRequest
	body, ok := server.DecodeBody(w, r, &req)
	if !ok {
		return
	}
	k, mode, err := req.Validate()
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	rt.gather(w, r, "keyword", "/v1/keyword", body, nil, func(bodies [][]byte) (routerResponse, error) {
		var scores [][]server.TableScore
		var clusters [][]server.ValueCluster
		for _, b := range bodies {
			var resp server.KeywordResponse
			if err := json.Unmarshal(b, &resp); err != nil {
				return nil, err
			}
			scores = append(scores, resp.Results)
			clusters = append(clusters, resp.Clusters)
		}
		out := &keywordRouterResponse{}
		if mode == 0 {
			out.Results = mergeScores(scores, k)
		} else {
			out.Clusters = mergeClusters(clusters, k)
		}
		return out, nil
	})
}

func (rt *Router) handleDiscover(w http.ResponseWriter, r *http.Request) {
	var req server.DiscoverRequest
	body, ok := server.DecodeBody(w, r, &req)
	if !ok {
		return
	}
	q, err := req.Validate()
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	// A table_id seed travels as it does for /v1/union.
	inline := req
	inline.TableID = ""
	rt.gatherRanked(w, r, "discover", body, rt.seedFor(req.TableID, inline), q)
}

// --- admin & introspection ---

// handleReload is the HTTP face of ReloadAll.
func (rt *Router) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		server.WriteError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	server.WriteJSON(w, http.StatusOK, rt.ReloadAll(r.Context()))
}

// ReloadAll rolls a reload across the shards one at a time, in shard
// order — at most one shard is loading (and briefly cold-cached) at
// any moment, so a router in front of N shards keeps serving N-1
// shards' worth of results throughout. The router cache is purged
// afterwards, and a health sweep picks up the new generations. The
// daemon's SIGHUP handler calls this too.
func (rt *Router) ReloadAll(ctx context.Context) ReloadResponse {
	out := make([]ReloadShard, len(rt.shards))
	okCount := 0
	for i, sh := range rt.shards {
		out[i] = ReloadShard{Shard: i}
		status, body, err := rt.callShard(ctx, sh, http.MethodPost, "/v1/admin/reload", nil)
		if err != nil {
			out[i].Error = err.Error()
			continue
		}
		if status/100 != 2 {
			var e server.ErrorResponse
			if json.Unmarshal(body, &e) == nil && e.Error != "" {
				out[i].Error = e.Error
			} else {
				out[i].Error = fmt.Sprintf("shard returned %d", status)
			}
			continue
		}
		var resp server.ReloadResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			out[i].Error = "parsing shard response: " + err.Error()
			continue
		}
		out[i].OK = true
		out[i].Generation = resp.Generation
		out[i].Tables = resp.Tables
		okCount++
	}
	rt.cache.Purge()
	rt.CheckShards(ctx)
	return ReloadResponse{
		ShardsOK: fmt.Sprintf("%d/%d", okCount, len(rt.shards)),
		Shards:   out,
	}
}

// shardStatuses snapshots the health loop's view of every shard and
// the count currently serving.
func (rt *Router) shardStatuses() ([]ShardStatus, int) {
	out := make([]ShardStatus, len(rt.shards))
	up := 0
	for i, sh := range rt.shards {
		st := sh.state.Load()
		out[i] = ShardStatus{
			Shard: i, Addr: sh.addr,
			Up: st.up, Quarantined: st.quarantined,
			Generation: st.generation, Tables: st.tables,
			ManifestHash: st.manifestHash,
		}
		if st.up && !st.quarantined {
			up++
		}
	}
	return out, up
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	shards, up := rt.shardStatuses()
	status := "ok"
	switch {
	case up == 0:
		status = "down"
	case up < len(shards):
		status = "degraded"
	}
	server.WriteJSON(w, http.StatusOK, HealthResponse{
		Status:        status,
		UptimeSeconds: time.Since(rt.start).Seconds(),
		ShardsOK:      fmt.Sprintf("%d/%d", up, len(shards)),
		Shards:        shards,
	})
}

func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	shards, up := rt.shardStatuses()
	cs := rt.cache.Stats()
	uptime := time.Since(rt.start).Seconds()
	eps := make(map[string]server.EndpointStats, len(rt.endpoints))
	for name, m := range rt.endpoints {
		eps[name] = m.Stats(uptime)
	}
	server.WriteJSON(w, http.StatusOK, StatsResponse{
		UptimeSeconds: uptime,
		ShardsOK:      fmt.Sprintf("%d/%d", up, len(shards)),
		Partials:      rt.partials.Value(),
		Cache: server.CacheStats{
			Hits: cs.Hits, Misses: cs.Misses, Evictions: cs.Evictions,
			Entries: cs.Entries, HitRatio: rt.cache.HitRatio(),
		},
		Endpoints: eps,
		Shards:    shards,
	})
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = rt.reg.WriteText(w)
}
