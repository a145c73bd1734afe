package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"tablehound/internal/core"
	"tablehound/internal/datagen"
	"tablehound/internal/lake"
	"tablehound/internal/server"
	"tablehound/internal/snap"
	"tablehound/internal/table"
)

// --- fixture ---
//
// One synthetic lake, built once: unsharded (the ground truth every
// parity test compares against) and as a 2-way partition under the
// production assignment function (snap.ShardOf). All builds use the
// same core.Options, exactly as lakectl build -shards does.

var (
	fixOnce sync.Once
	fixGen  *datagen.Lake
	fixSys  *core.System
	fixTwo  []*core.System // 2-way partition by snap.ShardOf
	fixMan  *snap.Manifest // manifest of the 2-way partition
)

func buildOpts(gen *datagen.Lake) core.Options {
	return core.Options{KB: gen.BuildKB(0.8), Seed: 3}
}

func fixture(t *testing.T) (*datagen.Lake, *core.System, []*core.System, *snap.Manifest) {
	t.Helper()
	fixOnce.Do(func() {
		gen := datagen.Generate(datagen.Config{
			Seed:              51,
			NumDomains:        12,
			DomainSize:        80,
			NumTemplates:      5,
			TablesPerTemplate: 4,
		})
		cat := lake.NewCatalog()
		for _, tbl := range gen.Tables {
			if err := cat.Add(tbl); err != nil {
				panic(err)
			}
		}
		sys, err := core.Build(cat, buildOpts(gen))
		if err != nil {
			panic(err)
		}

		two, man := buildPartition(gen, 2)
		fixGen, fixSys, fixTwo, fixMan = gen, sys, two, man
	})
	return fixGen, fixSys, fixTwo, fixMan
}

// buildPartition splits gen's tables n ways under the production
// assignment function and builds one system per shard.
func buildPartition(gen *datagen.Lake, n int) ([]*core.System, *snap.Manifest) {
	parts := make([]*lake.Catalog, n)
	ids := make([][]string, n)
	for i := range parts {
		parts[i] = lake.NewCatalog()
	}
	for _, tbl := range gen.Tables {
		i := snap.ShardOf(tbl.ID, n)
		if err := parts[i].Add(tbl); err != nil {
			panic(err)
		}
		ids[i] = append(ids[i], tbl.ID)
	}
	systems := make([]*core.System, n)
	man := &snap.Manifest{Assign: snap.AssignFNV1a}
	for i := range parts {
		sys, err := core.Build(parts[i], buildOpts(gen))
		if err != nil {
			panic(err)
		}
		systems[i] = sys
		man.Shards = append(man.Shards, snap.ShardEntry{
			Snapshot:   fmt.Sprintf("lake.%d.snap", i),
			Generation: snap.HashIDs(ids[i]),
			Tables:     len(ids[i]),
		})
	}
	return systems, man
}

// startShards serves each system as one shard of the given manifest
// and returns the shard servers plus their addresses.
func startShards(t *testing.T, systems []*core.System, man *snap.Manifest) ([]*server.Server, []*httptest.Server, []string) {
	t.Helper()
	srvs := make([]*server.Server, len(systems))
	https := make([]*httptest.Server, len(systems))
	addrs := make([]string, len(systems))
	for i, sys := range systems {
		var ident *server.ShardIdentity
		if man != nil {
			ident = &server.ShardIdentity{Index: i, Count: len(systems), ManifestHash: man.Hash()}
		}
		srvs[i] = server.New(sys, server.Config{Shard: ident})
		https[i] = httptest.NewServer(srvs[i].Handler())
		t.Cleanup(https[i].Close)
		addrs[i] = https[i].URL
	}
	return srvs, https, addrs
}

// startRouter builds a router over addrs, runs one synchronous health
// sweep, and serves it.
func startRouter(t *testing.T, cfg Config) (*Router, *httptest.Server) {
	t.Helper()
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt.CheckShards(context.Background())
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(rt.Stop)
	return rt, ts
}

func post(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	return postBytes(t, url, b)
}

func postBytes(t *testing.T, url string, b []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// --- merge property tests ---
//
// The merge contract: partition the unsharded engine's own ranking by
// the production assignment function, truncate each part to k (what a
// shard would return), merge, and the result must equal the unsharded
// top-k — same entries, same order, bit-equal scores. This isolates
// the merge from shard-local scoring (per-shard models, BM25 corpus
// stats) and so must hold for every surface and every shard count.

const fullK = 1000 // maxK: large enough to hold the full ranking

func partitionJoin(ms []server.JoinMatch, n int) [][]server.JoinMatch {
	parts := make([][]server.JoinMatch, n)
	for _, m := range ms {
		tid, _ := table.SplitColumnKey(m.ColumnKey)
		i := snap.ShardOf(tid, n)
		parts[i] = append(parts[i], m)
	}
	return parts
}

func partitionScores(rs []server.TableScore, n int) [][]server.TableScore {
	parts := make([][]server.TableScore, n)
	for _, r := range rs {
		parts[snap.ShardOf(r.TableID, n)] = append(parts[snap.ShardOf(r.TableID, n)], r)
	}
	return parts
}

func truncJoin(parts [][]server.JoinMatch, k int) [][]server.JoinMatch {
	for i := range parts {
		if len(parts[i]) > k {
			parts[i] = parts[i][:k]
		}
	}
	return parts
}

func truncScores(parts [][]server.TableScore, k int) [][]server.TableScore {
	for i := range parts {
		if len(parts[i]) > k {
			parts[i] = parts[i][:k]
		}
	}
	return parts
}

func TestMergeMatchesUnshardedJoin(t *testing.T) {
	gen, _, _, _ := fixture(t)
	_, ts, _ := startShards(t, []*core.System{fixSys}, nil)
	defer ts[0].Close()

	queries := [][]string{
		gen.Tables[0].Columns[0].Values,
		gen.Tables[7].Columns[1].Values,
		{"zz-out-of-vocabulary", "values-nowhere-in-the-lake"},
	}
	for qi, vals := range queries {
		for _, mode := range []string{"overlap", "containment"} {
			req := server.JoinRequest{Values: vals, K: fullK, Mode: mode, Threshold: 0.3}
			resp, body := post(t, ts[0].URL+"/v1/join", req)
			if resp.StatusCode != 200 {
				if qi == 2 {
					continue // OOV containment may be a 400 (no usable values)
				}
				t.Fatalf("q%d %s: status %d: %s", qi, mode, resp.StatusCode, body)
			}
			var full server.JoinResponse
			if err := json.Unmarshal(body, &full); err != nil {
				t.Fatal(err)
			}
			for _, n := range []int{1, 2, 3, 5} {
				for _, k := range []int{1, 5, len(full.Matches)} {
					if k == 0 {
						k = 1
					}
					got := mergeJoinMatches(mode == "containment", truncJoin(partitionJoin(full.Matches, n), k), k)
					want := full.Matches
					if len(want) > k {
						want = want[:k]
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("q%d %s n=%d k=%d: merged != unsharded\n got %+v\nwant %+v", qi, mode, n, k, got, want)
					}
				}
			}
		}
	}
}

func TestMergeMatchesUnshardedUnionAndKeyword(t *testing.T) {
	gen, _, _, _ := fixture(t)
	_, ts, _ := startShards(t, []*core.System{fixSys}, nil)

	var rankings [][]server.TableScore
	for _, method := range []string{"tus", "santos", "starmie", "d3l"} {
		resp, body := post(t, ts[0].URL+"/v1/union",
			server.UnionRequest{TableID: gen.Tables[0].ID, K: fullK, Method: method})
		if resp.StatusCode != 200 {
			t.Fatalf("union %s: status %d: %s", method, resp.StatusCode, body)
		}
		var out server.UnionResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		rankings = append(rankings, out.Results)
	}
	topic := gen.DomainNames[gen.Templates[0].Domains[0]]
	resp, body := post(t, ts[0].URL+"/v1/keyword", server.KeywordRequest{Query: topic, K: fullK})
	if resp.StatusCode != 200 {
		t.Fatalf("keyword: status %d: %s", resp.StatusCode, body)
	}
	var kw server.KeywordResponse
	if err := json.Unmarshal(body, &kw); err != nil {
		t.Fatal(err)
	}
	rankings = append(rankings, kw.Results)

	for ri, full := range rankings {
		for _, n := range []int{1, 2, 4} {
			for _, k := range []int{1, 3, 10} {
				got := mergeScores(truncScores(partitionScores(full, n), k), k)
				want := full
				if len(want) > k {
					want = want[:k]
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("ranking %d n=%d k=%d: merged != unsharded\n got %+v\nwant %+v", ri, n, k, got, want)
				}
			}
		}
	}
}

// Duplicate scores must tie-break identically to the engines: by key,
// ascending — regardless of which shard list an entry arrived in.
func TestMergeTieBreaks(t *testing.T) {
	s := func(id string, sc float64) server.TableScore { return server.TableScore{TableID: id, Score: sc} }
	got := mergeScores([][]server.TableScore{
		{s("t9", 2), s("t3", 1)},
		{s("t1", 2), s("t2", 1)},
	}, 3)
	want := []server.TableScore{s("t1", 2), s("t9", 2), s("t2", 1)}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("mergeScores ties: got %+v, want %+v", got, want)
	}

	m := func(key string, ov int, ct float64) server.JoinMatch {
		return server.JoinMatch{ColumnKey: key, Overlap: ov, Containment: ct}
	}
	gotJ := mergeJoinMatches(false, [][]server.JoinMatch{
		{m("b.x", 5, 0.1), m("a.z", 3, 0.9)},
		{m("a.y", 5, 0.2)},
	}, 3)
	wantJ := []server.JoinMatch{m("a.y", 5, 0.2), m("b.x", 5, 0.1), m("a.z", 3, 0.9)}
	if !reflect.DeepEqual(gotJ, wantJ) {
		t.Errorf("mergeJoinMatches overlap ties: got %+v, want %+v", gotJ, wantJ)
	}
	gotC := mergeJoinMatches(true, [][]server.JoinMatch{
		{m("b.x", 5, 0.5)},
		{m("a.y", 1, 0.5), m("c.w", 9, 0.4)},
	}, 3)
	wantC := []server.JoinMatch{m("a.y", 1, 0.5), m("b.x", 5, 0.5), m("c.w", 9, 0.4)}
	if !reflect.DeepEqual(gotC, wantC) {
		t.Errorf("mergeJoinMatches containment ties: got %+v, want %+v", gotC, wantC)
	}
}

func TestMergeClusters(t *testing.T) {
	c := func(score float64, schema []string, ids ...string) server.ValueCluster {
		return server.ValueCluster{Schema: schema, TableIDs: ids, Score: score}
	}
	// Single list passes through unchanged (the 1-shard parity case).
	one := []server.ValueCluster{c(2, []string{"a", "b"}, "t1", "t2"), c(1, []string{"c"}, "t3")}
	if got := mergeClusters([][]server.ValueCluster{one}, 10); !reflect.DeepEqual(got, one) {
		t.Errorf("single-list pass-through: got %+v, want %+v", got, one)
	}
	// Same-schema clusters fold: score is the max, members concatenate
	// in shard order; ordering is (score desc, schema asc).
	got := mergeClusters([][]server.ValueCluster{
		{c(2, []string{"a", "b"}, "t1"), c(3, []string{"z"}, "t9")},
		{c(2.5, []string{"a", "b"}, "t2")},
	}, 10)
	want := []server.ValueCluster{
		c(3, []string{"z"}, "t9"),
		c(2.5, []string{"a", "b"}, "t1", "t2"),
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("fold: got %+v, want %+v", got, want)
	}
	// The member budget k caps total tables across clusters.
	got = mergeClusters([][]server.ValueCluster{
		{c(2, []string{"a"}, "t1", "t2"), c(1, []string{"b"}, "t3", "t4")},
	}, 3)
	want = []server.ValueCluster{c(2, []string{"a"}, "t1", "t2"), c(1, []string{"b"}, "t3")}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("budget: got %+v, want %+v", got, want)
	}
}

// --- 1-shard byte parity ---
//
// A router over a single (unsharded) server must return byte-identical
// bodies on every endpoint, success and error alike.

func TestSingleShardByteParity(t *testing.T) {
	gen, sys, _, _ := fixture(t)
	_, direct, addrs := startShards(t, []*core.System{sys}, nil)
	_, routed := startRouter(t, Config{Addrs: addrs})

	qt := gen.Tables[0]
	inline := &server.InlineTable{ID: "q", Name: qt.Name}
	for _, c := range qt.Columns {
		inline.Columns = append(inline.Columns, server.InlineColumn{Name: c.Name, Values: c.Values})
	}
	topic := gen.DomainNames[gen.Templates[0].Domains[0]]

	cases := []struct {
		name string
		path string
		req  any
	}{
		{"join overlap", "/v1/join", server.JoinRequest{Values: qt.Columns[0].Values, K: 5}},
		{"join containment", "/v1/join", server.JoinRequest{Values: qt.Columns[0].Values, K: 5, Mode: "containment"}},
		{"join containment threshold", "/v1/join", server.JoinRequest{Values: qt.Columns[0].Values, K: 5, Mode: "containment", Threshold: 0.3}},
		{"join empty column", "/v1/join", server.JoinRequest{Values: []string{" "}, K: 5}},
		{"join bad mode", "/v1/join", server.JoinRequest{Values: qt.Columns[0].Values, K: 5, Mode: "fuzzy"}},
		{"union tus by id", "/v1/union", server.UnionRequest{TableID: qt.ID, K: 5}},
		{"union starmie by id", "/v1/union", server.UnionRequest{TableID: qt.ID, K: 5, Method: "starmie"}},
		{"union inline", "/v1/union", server.UnionRequest{Table: inline, K: 5}},
		{"union santos inline", "/v1/union", server.UnionRequest{Table: inline, K: 5, Method: "santos"}},
		{"union starmie inline", "/v1/union", server.UnionRequest{Table: inline, K: 5, Method: "starmie"}},
		{"union d3l inline", "/v1/union", server.UnionRequest{Table: inline, K: 5, Method: "d3l"}},
		{"union hollow inline", "/v1/union", server.UnionRequest{Table: &server.InlineTable{}, K: 5}},
		{"discover union inline", "/v1/discover", server.DiscoverRequest{Table: inline, Relation: "union", K: 5}},
		{"discover join inline containment", "/v1/discover", server.DiscoverRequest{Table: inline, Relation: "join", Mode: "containment", Threshold: 0.3, K: 5}},
		{"union bad method", "/v1/union", server.UnionRequest{TableID: qt.ID, K: 5, Method: "psychic"}},
		{"union both set", "/v1/union", server.UnionRequest{TableID: qt.ID, Table: inline, K: 5}},
		{"union unknown table", "/v1/union", server.UnionRequest{TableID: "no-such-table", K: 5}},
		{"keyword meta", "/v1/keyword", server.KeywordRequest{Query: topic, K: 5}},
		{"keyword values", "/v1/keyword", server.KeywordRequest{Query: qt.Columns[0].Values[0], K: 5, Mode: "values"}},
		{"keyword bad mode", "/v1/keyword", server.KeywordRequest{Query: topic, K: 5, Mode: "psychic"}},
		{"keyword oov", "/v1/keyword", server.KeywordRequest{Query: "zz-absent-everywhere", K: 5}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dResp, dBody := post(t, direct[0].URL+c.path, c.req)
			rResp, rBody := post(t, routed.URL+c.path, c.req)
			if dResp.StatusCode != rResp.StatusCode {
				t.Fatalf("status: direct %d, routed %d (%s vs %s)", dResp.StatusCode, rResp.StatusCode, dBody, rBody)
			}
			if !bytes.Equal(dBody, rBody) {
				t.Errorf("body mismatch:\ndirect %s\nrouted %s", dBody, rBody)
			}
		})
	}

	t.Run("malformed json", func(t *testing.T) {
		dResp, dBody := postBytes(t, direct[0].URL+"/v1/join", []byte("{nope"))
		rResp, rBody := postBytes(t, routed.URL+"/v1/join", []byte("{nope"))
		if dResp.StatusCode != rResp.StatusCode || !bytes.Equal(dBody, rBody) {
			t.Errorf("direct %d %s, routed %d %s", dResp.StatusCode, dBody, rResp.StatusCode, rBody)
		}
	})
	t.Run("method not allowed", func(t *testing.T) {
		dResp, err := http.Get(direct[0].URL + "/v1/join")
		if err != nil {
			t.Fatal(err)
		}
		dBody, _ := io.ReadAll(dResp.Body)
		dResp.Body.Close()
		rResp, err := http.Get(routed.URL + "/v1/join")
		if err != nil {
			t.Fatal(err)
		}
		rBody, _ := io.ReadAll(rResp.Body)
		rResp.Body.Close()
		if dResp.StatusCode != rResp.StatusCode || !bytes.Equal(dBody, rBody) {
			t.Errorf("direct %d %s, routed %d %s", dResp.StatusCode, dBody, rResp.StatusCode, rBody)
		}
	})
}

// --- 2-shard end-to-end ---

// Join overlap scoring is query-local (exact value overlap between the
// query column and each indexed column), so a 2-shard router must
// reproduce the unsharded ranking bit for bit over real shard-built
// systems — the strongest end-to-end check available.
func TestTwoShardJoinOverlapParity(t *testing.T) {
	gen, sys, two, man := fixture(t)
	_, direct, _ := startShards(t, []*core.System{sys}, nil)
	_, _, addrs := startShards(t, two, man)
	_, routed := startRouter(t, Config{Addrs: addrs})

	for _, qi := range []int{0, 5, 13} {
		for _, k := range []int{3, 10, 50} {
			req := server.JoinRequest{Values: gen.Tables[qi].Columns[0].Values, K: k}
			dResp, dBody := post(t, direct[0].URL+"/v1/join", req)
			rResp, rBody := post(t, routed.URL+"/v1/join", req)
			if dResp.StatusCode != 200 || rResp.StatusCode != 200 {
				t.Fatalf("q%d k=%d: status direct %d routed %d", qi, k, dResp.StatusCode, rResp.StatusCode)
			}
			if !bytes.Equal(dBody, rBody) {
				t.Errorf("q%d k=%d: 2-shard merge != unsharded\ndirect %s\nrouted %s", qi, k, dBody, rBody)
			}
		}
	}
}

// A table_id union query is relocated: the owner shard answers it by
// id while the router fetches the table from it for the shards that do
// not hold the table, so they still contribute candidates.
func TestTwoShardUnionByTableID(t *testing.T) {
	gen, _, two, man := fixture(t)
	_, _, addrs := startShards(t, two, man)
	_, routed := startRouter(t, Config{Addrs: addrs})

	// Pick one table from each shard as the query.
	for n := 0; n < 2; n++ {
		var qt *table.Table
		for _, tbl := range gen.Tables {
			if snap.ShardOf(tbl.ID, 2) == n {
				qt = tbl
				break
			}
		}
		resp, body := post(t, routed.URL+"/v1/union", server.UnionRequest{TableID: qt.ID, K: 10})
		if resp.StatusCode != 200 {
			t.Fatalf("shard-%d table: status %d: %s", n, resp.StatusCode, body)
		}
		var out discoverRouterResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if out.ShardsOK != "" {
			t.Errorf("complete response carries shards_ok %q", out.ShardsOK)
		}
		if out.Results == nil || len(*out.Results) == 0 {
			t.Fatalf("no results for %s", qt.ID)
		}
		seen := map[int]bool{}
		for _, r := range *out.Results {
			if r.TableID == qt.ID {
				t.Errorf("query table %s in its own results", qt.ID)
			}
			seen[snap.ShardOf(r.TableID, 2)] = true
		}
		if len(seen) != 2 {
			t.Errorf("results from shards %v, want both (the lake's templates span shards)", seen)
		}
	}

	// Unknown table: the owner's deterministic 404 propagates verbatim.
	resp, body := post(t, routed.URL+"/v1/union", server.UnionRequest{TableID: "no-such-table", K: 3})
	if resp.StatusCode != 404 {
		t.Fatalf("unknown table: status %d: %s", resp.StatusCode, body)
	}
	if want := `{"error":"table \"no-such-table\": not found"}`; string(body) != want {
		t.Errorf("404 body %s, want %s", body, want)
	}
}

// --- graceful degradation ---

func TestDegradation(t *testing.T) {
	gen, _, two, man := fixture(t)
	_, https, addrs := startShards(t, two, man)
	rt, routed := startRouter(t, Config{Addrs: addrs})

	join := server.JoinRequest{Values: gen.Tables[0].Columns[0].Values, K: 5}
	kw := server.KeywordRequest{Query: gen.DomainNames[0], K: 5}

	// Both up: complete, no shards_ok field at all.
	_, body := post(t, routed.URL+"/v1/join", join)
	if strings.Contains(string(body), "shards_ok") {
		t.Errorf("complete response mentions shards_ok: %s", body)
	}

	// Kill shard 1: every endpoint stays 200 and reports 1/2.
	https[1].Close()
	for _, c := range []struct {
		path string
		req  any
	}{{"/v1/join", join}, {"/v1/keyword", kw}} {
		resp, body := post(t, routed.URL+c.path, c.req)
		if resp.StatusCode != 200 {
			t.Fatalf("%s with shard down: status %d: %s", c.path, resp.StatusCode, body)
		}
		var partial struct {
			ShardsOK string `json:"shards_ok"`
		}
		if err := json.Unmarshal(body, &partial); err != nil {
			t.Fatal(err)
		}
		if partial.ShardsOK != "1/2" {
			t.Errorf("%s shards_ok = %q, want 1/2 (%s)", c.path, partial.ShardsOK, body)
		}
	}

	// A table_id union whose owner is the dead shard degrades to an
	// empty 200, not an error.
	var deadOwned *table.Table
	for _, tbl := range gen.Tables {
		if snap.ShardOf(tbl.ID, 2) == 1 {
			deadOwned = tbl
			break
		}
	}
	resp, body := post(t, routed.URL+"/v1/union", server.UnionRequest{TableID: deadOwned.ID, K: 5})
	if resp.StatusCode != 200 {
		t.Fatalf("owner-down union: status %d: %s", resp.StatusCode, body)
	}
	var uout discoverRouterResponse
	if err := json.Unmarshal(body, &uout); err != nil {
		t.Fatal(err)
	}
	if uout.ShardsOK != "0/2" || uout.Results == nil || len(*uout.Results) != 0 {
		t.Errorf("owner-down union = %s, want empty results and shards_ok 0/2", body)
	}

	// Kill shard 0 too: still 200, shards_ok 0/2, never a 5xx.
	https[0].Close()
	resp, body = post(t, routed.URL+"/v1/join", join)
	if resp.StatusCode != 200 {
		t.Fatalf("all shards down: status %d: %s", resp.StatusCode, body)
	}
	var jout discoverRouterResponse
	if err := json.Unmarshal(body, &jout); err != nil {
		t.Fatal(err)
	}
	if jout.ShardsOK != "0/2" || jout.Matches == nil || len(*jout.Matches) != 0 {
		t.Errorf("all-down join = %s, want empty matches and shards_ok 0/2", body)
	}

	// The health sweep notices and /healthz degrades (but stays 200).
	rt.CheckShards(context.Background())
	hr, err := http.Get(routed.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hBody, _ := io.ReadAll(hr.Body)
	hr.Body.Close()
	var h HealthResponse
	if err := json.Unmarshal(hBody, &h); err != nil {
		t.Fatal(err)
	}
	if hr.StatusCode != 200 || h.Status != "down" || h.ShardsOK != "0/2" {
		t.Errorf("all-down healthz = %d %s", hr.StatusCode, hBody)
	}
}

// --- manifest policing ---

func TestManifestMismatchQuarantine(t *testing.T) {
	gen, _, two, man := fixture(t)

	// Shard 1 claims a different manifest hash: it was built from some
	// other partitioning and must not contribute results.
	srv0 := server.New(two[0], server.Config{Shard: &server.ShardIdentity{Index: 0, Count: 2, ManifestHash: man.Hash()}})
	srv1 := server.New(two[1], server.Config{Shard: &server.ShardIdentity{Index: 1, Count: 2, ManifestHash: man.Hash() + 1}})
	ts0 := httptest.NewServer(srv0.Handler())
	ts1 := httptest.NewServer(srv1.Handler())
	t.Cleanup(ts0.Close)
	t.Cleanup(ts1.Close)

	rt, routed := startRouter(t, Config{Addrs: []string{ts0.URL, ts1.URL}})
	if up := rt.CheckShards(context.Background()); up != 1 {
		t.Fatalf("CheckShards = %d up, want 1 (mismatched shard quarantined)", up)
	}

	resp, body := post(t, routed.URL+"/v1/join",
		server.JoinRequest{Values: gen.Tables[0].Columns[0].Values, K: 5})
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out discoverRouterResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.ShardsOK != "1/2" {
		t.Errorf("shards_ok = %q, want 1/2 (quarantined shard excluded)", out.ShardsOK)
	}

	hr, err := http.Get(routed.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h HealthResponse
	if err := json.NewDecoder(hr.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if h.Status != "degraded" || !h.Shards[1].Quarantined {
		t.Errorf("healthz = %+v, want degraded with shard 1 quarantined", h)
	}

	// A shard reporting the wrong arity is quarantined too.
	srvBad := server.New(two[1], server.Config{Shard: &server.ShardIdentity{Index: 1, Count: 3, ManifestHash: man.Hash()}})
	tsBad := httptest.NewServer(srvBad.Handler())
	t.Cleanup(tsBad.Close)
	rt2, _ := startRouter(t, Config{Addrs: []string{ts0.URL, tsBad.URL}})
	if up := rt2.CheckShards(context.Background()); up != 1 {
		t.Errorf("wrong-arity shard not quarantined: %d up", up)
	}
}

// --- cache: complete responses only ---

func TestCacheCompleteOnly(t *testing.T) {
	gen, _, two, man := fixture(t)
	_, https, addrs := startShards(t, two, man)
	rt, routed := startRouter(t, Config{Addrs: addrs, CacheEntries: 64})

	join := server.JoinRequest{Values: gen.Tables[0].Columns[0].Values, K: 5}

	// Complete answers cache: second identical request is a HIT with
	// identical bytes.
	r1, b1 := post(t, routed.URL+"/v1/join", join)
	r2, b2 := post(t, routed.URL+"/v1/join", join)
	if r1.Header.Get("X-Cache") != "MISS" || r2.Header.Get("X-Cache") != "HIT" {
		t.Errorf("X-Cache = %q then %q, want MISS then HIT", r1.Header.Get("X-Cache"), r2.Header.Get("X-Cache"))
	}
	if !bytes.Equal(b1, b2) {
		t.Errorf("cache hit bytes differ: %s vs %s", b1, b2)
	}

	// Partial answers never cache: with a shard down, repeated requests
	// keep missing.
	https[1].Close()
	other := server.JoinRequest{Values: gen.Tables[3].Columns[0].Values, K: 5}
	p1, pb := post(t, routed.URL+"/v1/join", other)
	p2, _ := post(t, routed.URL+"/v1/join", other)
	if !strings.Contains(string(pb), `"shards_ok":"1/2"`) {
		t.Fatalf("expected a partial answer, got %s", pb)
	}
	if p1.Header.Get("X-Cache") != "MISS" || p2.Header.Get("X-Cache") != "MISS" {
		t.Errorf("partial X-Cache = %q then %q, want MISS twice", p1.Header.Get("X-Cache"), p2.Header.Get("X-Cache"))
	}

	// The complete entry from before the outage is still served — a
	// shard going down changes no snapshot generation, so answers that
	// were complete when computed stay valid. Even after a health
	// sweep observes the outage, the entry survives; only a generation
	// change (see TestRollingReload) purges.
	rt.CheckShards(context.Background())
	r3, b3 := post(t, routed.URL+"/v1/join", join)
	if r3.Header.Get("X-Cache") != "HIT" || !bytes.Equal(b1, b3) {
		t.Errorf("pre-outage entry: X-Cache %q", r3.Header.Get("X-Cache"))
	}
}

// --- rolling reload ---

func TestRollingReload(t *testing.T) {
	gen, _, two, man := fixture(t)
	srvs, _, addrs := startShards(t, two, man)
	for i, s := range srvs {
		sys := two[i]
		s.SetReloader(func() (*core.System, error) { return sys, nil })
	}
	rt, routed := startRouter(t, Config{Addrs: addrs, CacheEntries: 64})

	// Warm the cache, then reload: the entry must not survive.
	join := server.JoinRequest{Values: gen.Tables[0].Columns[0].Values, K: 5}
	post(t, routed.URL+"/v1/join", join)

	resp, body := post(t, routed.URL+"/v1/admin/reload", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("reload status %d: %s", resp.StatusCode, body)
	}
	var out ReloadResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.ShardsOK != "2/2" {
		t.Errorf("reload shards_ok = %q, want 2/2 (%s)", out.ShardsOK, body)
	}
	for _, sh := range out.Shards {
		if !sh.OK || sh.Generation != 1 {
			t.Errorf("shard %d reload = %+v, want ok at generation 1", sh.Shard, sh)
		}
	}
	if rt.cache.Len() != 0 {
		t.Errorf("cache holds %d entries after reload, want 0", rt.cache.Len())
	}
	r, _ := post(t, routed.URL+"/v1/join", join)
	if r.Header.Get("X-Cache") != "MISS" {
		t.Errorf("post-reload X-Cache = %q, want MISS", r.Header.Get("X-Cache"))
	}
}

// --- metrics surface ---

func TestRouterMetrics(t *testing.T) {
	gen, _, two, man := fixture(t)
	_, https, addrs := startShards(t, two, man)
	rt, routed := startRouter(t, Config{Addrs: addrs})

	post(t, routed.URL+"/v1/join", server.JoinRequest{Values: gen.Tables[0].Columns[0].Values, K: 5})
	https[1].Close()
	post(t, routed.URL+"/v1/join", server.JoinRequest{Values: gen.Tables[0].Columns[0].Values, K: 5})
	rt.CheckShards(context.Background())

	resp, err := http.Get(routed.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, w := range []string{
		`lakerouter_shard_up{shard="0"} 1`,
		`lakerouter_shard_up{shard="1"} 0`,
		`lakerouter_partial_responses_total 1`,
		`lakerouter_requests_total{endpoint="join"} 2`,
	} {
		if !strings.Contains(text, w) {
			t.Errorf("metrics missing %q:\n%s", w, text)
		}
	}

	sresp, err := http.Get(routed.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st StatsResponse
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if st.ShardsOK != "1/2" || st.Partials != 1 || st.Endpoints["join"].Requests != 2 {
		t.Errorf("stats = %+v", st)
	}
}

// Routers refuse to start with nothing to route to, and health
// checking respects its timeout.
func TestRouterConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New with no addrs succeeded")
	}
	rt, err := New(Config{Addrs: []string{"127.0.0.1:1"}, ShardTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	start := time.Now()
	if up := rt.CheckShards(context.Background()); up != 0 {
		t.Errorf("CheckShards against a dead port = %d up", up)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Errorf("health check took %v, timeout not applied", el)
	}
}
