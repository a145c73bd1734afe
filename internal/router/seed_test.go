package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tablehound/internal/core"
	"tablehound/internal/discover"
	"tablehound/internal/server"
	"tablehound/internal/snap"
	"tablehound/internal/table"
)

// --- the all-inline fan-out, kept as the oracle ---
//
// How the router answered a table_id seed before it routed seeds:
// fetch the table from its owner, decode it, marshal it into the
// request as an inline table and send that to every shard, the owner
// included. Routing the seed (owner by id, the others by spliced
// bytes) must not change one byte of the merged answer.

type inlineOracle struct {
	t     *testing.T
	addrs []string
}

// seed fetches the table from its owner; nil when the owner does not
// hand it over, and then no shard is asked anything.
func (o inlineOracle) seed(id string) *server.InlineTable {
	owner := o.addrs[snap.ShardOf(id, len(o.addrs))]
	tbl, err := server.NewClient(owner).Table(context.Background(), id)
	if err != nil {
		return nil
	}
	return &server.InlineTable{ID: tbl.ID, Name: tbl.Name, Columns: tbl.Columns}
}

// scatter posts req to every shard and returns the 200 bodies in shard
// order.
func (o inlineOracle) scatter(path string, req any) [][]byte {
	b, err := json.Marshal(req)
	if err != nil {
		o.t.Fatal(err)
	}
	var bodies [][]byte
	for _, addr := range o.addrs {
		resp, err := http.Post(addr+path, "application/json", bytes.NewReader(b))
		if err != nil {
			continue
		}
		var buf bytes.Buffer
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode == http.StatusOK {
			bodies = append(bodies, buf.Bytes())
		}
	}
	return bodies
}

func (o inlineOracle) shardsOK(bodies [][]byte) string {
	if len(bodies) == len(o.addrs) {
		return ""
	}
	return fmt.Sprintf("%d/%d", len(bodies), len(o.addrs))
}

func (o inlineOracle) union(req server.UnionRequest) *discoverRouterResponse {
	var bodies [][]byte
	if tbl := o.seed(req.TableID); tbl != nil {
		inline := req
		inline.TableID, inline.Table = "", tbl
		bodies = o.scatter("/v1/union", inline)
	}
	lists := make([][]server.TableScore, 0, len(bodies))
	for _, b := range bodies {
		var resp server.UnionResponse
		if err := json.Unmarshal(b, &resp); err != nil {
			o.t.Fatal(err)
		}
		lists = append(lists, resp.Results)
	}
	k, _ := server.CheckK(req.K)
	out := &discoverRouterResponse{ShardsOK: o.shardsOK(bodies)}
	rs := mergeScores(lists, k)
	out.Results = &rs
	return out
}

func (o inlineOracle) discover(req server.DiscoverRequest) *discoverRouterResponse {
	var bodies [][]byte
	if tbl := o.seed(req.TableID); tbl != nil {
		inline := req
		inline.TableID, inline.Table = "", tbl
		bodies = o.scatter("/v1/discover", inline)
	}
	var matches [][]server.JoinMatch
	var scores [][]server.TableScore
	var explains [][]discover.StageExplain
	for _, b := range bodies {
		var resp server.DiscoverResponse
		if err := json.Unmarshal(b, &resp); err != nil {
			o.t.Fatal(err)
		}
		if resp.Matches != nil {
			matches = append(matches, *resp.Matches)
		}
		if resp.Results != nil {
			scores = append(scores, *resp.Results)
		}
		explains = append(explains, resp.Explain)
	}
	k, _ := server.CheckK(req.K)
	out := &discoverRouterResponse{ShardsOK: o.shardsOK(bodies)}
	if req.Relation == "join" {
		m := mergeJoinMatches(req.Mode == "containment", matches, k)
		out.Matches = &m
	} else {
		rs := mergeScores(scores, k)
		out.Results = &rs
	}
	if req.Explain {
		out.Explain = mergeExplains(explains)
	}
	return out
}

// --- fleets ---

var fixThree = sync.OnceValues(func() ([]*core.System, *snap.Manifest) {
	return buildPartition(fixGen, 3)
})

// fleet returns the fixture lake partitioned n ways (2 or 3).
func fleet(t *testing.T, n int) ([]*core.System, *snap.Manifest) {
	t.Helper()
	_, _, two, man := fixture(t)
	if n == 2 {
		return two, man
	}
	return fixThree()
}

// ownedBy returns the fixture tables shard i of n holds.
func ownedBy(i, n int) []*table.Table {
	var out []*table.Table
	for _, tbl := range fixGen.Tables {
		if snap.ShardOf(tbl.ID, n) == i {
			out = append(out, tbl)
		}
	}
	return out
}

// stripTimings zeroes the wall-clock part of an explain block, the one
// thing two executions of the same plan do not share.
func stripTimings(t *testing.T, body []byte) []byte {
	t.Helper()
	var resp discoverRouterResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("%v in %s", err, body)
	}
	for i := range resp.Explain {
		resp.Explain[i].ElapsedUS = 0
	}
	out, err := json.Marshal(&resp)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// --- routed ≡ all-inline ---

func TestRoutedSeedMatchesInlineFanout(t *testing.T) {
	for _, n := range []int{2, 3} {
		t.Run(fmt.Sprintf("shards-%d", n), func(t *testing.T) {
			systems, man := fleet(t, n)
			_, _, addrs := startShards(t, systems, man)
			_, routed := startRouter(t, Config{Addrs: addrs})
			oracle := inlineOracle{t: t, addrs: addrs}

			for _, tbl := range fixGen.Tables {
				for _, method := range []string{"tus", "santos", "starmie", "d3l"} {
					for _, k := range []int{1, 10} {
						req := server.UnionRequest{TableID: tbl.ID, K: k, Method: method}
						resp, got := post(t, routed.URL+"/v1/union", req)
						want, _ := json.Marshal(oracle.union(req))
						if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
							t.Fatalf("union %s %s k=%d: routed %d %s\nall-inline %s", tbl.ID, method, k, resp.StatusCode, got, want)
						}
					}
				}

				preds := discover.Predicates{MinRows: 1, ColumnTypes: []string{"string"}, Values: tbl.Columns[0].Values[:1]}
				for _, rel := range []string{"join", "union", "any"} {
					for _, p := range []discover.Predicates{{}, preds} {
						for _, explain := range []bool{false, true} {
							req := server.DiscoverRequest{TableID: tbl.ID, Relation: rel, K: 10, Predicates: p, Explain: explain}
							resp, got := post(t, routed.URL+"/v1/discover", req)
							want, _ := json.Marshal(oracle.discover(req))
							if explain {
								got, want = stripTimings(t, got), stripTimings(t, want)
							}
							if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
								t.Fatalf("discover %s %s predicates=%v explain=%v: routed %d %s\nall-inline %s",
									tbl.ID, rel, !p.Empty(), explain, resp.StatusCode, got, want)
							}
						}
					}
				}
			}
		})
	}
}

// The owner is asked by table_id, in the caller's own bytes, so that it
// answers from what it holds staged; only the other shards are sent
// the table.
func TestOwnerAnswersByID(t *testing.T) {
	const n = 3
	systems, man := fleet(t, n)
	_, https, addrs := startShards(t, systems, man)
	var mu sync.Mutex
	got := make([][]string, n) // per shard: "METHOD path body"
	for i := range addrs {
		h := https[i].Config.Handler
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			var body bytes.Buffer
			_, _ = body.ReadFrom(r.Body)
			if r.URL.Path != "/healthz" {
				mu.Lock()
				got[i] = append(got[i], r.Method+" "+r.URL.RequestURI()+" "+body.String())
				mu.Unlock()
			}
			r.Body = io.NopCloser(&body)
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		addrs[i] = ts.URL
	}
	_, routed := startRouter(t, Config{Addrs: addrs})

	tbl := ownedBy(1, n)[0]
	sent := []byte(`{"k": 5, "method": "starmie",  "table_id": "` + tbl.ID + `"}`)
	if resp, body := postBytes(t, routed.URL+"/v1/union", sent); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, reqs := range got {
		if i == 1 {
			want := []string{"GET /v1/table?id=" + tbl.ID + " ", "POST /v1/union " + string(sent)}
			if len(reqs) != 2 || !(reqs[0] == want[0] && reqs[1] == want[1] || reqs[0] == want[1] && reqs[1] == want[0]) {
				t.Errorf("the owner was sent %q, want the fetch and the caller's bytes", reqs)
			}
			continue
		}
		if len(reqs) != 1 || !strings.HasPrefix(reqs[0], `POST /v1/union {"k":5,"method":"starmie","table":{"id":"`+tbl.ID+`",`) {
			t.Errorf("shard %d was sent %.120q, want one inline request", i, reqs)
		}
	}
}

// What a non-owner shard is sent is the caller's request with the seed
// swapped for the owner's table bytes — valid JSON whatever else the
// request carries, including nothing.
func TestSeedSplice(t *testing.T) {
	systems, man := fleet(t, 2)
	_, _, addrs := startShards(t, systems, man)
	rt, _ := startRouter(t, Config{Addrs: addrs})
	tbl := fixGen.Tables[0]

	for name, rest := range map[string]any{
		"union":    server.UnionRequest{K: 3, Method: "d3l"},
		"discover": server.DiscoverRequest{K: 3, Relation: "any", Explain: true, Predicates: discover.Predicates{MinRows: 2}},
		"bare":     struct{}{},
	} {
		inline, failed := rt.fetch(context.Background(), rt.seedFor(tbl.ID, rest))
		if inline == nil {
			t.Fatalf("%s: fetch failed: %+v", name, failed)
		}
		var got struct {
			server.DiscoverRequest
			Table *server.InlineTable `json:"table"`
		}
		if err := json.Unmarshal(inline, &got); err != nil {
			t.Fatalf("%s: spliced body does not parse: %v\n%s", name, err, inline)
		}
		if got.Table == nil || got.Table.ID != tbl.ID || len(got.Table.Columns) != len(tbl.Columns) || got.TableID != "" {
			t.Errorf("%s: spliced body carries %+v", name, got.Table)
		}
		if name == "discover" && (got.K != 3 || !got.Explain || got.Predicates.MinRows != 2) {
			t.Errorf("discover: the rest of the request did not survive: %s", inline)
		}
	}
}

// --- the error matrix ---

// partial decodes the fields every degraded answer shares.
type partial struct {
	ShardsOK string               `json:"shards_ok"`
	Results  *[]server.TableScore `json:"results"`
}

func decodePartial(t *testing.T, body []byte) partial {
	t.Helper()
	var p partial
	if err := json.Unmarshal(body, &p); err != nil {
		t.Fatalf("%v in %s", err, body)
	}
	return p
}

func seededRequests(id string) map[string]any {
	return map[string]any{
		"/v1/union":    server.UnionRequest{TableID: id, K: 10, Method: "starmie"},
		"/v1/discover": server.DiscoverRequest{TableID: id, K: 10, Relation: "union"},
	}
}

func TestSeedErrorMatrix(t *testing.T) {
	const n = 3
	systems, man := fleet(t, n)

	t.Run("unknown table", func(t *testing.T) {
		_, https, addrs := startShards(t, systems, man)
		_, routed := startRouter(t, Config{Addrs: addrs})
		const id = "no-such-table"
		for path, req := range seededRequests(id) {
			resp, got := post(t, routed.URL+path, req)
			_, want := post(t, https[snap.ShardOf(id, n)].URL+path, req)
			if resp.StatusCode != http.StatusNotFound || !bytes.Equal(got, want) {
				t.Errorf("%s: routed %d %s, the owner says %s", path, resp.StatusCode, got, want)
			}
		}
	})

	t.Run("owner down", func(t *testing.T) {
		_, https, addrs := startShards(t, systems, man)
		rt, routed := startRouter(t, Config{Addrs: addrs})
		https[1].Close()
		for path, req := range seededRequests(ownedBy(1, n)[0].ID) {
			before := rt.shards[1].fails.Value()
			resp, body := post(t, routed.URL+path, req)
			p := decodePartial(t, body)
			if resp.StatusCode != http.StatusOK || p.ShardsOK != "0/3" || p.Results == nil || len(*p.Results) != 0 {
				t.Errorf("%s: %d %s, want an empty 200 with shards_ok 0/3", path, resp.StatusCode, body)
			}
			if rt.shards[1].fails.Value() == before {
				t.Errorf("%s: the dead owner's failure counter did not move", path)
			}
		}
	})

	t.Run("owner quarantined", func(t *testing.T) {
		_, _, addrs := startShards(t, systems, man)
		lying := server.New(systems[1], server.Config{Shard: &server.ShardIdentity{Index: 1, Count: n, ManifestHash: man.Hash() + 1}})
		ts := httptest.NewServer(lying.Handler())
		t.Cleanup(ts.Close)
		addrs[1] = ts.URL
		_, routed := startRouter(t, Config{Addrs: addrs})
		for path, req := range seededRequests(ownedBy(1, n)[0].ID) {
			resp, body := post(t, routed.URL+path, req)
			if p := decodePartial(t, body); resp.StatusCode != http.StatusOK || p.ShardsOK != "0/3" {
				t.Errorf("%s: %d %s, want 200 with shards_ok 0/3", path, resp.StatusCode, body)
			}
		}
	})

	t.Run("non-owner down", func(t *testing.T) {
		_, https, addrs := startShards(t, systems, man)
		_, routed := startRouter(t, Config{Addrs: addrs})
		https[2].Close()
		oracle := inlineOracle{t: t, addrs: addrs}
		id := ownedBy(0, n)[0].ID

		ureq := server.UnionRequest{TableID: id, K: 10, Method: "tus"}
		resp, got := post(t, routed.URL+"/v1/union", ureq)
		uv := oracle.union(ureq)
		want, _ := json.Marshal(uv)
		if resp.StatusCode != http.StatusOK || uv.ShardsOK != "2/3" || !bytes.Equal(got, want) {
			t.Errorf("union: routed %d %s\nthe live shards' merge %s", resp.StatusCode, got, want)
		}
		dreq := server.DiscoverRequest{TableID: id, K: 10}
		resp, got = post(t, routed.URL+"/v1/discover", dreq)
		dv := oracle.discover(dreq)
		want, _ = json.Marshal(dv)
		if resp.StatusCode != http.StatusOK || dv.ShardsOK != "2/3" || !bytes.Equal(got, want) {
			t.Errorf("discover: routed %d %s\nthe live shards' merge %s", resp.StatusCode, got, want)
		}
	})

	// The owner hands over the table but sheds the query: what it holds
	// is missing from the answer, what the others hold is not.
	t.Run("owner sheds the query", func(t *testing.T) {
		_, https, addrs := startShards(t, systems, man)
		shedding := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost {
				w.Header().Set("Retry-After", "1")
				server.WriteError(w, http.StatusTooManyRequests, "server overloaded, retry later")
				return
			}
			https[1].Config.Handler.ServeHTTP(w, r)
		}))
		t.Cleanup(shedding.Close)
		addrs[1] = shedding.URL
		rt, routed := startRouter(t, Config{Addrs: addrs})
		id := ownedBy(1, n)[0].ID

		for path, req := range seededRequests(id) {
			before := rt.shards[1].fails.Value()
			resp, body := post(t, routed.URL+path, req)
			p := decodePartial(t, body)
			if resp.StatusCode != http.StatusOK || p.ShardsOK != "2/3" || p.Results == nil || len(*p.Results) == 0 {
				t.Fatalf("%s: %d %s, want results with shards_ok 2/3", path, resp.StatusCode, body)
			}
			for _, r := range *p.Results {
				if snap.ShardOf(r.TableID, n) == 1 {
					t.Errorf("%s: %s is the shedding shard's, yet in the answer", path, r.TableID)
				}
			}
			if rt.shards[1].fails.Value() != before+1 {
				t.Errorf("%s: shed query counted %d failures, want 1", path, rt.shards[1].fails.Value()-before)
			}
		}
		// The same scores the two live shards give an all-inline fan-out,
		// which the shedding shard drops out of the same way.
		ureq := server.UnionRequest{TableID: id, K: 10, Method: "starmie"}
		_, got := post(t, routed.URL+"/v1/union", ureq)
		if want, _ := json.Marshal(inlineOracle{t: t, addrs: addrs}.union(ureq)); !bytes.Equal(got, want) {
			t.Errorf("routed %s\nthe live shards' merge %s", got, want)
		}
	})
}

// --- the owner fetch is bounded like every other sub-request ---

// stall serves h except for the requests stalled picks, which it holds
// until the test ends.
func stall(t *testing.T, h http.Handler, stalled func(*http.Request) bool) *httptest.Server {
	t.Helper()
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if stalled(r) {
			<-release
			return
		}
		h.ServeHTTP(w, r)
	}))
	// Cleanups run last first: let the held handlers go, then close.
	t.Cleanup(ts.Close)
	t.Cleanup(func() { close(release) })
	return ts
}

func TestOwnerFetchTimeout(t *testing.T) {
	const n = 2
	systems, man := fleet(t, n)
	id := ownedBy(1, n)[0].ID
	const timeout = 150 * time.Millisecond

	cases := []struct {
		name    string
		stalled func(*http.Request) bool
		want    string
	}{
		// An owner that accepts connections and answers nothing.
		{"owner stalls", func(r *http.Request) bool { return strings.HasPrefix(r.URL.Path, "/v1/") }, "0/2"},
		// Only /v1/table hangs: the owner's own answer is kept, the
		// shard that needed the table is what is missing.
		{"table endpoint stalls", func(r *http.Request) bool { return r.URL.Path == "/v1/table" }, "1/2"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, https, addrs := startShards(t, systems, man)
			addrs[1] = stall(t, https[1].Config.Handler, c.stalled).URL
			rt, routed := startRouter(t, Config{Addrs: addrs, ShardTimeout: timeout})
			for path, req := range seededRequests(id) {
				before := rt.shards[1].fails.Value()
				start := time.Now()
				resp, body := post(t, routed.URL+path, req)
				if el := time.Since(start); el > 20*timeout {
					t.Errorf("%s took %v under a ShardTimeout of %v", path, el, timeout)
				}
				if p := decodePartial(t, body); resp.StatusCode != http.StatusOK || p.ShardsOK != c.want {
					t.Errorf("%s: %d %s, want 200 with shards_ok %s", path, resp.StatusCode, body, c.want)
				}
				if rt.shards[1].fails.Value() == before {
					t.Errorf("%s: lakerouter_shard_failures_total did not move for the stalled owner", path)
				}
			}
		})
	}
}

// --- a caller that gives up leaves nothing running ---

// countingTransport counts the sub-requests in flight.
type countingTransport struct {
	http.RoundTripper
	inflight atomic.Int64
	started  atomic.Int64
}

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.started.Add(1)
	c.inflight.Add(1)
	defer c.inflight.Add(-1)
	return c.RoundTripper.RoundTrip(r)
}

func TestCancelledCallerLeavesNoSubRequest(t *testing.T) {
	const n = 3
	systems, man := fleet(t, n)
	_, https, addrs := startShards(t, systems, man)
	for i := range addrs {
		// Healthy to the sweep, silent to every query and fetch.
		addrs[i] = stall(t, https[i].Config.Handler, func(r *http.Request) bool { return r.URL.Path != "/healthz" }).URL
	}
	tr := &countingTransport{RoundTripper: shardTransport(nil)}
	rt, _ := startRouter(t, Config{Addrs: addrs, ShardTimeout: time.Minute, Transport: tr})
	id := ownedBy(0, n)[0].ID

	for path, req := range seededRequests(id) {
		body, _ := json.Marshal(req)
		ctx, cancel := context.WithCancel(context.Background())
		r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)).WithContext(ctx)
		w := httptest.NewRecorder()
		started := tr.started.Load()
		done := make(chan struct{})
		go func() {
			defer close(done)
			rt.Handler().ServeHTTP(w, r)
		}()
		// The owner's query and the fetch are both on the wire.
		for tr.started.Load() < started+2 {
			time.Sleep(time.Millisecond)
		}
		cancel()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: handler still running 10s after its caller gave up", path)
		}
		// fanout joins its goroutines before it returns, so none can be
		// left inside a sub-request.
		if n := tr.inflight.Load(); n != 0 {
			t.Errorf("%s: %d sub-requests still in flight after the handler returned", path, n)
		}
		if p := decodePartial(t, w.Body.Bytes()); w.Code != http.StatusOK || p.ShardsOK != "0/3" {
			t.Errorf("%s: %d %s, want 200 with shards_ok 0/3", path, w.Code, w.Body)
		}
	}
}

// --- the idle pool fits a fan-out ---

// countingListener counts accepted connections.
type countingListener struct {
	net.Listener
	accepted atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return c, err
}

func TestShardConnectionsAreReused(t *testing.T) {
	const clients, each = 16, 50
	systems, man := fleet(t, 2)
	listeners := make([]*countingListener, len(systems))
	addrs := make([]string, len(systems))
	for i, sys := range systems {
		srv := server.New(sys, server.Config{
			MaxInFlight: clients, MaxQueue: 4 * clients,
			Shard: &server.ShardIdentity{Index: i, Count: len(systems), ManifestHash: man.Hash()},
		})
		ts := httptest.NewUnstartedServer(srv.Handler())
		listeners[i] = &countingListener{Listener: ts.Listener}
		ts.Listener = listeners[i]
		ts.Start()
		t.Cleanup(ts.Close)
		addrs[i] = ts.URL
	}
	_, routed := startRouter(t, Config{Addrs: addrs})

	body, _ := json.Marshal(server.JoinRequest{Values: fixGen.Tables[0].Columns[0].Values, K: 5})
	var wg sync.WaitGroup
	var failed atomic.Int64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Transport: &http.Transport{}}
			defer client.CloseIdleConnections()
			for i := 0; i < each; i++ {
				resp, err := client.Post(routed.URL+"/v1/join", "application/json", bytes.NewReader(body))
				if err != nil {
					failed.Add(1)
					continue
				}
				var buf bytes.Buffer
				_, _ = buf.ReadFrom(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || bytes.Contains(buf.Bytes(), []byte("shards_ok")) {
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if n := failed.Load(); n != 0 {
		t.Fatalf("%d of %d routed joins failed or came back partial", n, clients*each)
	}
	// One connection per concurrent caller and one for the health sweep
	// is what the fan-out needs; the default transport's two idle slots
	// per host made it dial for most of the sub-requests.
	for i, l := range listeners {
		if got := l.accepted.Load(); got > 2*clients {
			t.Errorf("shard %d accepted %d connections for %d sub-requests from %d concurrent callers, want about %d",
				i, got, clients*each, clients, clients)
		}
	}
}
