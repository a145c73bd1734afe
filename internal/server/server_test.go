package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tablehound/internal/core"
	"tablehound/internal/datagen"
	"tablehound/internal/lake"
)

// The demo system is expensive to build, so all tests share one.
// Server instances are cheap and each test makes its own.
var (
	sysOnce sync.Once
	sysVal  *core.System
	genVal  *datagen.Lake
)

func demoSystem(t *testing.T) (*core.System, *datagen.Lake) {
	t.Helper()
	sysOnce.Do(func() {
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
		sys, err := core.Build(cat, core.Options{KB: gen.BuildKB(0.8), Seed: 3})
		if err != nil {
			panic(err)
		}
		sysVal, genVal = sys, gen
	})
	return sysVal, genVal
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *datagen.Lake) {
	t.Helper()
	sys, gen := demoSystem(t)
	srv := New(sys, cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, gen
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	resp, out, err := postRaw(url, body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// postRaw is the goroutine-safe variant: it reports failures as an
// error instead of calling into testing.T.
func postRaw(url string, body any) (*http.Response, []byte, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return nil, nil, err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		return nil, nil, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, nil, err
	}
	return resp, out, nil
}

func TestEndpointsHappyPath(t *testing.T) {
	srv, ts, gen := newTestServer(t, Config{CacheEntries: 256})
	qt := gen.Tables[0]

	t.Run("join overlap", func(t *testing.T) {
		resp, body := postJSON(t, ts.URL+"/v1/join", JoinRequest{Values: qt.Columns[0].Values, K: 5})
		if resp.StatusCode != 200 {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var out JoinResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if len(out.Matches) == 0 {
			t.Fatal("no matches")
		}
		if out.Matches[0].Containment < 0.99 {
			t.Errorf("top containment = %v, the column itself is indexed", out.Matches[0].Containment)
		}
	})

	t.Run("join containment", func(t *testing.T) {
		resp, body := postJSON(t, ts.URL+"/v1/join",
			JoinRequest{Values: qt.Columns[0].Values, K: 5, Mode: "containment", Threshold: 0.5})
		if resp.StatusCode != 200 {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var out JoinResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if len(out.Matches) == 0 {
			t.Fatal("no containment matches")
		}
	})

	for _, method := range []string{"tus", "santos", "starmie", "d3l"} {
		t.Run("union "+method, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+"/v1/union",
				UnionRequest{TableID: qt.ID, K: 3, Method: method})
			if resp.StatusCode != 200 {
				t.Fatalf("status %d: %s", resp.StatusCode, body)
			}
			var out UnionResponse
			if err := json.Unmarshal(body, &out); err != nil {
				t.Fatal(err)
			}
			if len(out.Results) == 0 {
				t.Fatalf("%s found nothing", method)
			}
		})
	}

	t.Run("union inline table", func(t *testing.T) {
		inline := &InlineTable{ID: "q", Name: qt.Name}
		for _, c := range qt.Columns {
			inline.Columns = append(inline.Columns, InlineColumn{Name: c.Name, Values: c.Values})
		}
		resp, body := postJSON(t, ts.URL+"/v1/union", UnionRequest{Table: inline, K: 3})
		if resp.StatusCode != 200 {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-Cache"); got != "BYPASS" {
			t.Errorf("inline table X-Cache = %q, want BYPASS", got)
		}
	})

	t.Run("keyword meta and values", func(t *testing.T) {
		topic := gen.DomainNames[gen.Templates[0].Domains[0]]
		resp, body := postJSON(t, ts.URL+"/v1/keyword", KeywordRequest{Query: topic, K: 5})
		if resp.StatusCode != 200 {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var out KeywordResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if len(out.Results) == 0 {
			t.Fatal("no keyword results")
		}
		val := qt.Columns[0].Values[0]
		resp, body = postJSON(t, ts.URL+"/v1/keyword", KeywordRequest{Query: val, K: 5, Mode: "values"})
		if resp.StatusCode != 200 {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if len(out.Clusters) == 0 {
			t.Fatal("no value clusters")
		}
	})

	t.Run("healthz stats metrics", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var h HealthResponse
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if h.Status != "ok" || h.Tables == 0 {
			t.Errorf("healthz = %+v", h)
		}

		st, err := NewClient(ts.URL).Stats(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if st.Lake.Tables != h.Tables {
			t.Errorf("stats tables %d != healthz tables %d", st.Lake.Tables, h.Tables)
		}
		if st.Endpoints["join"].Requests == 0 {
			t.Error("join requests not counted")
		}
		if st.Endpoints["join"].P50Ms <= 0 {
			t.Error("join latency quantile missing")
		}

		resp, err = http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		metrics, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		for _, want := range []string{
			`lakeserved_requests_total{endpoint="join"}`,
			`lakeserved_request_seconds{endpoint="union",quantile="0.99"}`,
			"lakeserved_inflight",
			"lakeserved_cache_hit_ratio",
			"lakeserved_shed_total",
		} {
			if !strings.Contains(string(metrics), want) {
				t.Errorf("metrics missing %q", want)
			}
		}
	})

	_ = srv
}

func TestBadRequestsAndErrorMapping(t *testing.T) {
	_, ts, gen := newTestServer(t, Config{})

	check := func(name string, wantStatus int, do func() *http.Response) {
		t.Run(name, func(t *testing.T) {
			resp := do()
			defer resp.Body.Close()
			if resp.StatusCode != wantStatus {
				body, _ := io.ReadAll(resp.Body)
				t.Errorf("status = %d, want %d (%s)", resp.StatusCode, wantStatus, body)
			}
			var e ErrorResponse
			if err := json.NewDecoder(resp.Body).Decode(&e); err == nil && e.Error == "" && wantStatus >= 400 {
				t.Error("error response without an error message")
			}
		})
	}
	post := func(path string, body any) *http.Response {
		b, _ := json.Marshal(body)
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	check("malformed JSON", 400, func() *http.Response {
		resp, err := http.Post(ts.URL+"/v1/join", "application/json", strings.NewReader("{nope"))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	})
	check("GET on query endpoint", 405, func() *http.Response {
		resp, err := http.Get(ts.URL + "/v1/join")
		if err != nil {
			t.Fatal(err)
		}
		return resp
	})
	check("empty join values", 400, func() *http.Response {
		return post("/v1/join", JoinRequest{Values: nil, K: 5})
	})
	check("whitespace join values", 400, func() *http.Response {
		return post("/v1/join", JoinRequest{Values: []string{" ", "\t"}, K: 5})
	})
	check("unknown join mode", 400, func() *http.Response {
		return post("/v1/join", JoinRequest{Values: []string{"x"}, K: 5, Mode: "fuzzy"})
	})
	check("unknown union method", 400, func() *http.Response {
		return post("/v1/union", UnionRequest{TableID: gen.Tables[0].ID, K: 3, Method: "magic"})
	})
	check("union without table", 400, func() *http.Response {
		return post("/v1/union", UnionRequest{K: 3})
	})
	check("union with both table and id", 400, func() *http.Response {
		return post("/v1/union", UnionRequest{TableID: "x", Table: &InlineTable{}, K: 3})
	})
	check("union unknown table id", 404, func() *http.Response {
		return post("/v1/union", UnionRequest{TableID: "no-such-table", K: 3})
	})
	check("union ragged inline table", 400, func() *http.Response {
		return post("/v1/union", UnionRequest{K: 3, Table: &InlineTable{Columns: []InlineColumn{
			{Name: "a", Values: []string{"1", "2"}},
			{Name: "b", Values: []string{"1"}},
		}}})
	})
	check("empty keyword query", 400, func() *http.Response {
		return post("/v1/keyword", KeywordRequest{Query: "   ", K: 5})
	})
	check("unknown keyword mode", 400, func() *http.Response {
		return post("/v1/keyword", KeywordRequest{Query: "x", K: 5, Mode: "regex"})
	})
	check("unknown path", 404, func() *http.Response {
		resp, err := http.Get(ts.URL + "/v1/nope")
		if err != nil {
			t.Fatal(err)
		}
		return resp
	})
}

// TestCacheParity is the serving-layer correctness contract: responses
// with the cache enabled are bit-identical to responses with it
// disabled, and a repeated query is a bit-identical HIT.
func TestCacheParity(t *testing.T) {
	_, tsCached, gen := newTestServer(t, Config{CacheEntries: 512})
	_, tsPlain, _ := newTestServer(t, Config{CacheEntries: 0})

	rng := rand.New(rand.NewSource(7))
	type query struct {
		path string
		body any
	}
	var queries []query
	for i := 0; i < 20; i++ {
		tbl := gen.Tables[rng.Intn(len(gen.Tables))]
		col := tbl.Columns[rng.Intn(len(tbl.Columns))]
		switch rng.Intn(4) {
		case 0:
			queries = append(queries, query{"/v1/join", JoinRequest{Values: col.Values, K: 1 + rng.Intn(10)}})
		case 1:
			queries = append(queries, query{"/v1/join",
				JoinRequest{Values: col.Values, K: 1 + rng.Intn(10), Mode: "containment", Threshold: 0.3}})
		case 2:
			queries = append(queries, query{"/v1/union",
				UnionRequest{TableID: tbl.ID, K: 1 + rng.Intn(5), Method: []string{"tus", "santos", "starmie", "d3l"}[rng.Intn(4)]}})
		default:
			queries = append(queries, query{"/v1/keyword",
				KeywordRequest{Query: col.Values[0], K: 1 + rng.Intn(10), Mode: []string{"meta", "values"}[rng.Intn(2)]}})
		}
	}

	for i, q := range queries {
		respCold, bodyCold := postJSON(t, tsCached.URL+q.path, q.body)
		respWarm, bodyWarm := postJSON(t, tsCached.URL+q.path, q.body)
		respPlain, bodyPlain := postJSON(t, tsPlain.URL+q.path, q.body)
		if respCold.StatusCode != 200 || respWarm.StatusCode != 200 || respPlain.StatusCode != 200 {
			t.Fatalf("query %d (%s %+v): statuses %d/%d/%d", i, q.path, q.body,
				respCold.StatusCode, respWarm.StatusCode, respPlain.StatusCode)
		}
		if respCold.Header.Get("X-Cache") != "MISS" {
			t.Errorf("query %d: first hit X-Cache = %q, want MISS", i, respCold.Header.Get("X-Cache"))
		}
		if respWarm.Header.Get("X-Cache") != "HIT" {
			t.Errorf("query %d: repeat X-Cache = %q, want HIT", i, respWarm.Header.Get("X-Cache"))
		}
		if !bytes.Equal(bodyCold, bodyWarm) {
			t.Errorf("query %d: cached response differs from original:\n%s\nvs\n%s", i, bodyCold, bodyWarm)
		}
		if !bytes.Equal(bodyCold, bodyPlain) {
			t.Errorf("query %d: cache-enabled response differs from cache-disabled:\n%s\nvs\n%s", i, bodyCold, bodyPlain)
		}
	}
}

func TestAdmissionSheds429(t *testing.T) {
	sys, gen := demoSystem(t)
	srv := New(sys, Config{MaxInFlight: 1, MaxQueue: 1, CacheEntries: 0})
	started := make(chan struct{}, 8)
	block := make(chan struct{})
	srv.testHookQueryStart = func() {
		started <- struct{}{}
		<-block
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer close(block)

	req := JoinRequest{Values: gen.Tables[0].Columns[0].Values, K: 3}
	respCh := make(chan int, 2)
	send := func() {
		resp, _, err := postRaw(ts.URL+"/v1/join", req)
		if err != nil {
			respCh <- 0
			return
		}
		respCh <- resp.StatusCode
	}
	// First request takes the only execution slot...
	go send()
	<-started
	// ...second fills the only queue slot...
	go send()
	waitFor(t, func() bool { return srv.queued.Value() == 1 })

	// ...third must be shed immediately.
	resp, body := postJSON(t, ts.URL+"/v1/join", req)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d (%s), want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if srv.shed.Value() != 1 {
		t.Errorf("shed counter = %d", srv.shed.Value())
	}

	// Unblock; both held requests finish OK.
	block <- struct{}{}
	block <- struct{}{}
	<-started // the queued request reaches the hook after a slot frees
	for i := 0; i < 2; i++ {
		if code := <-respCh; code != 200 {
			t.Errorf("held request %d finished with %d", i, code)
		}
	}
}

func TestQueryTimeout(t *testing.T) {
	sys, gen := demoSystem(t)
	srv := New(sys, Config{QueryTimeout: 20 * time.Millisecond})
	release := make(chan struct{})
	srv.testHookQueryStart = func() { <-release }
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer close(release)

	resp, body := postJSON(t, ts.URL+"/v1/join", JoinRequest{Values: gen.Tables[0].Columns[0].Values, K: 3})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (%s), want 504", resp.StatusCode, body)
	}
	if srv.timeouts.Value() != 1 {
		t.Errorf("timeout counter = %d", srv.timeouts.Value())
	}
}

func TestQueryPanicBecomes500(t *testing.T) {
	sys, gen := demoSystem(t)
	srv := New(sys, Config{})
	fire := true
	srv.testHookQueryStart = func() {
		if fire {
			fire = false
			panic("boom")
		}
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := JoinRequest{Values: gen.Tables[0].Columns[0].Values, K: 3}
	resp, body := postJSON(t, ts.URL+"/v1/join", req)
	if resp.StatusCode != 500 {
		t.Fatalf("status = %d (%s), want 500", resp.StatusCode, body)
	}
	// The server survived and serves the next request.
	resp, body = postJSON(t, ts.URL+"/v1/join", req)
	if resp.StatusCode != 200 {
		t.Fatalf("after panic: status = %d (%s)", resp.StatusCode, body)
	}
}

func TestShutdownDrains(t *testing.T) {
	sys, gen := demoSystem(t)
	srv := New(sys, Config{DrainTimeout: 5 * time.Second})
	started := make(chan struct{}, 1)
	block := make(chan struct{})
	srv.testHookQueryStart = func() {
		started <- struct{}{}
		<-block
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := JoinRequest{Values: gen.Tables[0].Columns[0].Values, K: 3}
	inFlight := make(chan int, 1)
	go func() {
		resp, _, err := postRaw(ts.URL+"/v1/join", req)
		if err != nil {
			inFlight <- 0
			return
		}
		inFlight <- resp.StatusCode
	}()
	<-started

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- srv.Shutdown(context.Background()) }()
	waitFor(t, func() bool { return srv.draining.Load() })

	// New requests are refused while draining.
	resp, body := postJSON(t, ts.URL+"/v1/join", req)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("during drain: status = %d (%s), want 503", resp.StatusCode, body)
	}

	// The in-flight request completes and shutdown then succeeds.
	close(block)
	if code := <-inFlight; code != 200 {
		t.Errorf("in-flight request finished with %d", code)
	}
	if err := <-shutdownDone; err != nil {
		t.Errorf("shutdown after drain: %v", err)
	}
}

func TestShutdownDrainDeadline(t *testing.T) {
	sys, gen := demoSystem(t)
	srv := New(sys, Config{DrainTimeout: 30 * time.Millisecond})
	started := make(chan struct{}, 1)
	block := make(chan struct{})
	srv.testHookQueryStart = func() {
		started <- struct{}{}
		<-block
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer close(block)

	go postRaw(ts.URL+"/v1/join", JoinRequest{Values: gen.Tables[0].Columns[0].Values, K: 3})
	<-started
	if err := srv.Shutdown(context.Background()); err == nil {
		t.Error("shutdown with a stuck query should report the drain deadline")
	}
}

// TestConcurrentHammer drives every endpoint from 32 clients against
// one server — mixed cache hits and misses — while the lake snapshot
// is concurrently swapped. Run under -race this is the serving
// layer's thread-safety contract.
func TestConcurrentHammer(t *testing.T) {
	sys, gen := demoSystem(t)
	srv := New(sys, Config{
		MaxInFlight:  8,
		MaxQueue:     4096,
		CacheEntries: 256,
		QueryTimeout: time.Minute,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const clients = 32
	perClient := 12
	if testing.Short() {
		perClient = 4
	}

	var wg sync.WaitGroup
	errCh := make(chan error, clients*perClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for i := 0; i < perClient; i++ {
				tbl := gen.Tables[rng.Intn(len(gen.Tables))]
				var (
					path string
					body any
				)
				switch rng.Intn(4) {
				case 0:
					path, body = "/v1/join", JoinRequest{Values: tbl.Columns[0].Values, K: 5}
				case 1:
					path, body = "/v1/union", UnionRequest{TableID: tbl.ID, K: 3,
						Method: []string{"tus", "starmie", "d3l"}[rng.Intn(3)]}
				case 2:
					path, body = "/v1/keyword", KeywordRequest{Query: tbl.Columns[0].Values[0], K: 5}
				default:
					// Mix in observability reads.
					for _, p := range []string{"/stats", "/metrics", "/healthz"} {
						resp, err := http.Get(ts.URL + p)
						if err != nil {
							errCh <- err
							return
						}
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
						if resp.StatusCode != 200 {
							errCh <- fmt.Errorf("%s: status %d", p, resp.StatusCode)
						}
					}
					continue
				}
				b, _ := json.Marshal(body)
				resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(b))
				if err != nil {
					errCh <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					errCh <- fmt.Errorf("%s: status %d", path, resp.StatusCode)
				}
			}
		}(c)
	}
	// Concurrent snapshot swaps: same system, new generation — the
	// cache must purge and requests must keep succeeding.
	swapDone := make(chan struct{})
	go func() {
		defer close(swapDone)
		for i := 0; i < 5; i++ {
			time.Sleep(10 * time.Millisecond)
			srv.Swap(sys)
		}
	}()
	wg.Wait()
	<-swapDone
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if srv.swaps.Value() != 5 {
		t.Errorf("swaps = %d", srv.swaps.Value())
	}
	st := srv.CacheStats()
	if st.Hits+st.Misses == 0 {
		t.Error("hammer never touched the cache")
	}
}

// TestClientRoundTrip exercises the typed client against a live
// server, including its error mapping.
func TestClientRoundTrip(t *testing.T) {
	_, ts, gen := newTestServer(t, Config{CacheEntries: 64})
	c := NewClient(ts.URL)
	ctx := context.Background()

	jr, err := c.Join(ctx, JoinRequest{Values: gen.Tables[0].Columns[0].Values, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(jr.Matches) == 0 {
		t.Error("client join: no matches")
	}
	ur, err := c.Union(ctx, UnionRequest{TableID: gen.Tables[0].ID, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(ur.Results) == 0 {
		t.Error("client union: no results")
	}
	if _, err := c.Keyword(ctx, KeywordRequest{Query: "   "}); err == nil {
		t.Error("bad query should surface as client error")
	} else {
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.Status != 400 {
			t.Errorf("err = %v, want APIError with status 400", err)
		}
	}
	h, err := c.Healthz(ctx)
	if err != nil || h.Status != "ok" {
		t.Errorf("healthz = %+v, %v", h, err)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached within 5s")
}

// TestFinishedQueryNeverReportedCanceled: a query goroutine cancels its
// context right after sending its result, and a handler that reaches
// runQuery's select only then used to answer about one finished query
// in 10^5 with 503 "request canceled". Every one of these trivial
// queries finishes, so every reply must be a 200 and /stats must count
// no timeout.
func TestFinishedQueryNeverReportedCanceled(t *testing.T) {
	if testing.Short() {
		t.Skip("2x10^5 requests")
	}
	sys, _ := demoSystem(t)
	srv := New(sys, Config{})
	h := srv.Handler()
	const workers, perWorker = 4, 50_000
	body := []byte(`{"q":"city","k":1}`)
	var wg sync.WaitGroup
	var bad atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/keyword", bytes.NewReader(body)))
				if rec.Code != http.StatusOK {
					if bad.Add(1) == 1 {
						t.Errorf("request %d: status %d: %s", i, rec.Code, rec.Body.Bytes())
					}
				}
			}
		}()
	}
	wg.Wait()
	if n := bad.Load(); n != 0 {
		t.Errorf("%d of %d finished queries were not answered 200", n, workers*perWorker)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var stats StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Timeouts != 0 {
		t.Errorf("/stats timeouts = %d, want 0", stats.Timeouts)
	}
}
