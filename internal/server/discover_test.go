package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"sort"
	"strings"
	"testing"

	"tablehound/internal/discover"
	"tablehound/internal/join"
	"tablehound/internal/qcache"
	"tablehound/internal/table"
	"tablehound/internal/tokenize"
	"tablehound/internal/union"
)

// --- satellite: uniform bad-query handling across every surface ---

// Every query endpoint must reject a non-positive or absent k, and an
// unknown relation/mode/method string, with HTTP 400 — the same
// table.ErrBadQuery contract, the same first-validation order.
func TestBadQuerySweep(t *testing.T) {
	_, ts, gen := newTestServer(t, Config{})
	qt := gen.Tables[0]
	vals := qt.Columns[0].Values

	cases := []struct {
		name string
		path string
		req  any
	}{
		{"join absent k", "/v1/join", JoinRequest{Values: vals}},
		{"join zero k", "/v1/join", JoinRequest{Values: vals, K: 0}},
		{"join negative k", "/v1/join", JoinRequest{Values: vals, K: -1}},
		{"join bad mode", "/v1/join", JoinRequest{Values: vals, K: 5, Mode: "fuzzy"}},
		{"union absent k", "/v1/union", UnionRequest{TableID: qt.ID}},
		{"union negative k", "/v1/union", UnionRequest{TableID: qt.ID, K: -7}},
		{"union bad method", "/v1/union", UnionRequest{TableID: qt.ID, K: 5, Method: "magic"}},
		{"keyword absent k", "/v1/keyword", KeywordRequest{Query: "x"}},
		{"keyword negative k", "/v1/keyword", KeywordRequest{Query: "x", K: -2}},
		{"keyword bad mode", "/v1/keyword", KeywordRequest{Query: "x", K: 5, Mode: "regex"}},
		{"discover absent k", "/v1/discover", DiscoverRequest{TableID: qt.ID}},
		{"discover zero k", "/v1/discover", DiscoverRequest{TableID: qt.ID, K: 0}},
		{"discover negative k", "/v1/discover", DiscoverRequest{TableID: qt.ID, K: -4}},
		{"discover bad relation", "/v1/discover", DiscoverRequest{TableID: qt.ID, K: 5, Relation: "psychic"}},
		{"discover bad mode", "/v1/discover", DiscoverRequest{TableID: qt.ID, K: 5, Mode: "fuzzy"}},
		{"discover bad method", "/v1/discover", DiscoverRequest{TableID: qt.ID, K: 5, Method: "magic"}},
		{"discover no seed", "/v1/discover", DiscoverRequest{K: 5}},
		{"discover two seeds", "/v1/discover", DiscoverRequest{TableID: qt.ID, Values: vals, K: 5}},
		{"discover bad column type", "/v1/discover", DiscoverRequest{TableID: qt.ID, K: 5,
			Predicates: discover.Predicates{ColumnTypes: []string{"uuid"}}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+c.path, c.req)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d (%s), want 400", resp.StatusCode, body)
			}
			var e ErrorResponse
			if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
				t.Fatalf("400 body is not an error envelope: %s", body)
			}
		})
	}
}

// --- degenerate-case parity: discover == bare endpoint, bit for bit ---

// parityRow is one question asked every way there is to ask it: the
// bare endpoint, the unpredicated /v1/discover spelling, and the
// core.System facade (or, where the facade has no method, the engine).
type parityRow struct {
	path   string
	bare   any
	disc   DiscoverRequest
	direct func() (any, error) // the answer in the bare endpoint's wire type
	// bareKey and discKey are the cache keys the documented layouts give
	// the two requests; "" where the request is not cached.
	bareKey, discKey string
}

// check requires one answer, byte for byte, from all three, and on
// replay a HIT with the same bytes exactly where a key is expected —
// stored under that key, so the key bytes are pinned too.
func (row parityRow) check(t *testing.T, srv *Server, url string) {
	t.Helper()
	want, err := row.direct()
	if err != nil {
		t.Fatal(err)
	}
	wantBody, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	for _, ask := range []struct {
		path string
		req  any
		key  string
	}{{row.path, row.bare, row.bareKey}, {"/v1/discover", row.disc, row.discKey}} {
		first, replay := "BYPASS", "BYPASS"
		if ask.key != "" {
			first, replay = "MISS", "HIT"
		}
		for _, wantCache := range []string{first, replay} {
			resp, body := postJSON(t, url+ask.path, ask.req)
			if resp.StatusCode != 200 {
				t.Fatalf("%s: status %d: %s", ask.path, resp.StatusCode, body)
			}
			if !bytes.Equal(body, wantBody) {
				t.Errorf("%s != direct answer\n got %s\nwant %s", ask.path, body, wantBody)
			}
			if got := resp.Header.Get("X-Cache"); got != wantCache {
				t.Errorf("%s: X-Cache = %q, want %q", ask.path, got, wantCache)
			}
		}
		if ask.key != "" {
			if cached, ok := srv.cache.Get(ask.key); !ok || !bytes.Equal(cached, wantBody) {
				t.Errorf("%s: nothing (or other bytes) cached under the documented key", ask.path)
			}
		}
	}
}

func joinMatches(ms []join.Match, err error) (any, error) {
	out := make([]JoinMatch, len(ms))
	for i, m := range ms {
		out[i] = JoinMatch{ColumnKey: m.ColumnKey, Overlap: m.Overlap, Containment: m.Containment, Jaccard: m.Jaccard}
	}
	return JoinResponse{Matches: out}, err
}

func TestDiscoverParityWithJoin(t *testing.T) {
	srv, ts, gen := newTestServer(t, Config{CacheEntries: 64})
	sys, snap := srv.System(), srv.snap.Load()
	vals := gen.Tables[0].Columns[0].Values
	// The 'J' key: generation, mode, k, the threshold in containment
	// mode, then each distinct normalized value, sorted, as its dictionary
	// ID.
	joinKey := func(mode byte, threshold float64) string {
		var kb qcache.KeyBuilder
		kb.Byte('J').U64(snap.dataGen).Byte(mode).U32(7)
		if mode == 1 {
			kb.U64(math.Float64bits(threshold))
		}
		norm := tokenize.NormalizeSet(vals)
		sort.Strings(norm)
		for _, v := range norm {
			id, ok := sys.Dict.ID(v)
			if !ok {
				t.Fatalf("lake value %q not in the dictionary", v)
			}
			kb.Byte(0).U32(id)
		}
		return kb.String()
	}

	for name, row := range map[string]parityRow{
		"overlap": {
			bare:    JoinRequest{Values: vals, K: 7},
			disc:    DiscoverRequest{Values: vals, Relation: "join", K: 7},
			direct:  func() (any, error) { return joinMatches(sys.JoinableColumns(vals, 7)) },
			bareKey: joinKey(0, 0),
		},
		"containment": {
			bare:    JoinRequest{Values: vals, K: 7, Mode: "containment", Threshold: 0.3},
			disc:    DiscoverRequest{Values: vals, Relation: "join", K: 7, Mode: "containment", Threshold: 0.3},
			direct:  func() (any, error) { return joinMatches(sys.ContainmentSearch(vals, 0.3, 7)) },
			bareKey: joinKey(1, 0.3),
		},
	} {
		t.Run(name, func(t *testing.T) {
			row.path = "/v1/join"
			row.check(t, srv, ts.URL)
		})
	}

	// A column with nothing left after normalization is a bad query on
	// both spellings.
	blank := []string{"", "  "}
	for path, req := range map[string]any{
		"/v1/join":     JoinRequest{Values: blank, K: 7},
		"/v1/discover": DiscoverRequest{Values: blank, Relation: "join", K: 7},
	} {
		if resp, body := postJSON(t, ts.URL+path, req); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s, empty column: status %d (%s), want 400", path, resp.StatusCode, body)
		}
	}
}

func TestDiscoverParityWithUnion(t *testing.T) {
	srv, ts, gen := newTestServer(t, Config{CacheEntries: 64})
	sys, snap := srv.System(), srv.snap.Load()
	qt := gen.Tables[0]
	inline := &InlineTable{ID: "q", Name: qt.Name}
	for _, c := range qt.Columns {
		inline.Columns = append(inline.Columns, InlineColumn{Name: c.Name, Values: c.Values})
	}
	ctx := context.Background()
	unionScores := func(rs []union.Result, err error) (any, error) {
		out := make([]TableScore, len(rs))
		for i, r := range rs {
			out[i] = TableScore{TableID: r.TableID, Score: r.Score}
		}
		return UnionResponse{Results: out}, err
	}
	engines := map[string]func(q *table.Table) (any, error){
		"tus":    func(q *table.Table) (any, error) { return unionScores(sys.UnionableTables(q, 6)) },
		"santos": func(q *table.Table) (any, error) { return unionScores(sys.Santos.Search(ctx, q, 6, union.Hybrid)) },
		"starmie": func(q *table.Table) (any, error) {
			ms, err := sys.Starmie.SearchTables(ctx, q, 6, 64, false)
			rs := make([]union.Result, len(ms))
			for i, m := range ms {
				rs[i] = union.Result{TableID: m.TableID, Score: m.Score}
			}
			return unionScores(rs, err)
		},
		"d3l": func(q *table.Table) (any, error) { return unionScores(sys.D3L.Search(ctx, q, 6)) },
	}

	for mi, method := range []string{"tus", "santos", "starmie", "d3l"} {
		t.Run(method, func(t *testing.T) {
			t.Run("table_id", func(t *testing.T) {
				// The 'U' and 'D' keys, laid out by hand.
				var u, d qcache.KeyBuilder
				u.Byte('U').U64(snap.dataGen).Byte(byte(mi)).U32(6).Str(qt.ID)
				d.Byte('D').U64(snap.dataGen).Byte(byte(discover.RelationUnion)).Byte(0).Byte(byte(mi)).
					U32(6).U64(math.Float64bits(0.5)).Byte(0).Str(qt.ID).Str("").Str("{}")
				parityRow{
					path:    "/v1/union",
					bare:    UnionRequest{TableID: qt.ID, K: 6, Method: method},
					disc:    DiscoverRequest{TableID: qt.ID, Relation: "union", K: 6, Method: method},
					direct:  func() (any, error) { return engines[method](qt) },
					bareKey: u.String(), discKey: d.String(),
				}.check(t, srv, ts.URL)
			})
			t.Run("inline", func(t *testing.T) {
				q, err := inlineTable(inline)
				if err != nil {
					t.Fatal(err)
				}
				parityRow{
					path:   "/v1/union",
					bare:   UnionRequest{Table: inline, K: 6, Method: method},
					disc:   DiscoverRequest{Table: inline, Relation: "union", K: 6, Method: method},
					direct: func() (any, error) { return engines[method](q) },
				}.check(t, srv, ts.URL)
			})
			// Bad seeds fail alike on both spellings: an unknown table is
			// 404, an inline table the method cannot use is 400.
			hollow := &InlineTable{Columns: []InlineColumn{}}
			for _, c := range []struct {
				path string
				req  any
				want int
			}{
				{"/v1/union", UnionRequest{TableID: "no-such-table", K: 6, Method: method}, http.StatusNotFound},
				{"/v1/discover", DiscoverRequest{TableID: "no-such-table", Relation: "union", K: 6, Method: method}, http.StatusNotFound},
				{"/v1/union", UnionRequest{Table: hollow, K: 6, Method: method}, http.StatusBadRequest},
				{"/v1/discover", DiscoverRequest{Table: hollow, Relation: "union", K: 6, Method: method}, http.StatusBadRequest},
			} {
				if resp, body := postJSON(t, ts.URL+c.path, c.req); resp.StatusCode != c.want {
					t.Errorf("%s %+v: status %d (%s), want %d", c.path, c.req, resp.StatusCode, body, c.want)
				}
			}
		})
	}
}

// --- predicates, explain, and the wire shape ---

func TestDiscoverPredicatesAndExplain(t *testing.T) {
	_, ts, gen := newTestServer(t, Config{})
	qt := gen.Tables[0]

	req := DiscoverRequest{
		TableID:  qt.ID,
		Relation: "union",
		K:        5,
		Predicates: discover.Predicates{
			MinRows:     1,
			ColumnNames: []string{qt.Columns[0].Name},
		},
		Explain: true,
	}
	resp, body := postJSON(t, ts.URL+"/v1/discover", req)
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var out DiscoverResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Results == nil {
		t.Fatal("union-relation discover returned no results field")
	}
	if len(out.Explain) == 0 {
		t.Fatal("explain requested but absent")
	}
	wantStages := []string{discover.StageMeta, discover.StageCandidates, discover.StageVerify}
	if len(out.Explain) != len(wantStages) {
		t.Fatalf("explain stages = %+v, want %v", out.Explain, wantStages)
	}
	for i, st := range out.Explain {
		if st.Stage != wantStages[i] {
			t.Errorf("stage %d = %q, want %q", i, st.Stage, wantStages[i])
		}
	}
	// Without explain the block is absent from the wire entirely.
	req.Explain = false
	_, body = postJSON(t, ts.URL+"/v1/discover", req)
	if strings.Contains(string(body), "explain") {
		t.Errorf("explain=false response still carries an explain block: %s", body)
	}
}

func TestDiscoverAnyRelation(t *testing.T) {
	_, ts, gen := newTestServer(t, Config{})
	qt := gen.Tables[0]
	resp, body := postJSON(t, ts.URL+"/v1/discover", DiscoverRequest{TableID: qt.ID, K: 10})
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var out DiscoverResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Results == nil || len(*out.Results) == 0 {
		t.Fatalf("any-relation discover found nothing: %s", body)
	}
	for _, r := range *out.Results {
		if r.TableID == qt.ID {
			t.Errorf("seed table %s in its own results", qt.ID)
		}
	}
}

func TestDiscoverUnknownTable(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/discover", DiscoverRequest{TableID: "no-such-table", K: 5})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d (%s), want 404", resp.StatusCode, body)
	}
}

// --- caching ---

func TestDiscoverCache(t *testing.T) {
	_, ts, gen := newTestServer(t, Config{CacheEntries: 64})
	qt := gen.Tables[0]

	// table_id seeds cache: MISS then bit-identical HIT.
	req := DiscoverRequest{TableID: qt.ID, Relation: "union", K: 5,
		Predicates: discover.Predicates{MinRows: 1}}
	r1, b1 := postJSON(t, ts.URL+"/v1/discover", req)
	r2, b2 := postJSON(t, ts.URL+"/v1/discover", req)
	if r1.Header.Get("X-Cache") != "MISS" || r2.Header.Get("X-Cache") != "HIT" {
		t.Fatalf("X-Cache = %q then %q, want MISS then HIT", r1.Header.Get("X-Cache"), r2.Header.Get("X-Cache"))
	}
	if !bytes.Equal(b1, b2) {
		t.Errorf("cache HIT body differs:\n%s\n%s", b1, b2)
	}

	// Inline and values seeds bypass the response cache (the key would
	// need the whole table hashed in).
	r3, _ := postJSON(t, ts.URL+"/v1/discover",
		DiscoverRequest{Values: qt.Columns[0].Values, Relation: "join", K: 5})
	if got := r3.Header.Get("X-Cache"); got != "BYPASS" {
		t.Errorf("values-seed X-Cache = %q, want BYPASS", got)
	}
}

// --- satellite: per-stage observability ---

func TestDiscoverStageStatsAndMetrics(t *testing.T) {
	_, ts, gen := newTestServer(t, Config{})
	qt := gen.Tables[0]
	postJSON(t, ts.URL+"/v1/discover", DiscoverRequest{TableID: qt.ID, Relation: "union", K: 5,
		Predicates: discover.Predicates{MinRows: 1}})

	resp, body := getBody(t, ts.URL+"/stats")
	if resp.StatusCode != 200 {
		t.Fatalf("/stats status = %d", resp.StatusCode)
	}
	var st StatsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	ep, ok := st.Endpoints["discover"]
	if !ok || ep.Requests == 0 {
		t.Errorf("discover endpoint stats missing or zero: %+v", st.Endpoints)
	}
	meta, ok := st.Discover[discover.StageMeta]
	if !ok || meta.CandidatesIn == 0 {
		t.Errorf("discover stage stats for %s missing or zero: %+v", discover.StageMeta, st.Discover)
	}
	if meta.EstOut == 0 {
		t.Errorf("meta stage est_out total is zero: %+v", meta)
	}
	verify, ok := st.Discover[discover.StageVerify]
	if !ok || verify.CandidatesIn == 0 {
		t.Errorf("discover stage stats for %s missing or zero: %+v", discover.StageVerify, st.Discover)
	}

	resp, body = getBody(t, ts.URL+"/metrics")
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	for _, want := range []string{
		"lakeserved_discover_stage_seconds",
		"lakeserved_discover_stage_candidates_in_total",
		"lakeserved_discover_stage_candidates_out_total",
		"lakeserved_discover_stage_est_out_total",
		"lakeserved_discover_stage_est_abs_err_total",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}
