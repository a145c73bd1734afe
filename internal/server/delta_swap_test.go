package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tablehound/internal/core"
	"tablehound/internal/datagen"
	"tablehound/internal/lake"
	"tablehound/internal/table"
	"tablehound/internal/vecstore"
)

// deltaFixture builds a small base snapshot plus one add-delta on disk
// and returns three equivalent-or-related systems: the plain base, the
// base with the delta merged on top (chain), and the compacted fold of
// the chain. chain and compacted share a data generation; base has its
// own. added is one of the delta's tables, for queries that only the
// delta can answer.
func deltaFixture(t *testing.T) (base, chain, compacted *core.System, added *table.Table) {
	t.Helper()
	dir := t.TempDir()
	gen := datagen.Generate(datagen.Config{
		Seed:              77,
		NumDomains:        8,
		DomainSize:        60,
		NumTemplates:      3,
		TablesPerTemplate: 3,
	})
	tables := append([]*table.Table(nil), gen.Tables...)
	sort.Slice(tables, func(i, j int) bool { return tables[i].ID < tables[j].ID })
	baseTables, addTables := tables[:len(tables)-2], tables[len(tables)-2:]

	cat := lake.NewCatalog()
	if err := cat.AddBatch(baseTables); err != nil {
		t.Fatal(err)
	}
	built, err := core.Build(cat, core.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	basePath := filepath.Join(dir, "base.snap")
	if err := built.SaveFile(basePath); err != nil {
		t.Fatal(err)
	}
	d, err := core.BuildDelta(basePath, nil, addTables, nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	deltaPath := filepath.Join(dir, "d1.thdb")
	if err := d.SaveFile(deltaPath); err != nil {
		t.Fatal(err)
	}
	base, err = core.LoadFile(basePath, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	chain, err = core.LoadChainFiles(basePath, []string{deltaPath}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	compacted, err = core.CompactFiles(basePath, []string{deltaPath}, filepath.Join(dir, "compacted.snap"), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return base, chain, compacted, addTables[0]
}

// TestDeltaSwapHammer keeps queries in flight while the serving
// snapshot swaps between the base, the delta chain, and the compacted
// fold — the live sequence of applying a delta and compacting it away.
// Every response must be a well-formed 200: queries see either the old
// or the new snapshot, never a torn mix. Run under -race (make race)
// this also proves the swap path publishes safely.
func TestDeltaSwapHammer(t *testing.T) {
	base, chain, compacted, added := deltaFixture(t)
	srv := New(base, Config{CacheEntries: 256})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	qvals := added.Columns[0].Values
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var failures atomic.Int64
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var resp *http.Response
				var err error
				if i%2 == 0 {
					resp, _, err = postRaw(ts.URL+"/v1/join", JoinRequest{Values: qvals, K: 5})
				} else {
					resp, _, err = postRaw(ts.URL+"/v1/keyword", KeywordRequest{Query: "record", K: 5})
				}
				if err != nil || resp.StatusCode != http.StatusOK {
					failures.Add(1)
					return
				}
			}
		}(i)
	}
	for round := 0; round < 20; round++ {
		for _, sys := range []*core.System{chain, compacted, base} {
			srv.Swap(sys)
			time.Sleep(time.Millisecond)
		}
	}
	close(stop)
	wg.Wait()
	if n := failures.Load(); n > 0 {
		t.Fatalf("%d queries failed while snapshots were swapping", n)
	}

	// Settle on the chain and check the delta's table is actually
	// answerable — the swap hammer must not have wedged the server.
	srv.Swap(chain)
	resp, body := postJSON(t, ts.URL+"/v1/join", JoinRequest{Values: qvals, K: 5})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-hammer join: status %d: %s", resp.StatusCode, body)
	}
	var jr JoinResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range jr.Matches {
		tid, _ := table.SplitColumnKey(m.ColumnKey)
		if tid == added.ID {
			found = true
		}
	}
	if !found {
		t.Fatalf("delta table %s not joinable after swap to chain: %+v", added.ID, jr.Matches)
	}
}

// TestSwapCachePurgeSemantics pins the generation-keyed cache policy:
// a swap to a system with the same data generation (compaction folding
// the serving chain) keeps every cache entry; a swap that changes the
// data generation purges.
func TestSwapCachePurgeSemantics(t *testing.T) {
	base, chain, compacted, _ := deltaFixture(t)
	srv := New(chain, Config{CacheEntries: 64})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	req := KeywordRequest{Query: "record", K: 5}
	get := func() string {
		t.Helper()
		resp, _, err := postRaw(ts.URL+"/v1/keyword", req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		return resp.Header.Get("X-Cache")
	}
	if c := get(); c != "MISS" {
		t.Fatalf("first query: X-Cache %q, want MISS", c)
	}
	if c := get(); c != "HIT" {
		t.Fatalf("repeat query: X-Cache %q, want HIT", c)
	}

	// Compaction: same data generation, cache survives the swap.
	srv.Swap(compacted)
	if c := get(); c != "HIT" {
		t.Fatalf("after equivalent swap: X-Cache %q, want HIT (cache must survive compaction)", c)
	}
	if n := srv.CacheStats().Entries; n == 0 {
		t.Fatal("cache purged on an equivalent swap")
	}

	// Different data generation: entries are stale, purge.
	srv.Swap(base)
	if c := get(); c != "MISS" {
		t.Fatalf("after data change: X-Cache %q, want MISS", c)
	}
}

// TestAdminCompactAndDeltaObservability exercises the compact admin
// endpoint and the delta fields on /healthz and /stats.
func TestAdminCompactAndDeltaObservability(t *testing.T) {
	_, chain, compacted, _ := deltaFixture(t)
	srv := New(chain, Config{CacheEntries: 64})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	getJSON := func(path string, v any) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}

	var hr HealthResponse
	getJSON("/healthz", &hr)
	if hr.DeltaDepth != 1 {
		t.Fatalf("healthz delta_depth = %d, want 1", hr.DeltaDepth)
	}
	var sr StatsResponse
	getJSON("/stats", &sr)
	if sr.Delta == nil {
		t.Fatal("stats: no delta block while serving a chain")
	}
	if sr.Delta.DeltaCount != 1 || sr.Delta.LastCompactGen == "" {
		t.Fatalf("stats delta block = %+v, want delta_count 1 and a last_compact_gen", sr.Delta)
	}
	// The chain's model rows are the mapped base's, its Starmie rows
	// the merge's heap rows: a mixed store, reported as such.
	wantMode := "heap"
	if vecstore.MmapSupported() {
		wantMode = "mixed"
	}
	if hr.VecMode != wantMode {
		t.Errorf("healthz vec_mode = %q, want %q", hr.VecMode, wantMode)
	}
	if vs := sr.VecStore; vs == nil || vs.Mode != wantMode || vs.HeapBytes != chain.Vecs.HeapBytes() ||
		(wantMode == "mixed") != (vs.HeapBytes < vs.Bytes) {
		t.Errorf("stats vecstore block = %+v, want mode %q and the store's %d heap bytes", vs, wantMode, chain.Vecs.HeapBytes())
	}

	// Without a compactor the endpoint is explicit about it.
	resp, err := http.Post(ts.URL+"/v1/admin/compact", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("compact without compactor: status %d, want 501", resp.StatusCode)
	}

	srv.SetCompactor(func() (*core.System, error) { return compacted, nil })
	resp, err = http.Post(ts.URL+"/v1/admin/compact", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var cr CompactResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compact: status %d", resp.StatusCode)
	}
	if cr.DeltaDepth != 0 || cr.Tables == 0 {
		t.Fatalf("compact response = %+v, want delta_depth 0 and tables > 0", cr)
	}
	if got := srv.System(); got != compacted {
		t.Fatal("compact did not swap the merged system in")
	}
	hr = HealthResponse{}
	getJSON("/healthz", &hr)
	if hr.DeltaDepth != 0 {
		t.Fatalf("healthz delta_depth after compact = %d, want 0", hr.DeltaDepth)
	}
}
