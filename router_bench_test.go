package tablehound

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tablehound/internal/core"
	"tablehound/internal/datagen"
	"tablehound/internal/lake"
	"tablehound/internal/router"
	"tablehound/internal/server"
	"tablehound/internal/snap"
)

// ---- Sharded serving (router fan-out QPS) ----

// routerBench holds the 2000-table lake the sharding benchmarks
// partition, plus one built shard set per shard count. Generation and
// builds run once per process, outside every timer.
var routerBench struct {
	mu     sync.Mutex
	gen    *datagen.Lake
	shards map[int][]*core.System
	mans   map[int]*snap.Manifest
}

// routerBenchShards partitions the shared 2000-table lake into n
// shards with the production assignment function (snap.ShardOf) and
// builds one System per shard, exactly as `lakectl build -shards n`
// does. Results are cached per shard count.
func routerBenchShards(b *testing.B, n int) ([]*core.System, *snap.Manifest) {
	b.Helper()
	routerBench.mu.Lock()
	defer routerBench.mu.Unlock()
	if routerBench.gen == nil {
		routerBench.gen = datagen.Generate(datagen.Config{
			Seed:              41,
			NumDomains:        20,
			DomainSize:        80,
			NumTemplates:      40,
			TablesPerTemplate: 50,
		})
		routerBench.shards = make(map[int][]*core.System)
		routerBench.mans = make(map[int]*snap.Manifest)
	}
	if sys, ok := routerBench.shards[n]; ok {
		return sys, routerBench.mans[n]
	}
	gen := routerBench.gen
	// Organization, fuzzy, and graph stages are not exercised by the
	// fan-out surfaces and would dominate the 7 builds this file needs.
	opts := core.Options{
		KB:               gen.BuildKB(0.8),
		Seed:             7,
		SkipOrganization: true,
		SkipFuzzy:        true,
		SkipGraph:        true,
	}
	systems, man := buildShardSet(b, gen, opts, n)
	routerBench.shards[n] = systems
	routerBench.mans[n] = man
	return systems, man
}

// buildShardSet partitions gen's tables n ways with the production
// assignment function and builds one System per shard.
func buildShardSet(b *testing.B, gen *datagen.Lake, opts core.Options, n int) ([]*core.System, *snap.Manifest) {
	b.Helper()
	parts := make([]*lake.Catalog, n)
	ids := make([][]string, n)
	for i := range parts {
		parts[i] = lake.NewCatalog()
	}
	for _, tbl := range gen.Tables {
		i := snap.ShardOf(tbl.ID, n)
		if err := parts[i].Add(tbl); err != nil {
			b.Fatal(err)
		}
		ids[i] = append(ids[i], tbl.ID)
	}
	systems := make([]*core.System, n)
	man := &snap.Manifest{Assign: snap.AssignFNV1a}
	for i := range parts {
		sys, err := core.Build(parts[i], opts)
		if err != nil {
			b.Fatal(err)
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

// startRoutedStack serves systems as the shards of man, each under cfg,
// behind a cacheless router on loopback, and returns the router's URL.
func startRoutedStack(b *testing.B, systems []*core.System, man *snap.Manifest, cfg server.Config) string {
	b.Helper()
	addrs := make([]string, len(systems))
	for i, sys := range systems {
		cfg.Shard = &server.ShardIdentity{Index: i, Count: len(systems), ManifestHash: man.Hash()}
		ts := httptest.NewServer(server.New(sys, cfg).Handler())
		b.Cleanup(ts.Close)
		addrs[i] = ts.URL
	}
	rt, err := router.New(router.Config{Addrs: addrs, ShardTimeout: time.Minute})
	if err != nil {
		b.Fatal(err)
	}
	if up := rt.CheckShards(context.Background()); up != len(addrs) {
		b.Fatalf("router sees %d of %d shards", up, len(addrs))
	}
	front := httptest.NewServer(rt.Handler())
	b.Cleanup(front.Close)
	return front.URL
}

// BenchmarkRouterQPS measures aggregate throughput and tail latency of
// the scatter-gather tier over a 2000-table lake at 1, 2, and 4
// shards. Each timed request goes through the router: fan-out to every
// shard, per-shard query, and top-k merge. Caches are disabled on both
// tiers so every request pays the full engine cost — the number the
// shard count is supposed to improve. On a single-core runner the
// curve is expected to be flat (the shards share the CPU the fan-out
// is trying to multiply); the scaling needs real cores.
func BenchmarkRouterQPS(b *testing.B) {
	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards-%d", n), func(b *testing.B) {
			benchRouterQPS(b, n)
		})
	}
}

func benchRouterQPS(b *testing.B, n int) {
	systems, man := routerBenchShards(b, n)

	c := server.NewClient(startRoutedStack(b, systems, man, server.Config{
		MaxInFlight: 64, MaxQueue: 4096, QueryTimeout: time.Minute,
	}))
	ctx := context.Background()

	gen := routerBench.gen
	qt := gen.Tables[len(gen.Tables)/2]
	var qvals []string
	for _, col := range qt.Columns {
		if len(col.Values) > len(qvals) {
			qvals = col.Values
		}
	}
	reqs := []func() error{
		func() error {
			_, err := c.Join(ctx, server.JoinRequest{Values: qvals, K: 10})
			return err
		},
		func() error {
			_, err := c.Union(ctx, server.UnionRequest{TableID: qt.ID, K: 10})
			return err
		},
		func() error {
			_, err := c.Keyword(ctx, server.KeywordRequest{Query: qt.Name, K: 10})
			return err
		},
	}
	for _, r := range reqs {
		if err := r(); err != nil {
			b.Fatal(err)
		}
	}

	var mu sync.Mutex
	lat := make([]time.Duration, 0, b.N)
	var next atomic.Uint64
	b.SetParallelism(4) // concurrent clients: fan-out QPS needs load
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		local := make([]time.Duration, 0, 512)
		for pb.Next() {
			i := next.Add(1)
			t0 := time.Now()
			if err := reqs[i%uint64(len(reqs))](); err != nil {
				b.Error(err)
				return
			}
			local = append(local, time.Since(t0))
		}
		mu.Lock()
		lat = append(lat, local...)
		mu.Unlock()
	})
	b.StopTimer()
	if len(lat) == 0 {
		return
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	b.ReportMetric(float64(lat[len(lat)/2])/float64(time.Microsecond), "p50-us")
	b.ReportMetric(float64(lat[len(lat)*99/100])/float64(time.Microsecond), "p99-us")
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "qps")
}

// ---- Routed union by table_id (the serve_routed classes) ----

// routedUnionShards is the end-to-end benchmark's serve_routed fleet:
// the harness lake split in two, built once per process.
var routedUnionShards struct {
	once    sync.Once
	systems []*core.System
	man     *snap.Manifest
}

// BenchmarkRoutedUnion is one serve_routed request class at a time:
// union (and union-relation discover) by table_id through a router
// over 2 shards of the harness's 10 × 30 lake, from 2 closed-loop
// clients, caches off so that every request reaches the engines. The
// seeds walk the whole lake, so half are owned by either shard. p50-us
// is the class median the end-to-end benchmark reports in ms.
func BenchmarkRoutedUnion(b *testing.B) {
	routedUnionShards.once.Do(func() {
		gen, opts := harnessLake()
		routedUnionShards.systems, routedUnionShards.man = buildShardSet(b, gen, opts, 2)
	})
	gen, _ := harnessLake()
	front := startRoutedStack(b, routedUnionShards.systems, routedUnionShards.man, server.Config{})

	for _, class := range []string{"tus", "santos", "starmie", "d3l", "discover"} {
		bodies := make([][]byte, len(gen.Tables))
		path := "/v1/union"
		for i, tbl := range gen.Tables {
			var req any = server.UnionRequest{TableID: tbl.ID, K: 10, Method: class}
			if class == "discover" {
				path = "/v1/discover"
				req = server.DiscoverRequest{TableID: tbl.ID, K: 10, Relation: "union"}
			}
			body, err := json.Marshal(req)
			if err != nil {
				b.Fatal(err)
			}
			bodies[i] = body
		}
		b.Run(class, func(b *testing.B) {
			const clients = 2
			lat := make([][]time.Duration, clients)
			var next atomic.Int64
			var wg sync.WaitGroup
			b.ResetTimer()
			for c := range lat {
				wg.Add(1)
				go func() {
					defer wg.Done()
					hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
					defer hc.CloseIdleConnections()
					for {
						i := int(next.Add(1) - 1)
						if i >= b.N {
							return
						}
						t0 := time.Now()
						resp, err := hc.Post(front+path, "application/json", bytes.NewReader(bodies[i%len(bodies)]))
						if err != nil {
							b.Error(err)
							return
						}
						out, err := io.ReadAll(resp.Body)
						resp.Body.Close()
						if err != nil || resp.StatusCode != http.StatusOK || bytes.Contains(out, []byte("shards_ok")) {
							b.Errorf("status %d, err %v: %.200s", resp.StatusCode, err, out)
							return
						}
						lat[c] = append(lat[c], time.Since(t0))
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			var all []time.Duration
			for _, l := range lat {
				all = append(all, l...)
			}
			if len(all) == 0 {
				return
			}
			sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
			b.ReportMetric(float64(all[len(all)/2])/float64(time.Microsecond), "p50-us")
		})
	}
}
