package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"tablehound/bench/stat"
	"tablehound/internal/core"
	"tablehound/internal/datagen"
	"tablehound/internal/lake"
	"tablehound/internal/server"
)

// Defaults the committed numbers are measured with. defaultSeconds is
// BENCHMARK.json's run_seconds.
const (
	defaultSeconds  = 10
	defaultCycles   = 3
	defaultLakeSeed = 41
	// tracedSample is the per-class size of the traced pass's sample.
	tracedSample = 24
	// keepEvery is the correctness gate's sampling rate over the timed
	// window, and maxDirectChecks bounds how many of the retained replies
	// are recomputed through the engines (a D3L answer costs ~0.1 s).
	keepEvery       = 50
	maxDirectChecks = 64
	// parityQueries is how many queries per surface the lifecycle
	// workload compares across chain, compacted and from-scratch.
	parityQueries = 20
)

// workload is one of the benchmark's traffic-and-lake combinations.
type workload struct {
	name string
	// lake is the datagen shape; its Seed is set from -lake-seed.
	lake datagen.Config
	// servingOnly builds without the stages no endpoint reads (fuzzy,
	// organization, Aurum graph); false runs lakectl's full pipeline.
	servingOnly bool
	// shards > 1 serves the lake partitioned behind a router.
	shards int
	// hot draws every request from a small pool the warm-up has already
	// sent, so the window is served from the cache.
	hot bool
	// parity compares chain, compacted and from-scratch answers.
	parity bool
	// noCache serves with the result cache off. A 100-table lake has too
	// few distinct union queries to fill a window without repeating, and
	// growing k twentyfold to keep cache keys fresh would measure another
	// query; with no cache the stream may simply wrap at k = 10.
	noCache bool
}

func servingLake(templates, perTemplate int) datagen.Config {
	return datagen.Config{NumDomains: 20, DomainSize: 80, NumTemplates: templates, TablesPerTemplate: perTemplate}
}

// workloads are the four the issue names. Lake sizes are what fits
// the contract's time budget (92 runs in under an hour) on two cores:
// 300 tables where serving is measured, 100 where the full pipeline —
// whose graph stage is quadratic — is built three times.
var workloads = []workload{
	{name: "serve_cold", lake: servingLake(10, 30), servingOnly: true, shards: 1},
	{name: "serve_cached", lake: servingLake(10, 30), servingOnly: true, shards: 1, hot: true},
	{name: "serve_routed", lake: servingLake(10, 30), servingOnly: true, shards: 2},
	{name: "lifecycle", lake: servingLake(10, 10), shards: 1, parity: true, noCache: true},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// config is one run's settings.
type config struct {
	wl       workload
	seed     int64
	lakeSeed int64
	seconds  float64
	cycles   int
	trace    bool
	outDir   string
	commit   string
	log      io.Writer // progress, not results
}

// overrides names every setting that differs from the defaults, so a
// result measured otherwise cannot pass for a default one.
func (c config) overrides() map[string]string {
	o := map[string]string{}
	if c.seconds != defaultSeconds {
		o["seconds"] = fmt.Sprint(c.seconds)
	}
	if c.cycles != defaultCycles {
		o["cycles"] = fmt.Sprint(c.cycles)
	}
	if c.lakeSeed != defaultLakeSeed {
		o["lake_seed"] = fmt.Sprint(c.lakeSeed)
	}
	if w, _ := workloadByName(c.wl.name); w.lake != c.wl.lake {
		o["lake"] = fmt.Sprintf("%dx%d", c.wl.lake.NumTemplates, c.wl.lake.TablesPerTemplate)
	}
	if len(o) == 0 {
		return nil
	}
	return o
}

// gate accumulates the correctness gate's verdicts.
type gate struct {
	attempted, failed int
	problems          []string
}

func (g *gate) check(ok bool, format string, args ...any) {
	g.attempted++
	if !ok {
		g.fail(format, args...)
	}
}

func (g *gate) fail(format string, args ...any) {
	g.failed++
	if len(g.problems) < 10 {
		g.problems = append(g.problems, fmt.Sprintf(format, args...))
	}
}

// runWorkload performs one run and returns its record. An error means
// the harness could not measure; failed operations and wrong answers
// are reported in the record instead.
func runWorkload(cfg config) (*stat.Run, error) {
	ctx := context.Background()
	wl := cfg.wl
	wl.lake.Seed = cfg.lakeSeed
	logf := func(format string, args ...any) { fmt.Fprintf(cfg.log, "# "+format+"\n", args...) }

	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(cfg.outDir, "tmp-"+wl.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	run := &stat.Run{
		Workload: wl.name, Seed: cfg.seed, Trace: cfg.trace, Overrides: cfg.overrides(),
		Env: stat.Env{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: cfg.commit},
	}
	g := &gate{}

	// Set-up: the operator's path, several times over so that its
	// timings are medians. The traced run needs the per-layer numbers
	// of one cycle, not steady medians, and sets up once.
	cycles := cfg.cycles
	if cfg.trace {
		cycles = 1
	}
	var all []*cycle
	for i := 0; i < cycles; i++ {
		dir := filepath.Join(tmp, fmt.Sprintf("cycle%d", i))
		c, err := runCycle(dir, wl.lake, wl.servingOnly, wl.shards, cfg.trace, tr, fmt.Sprintf("cycle#%d", i))
		if err != nil {
			return nil, fmt.Errorf("set-up cycle %d: %w", i, err)
		}
		g.attempted += len(c.sec)
		logf("cycle %d: %.2fs (build %.2f load %.2f chain %.2f compact %.2f)", i, c.total, c.sec["build"], c.sec["load"], c.sec["chain_load"], c.sec["compact"])
		if i+1 < cycles {
			// Only the last cycle's systems are served.
			c.base, c.chain, c.sys, c.shards = nil, nil, nil, nil
			os.RemoveAll(dir)
		}
		all = append(all, c)
	}
	last := all[len(all)-1]
	run.LakeHash = last.lake.hash
	runtime.GC()

	// The request stream, generated and marshalled before any clock.
	window := time.Duration(cfg.seconds * float64(time.Second))
	warm := window / 10
	pools := newSeedPools(last.lake.gen, cfg.seed)
	pools.growK = !wl.noCache
	var s *stream
	if wl.hot {
		s = hotStream(pools, cfg.seed, int(100000*cfg.seconds)+2000)
	} else {
		s = coldStream(pools, cfg.seed, int(6000*cfg.seconds)+2000)
	}
	run.StreamHash = s.hash

	systems, routed := []*core.System{last.sys}, false
	if wl.shards > 1 {
		systems, routed = last.shards, true
	}
	cacheEntries := 4096
	if wl.noCache {
		cacheEntries = 0
	}
	st, err := startStack(systems, last.manifest, routed, cacheEntries)
	if err != nil {
		return nil, err
	}
	defer st.close()

	// Warm-up, excluded from every number. The cached workload's
	// warm-up sends each hot request once and keeps the miss bytes.
	from := 0
	var missBytes [][]byte
	if wl.hot {
		fill := &stream{reqs: s.reqs, order: make([]int32, len(s.reqs))}
		for i := range fill.order {
			fill.order[i] = int32(i)
		}
		w := drive(st.front, fill, 0, time.Hour, 1)
		g.attempted += w.attempted
		for _, f := range w.failures {
			g.fail("warm-up: %s", f)
		}
		missBytes = make([][]byte, len(s.reqs))
		for _, k := range w.kept {
			missBytes[k.pos] = k.body
		}
	}
	w := drive(st.front, s, from, warm, 0)
	from = w.next
	runtime.GC()

	// The timed window: no tracing, nothing but the loop.
	before, err := st.published(ctx)
	if err != nil {
		return nil, err
	}
	win := drive(st.front, s, from, window, keepEvery)
	after, err := st.published(ctx)
	if err != nil {
		return nil, err
	}
	logf("window: %d requests in %.2fs, %d failed, %d retried after a spurious cancel", win.attempted, win.elapsed.Seconds(), win.failed, win.retried)
	run.Retried = win.retried
	g.attempted += win.attempted
	g.failed += win.failed
	g.problems = append(g.problems, win.failures...)
	if win.exhausted {
		// Not a failed operation: the window is shorter, its rates and
		// medians stand. The stream is sized several times over what the
		// seed commit serves, so this means it is time to size it up.
		g.problems = append(g.problems, fmt.Sprintf("the request stream ran out after %d requests and %.1fs, before the window ended", win.attempted, win.elapsed.Seconds()))
	}
	lat := win.classLatenciesMS()

	// Correctness gate over the retained replies.
	checkWindow(ctx, g, wl, last.sys, s, win.kept, missBytes)
	if wl.parity {
		if err := checkParity(ctx, g, last, pools, wl); err != nil {
			return nil, err
		}
	}

	if !cfg.trace {
		ms := newMetricSet(endToEndDefs())
		ms.set("setup_s", medianOf(all, func(c *cycle) float64 { return c.total }))
		ms.set("qps", float64(len(win.obs))/win.elapsed.Seconds())
		for c, name := range classNames {
			if c != clsKeyword {
				ms.set(name+"_p50_ms", stat.Median(lat[c]))
			}
		}
		ms.set("build_s", medianOf(all, func(c *cycle) float64 { return c.sec["ingest"] + c.sec["build"] + c.sec["save"] }))
		ms.set("load_s", medianOf(all, func(c *cycle) float64 { return c.sec["load"] }))
		ms.set("delta_visible_s", medianOf(all, func(c *cycle) float64 { return c.sec["delta_build"] + c.sec["chain_load"] }))
		ms.set("snapshot_mib", float64(last.snapshotBytes)/mib)
		ms.set("heap_after_load_mib", medianOf(all, func(c *cycle) float64 { return c.heapAfterLoadMiB }))
		if run.EndToEnd, err = ms.finish(); err != nil {
			return nil, err
		}
	} else {
		ms := newMetricSet(perLayerDefs())
		for c, name := range classNames {
			ms.set("tail."+name+"_p90_ms", percentile(lat[c], 90))
			ms.set("n."+name, float64(len(lat[c])))
		}
		ms.set("window.keyword_p50_ms", median(lat[clsKeyword]))
		ms.set("server.shed", float64(after.shed))
		ms.set("server.timeouts", float64(after.timeouts))
		ms.set("qcache.hit_ratio", ratio(float64(after.hits-before.hits), float64(after.hits-before.hits+after.misses-before.misses)))
		ms.set("qcache.evictions", float64(after.evictions-before.evictions))
		ms.set("qcache.entries", float64(after.entries))
		setCycleMetrics(ms, last)

		// The router is measured on a stack of its own with every cache
		// off, so that sending one body to the router and then to each shard
		// computes it each time: over this run's shards when it has them,
		// over a single server otherwise.
		routedStack, err := startStack(systems, last.manifest, true, 0)
		if err != nil {
			return nil, err
		}
		defer routedStack.close()
		sample := sampleAfter(s, win.next, tracedSample)
		checks, problems, err := tracedPass(ctx, last.sys, last.lake.gen, routedStack, sample, tr, ms)
		if err != nil {
			return nil, err
		}
		for _, p := range problems {
			g.fail("%s", p)
		}
		if run.PerLayer, err = ms.finish(); err != nil {
			return nil, err
		}
		run.Checks = make(map[string]stat.Metric, len(checks))
		for name, v := range checks {
			run.Checks[name] = stat.Metric{Value: v, Unit: "ratio"}
		}
		if err := tr.writeFile(filepath.Join(cfg.outDir, wl.name+".trace.json")); err != nil {
			return nil, err
		}
	}

	run.Attempted, run.Failed, run.Problems = g.attempted, g.failed, g.problems
	run.Correct = g.failed == 0
	raw, err := json.MarshalIndent(run, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(cfg.outDir, wl.name+".json"), append(raw, '\n'), 0o644); err != nil {
		return nil, err
	}
	return run, nil
}

func medianOf(cs []*cycle, f func(*cycle) float64) float64 {
	xs := make([]float64, len(cs))
	for i, c := range cs {
		xs[i] = f(c)
	}
	return stat.Median(xs)
}

// setCycleMetrics reports the write-side layers of one cycle.
func setCycleMetrics(ms *metricSet, c *cycle) {
	ms.set("lake.ingest_s", c.sec["ingest"])
	listed := make(map[string]bool, len(buildStages))
	for _, name := range buildStages {
		listed[name] = true
		st, _ := c.stats.Stage(name)
		ms.set("core.build."+name+"_s", st.Wall.Seconds())
	}
	var other, sum float64
	for _, st := range c.stats.Stages {
		sum += st.Wall.Seconds()
		if !listed[st.Name] {
			other += st.Wall.Seconds()
		}
	}
	ms.set("core.build.other_s", other)
	ms.set("core.build.pool_busy_share", ratio(sum, float64(c.stats.Parallelism)*c.stats.Total.Seconds()))
	ms.set("core.build.alloc_mib", c.buildAllocMiB)
	ms.set("core.save_s", c.sec["save"])
	ms.set("core.load_mmap_s", c.sec["load"])
	ms.set("core.load_heap_s", c.sec["load_heap"])
	ms.set("core.load.alloc_mib", c.loadAllocMiB)
	ms.set("core.delta.build_s", c.sec["delta_build"])
	ms.set("core.delta.chain_load_s", c.sec["chain_load"])
	ms.set("core.delta.compact_s", c.sec["compact"])
	ms.set("core.delta.bytes_per_table", ratio(float64(c.deltaBytes), float64(len(c.lake.addPaths))))
	ms.set("snap.bytes_per_table", ratio(float64(c.snapshotBytes), float64(len(c.lake.ids)-len(c.lake.addPaths))))
	ms.set("core.index_encoded_mib", c.indexEncodedMiB)
}

// checkWindow is the in-run correctness gate. An evenly spread subset
// of the retained replies must equal, byte for byte, the JSON of the
// direct engine answer; every retained reply of the cached workload
// must equal the miss that filled the cache. Behind a router only join
// overlap scores independently of the rest of the lake, so only it can
// be held to the unsharded answer; the other classes must be complete
// and ranked.
func checkWindow(ctx context.Context, g *gate, wl workload, sys *core.System, s *stream, keptReplies []kept, missBytes [][]byte) {
	sort.Slice(keptReplies, func(i, j int) bool { return keptReplies[i].pos < keptReplies[j].pos })
	if missBytes != nil {
		for _, k := range keptReplies {
			i := s.order[k.pos]
			g.check(bytes.Equal(k.body, missBytes[i]), "%s hot#%d: hit bytes differ from the miss that filled the cache", classNames[s.reqs[i].class], i)
		}
	}
	step := 1
	if len(keptReplies) > maxDirectChecks {
		step = (len(keptReplies) + maxDirectChecks - 1) / maxDirectChecks
	}
	for n := 0; n < len(keptReplies); n += step {
		k := keptReplies[n]
		r := &s.reqs[s.order[k.pos]]
		if wl.shards > 1 && r.class != clsJoinOverlap {
			g.check(rankedAndComplete(k.body), "%s #%d: routed answer is not a ranked list: %.200s", classNames[r.class], k.pos, k.body)
			continue
		}
		want, err := directJSON(ctx, sys, r)
		if err != nil {
			g.fail("%s #%d: direct call failed: %v", classNames[r.class], k.pos, err)
			continue
		}
		g.check(sameAnswer(r.class, k.body, want), "%s #%d: served bytes differ from the direct answer\n served %.300s\n direct %.300s", classNames[r.class], k.pos, k.body, want)
	}
}

// sameAnswer reports whether a served answer matches the direct one:
// byte for byte, except that join overlap may differ in its tied last
// places.
func sameAnswer(class int, got, want []byte) bool {
	return bytes.Equal(got, want) || (class == clsJoinOverlap && sameUpToBoundaryTies(got, want))
}

// sameUpToBoundaryTies compares two join-overlap answers the way the
// engine's contract allows: TopKOverlap picks among columns tied at the
// k-th overlap differently from call to call (ROADMAP, generated-
// correctness item f), so the two lists must agree on every overlap
// and on every match that beats the last place, but may fill the tied
// last places with different columns.
func sameUpToBoundaryTies(a, b []byte) bool {
	var x, y server.JoinResponse
	if json.Unmarshal(a, &x) != nil || json.Unmarshal(b, &y) != nil || len(x.Matches) != len(y.Matches) {
		return false
	}
	n := len(x.Matches)
	for i := range x.Matches {
		switch {
		case x.Matches[i].Overlap != y.Matches[i].Overlap:
			return false
		case x.Matches[i].Overlap > x.Matches[n-1].Overlap && x.Matches[i] != y.Matches[i]:
			return false
		}
	}
	return true
}

// rankedAndComplete reports whether body is a join, union, keyword or
// discover answer whose scores do not increase down the list.
func rankedAndComplete(body []byte) bool {
	var v struct {
		Matches *[]server.JoinMatch  `json:"matches"`
		Results *[]server.TableScore `json:"results"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return false
	}
	if v.Results != nil {
		rs := *v.Results
		return sort.SliceIsSorted(rs, func(i, j int) bool { return rs[i].Score > rs[j].Score })
	}
	// A keyword answer with no hits marshals to {}; a join answer always
	// carries matches.
	return true
}

// checkParity holds the lifecycle's three routes to the same lake —
// base+delta merged on read, the compacted fold, and a from-scratch
// build over all tables with the base's embedding model pinned — to
// byte-identical answers on parityQueries requests per class.
func checkParity(ctx context.Context, g *gate, c *cycle, pools *seedPools, wl workload) error {
	added, err := c.lake.readAdded()
	if err != nil {
		return err
	}
	tables := append(c.base.Catalog.Tables(), added...)
	sort.Slice(tables, func(i, j int) bool { return tables[i].ID < tables[j].ID })
	cat := lake.NewCatalog()
	if err := cat.AddBatch(tables); err != nil {
		return err
	}
	opts := buildOptions(wl.servingOnly)
	opts.Model = c.base.Model
	scratch, err := core.Build(cat, opts)
	if err != nil {
		return fmt.Errorf("from-scratch build: %w", err)
	}
	for class := 0; class < numClasses; class++ {
		for n := 0; n < parityQueries; n++ {
			r := pools.make(class, n)
			want, err := directJSON(ctx, scratch, &r)
			if err != nil {
				return fmt.Errorf("parity %s #%d: %w", classNames[class], n, err)
			}
			for name, sys := range map[string]*core.System{"chain": c.chain, "compacted": c.sys} {
				got, err := directJSON(ctx, sys, &r)
				if err != nil {
					return fmt.Errorf("parity %s #%d on %s: %w", classNames[class], n, name, err)
				}
				g.check(sameAnswer(class, got, want), "parity %s #%d: %s differs from the from-scratch build\n %s %.300s\n scratch %.300s", classNames[class], n, name, name, got, want)
			}
		}
	}
	return nil
}
