package main

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"math"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"tablehound/bench/stat"
)

// smokeLake is the 50-table lake the tests run every workload on.
var smokeLake = servingLake(10, 5)

func TestSameSeedSameInputs(t *testing.T) {
	cfg := smokeLake
	cfg.Seed = defaultLakeSeed
	a, err := writeLake(t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := writeLake(t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.hash != b.hash || strings.Join(a.ids, ",") != strings.Join(b.ids, ",") {
		t.Errorf("same lake seed, different lake: %s vs %s", a.hash, b.hash)
	}
	if len(a.addPaths) != heldOut {
		t.Errorf("held out %d tables, want %d", len(a.addPaths), heldOut)
	}
	cfg.Seed++
	c, err := writeLake(t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.hash == c.hash {
		t.Error("another lake seed gave the same lake")
	}

	for _, mk := range []func(*seedPools, int64, int) *stream{coldStream, hotStream} {
		s1 := mk(newSeedPools(a.gen, 7), 7, 500)
		s2 := mk(newSeedPools(b.gen, 7), 7, 500)
		if s1.hash != s2.hash {
			t.Errorf("same seed, different stream: %s vs %s", s1.hash, s2.hash)
		}
		for i := range s1.order {
			if !bytes.Equal(s1.reqs[s1.order[i]].body, s2.reqs[s2.order[i]].body) {
				t.Fatalf("request %d differs between two generations of the same seed", i)
			}
		}
		if s3 := mk(newSeedPools(a.gen, 8), 8, 500); s3.hash == s1.hash {
			t.Error("another seed gave the same stream")
		}
	}
}

func TestColdStreamNeverRepeats(t *testing.T) {
	cfg := smokeLake
	cfg.Seed = defaultLakeSeed
	lf, err := writeLake(t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Long enough that every union class wraps its 50-table pool.
	s := coldStream(newSeedPools(lf.gen, 1), 1, 2000)
	seen := make(map[string]int)
	var perClass [numClasses]int
	for i, r := range s.reqs {
		key := r.path + string(r.body)
		if j, dup := seen[key]; dup {
			t.Fatalf("request %d repeats request %d: %s", i, j, r.body)
		}
		seen[key] = i
		perClass[r.class]++
	}
	for c, n := range perClass {
		if want := 2000 * classWeights[c] / 32; n < want-classWeights[c] || n > want+classWeights[c] {
			t.Errorf("%s: %d of 2000 requests, want about %d", classNames[c], n, want)
		}
	}
}

func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	bm, err := stat.LoadBenchmark(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if bm.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, harness default %d", bm.RunSeconds, defaultSeconds)
	}
	if len(bm.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(bm.Workloads), len(workloads))
	}
	for i, w := range bm.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the harness", i, w.Name, workloads[i].name)
		}
	}
	e2e := endToEndDefs()
	if len(bm.EndToEnd) != len(e2e) {
		t.Fatalf("%d end_to_end metrics in BENCHMARK.json, %d in the harness", len(bm.EndToEnd), len(e2e))
	}
	for i, m := range bm.EndToEnd {
		if got := (metricDef{m.Name, m.Unit, m.Better}); got != e2e[i] {
			t.Errorf("end_to_end %d: %v in BENCHMARK.json, %v in the harness", i, got, e2e[i])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	pl := perLayerDefs()
	if len(bm.PerLayer) != len(pl) {
		t.Fatalf("%d per_layer metrics in BENCHMARK.json, %d in the harness", len(bm.PerLayer), len(pl))
	}
	for i, m := range bm.PerLayer {
		if got := (metricDef{m.Name, m.Unit, m.Better}); got != pl[i] {
			t.Errorf("per_layer %d: %v in BENCHMARK.json, %v in the harness", i, got, pl[i])
		}
	}
}

// TestSmoke runs all four workloads for one second on the 50-table
// lake, untraced and traced, and holds the report to the contract:
// every metric BENCHMARK.json names is printed exactly once, with its
// unit and a finite value, no operation fails, and the non-default
// settings are stamped into the record.
func TestSmoke(t *testing.T) {
	bm, err := stat.LoadBenchmark(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range workloads {
		wl.lake = smokeLake
		for _, trace := range []bool{false, true} {
			name := wl.name + "/untraced"
			if trace {
				name = wl.name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				out := t.TempDir()
				run, err := runWorkload(config{
					wl: wl, seed: 3, lakeSeed: defaultLakeSeed, seconds: 1, cycles: 1,
					trace: trace, outDir: out, commit: "test", log: io.Discard,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !run.Correct || run.Failed != 0 || run.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d problems=%q", run.Correct, run.Attempted, run.Failed, run.Problems)
				}
				for _, k := range []string{"seconds", "cycles", "lake"} {
					if run.Overrides[k] == "" {
						t.Errorf("override %q is not stamped into the record: %v", k, run.Overrides)
					}
				}
				if run.Env.NProc < 1 || run.Env.GoVersion == "" || run.Env.Commit != "test" {
					t.Errorf("environment not recorded: %+v", run.Env)
				}

				want := make(map[string]string) // name -> unit
				if trace {
					for _, m := range bm.PerLayer {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range bm.EndToEnd {
						want[m.Name] = m.Unit
					}
				}
				var buf bytes.Buffer
				if err := report(&buf, run); err != nil {
					t.Fatal(err)
				}
				seen := make(map[string]int)
				sc := bufio.NewScanner(&buf)
				sc.Buffer(nil, 1<<20)
				for sc.Scan() {
					f := strings.Fields(sc.Text())
					if len(f) != 3 {
						continue // the header and the JSON line
					}
					unit, ok := want[f[0]]
					if !ok {
						t.Errorf("printed %q, which BENCHMARK.json does not name", f[0])
						continue
					}
					seen[f[0]]++
					if v, err := strconv.ParseFloat(f[1], 64); err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("%s: value %q is not a finite number", f[0], f[1])
					} else if !trace && v == 0 {
						t.Errorf("%s: end-to-end metric is 0", f[0])
					}
					if f[2] != unit {
						t.Errorf("%s: unit %q, BENCHMARK.json says %q", f[0], f[2], unit)
					}
				}
				for name := range want {
					if seen[name] != 1 {
						t.Errorf("%s printed %d times, want once", name, seen[name])
					}
				}
				if trace {
					if cov := run.PerLayer["discover.stage_coverage"].Value; cov < 0.5 {
						t.Errorf("discover stages cover %.2f of Execute", cov)
					}
				}
			})
		}
	}
}

// TestGateTrips corrupts what the gate compares against and expects a
// failed operation each time.
func TestGateTrips(t *testing.T) {
	cfg := smokeLake
	cfg.Seed = defaultLakeSeed
	c, err := runCycle(t.TempDir(), cfg, true, 1, false, nil, "test")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	s := hotStream(newSeedPools(c.lake.gen, 1), 1, 64)
	wl := workloads[0]

	var replies []kept
	miss := make([][]byte, len(s.reqs))
	for pos := range s.order {
		r := &s.reqs[s.order[pos]]
		body, err := directJSON(ctx, c.sys, r)
		if err != nil {
			t.Fatal(err)
		}
		replies = append(replies, kept{pos: pos, body: body})
		miss[s.order[pos]] = body
	}
	g := &gate{}
	checkWindow(ctx, g, wl, c.sys, s, replies, miss)
	if g.failed != 0 || g.attempted == 0 {
		t.Fatalf("honest replies: attempted %d failed %d %q", g.attempted, g.failed, g.problems)
	}

	// A served answer that is not what the engines say.
	bad := append([]kept(nil), replies...)
	for i := range bad {
		if r := s.reqs[s.order[bad[i].pos]]; r.class == clsUnionTUS {
			bad[i].body = bytes.Replace(bad[i].body, []byte(`"score":`), []byte(`"score":1`), 1)
			break
		}
	}
	g = &gate{}
	checkWindow(ctx, g, wl, c.sys, s, bad, nil)
	if g.failed != 1 {
		t.Errorf("corrupted reply: %d failures, want 1: %q", g.failed, g.problems)
	}

	// A cache hit that is not the miss that filled the cache.
	stale := append([][]byte(nil), miss...)
	stale[s.order[0]] = []byte(`{"results":[]}`)
	g = &gate{}
	checkWindow(ctx, g, wl, c.sys, s, replies[:1], stale)
	if g.failed != 1 {
		t.Errorf("stale hit: %d failures, want 1: %q", g.failed, g.problems)
	}

	// Ties at the last place may differ for join overlap; anything else
	// may not.
	a := []byte(`{"matches":[{"column_key":"a.x","overlap":9,"containment":1,"jaccard":0},{"column_key":"b.x","overlap":7,"containment":1,"jaccard":0}]}`)
	tie := bytes.Replace(a, []byte("b.x"), []byte("c.x"), 1)
	top := bytes.Replace(a, []byte("a.x"), []byte("c.x"), 1)
	if !sameAnswer(clsJoinOverlap, a, tie) || sameAnswer(clsJoinOverlap, a, top) || sameAnswer(clsJoinContainment, a, tie) {
		t.Error("boundary-tie tolerance is wrong")
	}
}
