package main

import (
	"fmt"
	"math"

	"tablehound/bench/stat"
)

// Request classes, in the order every per-class slice is indexed.
const (
	clsJoinOverlap = iota
	clsJoinContainment
	clsUnionTUS
	clsUnionSantos
	clsUnionStarmie
	clsUnionD3L
	clsKeyword
	clsDiscover
	numClasses
)

var classNames = [numClasses]string{
	"join_overlap", "join_containment", "union_tus", "union_santos",
	"union_starmie", "union_d3l", "keyword", "discover",
}

// classWeights is each class's share of the request stream in 32nds.
var classWeights = [numClasses]int{8, 4, 4, 3, 3, 1, 4, 5}

// engineNames is the per-layer metric prefix of the engine behind each
// class (the repo's package names, not the request class names).
var engineNames = [numClasses]string{
	"join.overlap", "join.containment", "union.tus", "union.santos",
	"starmie", "union.d3l", "keyword", "discover",
}

// buildStages are the core.BuildStats stages reported one by one; the
// remaining stages are summed into core.build.other_s.
var buildStages = []string{
	"model", "dict", "keyword", "join", "fuzzy", "tus", "santos", "d3l",
	"starmie", "org", "graph", "vecs",
}

// metricDef is one metric the harness reports, in BENCHMARK.json's
// vocabulary.
type metricDef struct {
	name, unit, better string
}

// endToEndDefs lists the end-to-end metrics in report order.
func endToEndDefs() []metricDef {
	defs := []metricDef{
		{"setup_s", "s", "lower"},
		{"qps", "1/s", "higher"},
	}
	for c, name := range classNames {
		if c != clsKeyword {
			defs = append(defs, metricDef{name + "_p50_ms", "ms", "lower"})
		}
	}
	return append(defs,
		metricDef{"build_s", "s", "lower"},
		metricDef{"load_s", "s", "lower"},
		metricDef{"delta_visible_s", "s", "lower"},
		metricDef{"snapshot_mib", "MiB", "lower"},
		metricDef{"heap_after_load_mib", "MiB", "lower"},
	)
}

// perLayerDefs lists the per-layer metrics in report order, grouped by
// the package they measure.
func perLayerDefs() []metricDef {
	var defs []metricDef
	add := func(name, unit, better string) { defs = append(defs, metricDef{name, unit, better}) }

	for _, c := range classNames {
		add("server."+c+".handler_us", "us", "lower")
	}
	for _, c := range classNames {
		add("server."+c+".transport_us", "us", "lower")
	}
	add("server.transport_us", "us", "lower")
	add("server.decode_us", "us", "lower")
	add("server.marshal_us", "us", "lower")
	add("server.hit_path_us", "us", "lower")
	add("server.shed", "count", "lower")
	add("server.timeouts", "count", "lower")
	for _, c := range classNames {
		add("tail."+c+"_p90_ms", "ms", "lower")
	}
	for _, c := range classNames {
		add("n."+c, "count", "higher")
	}
	// The keyword class's window median is a per-layer metric, not an
	// end-to-end one: a keyword query costs 0.1 ms, so its loopback
	// latency is mostly the wait for a core the other client's D3L scan
	// holds, and a disturbed host moves it twice as far as any other
	// class (interquartile spread 29 % over ten runs where the next
	// worst had 18 %) — past any bound the contract allows.
	add("window.keyword_p50_ms", "ms", "lower")

	add("qcache.hit_ratio", "ratio", "higher")
	add("qcache.evictions", "count", "lower")
	add("qcache.entries", "count", "higher")

	for c, e := range engineNames {
		if c == clsDiscover {
			add("discover.execute_us", "us", "lower")
		} else {
			add(e+".search_us", "us", "lower")
		}
		add(e+".allocs_per_op", "count", "lower")
		add(e+".kib_per_op", "KiB", "lower")
	}
	for c, e := range engineNames {
		if c == clsKeyword || c == clsDiscover {
			continue
		}
		add(e+".candidates_us", "us", "lower")
		add(e+".verify_us", "us", "lower")
		add(e+".verified_per_result", "ratio", "lower")
	}

	add("discover.plan_us", "us", "lower")
	add("discover.prefilter_meta_us", "us", "lower")
	add("discover.prefilter_keyword_us", "us", "lower")
	add("discover.prefilter_values_us", "us", "lower")
	add("discover.candidates_us", "us", "lower")
	add("discover.verify_us", "us", "lower")
	add("discover.prefilter_memo_hit_us", "us", "lower")
	add("discover.est_rel_err", "ratio", "lower")
	add("discover.stage_coverage", "ratio", "higher")

	add("router.fanout_overhead_us", "us", "lower")
	add("router.owner_fetch_us", "us", "lower")
	add("router.partial_responses", "count", "lower")

	add("lake.ingest_s", "s", "lower")
	for _, st := range buildStages {
		add("core.build."+st+"_s", "s", "lower")
	}
	add("core.build.other_s", "s", "lower")
	add("core.build.pool_busy_share", "ratio", "higher")
	add("core.build.alloc_mib", "MiB", "lower")
	add("core.save_s", "s", "lower")
	add("core.load_mmap_s", "s", "lower")
	add("core.load_heap_s", "s", "lower")
	add("core.load.alloc_mib", "MiB", "lower")
	add("core.delta.build_s", "s", "lower")
	add("core.delta.chain_load_s", "s", "lower")
	add("core.delta.compact_s", "s", "lower")
	add("core.delta.bytes_per_table", "B", "lower")
	add("snap.bytes_per_table", "B", "lower")
	add("core.index_encoded_mib", "MiB", "lower")

	for c := clsJoinOverlap; c <= clsUnionD3L; c++ {
		add("quality."+classNames[c]+"_p_at_10", "ratio", "higher")
	}
	return defs
}

// metricSet collects reported values against a fixed list of
// definitions: a value for an unlisted name, a second value for the
// same name, or a non-finite value is a harness bug and is reported as
// an error by finish.
type metricSet struct {
	defs   []metricDef
	units  map[string]string
	values map[string]stat.Metric
	errs   []string
}

func newMetricSet(defs []metricDef) *metricSet {
	ms := &metricSet{defs: defs, units: make(map[string]string), values: make(map[string]stat.Metric)}
	for _, d := range defs {
		ms.units[d.name] = d.unit
	}
	return ms
}

func (ms *metricSet) set(name string, v float64) {
	unit, ok := ms.units[name]
	switch {
	case !ok:
		ms.errs = append(ms.errs, fmt.Sprintf("metric %q is not in the catalogue", name))
	case math.IsNaN(v) || math.IsInf(v, 0):
		ms.errs = append(ms.errs, fmt.Sprintf("metric %q is not finite (%v)", name, v))
	default:
		if _, dup := ms.values[name]; dup {
			ms.errs = append(ms.errs, fmt.Sprintf("metric %q set twice", name))
		}
		ms.values[name] = stat.Metric{Value: v, Unit: unit}
	}
}

// finish returns the collected values, or an error naming every
// problem including metrics that were never set.
func (ms *metricSet) finish() (map[string]stat.Metric, error) {
	errs := ms.errs
	for _, d := range ms.defs {
		if _, ok := ms.values[d.name]; !ok {
			errs = append(errs, fmt.Sprintf("metric %q was not measured", d.name))
		}
	}
	if len(errs) > 0 {
		return nil, fmt.Errorf("metrics: %v", errs)
	}
	return ms.values, nil
}
