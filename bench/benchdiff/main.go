// Command benchdiff compares two benchmark result files metric by
// metric, using the directions and bounds of BENCHMARK.json:
//
//	go run ./benchdiff [-benchmark ../BENCHMARK.json] old.json new.json
//	go run ./benchdiff old.json            # summary and spreads of one file
//
// A result file is any number of bench/out/<workload>.json records one
// after another (cat them together). For every workload x metric it
// prints each side's median, quartiles and run count, the change, and a
// verdict: "regressed" when the new median is worse than the old by
// more than the metric's bound, "unresolved" when either side's
// interquartile spread is wider than the bound (the runs cannot tell),
// "ok" otherwise. Per-layer metrics have no bound and get no verdict,
// except quality.*, which must repeat exactly. It exits 1 on any
// regression, any quality change, or inputs that differ for the same
// workload and seed, and 2 when the files cannot be compared at all.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"

	"tablehound/bench/stat"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchPath := fs.String("benchmark", "BENCHMARK.json", "the contract file holding directions and bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() < 1 || fs.NArg() > 2 {
		fmt.Fprintln(stderr, "usage: benchdiff [-benchmark BENCHMARK.json] old.json [new.json]")
		return 2
	}
	bm, err := stat.LoadBenchmark(*benchPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 2
	}
	oldRuns, err := stat.ReadRuns(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 2
	}
	newRuns := oldRuns
	if fs.NArg() == 2 {
		if newRuns, err = stat.ReadRuns(fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "benchdiff:", err)
			return 2
		}
	}
	all := append(append([]stat.Run(nil), oldRuns...), newRuns...)
	if why := incomparable(all); why != "" {
		fmt.Fprintln(stderr, "benchdiff: the files cannot be compared:", why)
		return 2
	}

	bad := 0
	for _, why := range inputMismatches(all) {
		fmt.Fprintln(stdout, "inputs differ:", why)
		bad++
	}
	fmt.Fprintf(stdout, "%-13s %-36s %-7s %30s %30s %8s  %s\n", "workload", "metric", "unit", "old median [q1,q3] n", "new median [q1,q3] n", "change", "verdict")
	for _, wl := range bm.Workloads {
		for _, m := range bm.EndToEnd {
			o := summarize(values(oldRuns, wl.Name, m.Name, false))
			n := summarize(values(newRuns, wl.Name, m.Name, false))
			if o.n == 0 && n.n == 0 {
				continue
			}
			worse := worsening(o.median, n.median, m.Better)
			verdict := "ok"
			switch {
			case o.n == 0 || n.n == 0:
				verdict = "missing"
				bad++
			case worse > m.Bound:
				verdict = "regressed"
				bad++
			case o.spread > m.Bound || n.spread > m.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(stdout, "%-13s %-36s %-7s %30s %30s %+7.1f%%  %s\n", wl.Name, m.Name, m.Unit, o, n, 100*worse, verdict)
		}
		for _, m := range bm.PerLayer {
			o := summarize(values(oldRuns, wl.Name, m.Name, true))
			n := summarize(values(newRuns, wl.Name, m.Name, true))
			if o.n == 0 || n.n == 0 {
				continue
			}
			verdict := ""
			if strings.HasPrefix(m.Name, "quality.") && (o.median != n.median || o.spread != 0 || n.spread != 0) {
				verdict = "changed"
				bad++
			}
			fmt.Fprintf(stdout, "%-13s %-36s %-7s %30s %30s %+7.1f%%  %s\n", wl.Name, m.Name, m.Unit, o, n, 100*worsening(o.median, n.median, m.Better), verdict)
		}
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "%d regression(s), quality change(s) or input mismatch(es)\n", bad)
		return 1
	}
	return 0
}

// incomparable reports why a set of runs must not be compared: their
// overrides (window length, cycles, lake) differ, so their numbers
// measure different things.
func incomparable(runs []stat.Run) string {
	seen := map[string]string{} // workload -> overrides
	for _, r := range runs {
		o := fmt.Sprint(r.Overrides)
		if prev, ok := seen[r.Workload]; ok && prev != o {
			return fmt.Sprintf("%s was run with overrides %s and %s", r.Workload, prev, o)
		}
		seen[r.Workload] = o
	}
	return ""
}

// inputMismatches lists workload/seed pairs whose request stream or
// lake differs between the two files: same seed must mean same inputs.
func inputMismatches(runs []stat.Run) []string {
	type key struct {
		workload string
		seed     int64
	}
	inputs := map[key]string{}
	var out []string
	for _, r := range runs {
		k, h := key{r.Workload, r.Seed}, r.StreamHash+"/"+r.LakeHash
		if prev, ok := inputs[k]; ok && prev != h {
			out = append(out, fmt.Sprintf("%s seed %d: stream/lake %s vs %s", r.Workload, r.Seed, prev, h))
		}
		inputs[k] = h
	}
	sort.Strings(out)
	return out
}

func values(runs []stat.Run, workload, metric string, perLayer bool) []float64 {
	var out []float64
	for _, r := range runs {
		if r.Workload != workload {
			continue
		}
		set := r.EndToEnd
		if perLayer {
			set = r.PerLayer
		}
		if m, ok := set[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// summary is one side of a row.
type summary struct {
	n              int
	median, q1, q3 float64
	// spread is the interquartile distance as a share of the median; 0
	// when there are too few runs to have quartiles.
	spread float64
}

func summarize(xs []float64) summary {
	s := summary{n: len(xs)}
	if s.n == 0 {
		return s
	}
	s.median = stat.Median(xs)
	s.q1, s.q3 = s.median, s.median
	if s.n >= 2 {
		s.q1, _, s.q3 = stat.Quartiles(xs)
		if s.median != 0 {
			s.spread = math.Abs((s.q3 - s.q1) / s.median)
		}
	}
	return s
}

func (s summary) String() string {
	if s.n == 0 {
		return "-"
	}
	return fmt.Sprintf("%.4g [%.4g,%.4g] %d", s.median, s.q1, s.q3, s.n)
}

// worsening is the change from old to new as a share of old, signed so
// that positive is worse in the metric's direction.
func worsening(old, new float64, better string) float64 {
	change := (new - old) / math.Abs(old)
	if old == 0 {
		change = 0
		if new != 0 {
			change = math.Inf(int(math.Copysign(1, new)))
		}
	}
	if better == "higher" {
		return -change
	}
	return change
}
