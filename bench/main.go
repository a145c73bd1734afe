// Command bench is tablehound's benchmark harness: it generates a
// datagen lake and a request stream from a seed, takes the lake down
// the operator's path (CSV → build → snapshot → load → delta →
// compaction), serves the result over loopback HTTP under a closed
// loop, checks the answers, and reports the metrics BENCHMARK.json
// names. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"tablehound/bench/stat"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "serve_cold | serve_cached | serve_routed | lifecycle | all")
	seed := fs.Int64("seed", 1, "seed of the request stream and of the held-out tables")
	seconds := fs.Float64("seconds", defaultSeconds, "length of the timed window; a non-default value is stamped into the output")
	trace := fs.Int("trace", 0, "0: timed window only, report the end-to-end metrics; 1: add the traced pass, report the per-layer metrics")
	cycles := fs.Int("cycles", defaultCycles, "set-up cycles whose medians are reported; a non-default value is stamped into the output")
	lakeSeed := fs.Int64("lake-seed", defaultLakeSeed, "datagen seed of the lake; a non-default value is stamped into the output")
	outDir := fs.String("out", "bench/out", "directory for <workload>.json, <workload>.trace.json and temporary files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || *cycles < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive, -cycles at least 1, -trace 0 or 1, and there are no positional arguments")
		return 2
	}
	var todo []workload
	if *name == "all" {
		todo = workloads
	} else if wl, ok := workloadByName(*name); ok {
		todo = []workload{wl}
	} else {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}

	code := 0
	for _, wl := range todo {
		run, err := runWorkload(config{
			wl: wl, seed: *seed, lakeSeed: *lakeSeed, seconds: *seconds, cycles: *cycles,
			trace: *trace == 1, outDir: *outDir, commit: os.Getenv("TABLEHOUND_BENCH_COMMIT"), log: stderr,
		})
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", wl.name, err)
			return 1
		}
		if err := report(stdout, run); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		if !run.Correct {
			for _, p := range run.Problems {
				fmt.Fprintf(stderr, "bench: %s: %s\n", wl.name, p)
			}
			code = 1
		}
	}
	return code
}

// report prints every metric of the run as "name value unit", in
// catalogue order, and then the contract's one-line JSON result.
func report(w io.Writer, run *stat.Run) error {
	metrics, defs := run.EndToEnd, endToEndDefs()
	if run.Trace {
		metrics, defs = run.PerLayer, perLayerDefs()
	}
	fmt.Fprintf(w, "workload %s seed %d stream %s lake %s\n", run.Workload, run.Seed, run.StreamHash, run.LakeHash)
	for _, d := range defs {
		fmt.Fprintf(w, "%s %v %s\n", d.name, metrics[d.name].Value, d.unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]stat.Metric `json:"metrics"`
	}{run.Correct, run.Attempted, run.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
