package stat

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// EndToEnd is one end_to_end entry of BENCHMARK.json.
type EndToEnd struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// PerLayer is one per_layer entry of BENCHMARK.json.
type PerLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// Workload is one workloads entry of BENCHMARK.json.
type Workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// Benchmark is the BENCHMARK.json contract file.
type Benchmark struct {
	Command    []string   `json:"command"`
	Paths      []string   `json:"paths"`
	RunSeconds int        `json:"run_seconds"`
	Workloads  []Workload `json:"workloads"`
	EndToEnd   []EndToEnd `json:"end_to_end"`
	PerLayer   []PerLayer `json:"per_layer"`
}

// LoadBenchmark reads a BENCHMARK.json file.
func LoadBenchmark(path string) (*Benchmark, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Benchmark
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Env records where a run was measured.
type Env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

// Run is one harness run as written to bench/out/<workload>.json. A
// result file handed to benchdiff is any number of these, one after
// another.
type Run struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	Env      Env    `json:"env"`
	// Overrides lists every setting that differs from the defaults the
	// committed numbers were measured with; runs whose overrides differ
	// are not comparable and benchdiff refuses to compare them.
	Overrides  map[string]string `json:"overrides,omitempty"`
	StreamHash string            `json:"stream_hash"`
	LakeHash   string            `json:"lake_hash"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	// Retried counts replies that showed the server's spurious
	// cancellation (see bench/serve.go) and were sent again.
	Retried int `json:"retried"`
	// Problems holds the first few failed operations and correctness
	// mismatches, for diagnosis.
	Problems []string `json:"problems,omitempty"`
	// EndToEnd and PerLayer are keyed by the names BENCHMARK.json lists;
	// Checks holds derived consistency numbers that are not contract
	// metrics (layer-sum reconstruction ratios).
	EndToEnd map[string]Metric `json:"end_to_end,omitempty"`
	PerLayer map[string]Metric `json:"per_layer,omitempty"`
	Checks   map[string]Metric `json:"checks,omitempty"`
}

// ReadRuns decodes every Run in a result file.
func ReadRuns(path string) ([]Run, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	var runs []Run
	for {
		var r Run
		if err := dec.Decode(&r); err == io.EOF {
			return runs, nil
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		runs = append(runs, r)
	}
}
