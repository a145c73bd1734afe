package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tablehound/bench/stat"
)

func writeRuns(t *testing.T, dir, name string, runs ...stat.Run) string {
	t.Helper()
	var buf bytes.Buffer
	for _, r := range runs {
		raw, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(raw)
		buf.WriteByte('\n')
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func run(seed int64, qps, quality float64) stat.Run {
	return stat.Run{
		Workload: "serve_cold", Seed: seed, StreamHash: "s", LakeHash: "l", Correct: true,
		EndToEnd: map[string]stat.Metric{"qps": {Value: qps, Unit: "1/s"}},
		PerLayer: map[string]stat.Metric{"quality.union_tus_p_at_10": {Value: quality, Unit: "ratio"}},
	}
}

func TestBenchdiffVerdicts(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	spec := `{"workloads":[{"name":"serve_cold","why":"w"}],
		"end_to_end":[{"name":"qps","unit":"1/s","better":"higher","bound":0.1}],
		"per_layer":[{"name":"quality.union_tus_p_at_10","unit":"ratio","better":"higher"}]}`
	if err := os.WriteFile(bench, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	base := writeRuns(t, dir, "base.json", run(1, 100, 0.9), run(2, 101, 0.9), run(3, 99, 0.9))
	cases := []struct {
		name string
		runs []stat.Run
		code int
		want string
	}{
		{"same", []stat.Run{run(1, 100, 0.9), run(2, 102, 0.9), run(3, 98, 0.9)}, 0, " ok"},
		{"slower", []stat.Run{run(1, 80, 0.9), run(2, 81, 0.9), run(3, 79, 0.9)}, 1, "regressed"},
		{"faster", []stat.Run{run(1, 150, 0.9), run(2, 151, 0.9), run(3, 149, 0.9)}, 0, " ok"},
		{"noisy", []stat.Run{run(1, 60, 0.9), run(2, 100, 0.9), run(3, 140, 0.9)}, 0, "unresolved"},
		{"worse answers", []stat.Run{run(1, 100, 0.8), run(2, 101, 0.8), run(3, 99, 0.8)}, 1, "changed"},
	}
	for _, c := range cases {
		var out, errs bytes.Buffer
		path := writeRuns(t, dir, "new.json", c.runs...)
		if code := realMain([]string{"-benchmark", bench, base, path}, &out, &errs); code != c.code {
			t.Errorf("%s: exit %d, want %d\n%s%s", c.name, code, c.code, out.String(), errs.String())
		}
		if !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: no %q verdict in\n%s", c.name, c.want, out.String())
		}
	}

	// Other inputs under the same seed, and other settings, are not
	// comparable.
	moved := run(1, 100, 0.9)
	moved.StreamHash = "other"
	var out, errs bytes.Buffer
	if code := realMain([]string{"-benchmark", bench, base, writeRuns(t, dir, "moved.json", moved)}, &out, &errs); code != 1 || !strings.Contains(out.String(), "inputs differ") {
		t.Errorf("different stream under one seed: exit %d\n%s", code, out.String())
	}
	short := run(1, 100, 0.9)
	short.Overrides = map[string]string{"seconds": "1"}
	if code := realMain([]string{"-benchmark", bench, base, writeRuns(t, dir, "short.json", short)}, &out, &errs); code != 2 {
		t.Errorf("overridden run compared against a default one: exit %d", code)
	}
}
