package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// silence redirects stdout to /dev/null for the duration of a test so
// command output does not pollute the test log.
func silence(t *testing.T) {
	t.Helper()
	old := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	t.Cleanup(func() {
		os.Stdout = old
		devnull.Close()
	})
}

// stdoutSHA runs fn with stdout captured and returns the SHA-256 of
// what it printed.
func stdoutSHA(t *testing.T, fn func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	sum := sha256.New()
	done := make(chan error, 1)
	go func() {
		_, err := io.Copy(sum, r)
		done <- err
	}()
	ferr := fn()
	os.Stdout = old
	w.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	r.Close()
	if ferr != nil {
		t.Fatal(ferr)
	}
	return hex.EncodeToString(sum.Sum(nil))
}

// genLake generates a small lake directory once per test.
func genLake(t *testing.T) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "lake")
	if err := cmdGen([]string{"-out", dir, "-templates", "4", "-tables", "3", "-domains", "10", "-seed", "5"}); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestCmdGenAndStats(t *testing.T) {
	silence(t)
	dir := genLake(t)
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 12 {
		t.Fatalf("generated %d files, err=%v", len(entries), err)
	}
	if err := cmdStats([]string{"-lake", dir}); err != nil {
		t.Fatal(err)
	}
	if err := cmdStats([]string{"-lake", filepath.Join(dir, "missing")}); err == nil {
		t.Error("missing lake should fail")
	}
	if err := cmdGen([]string{}); err == nil {
		t.Error("gen without -out should fail")
	}
}

// TestCmdStatsFromSnapshot: stats over a snapshot, and over a snapshot
// with a delta chained onto it, print what stats over the CSV lake with
// the same tables prints.
func TestCmdStatsFromSnapshot(t *testing.T) {
	silence(t)
	dir := genLake(t)
	tmp := t.TempDir()
	snapPath := filepath.Join(tmp, "lake.snap")
	if err := cmdBuild([]string{"-lake", dir, "-o", snapPath}); err != nil {
		t.Fatal(err)
	}
	csv, err := os.ReadFile(filepath.Join(dir, "t000_00.csv"))
	if err != nil {
		t.Fatal(err)
	}
	extra := filepath.Join(tmp, "zz_extra.csv")
	if err := os.WriteFile(extra, csv, 0o644); err != nil {
		t.Fatal(err)
	}
	deltaPath := filepath.Join(tmp, "extra.thdb")
	if err := cmdAdd([]string{"-base", snapPath, "-o", deltaPath, extra}); err != nil {
		t.Fatal(err)
	}
	grown := filepath.Join(tmp, "grown")
	if err := os.Mkdir(grown, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err == nil {
			err = os.WriteFile(filepath.Join(grown, e.Name()), b, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(grown, "zz_extra.csv"), csv, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name       string
		want, from []string
	}{
		{"snapshot", []string{"-lake", dir}, []string{"-snapshot", snapPath}},
		{"chain", []string{"-lake", grown}, []string{"-snapshot", snapPath, "-deltas", deltaPath}},
	} {
		want := stdoutSHA(t, func() error { return cmdStats(c.want) })
		if got := stdoutSHA(t, func() error { return cmdStats(c.from) }); got != want {
			t.Errorf("%s: stats %v printed other bytes than stats %v", c.name, c.from, c.want)
		}
	}
	if err := cmdStats([]string{"-deltas", deltaPath}); err == nil {
		t.Error("stats with -deltas and no -snapshot should fail")
	}
}

func TestCmdSearchJoinUnion(t *testing.T) {
	silence(t)
	dir := genLake(t)
	if err := cmdSearch([]string{"-lake", dir, "-q", "city", "-k", "3"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdSearch([]string{"-lake", dir}); err == nil {
		t.Error("search without -q should fail")
	}
	if err := cmdJoin([]string{"-lake", dir, "-table", "t000_00", "-column", "note_0"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdJoin([]string{"-lake", dir, "-table", "nope", "-column", "x"}); err == nil {
		t.Error("unknown table should fail")
	}
	for _, method := range []string{"tus", "santos", "starmie", "d3l"} {
		if err := cmdUnion([]string{"-lake", dir, "-table", "t000_00", "-method", method, "-k", "3"}); err != nil {
			t.Fatalf("union %s: %v", method, err)
		}
	}
	if err := cmdUnion([]string{"-lake", dir, "-table", "t000_00", "-method", "bogus"}); err == nil {
		t.Error("bogus union method should fail")
	}
}

func TestCmdNavigateProfileMatchJoinPath(t *testing.T) {
	silence(t)
	dir := genLake(t)
	if err := cmdNavigate([]string{"-lake", dir, "-topic", "city"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdNavigate([]string{"-lake", dir}); err == nil {
		t.Error("navigate without -topic should fail")
	}
	// The profile of t000_00 as lakectl printed it when every build
	// profiled the whole lake; printed from the lake and from its
	// snapshot, it must not move.
	const wantProfile = "babb2c13df83bd53c6e1685fe5eaab64149dcf3cd7cb8c92a75fed2e399cd11e"
	if got := stdoutSHA(t, func() error { return cmdProfile([]string{"-lake", dir, "-table", "t000_00"}) }); got != wantProfile {
		t.Errorf("profile -lake printed SHA-256 %s, want %s", got, wantProfile)
	}
	snapPath := filepath.Join(t.TempDir(), "lake.snap")
	if err := cmdBuild([]string{"-lake", dir, "-o", snapPath}); err != nil {
		t.Fatal(err)
	}
	if got := stdoutSHA(t, func() error { return cmdProfile([]string{"-snapshot", snapPath, "-table", "t000_00"}) }); got != wantProfile {
		t.Errorf("profile -snapshot printed SHA-256 %s, want %s", got, wantProfile)
	}
	if err := cmdProfile([]string{"-lake", dir, "-table", "nope"}); err == nil {
		t.Error("unknown profile table should fail")
	}
	if err := cmdMatch([]string{"-lake", dir, "-src", "t000_00", "-dst", "t000_01"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdMatch([]string{"-lake", dir, "-src", "t000_00", "-dst", "nope"}); err == nil {
		t.Error("unknown match table should fail")
	}
	if err := cmdJoinPath([]string{"-lake", dir, "-from", "t000_00", "-to", "t000_01", "-hops", "3"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdVSearch([]string{"-lake", dir, "-q", "city_0001"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdVSearch([]string{"-lake", dir}); err == nil {
		t.Error("vsearch without -q should fail")
	}
}

func TestCmdExp(t *testing.T) {
	silence(t)
	// Run one cheap experiment end to end.
	if err := cmdExp([]string{"e8"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdExp([]string{"nope"}); err == nil {
		t.Error("unknown experiment should fail")
	}
	if err := cmdExp(nil); err == nil {
		t.Error("exp without args should fail")
	}
}
