package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"tablehound/internal/datagen"
	"tablehound/internal/join"
	"tablehound/internal/lake"
	"tablehound/internal/table"
)

// fuzzyOf is s.Fuzzy for a test: a build error fails it.
func fuzzyOf(t testing.TB, s *System) *join.FuzzyJoiner {
	t.Helper()
	fz, err := s.Fuzzy()
	if err != nil {
		t.Fatalf("Fuzzy: %v", err)
	}
	return fz
}

// onDemandSurfaces are the readers of the three on-demand indexes, each
// rendering its answers to a fixed set of queries over buildAt's lake:
// fuzzy results with their FuzzyStats at two thresholds per query
// column, Navigate per domain topic, JoinPath from the first table to
// every other.
var onDemandSurfaces = []struct {
	name   string
	answer func(s *System, gen *datagen.Lake) string
}{
	{"fuzzy", func(s *System, gen *datagen.Lake) string {
		fz, err := s.Fuzzy()
		if err != nil || fz == nil {
			return fmt.Sprintf("no joiner: %v", err)
		}
		out := ""
		for _, tb := range gen.Tables[:6] {
			vals := tb.Columns[0].Values
			r1, s1 := fz.Search(vals, 0.85, 0.5)
			r2, s2 := fz.Search(vals[:min(len(vals), 20)], 0.9, 0.3)
			out += fmt.Sprintf("%s: %+v %+v | %+v %+v\n", tb.ID, r1, s1, r2, s2)
		}
		return out
	}},
	{"navigate", func(s *System, gen *datagen.Lake) string {
		out := ""
		for _, topic := range gen.DomainNames {
			labels, id, err := s.Navigate(topic)
			out += fmt.Sprintf("%s: %q %s %v\n", topic, labels, id, err)
		}
		return out
	}},
	{"joinpath", func(s *System, gen *datagen.Lake) string {
		ids := make([]string, len(gen.Tables))
		for i, tb := range gen.Tables {
			ids[i] = tb.ID
		}
		sort.Strings(ids)
		out := ""
		for _, to := range ids[1:] {
			out += fmt.Sprintf("%s: %+v\n", to, s.JoinPath(ids[0], to, 3))
		}
		return out
	}},
}

// goldenOnDemand is the SHA-256 of each onDemandSurfaces answer on
// buildAt's lake as the commit before the three indexes moved to their
// first reader answered it, when Build and every load built them up
// front. A system that builds them on demand must answer the same.
var goldenOnDemand = map[string]string{
	"fuzzy":    "8800d485be3ee48c9b42afd159c51897367404850077b420718fce49f0f34e4d",
	"navigate": "3a960efed03c364ba30901dd7961fee1dbc17854bb029b92059eef8e9234f339",
	"joinpath": "73ac38c325340ebf76c3abcd155839c41fc9bb3347c42c8d4fb4f9dddf19bbad",
}

func sha256Hex(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// TestOnDemandConcurrentFirstCallers races eight first callers of each
// on-demand accessor on a fresh built and a fresh loaded system: every
// caller must get the one index built, and its answers must be the
// ones the eager build gave.
func TestOnDemandConcurrentFirstCallers(t *testing.T) {
	built, gen := buildAt(t, 4)
	data := saved(t, built)
	for _, path := range []string{"built", "loaded"} {
		t.Run(path, func(t *testing.T) {
			sys := built
			if path == "loaded" {
				sys = loadBytes(t, data)
			}
			const callers = 8
			type got struct {
				fz      *join.FuzzyJoiner
				org     any
				graph   any
				answers []string
			}
			res := make([]got, callers)
			var start, wg sync.WaitGroup
			start.Add(1)
			for i := range callers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					start.Wait()
					r := &res[i]
					r.answers = make([]string, len(onDemandSurfaces))
					// Each caller reaches the three indexes in a
					// different order.
					for k := range onDemandSurfaces {
						j := (i + k) % len(onDemandSurfaces)
						r.answers[j] = onDemandSurfaces[j].answer(sys, gen)
					}
					r.fz, _ = sys.Fuzzy()
					r.org, r.graph = sys.Org(), sys.Graph()
				}()
			}
			start.Done()
			wg.Wait()
			for i, r := range res {
				if r.fz == nil || r.fz != res[0].fz || r.org != res[0].org || r.graph != res[0].graph {
					t.Errorf("caller %d got another index than caller 0", i)
				}
				for j, s := range onDemandSurfaces {
					if got := sha256Hex(r.answers[j]); got != goldenOnDemand[s.name] {
						t.Errorf("caller %d: %s answers hash to %s, want %s", i, s.name, got, goldenOnDemand[s.name])
					}
				}
			}
		})
	}
}

// loadBytes loads a snapshot from memory, failing the test on error.
func loadBytes(t *testing.T, data []byte) *System {
	t.Helper()
	sys, err := Load(bytes.NewReader(data), Options{})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// onDemandBuilt names the on-demand indexes s has built.
func onDemandBuilt(s *System) []string {
	var out []string
	if s.fuzzy.built() != nil {
		out = append(out, "fuzzy")
	}
	if s.org.built() != nil {
		out = append(out, "org")
	}
	if s.graph.built() != nil {
		out = append(out, "graph")
	}
	return out
}

// skipFixture builds a small lake under opts and writes its base
// snapshot and a one-table delta; it returns the built system and every
// system the other constructors make from those files: the loaded
// base, the chain load, the system CompactFiles returns and a load of
// the compacted base.
func skipFixture(t *testing.T, opts Options) map[string]*System {
	t.Helper()
	gen := datagen.Generate(datagen.Config{Seed: 5, NumTemplates: 2, TablesPerTemplate: 2})
	all := append([]*table.Table(nil), gen.Tables...)
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	cat := lake.NewCatalog()
	if err := cat.AddBatch(all[:len(all)-1]); err != nil {
		t.Fatal(err)
	}
	built, err := Build(cat, opts)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	basePath, deltaPath := filepath.Join(dir, "base.snap"), filepath.Join(dir, "delta0.thdb")
	if err := built.SaveFile(basePath); err != nil {
		t.Fatal(err)
	}
	d, err := BuildDelta(basePath, nil, all[len(all)-1:], nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SaveFile(deltaPath); err != nil {
		t.Fatal(err)
	}
	systems := map[string]*System{"built": built}
	if systems["loaded"], err = LoadFile(basePath, Options{}); err != nil {
		t.Fatal(err)
	}
	if systems["chain"], err = LoadChainFiles(basePath, []string{deltaPath}, Options{}); err != nil {
		t.Fatal(err)
	}
	compactPath := filepath.Join(dir, "compacted.snap")
	if systems["compacted"], err = CompactFiles(basePath, []string{deltaPath}, compactPath, Options{}); err != nil {
		t.Fatal(err)
	}
	if systems["compacted-loaded"], err = LoadFile(compactPath, Options{}); err != nil {
		t.Fatal(err)
	}
	return systems
}

// TestConstructionBuildsNoOnDemandIndex checks that Build, LoadFile,
// LoadChainFiles and CompactFiles leave the fuzzy index, the
// organization and the discovery graph to their first reader.
func TestConstructionBuildsNoOnDemandIndex(t *testing.T) {
	for name, sys := range skipFixture(t, Options{Seed: 3}) {
		if got := onDemandBuilt(sys); len(got) > 0 {
			t.Errorf("%s system built %v before any reader", name, got)
		}
		if _, ok := sys.BuildStats.Stage("fuzzy"); ok {
			t.Errorf("%s system's build report has a fuzzy stage", name)
		}
	}
}
