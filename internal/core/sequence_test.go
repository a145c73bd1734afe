package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"tablehound/internal/datagen"
	"tablehound/internal/table"
)

// TestMergeSequences is a model-based check of the delta merge. Each
// seed runs random steps over a small lake — add tables, remove them,
// replace one under its ID with another table's cells (same schema),
// compact the chain into a new base, reload it with other runtime
// knobs — and after every step holds the chain-loaded system and its
// compaction to a fresh build over the live tables: the same
// generation, the same snapshot sections but the two HNSW graphs', and
// the same answers on every surface, containment search included, and
// every containment answer of both equal to the exact scan's. Answers
// are compared, not only bytes, because an index a save does not write
// (the band tables, the merged inverted index) could still answer
// stale. The compaction saves the chain's bytes. -short runs one seed.
func TestMergeSequences(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	gen := datagen.Generate(datagen.Config{Seed: 11, NumTemplates: 4, TablesPerTemplate: 4})
	for _, seed := range seeds {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			runMergeSequence(t, gen, seed, 8)
		})
	}
}

// mergeModel is the state a merge sequence steps: the base snapshot,
// the delta chain on it, and the live tables a fresh build indexes.
type mergeModel struct {
	t        *testing.T
	gen      *datagen.Lake
	dir      string
	basePath string
	chain    []string
	live     map[string]*table.Table
	files    int
}

func runMergeSequence(t *testing.T, gen *datagen.Lake, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	m := &mergeModel{t: t, gen: gen, dir: t.TempDir(), live: make(map[string]*table.Table)}
	for _, i := range rng.Perm(len(gen.Tables))[:len(gen.Tables)/2] {
		m.live[gen.Tables[i].ID] = gen.Tables[i]
	}
	m.basePath, _ = writeBase(t, m.dir, m.tables(), Options{KB: gen.BuildKB(0.8), Seed: 3})
	sys := m.check("base", nil)
	for step := range steps {
		var touched *table.Table
		ops := []string{"add", "add", "add", "add", "remove", "replace", "replace", "compact", "reload"}
		op := ops[rng.Intn(len(ops))]
		switch op {
		case "add":
			var out []*table.Table
			for _, tb := range gen.Tables {
				if m.live[tb.ID] == nil {
					out = append(out, tb)
				}
			}
			if len(out) == 0 {
				op = "compact"
				break
			}
			rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
			add := out[:1+rng.Intn(min(3, len(out)))]
			m.delta(add, nil)
			touched = add[0]
		case "remove":
			ids := sortedKeys(m.live)
			if len(ids) <= 4 {
				op = "compact"
				break
			}
			m.delta(nil, []string{ids[rng.Intn(len(ids))]})
		case "replace":
			ids := sortedKeys(m.live)
			old := m.live[ids[rng.Intn(len(ids))]]
			touched = m.replacement(rng, old)
			m.delta([]*table.Table{touched}, []string{old.ID})
		}
		switch op {
		case "compact":
			out := filepath.Join(m.dir, fmt.Sprintf("base%d.snap", m.next()))
			if _, err := CompactFiles(m.basePath, m.chain, out, Options{}); err != nil {
				t.Fatalf("step %d compact: %v", step, err)
			}
			m.basePath, m.chain = out, nil
		case "reload":
			again := m.load(Options{Parallelism: 1, VecMode: "heap"})
			if !bytes.Equal(saved(t, again), saved(t, sys)) {
				t.Fatalf("step %d reload: the chain saves other bytes on a second load", step)
			}
		}
		sys = m.check(fmt.Sprintf("step %d %s", step, op), touched)
	}
}

// next numbers the model's files.
func (m *mergeModel) next() int {
	m.files++
	return m.files
}

// delta writes a delta of m's chain that adds add and removes remove,
// and applies it to the live tables.
func (m *mergeModel) delta(add []*table.Table, remove []string) {
	m.t.Helper()
	p, _ := writeDelta(m.t, m.dir, fmt.Sprintf("d%03d.thdb", m.next()), m.basePath, m.chain, mutation{add: add, remove: remove})
	m.chain = append(m.chain, p)
	for _, id := range remove {
		delete(m.live, id)
	}
	for _, tb := range add {
		m.live[tb.ID] = tb
	}
}

// replacement is old's schema and ID over the cells of another table
// of its template, so most of its values change.
func (m *mergeModel) replacement(rng *rand.Rand, old *table.Table) *table.Table {
	m.t.Helper()
	tpl := m.gen.TableTemplate[old.ID]
	var donors []*table.Table
	for _, tb := range m.gen.Tables {
		if tb.ID != old.ID && m.gen.TableTemplate[tb.ID] == tpl {
			donors = append(donors, tb)
		}
	}
	donor := donors[rng.Intn(len(donors))]
	cols := make([]*table.Column, len(old.Columns))
	for i, c := range old.Columns {
		cols[i] = &table.Column{Name: c.Name, Type: c.Type, Values: append([]string(nil), donor.Columns[i].Values...)}
	}
	nt, err := table.New(old.ID, old.Name, cols)
	if err != nil {
		m.t.Fatal(err)
	}
	nt.Description, nt.Tags = old.Description, old.Tags
	return nt
}

// tables returns the live tables in sorted-ID order.
func (m *mergeModel) tables() []*table.Table {
	out := make([]*table.Table, 0, len(m.live))
	for _, id := range sortedKeys(m.live) {
		out = append(out, m.live[id])
	}
	return out
}

// load loads m's base and chain.
func (m *mergeModel) load(opts Options) *System {
	m.t.Helper()
	sys, err := LoadChainFiles(m.basePath, m.chain, opts)
	if err != nil {
		m.t.Fatalf("load: %v", err)
	}
	return sys
}

// check holds the chain-loaded system and its compaction to a fresh
// build over the live tables, asking the surfaces about touched (the
// table the step added or replaced, when any) and a spread of others,
// and returns the chain-loaded system.
func (m *mergeModel) check(label string, touched *table.Table) *System {
	t := m.t
	t.Helper()
	sys := m.load(Options{})
	tables := m.tables()
	fresh := freshSystem(t, sys, tables)
	if sys.Generation() != fresh.Generation() {
		t.Fatalf("%s: generation %016x, a fresh build's %016x", label, sys.Generation(), fresh.Generation())
	}
	got, want := saved(t, sys), saved(t, fresh)
	gs, _ := snapshotSections(t, got)
	ws, _ := snapshotSections(t, want)
	for sid := uint16(1); sid <= secVecs; sid++ {
		g, w := gs[sid], ws[sid]
		switch sid {
		case secTUS, secStarmie:
			continue // grown graphs may differ from built ones
		case secVecs:
			// The blob CRC (bytes 28..31) covers the Starmie rows, which
			// follow the Starmie graph's node order.
			g, w = bytes.Clone(g), bytes.Clone(w)
			clear(g[28:32])
			clear(w[28:32])
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("%s: section %d differs from a fresh build's", label, sid)
		}
	}
	queries := []*table.Table{tables[0], tables[len(tables)/2], tables[len(tables)-1]}
	if touched != nil {
		queries = append(queries, touched)
	}
	assertSurfaceParity(t, label+"/chain", sys, fresh, m.gen, queries)
	assertContainmentExact(t, label+"/chain", sys)

	compacted, err := CompactFiles(m.basePath, m.chain, filepath.Join(m.dir, "check.snap"), Options{})
	if err != nil {
		t.Fatalf("%s: compact: %v", label, err)
	}
	if !bytes.Equal(saved(t, compacted), got) {
		t.Fatalf("%s: the compaction saves other bytes than the chain", label)
	}
	assertSurfaceParity(t, label+"/compacted", compacted, fresh, m.gen, queries)
	assertContainmentExact(t, label+"/compacted", compacted)
	return sys
}

// assertContainmentExact holds s's containment search to the exact
// scan: for every column of every table at thresholds 0.1, 0.5 and
// 0.9, at QueryParallelism 1 and 8, the same matches (keys,
// containments and overlaps) in the same order.
func assertContainmentExact(t *testing.T, label string, s *System) {
	t.Helper()
	ctx := context.Background()
	defer func(p int) { s.Join.QueryParallelism = p }(s.Join.QueryParallelism)
	for _, par := range []int{1, 8} {
		s.Join.QueryParallelism = par
		for _, tbl := range s.Catalog.Tables() {
			for _, c := range tbl.Columns {
				q := s.Join.EncodeQuery(c.Values)
				if len(q.IDs) == 0 {
					continue
				}
				for _, threshold := range []float64{0.1, 0.5, 0.9} {
					got, err := s.Join.ContainmentSearch(ctx, q, threshold)
					if err != nil {
						t.Fatal(err)
					}
					if want := s.Join.ExactContainmentScan(c.Values, threshold); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s P=%d %s.%s t=%.1f: containment search %+v, exact scan %+v", label, par, tbl.ID, c.Name, threshold, got, want)
					}
				}
			}
		}
	}
}
