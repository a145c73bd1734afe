package exp

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
)

// cell parses Rows[r][c] as a float.
func cell(t *testing.T, rep Report, r, c int) float64 {
	t.Helper()
	if r >= len(rep.Rows) || c >= len(rep.Rows[r]) {
		t.Fatalf("%s: no cell (%d,%d)", rep.ID, r, c)
	}
	v, err := strconv.ParseFloat(rep.Rows[r][c], 64)
	if err != nil {
		t.Fatalf("%s: cell (%d,%d) = %q not numeric", rep.ID, r, c, rep.Rows[r][c])
	}
	return v
}

// row finds the first row whose first cells match the given prefix.
func row(t *testing.T, rep Report, prefix ...string) int {
	t.Helper()
	for i, r := range rep.Rows {
		ok := true
		for j, p := range prefix {
			if j >= len(r) || r[j] != p {
				ok = false
				break
			}
		}
		if ok {
			return i
		}
	}
	t.Fatalf("%s: no row with prefix %v", rep.ID, prefix)
	return -1
}

func TestRegistryComplete(t *testing.T) {
	if len(Registry) != 25 {
		t.Fatalf("registry has %d experiments, want 25", len(Registry))
	}
	ids := IDs()
	if ids[0] != "e1" || ids[len(ids)-1] != "e25" {
		t.Errorf("IDs order: %v", ids)
	}
}

func TestE21Shape(t *testing.T) {
	rep := E21Valentine()
	nameFull := cell(t, rep, row(t, rep, "1.000", "name"), 2)
	instFull := cell(t, rep, row(t, rep, "1.000", "instance"), 2)
	combFull := cell(t, rep, row(t, rep, "1.000", "combined"), 2)
	if nameFull > 0.2 {
		t.Errorf("name matcher should collapse under full rename: %v", nameFull)
	}
	if instFull < 0.9 || combFull < 0.9 {
		t.Errorf("instance %v / combined %v should survive renames", instFull, combFull)
	}
	if c0 := cell(t, rep, row(t, rep, "0.000", "combined"), 2); c0 < 0.9 {
		t.Errorf("combined at zero rename = %v", c0)
	}
}

func TestE22Shape(t *testing.T) {
	rep := E22Aurum()
	within := row(t, rep, "within-chain endpoints")
	if cell(t, rep, within, 1) != cell(t, rep, within, 2) {
		t.Errorf("not all chains recovered: %v of %v",
			cell(t, rep, within, 1), cell(t, rep, within, 2))
	}
	cross := row(t, rep, "cross-chain pairs")
	if cell(t, rep, cross, 1) != 0 {
		t.Errorf("hallucinated %v cross-chain paths", cell(t, rep, cross, 1))
	}
}

func TestE19Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment")
	}
	rep := E19Learned()
	// Few segments on hash-distributed keys; at the largest size and
	// eps=64 no learned lookup makes more comparisons than binary
	// search's ⌈log₂ n⌉. The claim is asserted on counted comparisons:
	// the ns columns are reported but compare two wall-clock timings,
	// which a loaded host reorders.
	r := row(t, rep, "1000000", "64")
	if cell(t, rep, r, 2) > 1000 {
		t.Errorf("segments = %v, want few", cell(t, rep, r, 2))
	}
	logN := math.Ceil(math.Log2(1e6))
	if got := cell(t, rep, r, 5); got > logN {
		t.Errorf("a learned lookup made %v comparisons, binary search's bound is %v", got, logN)
	}
}

func TestE20Shape(t *testing.T) {
	rep := E20QueryTimeAnnotation()
	// Online cost after one query is far below batch; it approaches
	// batch as coverage grows.
	first := 0
	if cell(t, rep, first, 1) >= cell(t, rep, first, 2)/2 {
		t.Errorf("one-query online cost %v should be far below batch %v",
			cell(t, rep, first, 1), cell(t, rep, first, 2))
	}
	last := len(rep.Rows) - 1
	if cell(t, rep, last, 3) <= cell(t, rep, first, 3) {
		t.Error("annotated-table count should grow with queries")
	}
}

func TestReportString(t *testing.T) {
	rep := Report{ID: "EX", Title: "t", Header: []string{"a", "bb"},
		Rows: [][]string{{"1", "2"}}, Notes: "n"}
	s := rep.String()
	for _, want := range []string{"EX", "bb", "shape:"} {
		if !strings.Contains(s, want) {
			t.Errorf("report rendering missing %q:\n%s", want, s)
		}
	}
}

func TestE1Shape(t *testing.T) {
	rep := E1LSHEnsemble()
	if len(rep.Rows) < 4 {
		t.Fatal("too few rows")
	}
	first, last := 0, len(rep.Rows)-1
	if cell(t, rep, first, 1) < 0.9 {
		t.Errorf("1-partition recall = %v", cell(t, rep, first, 1))
	}
	if cell(t, rep, last, 2) < cell(t, rep, first, 2)*5 {
		t.Errorf("precision should improve sharply with partitions: %v -> %v",
			cell(t, rep, first, 2), cell(t, rep, last, 2))
	}
	if cell(t, rep, last, 1) < 0.6 {
		t.Errorf("recall at max partitions too low: %v", cell(t, rep, last, 1))
	}
}

func TestE3Shape(t *testing.T) {
	rep := E3TUS()
	ens := cell(t, rep, row(t, rep, "ensemble"), 1)
	set := cell(t, rep, row(t, rep, "set"), 1)
	sem := cell(t, rep, row(t, rep, "sem"), 1)
	nl := cell(t, rep, row(t, rep, "nl"), 1)
	for _, m := range []float64{set, sem, nl} {
		if ens < m-0.02 {
			t.Errorf("ensemble MAP %v below component %v", ens, m)
		}
	}
	if set > ens-0.1 {
		t.Errorf("set measure should clearly trail ensemble on disjoint instances: set=%v ens=%v", set, ens)
	}
}

func TestE4Shape(t *testing.T) {
	rep := E4Santos()
	santos := cell(t, rep, row(t, rep, "santos-synth"), 1)
	colOnly := cell(t, rep, row(t, rep, "column-only(set)"), 1)
	if santos < colOnly+0.3 {
		t.Errorf("SANTOS P@5 %v should far exceed column-only %v", santos, colOnly)
	}
	if santos < 0.9 {
		t.Errorf("SANTOS P@5 = %v", santos)
	}
}

func TestE7Shape(t *testing.T) {
	rep := E7Annotate()
	learned := cell(t, rep, row(t, rep, "learned"), 1)
	dict := cell(t, rep, row(t, rep, "dictionary"), 1)
	rules := cell(t, rep, row(t, rep, "rules"), 1)
	if learned < 0.8 {
		t.Errorf("learned accuracy = %v", learned)
	}
	if learned <= dict || learned <= rules {
		t.Errorf("learned %v must beat dictionary %v and rules %v", learned, dict, rules)
	}
}

func TestE8Shape(t *testing.T) {
	rep := E8Domain()
	d4 := cell(t, rep, row(t, rep, "d4-style"), 1)
	naive := cell(t, rep, row(t, rep, "per-column"), 1)
	if d4 < 0.95 || d4 <= naive {
		t.Errorf("d4 NMI %v should be ~1 and beat naive %v", d4, naive)
	}
}

func TestE9Shape(t *testing.T) {
	rep := E9QCR()
	for i := range rep.Rows {
		if p := cell(t, rep, i, 2); p < 0.8 {
			t.Errorf("row %d precision = %v", i, p)
		}
	}
}

func TestE10Shape(t *testing.T) {
	rep := E10Mate()
	offRow := row(t, rep, "2", "off")
	onRow := row(t, rep, "2", "xash")
	if cell(t, rep, onRow, 3) >= cell(t, rep, offRow, 3) {
		t.Error("xash should verify fewer rows")
	}
	if cell(t, rep, onRow, 4) == 0 {
		t.Error("xash pruned nothing")
	}
}

func TestE11Shape(t *testing.T) {
	rep := E11Pexeso()
	last := len(rep.Rows) - 1
	exact := cell(t, rep, last, 1)
	fuzzy := cell(t, rep, last, 2)
	if fuzzy < exact+0.3 {
		t.Errorf("at max corruption fuzzy %v should far exceed exact %v", fuzzy, exact)
	}
	if fuzzy < 0.9 {
		t.Errorf("fuzzy matched fraction = %v", fuzzy)
	}
}

func TestE12Shape(t *testing.T) {
	rep := E12Homograph()
	if p := cell(t, rep, row(t, rep, "6"), 1); p < 0.5 {
		t.Errorf("P@6 = %v", p)
	}
}

func TestE13Shape(t *testing.T) {
	rep := E13Navigation()
	for i := range rep.Rows {
		nav := cell(t, rep, i, 2)
		flat := cell(t, rep, i, 3)
		if nav >= flat {
			t.Errorf("row %d: nav cost %v >= flat %v", i, nav, flat)
		}
	}
	// Navigation advantage grows with lake size.
	firstRatio := cell(t, rep, 0, 3) / cell(t, rep, 0, 2)
	lastRatio := cell(t, rep, len(rep.Rows)-1, 3) / cell(t, rep, len(rep.Rows)-1, 2)
	if lastRatio <= firstRatio {
		t.Errorf("flat/nav ratio should grow with size: %v -> %v", firstRatio, lastRatio)
	}
}

func TestE14Shape(t *testing.T) {
	rep := E14Arda()
	base := cell(t, rep, row(t, rep, "base-only"), 1)
	arda := cell(t, rep, row(t, rep, "arda-selected"), 1)
	if arda > base*0.5 {
		t.Errorf("ARDA RMSE %v should be well below base %v", arda, base)
	}
}

func TestE15Shape(t *testing.T) {
	rep := E15Keyword()
	bm := cell(t, rep, row(t, rep, "bm25"), 1)
	bo := cell(t, rep, row(t, rep, "boolean"), 1)
	if bm <= bo {
		t.Errorf("BM25 MAP %v should beat boolean %v", bm, bo)
	}
}

func TestE17Shape(t *testing.T) {
	rep := E17KBvsLM()
	// At low coverage: KB recall < embedding recall; hybrid F1 >= both.
	kbLow := row(t, rep, "kb", "0.300")
	emLow := row(t, rep, "embeddings", "0.300")
	hyLow := row(t, rep, "hybrid", "0.300")
	if cell(t, rep, kbLow, 3) >= cell(t, rep, emLow, 3) {
		t.Error("KB recall should trail embeddings at low coverage")
	}
	if cell(t, rep, hyLow, 4) < cell(t, rep, kbLow, 4) || cell(t, rep, hyLow, 4) < cell(t, rep, emLow, 4) {
		t.Error("hybrid F1 should dominate both components")
	}
	if cell(t, rep, kbLow, 2) < 0.95 {
		t.Errorf("KB precision = %v, want near 1", cell(t, rep, kbLow, 2))
	}
}

func TestE18Shape(t *testing.T) {
	rep := E18Stitch()
	raw := cell(t, rep, row(t, rep, "raw-shards"), 2)
	st := cell(t, rep, row(t, rep, "stitched"), 2)
	if st <= raw+10 {
		t.Errorf("stitched facts %v should far exceed raw %v", st, raw)
	}
}

func TestE23Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment")
	}
	rep := E23D3L()
	valOver := cell(t, rep, row(t, rep, "overlapping", "value"), 2)
	valDis := cell(t, rep, row(t, rep, "disjoint", "value"), 2)
	combOver := cell(t, rep, row(t, rep, "overlapping", "combined"), 2)
	combDis := cell(t, rep, row(t, rep, "disjoint", "combined"), 2)
	if valDis >= valOver-0.2 {
		t.Errorf("value evidence should collapse on disjoint instances: %v -> %v", valOver, valDis)
	}
	if combOver < 0.9 || combDis < 0.9 {
		t.Errorf("combined MAP should stay high in both regimes: %v / %v", combOver, combDis)
	}
}

func TestE24Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment")
	}
	rep := E24Discover()
	if len(rep.Rows) < 6 {
		t.Fatalf("too few scenarios: %d", len(rep.Rows))
	}
	for _, r := range rep.Rows {
		// Staged result lists must match the bare engine post-filtered.
		if r[5] != "yes" {
			t.Errorf("%s: staged result differs from bare post-filtered baseline", r[0])
		}
		// Prefilters must cut exact verification work at least 5x.
		var red float64
		if _, err := fmt.Sscanf(r[4], "%fx", &red); err != nil {
			t.Fatalf("%s: bad reduction cell %q", r[0], r[4])
		}
		if red < 5 {
			t.Errorf("%s: verify-candidate reduction %.1fx < 5x", r[0], red)
		}
	}
}

func TestE25Shape(t *testing.T) {
	rep := E25Planner()
	if len(rep.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rep.Rows))
	}
	for _, r := range rep.Rows {
		if r[5] != "yes" {
			t.Errorf("%s: results diverged across planner paths", r[0])
		}
		var ratio float64
		if _, err := fmt.Sscanf(r[4], "%fx", &ratio); err != nil {
			t.Fatalf("%s: bad ratio cell %q", r[0], r[4])
		}
		switch r[0] {
		case "pushdown/all-columns":
			// Pushdown must strictly beat enumerating candidate ID sets.
			if ratio <= 1 {
				t.Errorf("%s: pushdown work ratio %.1fx, want > 1x", r[0], ratio)
			}
		default:
			// Cost ordering must cut prefilter+candidates work >= 3x.
			if ratio < 3 {
				t.Errorf("%s: cost-order work ratio %.1fx < 3x", r[0], ratio)
			}
		}
	}
}

// Heavy experiments run fully only outside -short.
func TestE2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment")
	}
	rep := E2Josie()
	// Adaptive cost <= 1.2x the better extreme at every k.
	for _, k := range []string{"1", "5", "10", "25", "50"} {
		merge := cell(t, rep, row(t, rep, k, "mergelist"), 2)
		probe := cell(t, rep, row(t, rep, k, "probeset"), 2)
		adapt := cell(t, rep, row(t, rep, k, "adaptive"), 2)
		best := merge
		if probe < best {
			best = probe
		}
		if adapt > best*1.25 {
			t.Errorf("k=%s: adaptive cost %v exceeds best strategy %v", k, adapt, best)
		}
	}
}

func TestE5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment")
	}
	rep := E5Starmie()
	ctx := cell(t, rep, row(t, rep, "contextual", "scan"), 2)
	free := cell(t, rep, row(t, rep, "context-free", "scan"), 2)
	if ctx < free-0.02 {
		t.Errorf("contextual MAP %v below context-free %v", ctx, free)
	}
	// At the largest synthetic size, HNSW beats scan latency.
	h := cell(t, rep, row(t, rep, "cols=64000", "hnsw"), 3)
	s := cell(t, rep, row(t, rep, "cols=64000", "scan"), 3)
	if h >= s {
		t.Errorf("hnsw %vms should beat scan %vms at 64k columns", h, s)
	}
}

func TestE6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment")
	}
	rep := E6HNSW()
	first := cell(t, rep, 0, 1)
	last := cell(t, rep, len(rep.Rows)-1, 1)
	if last < first {
		t.Errorf("recall should grow with efSearch: %v -> %v", first, last)
	}
	if last < 0.9 {
		t.Errorf("recall at max ef = %v", last)
	}
	// Query far cheaper than scan at max ef.
	if cell(t, rep, len(rep.Rows)-1, 2) >= cell(t, rep, len(rep.Rows)-1, 3) {
		t.Error("hnsw query not cheaper than scan")
	}
}

func TestE16Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment")
	}
	rep := E16Scalability()
	// At the largest size every index queries faster than the scan.
	for _, ix := range []string{"josie-inverted", "lsh-ensemble", "hnsw"} {
		r := row(t, rep, "16000", ix)
		if cell(t, rep, r, 3) >= cell(t, rep, r, 4) {
			t.Errorf("%s query not cheaper than scan at 16k", ix)
		}
	}
}
