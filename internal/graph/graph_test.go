package graph

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func TestMatchingSimple(t *testing.T) {
	// Optimal: 0->1 (9), 1->0 (8) = 17 beats greedy 0->0(7)+1->1(6)=13
	// and 0->1(9)+1->1(6) which is infeasible.
	w := [][]float64{
		{7, 9},
		{8, 6},
	}
	match, total := maxWeightBipartiteMatching(w)
	if total != 17 {
		t.Fatalf("total = %v, want 17", total)
	}
	if match[0] != 1 || match[1] != 0 {
		t.Errorf("match = %v", match)
	}
}

func TestMatchingRectangular(t *testing.T) {
	// More left nodes than right: one left node stays unmatched.
	w := [][]float64{
		{5},
		{9},
		{1},
	}
	match, total := maxWeightBipartiteMatching(w)
	if total != 9 {
		t.Fatalf("total = %v, want 9", total)
	}
	matched := 0
	for i, m := range match {
		if m == 0 {
			matched++
			if i != 1 {
				t.Errorf("wrong left node matched: %v", match)
			}
		}
	}
	if matched != 1 {
		t.Errorf("matched count = %d", matched)
	}
}

func TestMatchingEmpty(t *testing.T) {
	if m, total := maxWeightBipartiteMatching(nil); m != nil || total != 0 {
		t.Error("nil input should yield nil, 0")
	}
	m, total := maxWeightBipartiteMatching([][]float64{{}, {}})
	if total != 0 || m[0] != -1 || m[1] != -1 {
		t.Errorf("empty rows: match=%v total=%v", m, total)
	}
}

// bruteMatch enumerates all assignments for small instances.
func bruteMatch(w [][]float64) float64 {
	nl := len(w)
	nr := 0
	for _, r := range w {
		if len(r) > nr {
			nr = len(r)
		}
	}
	used := make([]bool, nr)
	var rec func(i int) float64
	rec = func(i int) float64 {
		if i == nl {
			return 0
		}
		best := rec(i + 1) // leave i unmatched
		for j := 0; j < len(w[i]); j++ {
			if !used[j] {
				used[j] = true
				if v := w[i][j] + rec(i+1); v > best {
					best = v
				}
				used[j] = false
			}
		}
		return best
	}
	return rec(0)
}

func TestMatchingAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		nl := 1 + rng.Intn(5)
		nr := 1 + rng.Intn(5)
		w := make([][]float64, nl)
		for i := range w {
			w[i] = make([]float64, nr)
			for j := range w[i] {
				w[i][j] = math.Floor(rng.Float64()*100) / 10
			}
		}
		_, got := maxWeightBipartiteMatching(w)
		want := bruteMatch(w)
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("trial %d: got %v, want %v for %v", trial, got, want, w)
		}
	}
}

func TestMatchingValidAssignment(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	w := make([][]float64, 8)
	for i := range w {
		w[i] = make([]float64, 8)
		for j := range w[i] {
			w[i][j] = rng.Float64()
		}
	}
	match, total := maxWeightBipartiteMatching(w)
	seen := map[int]bool{}
	sum := 0.0
	for i, j := range match {
		if j < 0 {
			continue
		}
		if seen[j] {
			t.Fatal("right node matched twice")
		}
		seen[j] = true
		sum += w[i][j]
	}
	if math.Abs(sum-total) > 1e-9 {
		t.Errorf("reported total %v != assignment sum %v", total, sum)
	}
}

// path builds a path graph 0-1-2-...-n-1.
func path(n int) Adjacency {
	adj := make(Adjacency, n)
	for i := 0; i < n-1; i++ {
		adj[i] = append(adj[i], int32(i+1))
		adj[i+1] = append(adj[i+1], int32(i))
	}
	return adj
}

func TestBetweennessPath(t *testing.T) {
	// Path 0-1-2: node 1 lies on the single 0..2 path => bc = 1.
	bc := BetweennessCentrality(path(3))
	if bc[0] != 0 || bc[2] != 0 || bc[1] != 1 {
		t.Errorf("bc = %v", bc)
	}
}

func TestBetweennessStar(t *testing.T) {
	// Star with center 0 and 4 leaves: center bc = C(4,2) = 6.
	adj := make(Adjacency, 5)
	for i := 1; i <= 4; i++ {
		adj[0] = append(adj[0], int32(i))
		adj[i] = append(adj[i], 0)
	}
	bc := BetweennessCentrality(adj)
	if bc[0] != 6 {
		t.Errorf("center bc = %v, want 6", bc[0])
	}
	for i := 1; i <= 4; i++ {
		if bc[i] != 0 {
			t.Errorf("leaf %d bc = %v", i, bc[i])
		}
	}
}

func TestBetweennessBridge(t *testing.T) {
	// Two triangles joined by a bridge node: the bridge scores highest.
	// 0-1-2 triangle, 5-6-7 triangle, bridge 2-4-5... node 4 connects.
	adj := make(Adjacency, 8)
	edge := func(a, b int32) {
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	}
	edge(0, 1)
	edge(1, 2)
	edge(0, 2)
	edge(5, 6)
	edge(6, 7)
	edge(5, 7)
	edge(2, 4)
	edge(4, 5)
	bc := BetweennessCentrality(adj)
	for i, v := range bc {
		if i != 4 && v >= bc[4] {
			t.Errorf("node %d bc %v >= bridge bc %v", i, v, bc[4])
		}
	}
}

func TestConnectedComponents(t *testing.T) {
	adj := make(Adjacency, 5)
	adj[0] = []int32{1}
	adj[1] = []int32{0}
	adj[3] = []int32{4}
	adj[4] = []int32{3}
	comp, n := ConnectedComponents(adj)
	if n != 3 {
		t.Fatalf("components = %d, want 3", n)
	}
	if comp[0] != comp[1] || comp[3] != comp[4] || comp[0] == comp[2] || comp[2] == comp[3] {
		t.Errorf("labels = %v", comp)
	}
	ds := Degrees(adj)
	if ds[0] != 1 || ds[2] != 0 {
		t.Errorf("Degrees = %v", ds)
	}
}

// maxWeightBipartiteMatching runs a Matcher over a weight matrix given
// as rows w[i][j] >= 0 and returns match[i] = j (or -1 if i is
// unmatched) and the total weight. Short rows are padded with zero
// weights, which cost exactly what a dummy cell costs; a row assigned
// to its own padding is unmatched.
func maxWeightBipartiteMatching(w [][]float64) ([]int, float64) {
	nl := len(w)
	if nl == 0 {
		return nil, 0
	}
	nr := 0
	for _, row := range w {
		if len(row) > nr {
			nr = len(row)
		}
	}
	match := make([]int, nl)
	for i := range match {
		match[i] = -1
	}
	if nr == 0 {
		return match, 0
	}
	flat := make([]float64, nl*nr)
	for i, row := range w {
		copy(flat[i*nr:], row)
	}
	var m Matcher
	m.solve(flat, nl, nr)
	total := 0.0
	for j := 1; j <= nr; j++ {
		if i := m.p[j] - 1; i < nl && j-1 < len(w[i]) {
			match[i] = j - 1
			total += w[i][j-1]
		}
	}
	return match, total
}

// referenceMatching is the Hungarian algorithm as it stood before the
// Matcher took it over, allocating its scratch per call and per row.
// Matcher and maxWeightBipartiteMatching must agree with it to the last
// bit: table-level union scores are sums it produces.
func referenceMatching(w [][]float64) ([]int, float64) {
	nl := len(w)
	if nl == 0 {
		return nil, 0
	}
	nr := 0
	for _, row := range w {
		if len(row) > nr {
			nr = len(row)
		}
	}
	if nr == 0 {
		out := make([]int, nl)
		for i := range out {
			out[i] = -1
		}
		return out, 0
	}
	// Square cost matrix: n = max(nl, nr), cost = maxW - weight so
	// minimizing cost maximizes weight; dummy cells cost maxW.
	n := nl
	if nr > n {
		n = nr
	}
	maxW := 0.0
	for _, row := range w {
		for _, v := range row {
			if v > maxW {
				maxW = v
			}
		}
	}
	cost := func(i, j int) float64 {
		if i < nl && j < len(w[i]) {
			return maxW - w[i][j]
		}
		return maxW
	}
	// Hungarian algorithm (Jonker-Volgenant style with potentials),
	// 1-indexed internal arrays per the classic formulation.
	u := make([]float64, n+1)
	v := make([]float64, n+1)
	p := make([]int, n+1) // p[j] = row matched to column j
	way := make([]int, n+1)
	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		minv := make([]float64, n+1)
		used := make([]bool, n+1)
		for j := 0; j <= n; j++ {
			minv[j] = math.Inf(1)
		}
		for {
			used[j0] = true
			i0 := p[j0]
			delta := math.Inf(1)
			j1 := 0
			for j := 1; j <= n; j++ {
				if used[j] {
					continue
				}
				cur := cost(i0-1, j-1) - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= n; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}
	match := make([]int, nl)
	for i := range match {
		match[i] = -1
	}
	total := 0.0
	for j := 1; j <= n; j++ {
		i := p[j] - 1
		if i >= 0 && i < nl && j-1 < len(w[i]) {
			match[i] = j - 1
			total += w[i][j-1]
		}
	}
	return match, total
}

func TestMatcherMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var m Matcher // reused across shapes: stale scratch must not leak
	for trial := 0; trial < 300; trial++ {
		nl, nr := 1+rng.Intn(7), 1+rng.Intn(7)
		w := make([][]float64, nl)
		flat := make([]float64, 0, nl*nr)
		for i := range w {
			w[i] = make([]float64, nr)
			for j := range w[i] {
				if rng.Intn(4) > 0 {
					w[i][j] = rng.Float64()
				}
			}
			flat = append(flat, w[i]...)
		}
		wantMatch, want := referenceMatching(w)
		if got := m.MaxWeight(flat, nl, nr); got != want {
			t.Fatalf("trial %d: Matcher total %v, reference %v for %v", trial, got, want, w)
		}
		// Ragged rows go through the slice-of-rows entry point only.
		w[rng.Intn(nl)] = w[0][:rng.Intn(nr+1)]
		wantMatch, want = referenceMatching(w)
		gotMatch, got := maxWeightBipartiteMatching(w)
		if got != want || !reflect.DeepEqual(gotMatch, wantMatch) {
			t.Fatalf("trial %d: got %v %v, reference %v %v for %v", trial, gotMatch, got, wantMatch, want, w)
		}
	}
	if m.MaxWeight(nil, 0, 3) != 0 || m.MaxWeight(nil, 3, 0) != 0 {
		t.Error("an empty side should match nothing")
	}
}
