package vecstore

import (
	"math"
	"sort"
	"sync/atomic"

	"tablehound/internal/parallel"
)

// BoundEps is added to every upper dot bound before comparing against
// a threshold or the current k-th score. The bounds below are exact
// in real arithmetic; in float64 each is a handful of operations over
// O(dim)-term sums, so the accumulated error is < 1e-12 for any sane
// embedding scale. 1e-9 is a conservative margin that keeps pruning
// lossless without giving up measurable selectivity.
const BoundEps = 1e-9

// Centroids is a coarse quantizer over one segment: k centers, the
// rows assigned to each, and per-cluster bounds (max member norm²,
// max member distance to center) that let a search discard a whole
// cluster when its best possible dot product is provably too small.
type Centroids struct {
	k         int
	dim       int
	cents     []float32 // k*dim
	centNorm2 []float64 // ||c_j||², derived
	radius    []float64 // max_j member distance to centroid j
	maxNorm2  []float64 // max_j member norm²
	assign    []int32   // row -> cluster
	members   [][]int32 // cluster -> rows, ascending
}

// K returns the number of clusters.
func (c *Centroids) K() int { return c.k }

// AssignOf returns the cluster row i belongs to.
func (c *Centroids) AssignOf(i int) int32 { return c.assign[i] }

// Members returns the rows of cluster j, ascending. Read-only.
func (c *Centroids) Members(j int) []int32 { return c.members[j] }

func (c *Centroids) footprint() int64 {
	return int64(len(c.cents))*4 +
		int64(len(c.centNorm2)+len(c.radius)+len(c.maxNorm2))*8 +
		int64(len(c.assign))*4 + int64(c.k)*24 // member slice headers
}

// splitmix64 is the deterministic RNG behind k-means seeding: tiny,
// well-distributed, and identical on every platform.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (s *splitmix64) float() float64 {
	return float64(s.next()>>11) / (1 << 53)
}

// HashStrings is the generation hash used to seed k-means: FNV-1a 64
// over the given strings in order, NUL-separated. Builds over the
// same key set always train the same centroids.
func HashStrings(ss []string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, s := range ss {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime64
		}
		h ^= 0
		h *= prime64
	}
	return h
}

const kmeansMaxIters = 12

// trainChunk is the row-chunk size of Train's fan-out: large enough
// that a chunk of the cheapest pass (one distance per row) outweighs
// the hand-off, small enough that a few thousand rows still spread
// over every worker.
const trainChunk = 256

// forRows runs fn over [0, n) in trainChunk-sized row ranges on up to
// workers goroutines. Callers write only per-row state inside fn, so
// the result is the same at every worker count.
func forRows(n, workers int, fn func(lo, hi int)) {
	chunks := (n + trainChunk - 1) / trainChunk
	_ = parallel.ForEach(chunks, workers, func(c int) error { // fn cannot fail
		lo := c * trainChunk
		fn(lo, min(lo+trainChunk, n))
		return nil
	})
}

// trainMargin is the slack, on distances, that a Lloyd pass demands
// between a row's upper bound and its lower bounds before it trusts
// them instead of scanning: the row keeps centre a without a scan only
// when
//
//	upper + trainMargin < max(lower, half the distance from a to its nearest centre)
//
// The bounds are exact in real arithmetic; the scan they replace is
// not. It compares computed values D̂ = fl(‖v‖² + ‖c‖² − 2 v·c), three
// dim-term float64 sums that cancel, so with ε = 2⁻⁵³
//
//	|D̂ − d²| ≤ (dim+3) ε (‖v‖+‖c‖)² ≤ 4 (dim+3) ε S²,   S = max ‖row‖
//
// (centres are rows or means of rows, so ‖c‖ ≤ S; the clamp at 0 only
// moves D̂ toward d² ≥ 0). Take E = 8 (dim+3) ε S² — twice that, which
// covers the second-order terms and a mean's norm rounding past S.
// Then (1) upper and lower each start as a √D̂, within √E of the true
// distance (√(a±b) is within √b of √a), and move only by triangle
// steps that are exact in real arithmetic, and (2) the scan is certain
// to prefer a over j — D̂_a < D̂_j strictly, so whatever the tie-break
// — once the true distances differ by √(2E): d_j² − d_a² ≥ (d_j − d_a)²
// > 2E. Against lower the bounds must therefore clear (2+√2) √E.
// Against the half distance s, d_j ≥ 2s − d_a by the triangle
// inequality, so d_a + √(E/2) < s suffices: (1+1/√2) √E on upper. The
// margin is 4 √E for both, and the spare 0.58 √E ≈ 10⁻⁷ S dwarfs what
// the bookkeeping rounds away (≤ 12 passes of an add, of a centre
// shift and of a centre-to-centre distance, both sums of squares known
// to a relative (dim+3) ε: ~10⁻¹³ S). The error is in d², so on
// distances it is a square root — ~10⁻⁶ S at dim 64, where BoundEps'
// 10⁻⁹ would be three orders too tight. Exact ties (duplicate centres,
// all rows identical) have lower ≤ upper and s = 0, and always scan.
func trainMargin(dim int, maxNorm2 float64) float64 {
	return 4 * math.Sqrt(float64(dim+3)*0x1p-50*maxNorm2)
}

// Train runs deterministic k-means (k-means++ seeding from a
// splitmix64 stream, Lloyd iterations with smallest-index
// tie-breaking, float64 accumulation in row order) over rows
// at(0)..at(n-1) of dimension dim. The same inputs always produce
// the same table, bit for bit, at every worker count: the per-row
// passes (norms, the seeding distance refresh, assignment) fan out
// over row chunks on up to workers goroutines and write per-row state
// only, while every sum runs sequentially in row order. workers <= 1
// keeps everything on the calling goroutine; otherwise at must be safe
// for concurrent calls.
func Train(at func(int) []float32, n, dim, k int, seed uint64, workers int) *Centroids {
	c, _ := train(at, n, dim, k, seed, workers)
	return c
}

// train is Train, also reporting how many rows ran the all-centres
// scan in each Lloyd pass after the first (which scans none).
func train(at func(int) []float32, n, dim, k int, seed uint64, workers int) (*Centroids, []int) {
	if k > n {
		k = n
	}
	if k < 1 {
		k = 1
	}
	rng := splitmix64(seed)

	norm2 := make([]float64, n)
	forRows(n, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			norm2[i] = dot(at(i), at(i))
		}
	})

	// k-means++ seeding: first center uniform, each next center drawn
	// proportionally to squared distance from the chosen set. Beside
	// each row's squared distance to its nearest seed (d2) the refresh
	// keeps which seed that is (smallest index on ties) and the squared
	// distance to the runner-up: the first Lloyd pass would compute
	// these same distances to these same centres again, so it reads its
	// assignment off them instead.
	cents := make([]float64, k*dim) // f64 during training
	centN2 := make([]float64, k)
	pick := func(j, row int) {
		v := at(row)
		for d := 0; d < dim; d++ {
			cents[j*dim+d] = float64(v[d])
		}
		centN2[j] = norm2[row]
	}
	pick(0, int(rng.next()%uint64(n)))
	assign := make([]int32, n)
	d2 := make([]float64, n)
	second2 := make([]float64, n)
	forRows(n, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			d2[i] = distSq(at(i), norm2[i], cents[:dim], centN2[0])
			second2[i] = math.Inf(1)
		}
	})
	for j := 1; j < k; j++ {
		var sum float64
		for _, d := range d2 {
			sum += d
		}
		row := 0
		if sum > 0 {
			r := rng.float() * sum
			acc := 0.0
			for i := 0; i < n; i++ {
				acc += d2[i]
				if acc > r {
					row = i
					break
				}
			}
		} else {
			// All points coincide with chosen centers; any row works.
			row = int(rng.next() % uint64(n))
		}
		pick(j, row)
		cj := cents[j*dim : (j+1)*dim]
		forRows(n, workers, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if d := distSq(at(i), norm2[i], cj, centN2[j]); d < d2[i] {
					assign[i], d2[i], second2[i] = int32(j), d, d2[i]
				} else if d < second2[i] {
					second2[i] = d
				}
			}
		})
	}

	// Lloyd iterations, at most kmeansMaxIters of them: recompute
	// centers as float64 means in row order, then assign to nearest
	// center (smallest index on ties) — the seeding made the first
	// assignment, and the last iteration ends on its update. Each row
	// carries Hamerly's two bounds — upper on the distance to its own
	// centre, lower on the distance to every other — shifted by how far
	// the centres moved. A row whose upper bound clears trainMargin
	// below its lower bound, or below half the distance from its centre
	// to the nearest other centre, keeps its centre without computing a
	// distance; one that does not first tightens upper with its own
	// centre's exact distance, and only then runs the full scan.
	upper, lower := d2, second2 // distances from here on, not squares
	var maxNorm2 float64
	for i, n2 := range norm2 {
		maxNorm2 = max(maxNorm2, n2)
		upper[i], lower[i] = math.Sqrt(upper[i]), math.Sqrt(lower[i])
	}
	margin := trainMargin(dim, maxNorm2)
	moved := make([]float64, k) // how far the last update shifted each centre
	half := make([]float64, k)  // half the distance to the nearest other centre
	sums := make([]float64, k*dim)
	counts := make([]int, k)
	var scanned []int
	for iter := 1; ; iter++ {
		for i := range sums {
			sums[i] = 0
		}
		for j := range counts {
			counts[j] = 0
		}
		for i := 0; i < n; i++ {
			j := int(assign[i])
			v := at(i)
			for d := 0; d < dim; d++ {
				sums[j*dim+d] += float64(v[d])
			}
			counts[j]++
		}
		for j := 0; j < k; j++ {
			moved[j] = 0
			if counts[j] == 0 {
				continue // empty cluster keeps its previous center
			}
			inv := 1 / float64(counts[j])
			var n2, shift2 float64
			for d := 0; d < dim; d++ {
				m := sums[j*dim+d] * inv
				shift := m - cents[j*dim+d]
				shift2 += shift * shift
				cents[j*dim+d] = m
				n2 += m * m
			}
			centN2[j] = n2
			moved[j] = math.Sqrt(shift2)
		}
		if iter == kmeansMaxIters {
			break
		}

		// A row's lower bound falls by the largest shift among the
		// centres it is not assigned to: the largest overall, or the
		// runner-up for rows of the centre that moved most.
		most, mostJ, next := 0.0, -1, 0.0
		for j, m := range moved {
			if m > most {
				most, mostJ, next = m, j, most
			} else if m > next {
				next = m
			}
		}
		halfNearest(half, cents, dim)
		var changed atomic.Bool
		var nscan atomic.Int64
		forRows(n, workers, func(lo, hi int) {
			chg, scans := false, 0
			for i := lo; i < hi; i++ {
				v, a := at(i), int(assign[i])
				u, l := upper[i]+moved[a], lower[i]-most
				if a == mostJ {
					l = lower[i] - next
				}
				bound := max(l, half[a])
				if !(u+margin < bound) {
					u = math.Sqrt(distSq(v, norm2[i], cents[a*dim:(a+1)*dim], centN2[a]))
				}
				if u+margin < bound {
					upper[i], lower[i] = u, l
					continue
				}
				scans++
				best, bestD, secondD := int32(0), math.Inf(1), math.Inf(1)
				for j := 0; j < k; j++ {
					d := distSq(v, norm2[i], cents[j*dim:(j+1)*dim], centN2[j])
					if d < bestD {
						best, bestD, secondD = int32(j), d, bestD
					} else if d < secondD {
						secondD = d
					}
				}
				upper[i], lower[i] = math.Sqrt(bestD), math.Sqrt(secondD)
				if assign[i] != best {
					assign[i] = best
					chg = true
				}
			}
			if chg {
				changed.Store(true)
			}
			nscan.Add(int64(scans))
		})
		scanned = append(scanned, int(nscan.Load()))
		if !changed.Load() {
			break
		}
	}

	c := &Centroids{
		k:         k,
		dim:       dim,
		cents:     make([]float32, k*dim),
		assign:    assign,
		members:   make([][]int32, k),
		radius:    make([]float64, k),
		maxNorm2:  make([]float64, k),
		centNorm2: make([]float64, k),
	}
	for i, v := range cents {
		c.cents[i] = float32(v)
	}
	c.finish(at, norm2)
	return c, scanned
}

// halfNearest fills half[a] with half the distance from centre a to
// the nearest other centre (+Inf for a lone centre): a row closer to a
// than that cannot be closer to anything else.
func halfNearest(half, cents []float64, dim int) {
	for a := range half {
		half[a] = math.Inf(1)
	}
	for a := range half {
		ca := cents[a*dim : (a+1)*dim]
		for j := a + 1; j < len(half); j++ {
			var d2 float64
			for d, x := range cents[j*dim : (j+1)*dim] {
				d2 += (x - ca[d]) * (x - ca[d])
			}
			h := math.Sqrt(d2) / 2
			half[a] = min(half[a], h)
			half[j] = min(half[j], h)
		}
	}
}

// finish derives members, centNorm2, radius, and maxNorm2 from the
// float32 centroids and assignments — the same derivation snapshot
// decode performs, so a loaded table equals a trained one.
func (c *Centroids) finish(at func(int) []float32, norm2 []float64) {
	for j := 0; j < c.k; j++ {
		c.centNorm2[j] = dot(c.cent(j), c.cent(j))
	}
	for i, j := range c.assign {
		c.members[j] = append(c.members[j], int32(i))
	}
	for j := 0; j < c.k; j++ {
		cj := f64View(c.cent(j))
		for _, row := range c.members[j] {
			n2 := norm2[row]
			d := distSq(at(int(row)), n2, cj, c.centNorm2[j])
			if r := math.Sqrt(d); r > c.radius[j] {
				c.radius[j] = r
			}
			if n2 > c.maxNorm2[j] {
				c.maxNorm2[j] = n2
			}
		}
	}
}

func (c *Centroids) cent(j int) []float32 { return c.cents[j*c.dim : (j+1)*c.dim] }

// distSq returns ||v - c||² = ||v||² + ||c||² - 2 v·c, clamped at 0.
func distSq(v []float32, vN2 float64, cent []float64, cN2 float64) float64 {
	var dp float64
	for i := range v {
		dp += float64(v[i]) * cent[i]
	}
	d := vN2 + cN2 - 2*dp
	if d < 0 {
		return 0
	}
	return d
}

// f64View adapts a float32 centroid row for distSq.
func f64View(c []float32) []float64 {
	out := make([]float64, len(c))
	for i, v := range c {
		out[i] = float64(v)
	}
	return out
}

// queryBounds computes, for a query q, the cluster visit order
// (ascending distance from q to each centroid, index-ascending on
// ties) and each cluster's upper dot-product bound:
//
//	d(q, x) >= max(0, d(q, c_j) - radius_j)       (triangle inequality)
//	q·x      = (||q||² + ||x||² - d(q,x)²) / 2
//	        <= (||q||² + maxNorm2_j - minD_j²) / 2
func (c *Centroids) queryBounds(q []float32) (order []int32, maxDot []float64) {
	qn2 := dot(q, q)
	dist := make([]float64, c.k)
	maxDot = make([]float64, c.k)
	for j := 0; j < c.k; j++ {
		var dp float64
		cj := c.cent(j)
		for i := range q {
			dp += float64(q[i]) * float64(cj[i])
		}
		d2 := qn2 + c.centNorm2[j] - 2*dp
		if d2 < 0 {
			d2 = 0
		}
		d := math.Sqrt(d2)
		dist[j] = d
		minD := d - c.radius[j]
		if minD < 0 {
			minD = 0
		}
		maxDot[j] = (qn2 + c.maxNorm2[j] - minD*minD) / 2
	}
	order = make([]int32, c.k)
	for j := range order {
		order[j] = int32(j)
	}
	sort.Slice(order, func(a, b int) bool {
		ja, jb := order[a], order[b]
		if dist[ja] != dist[jb] {
			return dist[ja] < dist[jb]
		}
		return ja < jb
	})
	return order, maxDot
}

// MaxDots fills out (len >= K) with each cluster's upper bound on
// q·x over members x, for callers that do their own thresholding
// (PEXESO's tau cut). Returns out[:K].
func (c *Centroids) MaxDots(q []float32, out []float64) []float64 {
	_, maxDot := c.queryBounds(q)
	if out == nil || cap(out) < c.k {
		return maxDot
	}
	out = out[:c.k]
	copy(out, maxDot)
	return out
}
