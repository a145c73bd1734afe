package vecstore

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// trainReference is the k-means kernel Train replaced, kept verbatim
// as the oracle: every pass scans all k centres for every row on the
// calling goroutine.
func trainReference(at func(int) []float32, n, dim, k int, seed uint64) *Centroids {
	if k > n {
		k = n
	}
	if k < 1 {
		k = 1
	}
	rng := splitmix64(seed)

	norm2 := make([]float64, n)
	for i := 0; i < n; i++ {
		norm2[i] = dot(at(i), at(i))
	}

	cents := make([]float64, k*dim)
	centN2 := make([]float64, k)
	pick := func(j, row int) {
		v := at(row)
		for d := 0; d < dim; d++ {
			cents[j*dim+d] = float64(v[d])
		}
		centN2[j] = norm2[row]
	}
	pick(0, int(rng.next()%uint64(n)))
	d2 := make([]float64, n)
	for i := 0; i < n; i++ {
		d2[i] = distSq(at(i), norm2[i], cents[:dim], centN2[0])
	}
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
			row = int(rng.next() % uint64(n))
		}
		pick(j, row)
		cj := cents[j*dim : (j+1)*dim]
		for i := 0; i < n; i++ {
			if d := distSq(at(i), norm2[i], cj, centN2[j]); d < d2[i] {
				d2[i] = d
			}
		}
	}

	assign := make([]int32, n)
	sums := make([]float64, k*dim)
	counts := make([]int, k)
	for iter := 0; iter < kmeansMaxIters; iter++ {
		changed := false
		for i := 0; i < n; i++ {
			v := at(i)
			best, bestD := int32(0), math.Inf(1)
			for j := 0; j < k; j++ {
				if d := distSq(v, norm2[i], cents[j*dim:(j+1)*dim], centN2[j]); d < bestD {
					best, bestD = int32(j), d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if iter > 0 && !changed {
			break
		}
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
			if counts[j] == 0 {
				continue
			}
			inv := 1 / float64(counts[j])
			var n2 float64
			for d := 0; d < dim; d++ {
				m := sums[j*dim+d] * inv
				cents[j*dim+d] = m
				n2 += m * m
			}
			centN2[j] = n2
		}
	}

	c := &Centroids{
		k:         k,
		dim:       dim,
		cents:     make([]float32, k*dim),
		assign:    assign,
		radius:    make([]float64, k),
		maxNorm2:  make([]float64, k),
		centNorm2: make([]float64, k),
	}
	for i, v := range cents {
		c.cents[i] = float32(v)
	}
	c.finish(at, norm2)
	return c
}

// trainRows generates one of the row shapes the kernel must survive:
// clustered (where the bounds decide most rows), unclustered (where
// they decide few), 60 % exact duplicates (distances that tie to the
// bit), all-identical rows (every centre coincides, every distance is
// 0, every assignment is a tie the smallest index must win), and near
// ties (rows within a few float32 ulps of the midpoint between two of
// a handful of anchors, so distance gaps sit at the rounding noise the
// bound margin has to cover).
func trainRows(shape string, n, dim int, rng *rand.Rand) [][]float32 {
	switch shape {
	case "clustered":
		return synthVecs(n, dim, 1+rng.Intn(12), rng.Int63())
	case "near-ties":
		anchors := trainRows("unclustered", 6, dim, rng)
		out := make([][]float32, n)
		for i := range out {
			a, b := anchors[rng.Intn(6)], anchors[rng.Intn(6)]
			off := []float32{0, 1e-7, -1e-7, 1e-5, -1e-5, 0.5}[rng.Intn(6)]
			v := make([]float32, dim)
			for d := range v {
				v[d] = (0.5+off)*a[d] + (0.5-off)*b[d]
			}
			out[i] = v
		}
		return out
	case "identical":
		v := make([]float32, dim)
		for d := range v {
			v[d] = float32(rng.NormFloat64())
		}
		out := make([][]float32, n)
		for i := range out {
			out[i] = v
		}
		return out
	}
	out := make([][]float32, n)
	for i := range out {
		if shape == "duplicates" && i > 0 && rng.Float64() < 0.6 {
			out[i] = out[rng.Intn(i)]
			continue
		}
		v := make([]float32, dim)
		for d := range v {
			v[d] = float32(rng.NormFloat64())
		}
		out[i] = v
	}
	return out
}

// TestTrainMatchesReference pins the rewritten kernel to the one it
// replaced, bit for bit, over random shapes: bound-pruned or not, on
// one worker or several, the centroids, assignments and per-cluster
// bounds — everything a snapshot stores or a pruned search reads — are
// those the all-centres scan produces.
func TestTrainMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20260421))
	shapes := []string{"clustered", "unclustered", "duplicates", "identical", "near-ties"}
	dims := []int{4, 16, 64}
	cases := 0
	for _, shape := range shapes {
		for _, dim := range dims {
			for rep := 0; rep < 6; rep++ {
				n := 1 + rng.Intn(900)
				// k from 1 through past n; the last two reps force the ends.
				k := 1 + rng.Intn(40)
				switch rep {
				case 4:
					k = 1
				case 5:
					k = n + 1 + rng.Intn(5)
				}
				seed := rng.Uint64()
				vecs := trainRows(shape, n, dim, rng)
				at := func(i int) []float32 { return vecs[i] }
				want := trainReference(at, n, dim, k, seed)
				for _, workers := range []int{1, 2, 5} {
					name := fmt.Sprintf("%s/dim%d/n%d/k%d/w%d", shape, dim, n, k, workers)
					got := Train(at, n, dim, k, seed, workers)
					if got.k != want.k {
						t.Fatalf("%s: k = %d, want %d", name, got.k, want.k)
					}
					for i := range want.cents {
						if math.Float32bits(got.cents[i]) != math.Float32bits(want.cents[i]) {
							t.Fatalf("%s: cents[%d] = %x, want %x", name, i,
								math.Float32bits(got.cents[i]), math.Float32bits(want.cents[i]))
						}
					}
					if !reflect.DeepEqual(got.assign, want.assign) {
						t.Fatalf("%s: assignments differ", name)
					}
					if !reflect.DeepEqual(got.radius, want.radius) {
						t.Fatalf("%s: radii differ", name)
					}
					if !reflect.DeepEqual(got.maxNorm2, want.maxNorm2) {
						t.Fatalf("%s: maxNorm2 differs", name)
					}
				}
				cases++
			}
		}
	}
	if cases < 60 {
		t.Fatalf("only %d shapes compared, want >= 60", cases)
	}
}

// TestTrainBoundsDecideRows guards the other half of the rewrite: an
// oracle test passes just as well if the bounds never decide anything.
// On rows with as many clusters as centres, fewer than half the rows of
// the passes after the first may need the all-centres scan.
func TestTrainBoundsDecideRows(t *testing.T) {
	vecs := synthVecs(4000, 32, 40, 5)
	_, scanned := train(func(i int) []float32 { return vecs[i] }, len(vecs), 32, 40, 9, 2)
	if len(scanned) < 3 {
		t.Fatalf("converged after %d bounded passes; the fixture no longer exercises the bounds", len(scanned))
	}
	var total int
	for _, s := range scanned {
		total += s
	}
	if rows := len(vecs) * len(scanned); total*2 > rows {
		t.Errorf("%d of %d row-passes ran the full scan, want under half (per pass: %v)", total, rows, scanned)
	}
}

// BenchmarkTrain times one k-means over the shape core trains most
// often — PEXESO's shared value vectors on a 300-table lake: 14k rows
// of dimension 64, k = √n = 118 — on clustered rows, beside the kernel
// it replaced. scans/row-pass is the share of rows that ran the
// all-centres scan, over the Lloyd passes after the first.
func BenchmarkTrain(b *testing.B) {
	const n, dim, k = 14_000, 64, 118
	vecs := synthVecs(n, dim, k, 3)
	at := func(i int) []float32 { return vecs[i] }
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			trainReference(at, n, dim, k, 17)
		}
	})
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			var scanned []int
			for i := 0; i < b.N; i++ {
				_, scanned = train(at, n, dim, k, 17, workers)
			}
			total := 0
			for _, s := range scanned {
				total += s
			}
			b.ReportMetric(float64(total)/float64(n*len(scanned)), "scans/row-pass")
		})
	}
}
