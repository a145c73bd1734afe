package embedding

import (
	"encoding/binary"
	"math"
	"testing"
)

// sameDot reports whether two dot products are the same float64, bit
// for bit; any two NaNs match, since no payload is promised.
func sameDot(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// checkDot4 fails t unless Dot4 and DotMany over q and vs[:4] give
// exactly q.Dot(vs[i]) for every i.
func checkDot4(t *testing.T, q Vector, vs []Vector) {
	t.Helper()
	var got [4]float64
	got[0], got[1], got[2], got[3] = Dot4(q, vs[0], vs[1], vs[2], vs[3])
	many := make([]float64, len(vs))
	DotMany(q, vs, many)
	for i, v := range vs {
		want := q.Dot(v)
		if i < 4 && !sameDot(got[i], want) {
			t.Fatalf("dim %d: Dot4 term %d = %x, Dot = %x", len(q), i, math.Float64bits(got[i]), math.Float64bits(want))
		}
		if !sameDot(many[i], want) {
			t.Fatalf("dim %d: DotMany[%d] of %d = %x, Dot = %x", len(q), i, len(vs), math.Float64bits(many[i]), math.Float64bits(want))
		}
	}
}

// TestDot4MatchesDot: Dot4 and DotMany equal Dot bit for bit, at
// dimensions around the four-wide step, on vectors mixing signed zeros,
// subnormals, large magnitudes and ordinary values, with DotMany's
// remainder of one to three vectors exercised too.
func TestDot4MatchesDot(t *testing.T) {
	special := []float32{
		0, float32(math.Copysign(0, -1)),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 3e-39, -1e-40,
		math.MaxFloat32, -math.MaxFloat32, 1e30, -3e37,
		1, -1, 0.1, 1.0 / 3,
	}
	seed := uint64(1)
	for _, dim := range []int{0, 1, 3, 4, 5, 63, 64, 65, 300} {
		vs := benchVecs(7, dim, seed)
		q := benchVecs(1, dim, seed+100)[0]
		seed++
		// Sprinkle the special values over every vector at positions
		// that differ per vector, so special meets ordinary and special.
		for k, v := range append(vs, q) {
			for j := k; j < dim; j += 3 {
				v[j] = special[(j*7+k)%len(special)]
			}
		}
		for n := 4; n <= len(vs); n++ {
			checkDot4(t, q, vs[:n])
		}
		// A query of only signed zeros against a vector of only
		// negative zeros: every product is -0 and the sum stays +0.
		z := Zero(dim)
		nz := Zero(dim)
		for j := range nz {
			nz[j] = float32(math.Copysign(0, -1))
		}
		checkDot4(t, nz, []Vector{z, nz, vs[0], nz})
	}
}

// FuzzDot4 splits its input into five vectors of equal dimension (the
// query and four others, float32 values read little-endian) and checks
// Dot4 and DotMany against Dot bit for bit. Plain `go test` replays
// the seeds below and any input kept under testdata/fuzz.
func FuzzDot4(f *testing.F) {
	f.Add([]byte{})
	for _, dim := range []int{1, 4, 5, 17, 64} {
		vs := benchVecs(5, dim, uint64(dim))
		buf := make([]byte, 0, 5*4*dim)
		for _, v := range vs {
			for _, x := range v {
				buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(x))
			}
		}
		f.Add(buf)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		dim := len(raw) / 20
		vs := make([]Vector, 5)
		for i := range vs {
			vs[i] = make(Vector, dim)
			for j := range vs[i] {
				off := 4 * (i*dim + j)
				vs[i][j] = math.Float32frombits(binary.LittleEndian.Uint32(raw[off:]))
			}
		}
		checkDot4(t, vs[0], vs[1:])
	})
}
