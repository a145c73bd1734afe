package embedding

import "testing"

// benchVecs generates deterministic pseudo-random unit-scale vectors
// (splitmix64-style walk, no external RNG) for the cosine benchmarks.
func benchVecs(n, dim int, seed uint64) []Vector {
	out := make([]Vector, n)
	s := seed
	next := func() float32 {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		return float32(z>>40)/(1<<24) - 0.5
	}
	for i := range out {
		v := make(Vector, dim)
		for d := range v {
			v[d] = next()
		}
		out[i] = v
	}
	return out
}

// BenchmarkCosine is the pre-vecstore hot path: both norms recomputed
// on every call — three dot products per similarity.
func BenchmarkCosine(b *testing.B) {
	vecs := benchVecs(256, 64, 11)
	q := benchVecs(1, 64, 99)[0]
	b.ReportAllocs()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += Cosine(q, vecs[i%len(vecs)])
	}
	_ = sink
}

// BenchmarkCosineWithNorms is the vecstore-backed path: norms
// precomputed at build time, one dot product per similarity.
func BenchmarkCosineWithNorms(b *testing.B) {
	vecs := benchVecs(256, 64, 11)
	norms := make([]float64, len(vecs))
	for i, v := range vecs {
		norms[i] = v.Norm()
	}
	q := benchVecs(1, 64, 99)[0]
	qn := q.Norm()
	b.ReportAllocs()
	var sink float64
	for i := 0; i < b.N; i++ {
		j := i % len(vecs)
		sink += CosineWithNorms(q, vecs[j], qn, norms[j])
	}
	_ = sink
}

// dotSink keeps the benchmarked dot products live: Dot is small
// enough to inline, and the compiler drops an inlined loop whose sum
// nothing reads.
var dotSink float64

// BenchmarkDot4 is the dot kernel of the HNSW beams and the union
// weight matrices: one op is four dot products of a 64-dim query
// against consecutive vectors of 1 024, as four Dot calls (the kernel
// Dot4 replaced) and as one Dot4. Both sides give the same bits.
func BenchmarkDot4(b *testing.B) {
	vecs := benchVecs(1024, 64, 11)
	q := benchVecs(1, 64, 99)[0]
	b.Run("Dot", func(b *testing.B) {
		b.ReportAllocs()
		var sink float64
		for i := 0; i < b.N; i++ {
			j := (4 * i) % len(vecs)
			sink += q.Dot(vecs[j]) + q.Dot(vecs[j+1]) + q.Dot(vecs[j+2]) + q.Dot(vecs[j+3])
		}
		dotSink = sink
	})
	b.Run("Dot4", func(b *testing.B) {
		b.ReportAllocs()
		var sink float64
		for i := 0; i < b.N; i++ {
			j := (4 * i) % len(vecs)
			s0, s1, s2, s3 := Dot4(q, vecs[j], vecs[j+1], vecs[j+2], vecs[j+3])
			sink += s0 + s1 + s2 + s3
		}
		dotSink = sink
	})
}
