package embedding

import "math"

// Vector is a dense float32 embedding.
type Vector []float32

// Zero returns an all-zero vector of the given dimension.
func Zero(dim int) Vector { return make(Vector, dim) }

// Dot returns the inner product.
func (v Vector) Dot(o Vector) float64 {
	var s float64
	for i := range v {
		s += float64(v[i]) * float64(o[i])
	}
	return s
}

// Dot4 returns q.Dot(a), q.Dot(b), q.Dot(c) and q.Dot(d), each
// bit-identical to the single dot product on every architecture: four
// accumulators run side by side, so the adds of one do not wait on the
// others, and each adds its terms in index order as Dot does. A product
// of two float32 values is exact in float64 (24 + 24 significand bits),
// so a fused multiply-add rounds each step exactly as a separate
// multiply and add would.
func Dot4(q, a, b, c, d Vector) (float64, float64, float64, float64) {
	n := len(q)
	a, b, c, d = a[:n], b[:n], c[:n], d[:n]
	var sa, sb, sc, sd float64
	for i, x := range q {
		xf := float64(x)
		sa += xf * float64(a[i])
		sb += xf * float64(b[i])
		sc += xf * float64(c[i])
		sd += xf * float64(d[i])
	}
	return sa, sb, sc, sd
}

// DotMany sets out[i] to v.Dot(qs[i]) for every i, bit for bit, four
// at a time through Dot4. out must hold len(qs) values.
func DotMany(v Vector, qs []Vector, out []float64) {
	out = out[:len(qs)]
	i := 0
	for ; i+4 <= len(qs); i += 4 {
		out[i], out[i+1], out[i+2], out[i+3] = Dot4(v, qs[i], qs[i+1], qs[i+2], qs[i+3])
	}
	for ; i < len(qs); i++ {
		out[i] = v.Dot(qs[i])
	}
}

// Norm returns the Euclidean norm.
func (v Vector) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Cosine returns the cosine similarity of a and b (0 for zero vectors).
func Cosine(a, b Vector) float64 {
	return CosineWithNorms(a, b, a.Norm(), b.Norm())
}

// CosineWithNorms is Cosine for callers that already know both norms
// (the vector store precomputes them at build time), reducing the hot
// path to a single dot product. Passing exactly a.Norm() and b.Norm()
// makes the result bit-identical to Cosine.
func CosineWithNorms(a, b Vector, na, nb float64) float64 {
	if na == 0 || nb == 0 {
		return 0
	}
	return a.Dot(b) / (na * nb)
}

// CosineOfDot is CosineWithNorms for callers that computed the dot
// product a·b already (through Dot4 or DotMany): bit-identical to
// CosineWithNorms(a, b, na, nb), zero-norm rule included.
func CosineOfDot(dot, na, nb float64) float64 {
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (na * nb)
}

// Normalize scales v to unit norm in place and returns it. Zero
// vectors are returned unchanged.
func (v Vector) Normalize() Vector {
	n := v.Norm()
	if n == 0 {
		return v
	}
	inv := float32(1 / n)
	for i := range v {
		v[i] *= inv
	}
	return v
}

// Add accumulates o into v.
func (v Vector) Add(o Vector) {
	for i := range v {
		v[i] += o[i]
	}
}

// AddScaled accumulates f*o into v.
func (v Vector) AddScaled(o Vector, f float64) {
	ff := float32(f)
	for i := range v {
		v[i] += ff * o[i]
	}
}

// Scale multiplies v by f in place.
func (v Vector) Scale(f float64) {
	ff := float32(f)
	for i := range v {
		v[i] *= ff
	}
}

// Clone returns a copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Mean returns the arithmetic mean of the vectors, or a zero vector of
// dimension dim when the list is empty.
func Mean(vs []Vector, dim int) Vector {
	out := Zero(dim)
	if len(vs) == 0 {
		return out
	}
	for _, v := range vs {
		out.Add(v)
	}
	out.Scale(1 / float64(len(vs)))
	return out
}
