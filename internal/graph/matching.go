// Package graph supplies the graph algorithms table discovery leans
// on: maximum-weight bipartite matching (TUS aggregates column-level
// unionability to table level with it), betweenness centrality
// (DomainNet ranks homographs with it), and component utilities.
package graph

import "math"

// Matcher solves maximum-weight bipartite matchings over flat
// row-major weight matrices, reusing its scratch between calls: a scan
// that aggregates thousands of small column-alignment matrices
// allocates once. The zero value is ready to use; a Matcher is not
// safe for concurrent use.
type Matcher struct {
	u, v, minv []float64
	p, way     []int // p[j] = row matched to column j, 1-indexed
	used       []bool
}

// MaxWeight returns the total weight of a maximum-weight matching of
// the nl x nr matrix w (w[i*nr+j] >= 0). Implemented as the Hungarian
// algorithm with potentials in O(n^3) for n = max(nl, nr); matching a
// row to a dummy (zero-weight) column models leaving it unmatched, so
// partial matchings of rectangular inputs are handled.
func (m *Matcher) MaxWeight(w []float64, nl, nr int) float64 {
	if nl == 0 || nr == 0 {
		return 0
	}
	m.solve(w, nl, nr)
	total := 0.0
	for j := 1; j <= nr; j++ {
		if i := m.p[j] - 1; i < nl {
			total += w[i*nr+j-1]
		}
	}
	return total
}

// solve runs the Hungarian algorithm (Jonker-Volgenant style with
// potentials, 1-indexed per the classic formulation) on the square
// n = max(nl, nr) cost matrix cost = maxW - weight, so minimizing cost
// maximizes weight; dummy cells cost maxW. It leaves the assignment in
// m.p.
func (m *Matcher) solve(w []float64, nl, nr int) {
	n := nl
	if nr > n {
		n = nr
	}
	maxW := 0.0
	for _, x := range w[:nl*nr] {
		if x > maxW {
			maxW = x
		}
	}
	if cap(m.u) < n+1 {
		m.u = make([]float64, n+1)
		m.v = make([]float64, n+1)
		m.minv = make([]float64, n+1)
		m.p = make([]int, n+1)
		m.way = make([]int, n+1)
		m.used = make([]bool, n+1)
	}
	u, v, minv := m.u[:n+1], m.v[:n+1], m.minv[:n+1]
	p, way, used := m.p[:n+1], m.way[:n+1], m.used[:n+1]
	for j := range u {
		u[j], v[j], p[j], way[j] = 0, 0, 0, 0
	}
	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		for j := range minv {
			minv[j] = math.Inf(1)
			used[j] = false
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
				cost := maxW
				if i0 <= nl && j <= nr {
					cost = maxW - w[(i0-1)*nr+j-1]
				}
				cur := cost - u[i0] - v[j]
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
}
