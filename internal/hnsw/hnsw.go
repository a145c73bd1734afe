// Package hnsw implements Hierarchical Navigable Small World graphs
// (Malkov & Yashunin, TPAMI 2020) for approximate nearest-neighbor
// search over unit vectors, the graph index the tutorial highlights
// (and Starmie uses) for scaling embedding-based table discovery.
//
// Similarity is the dot product (= cosine for unit vectors); distance
// is 1 - dot. Construction and search follow the paper: exponentially
// distributed level assignment, greedy descent through upper layers,
// and beam search with dynamic candidate lists at the target layer.
package hnsw

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"

	"tablehound/internal/embedding"
)

// Result is one nearest-neighbor hit.
type Result struct {
	Key   string
	Score float64 // dot-product similarity (higher is closer)
}

// Config controls graph shape.
type Config struct {
	M              int   // max neighbors per node per layer (default 16)
	EfConstruction int   // beam width during insertion (default 200)
	Seed           int64 // level-assignment seed
}

func (c Config) withDefaults() Config {
	if c.M <= 0 {
		c.M = 16
	}
	if c.EfConstruction <= 0 {
		c.EfConstruction = 200
	}
	return c
}

type node struct {
	key       string
	vec       embedding.Vector
	neighbors [][]int32 // level -> neighbor node IDs
}

// Graph is an HNSW index. Adds must be serialized; searches may run
// concurrently with each other but not with Add.
type Graph struct {
	cfg      Config
	ml       float64
	rng      *rand.Rand
	nodes    []node
	byKey    map[string]int32
	entry    int32
	maxLevel int
	mu       sync.RWMutex
}

// New creates an empty graph.
func New(cfg Config) *Graph {
	cfg = cfg.withDefaults()
	return &Graph{
		cfg:   cfg,
		ml:    1 / math.Log(float64(cfg.M)),
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		byKey: make(map[string]int32),
		entry: -1,
	}
}

// Len returns the number of indexed vectors.
func (g *Graph) Len() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.nodes)
}

func dist(a, b embedding.Vector) float64 { return 1 - a.Dot(b) }

// Add inserts a unit vector under a unique key.
func (g *Graph) Add(key string, vec embedding.Vector) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, dup := g.byKey[key]; dup {
		return fmt.Errorf("hnsw: duplicate key %q", key)
	}
	level := int(math.Floor(-math.Log(g.rng.Float64()+1e-12) * g.ml))
	id := int32(len(g.nodes))
	n := node{key: key, vec: vec, neighbors: make([][]int32, level+1)}
	g.nodes = append(g.nodes, n)
	g.byKey[key] = id

	if g.entry < 0 {
		g.entry = id
		g.maxLevel = level
		return nil
	}
	s := getScratch()
	defer scratchPool.Put(s)
	ep := g.entry
	// Greedy descent through layers above the new node's level.
	for l := g.maxLevel; l > level; l-- {
		ep = g.greedyClosest(s, vec, ep, l)
	}
	// Insert at each layer from min(level, maxLevel) down to 0.
	top := level
	if top > g.maxLevel {
		top = g.maxLevel
	}
	for l := top; l >= 0; l-- {
		cands := g.searchLayer(s, vec, ep, g.cfg.EfConstruction, l)
		ep = cands[0].id
		maxM := g.cfg.M
		if l == 0 {
			maxM = 2 * g.cfg.M
		}
		// cands carry their distance to vec already: selection needs no
		// second pass of dot products over the beam.
		picked := g.selectNeighbors(s, cands, g.cfg.M)
		selected := make([]int32, len(picked))
		for i, c := range picked {
			selected[i] = c.id
		}
		g.nodes[id].neighbors[l] = selected
		for _, nb := range selected {
			links := append(g.nodes[nb].neighbors[l], id)
			if len(links) > maxM {
				// Re-select nb's links by distance to nb, in place.
				s.dists = g.dists(g.nodes[nb].vec, links, s.dists)
				s.links = s.links[:0]
				for i, c := range links {
					s.links = append(s.links, distItem{c, s.dists[i]})
				}
				links = links[:0]
				for _, c := range g.selectNeighbors(s, s.links, maxM) {
					links = append(links, c.id)
				}
			}
			g.nodes[nb].neighbors[l] = links
		}
	}
	if level > g.maxLevel {
		g.maxLevel = level
		g.entry = id
	}
	return nil
}

// greedyClosest walks layer l greedily toward q from ep.
func (g *Graph) greedyClosest(s *scratch, q embedding.Vector, ep int32, l int) int32 {
	cur := ep
	curDist := dist(q, g.nodes[cur].vec)
	for {
		improved := false
		nbs := g.neighborsAt(cur, l)
		s.dists = g.dists(q, nbs, s.dists)
		for i, nb := range nbs {
			if d := s.dists[i]; d < curDist {
				cur, curDist = nb, d
				improved = true
			}
		}
		if !improved {
			return cur
		}
	}
}

// dists returns out, resized, with out[i] = dist(q, node ids[i]) for
// every i, bit for bit: the dot products run four at a time through
// embedding.Dot4, which keeps each one's bits, so a caller that takes
// its decisions over the batch in ids order decides as it would with
// one dist call per node. It is embedding.DotMany's loop over node
// vectors, which sit in no slice of their own: gathering them into one
// cost more than the loop it would share.
func (g *Graph) dists(q embedding.Vector, ids []int32, out []float64) []float64 {
	out = slices.Grow(out[:0], len(ids))[:len(ids)]
	i := 0
	for ; i+4 <= len(ids); i += 4 {
		a, b, c, d := embedding.Dot4(q, g.nodes[ids[i]].vec, g.nodes[ids[i+1]].vec, g.nodes[ids[i+2]].vec, g.nodes[ids[i+3]].vec)
		out[i], out[i+1], out[i+2], out[i+3] = 1-a, 1-b, 1-c, 1-d
	}
	for ; i < len(ids); i++ {
		out[i] = dist(q, g.nodes[ids[i]].vec)
	}
	return out
}

func (g *Graph) neighborsAt(id int32, l int) []int32 {
	if l >= len(g.nodes[id].neighbors) {
		return nil
	}
	return g.nodes[id].neighbors[l]
}

// distItem is a node with its distance to the current query or base.
type distItem struct {
	id int32
	d  float64
}

// distHeap is a binary min-heap (or max-heap) of distItems by
// distance. push and pop sift exactly as the standard library's heap
// package does — same parent/child choices, same strict comparisons —
// so items at equal distance (lakes hold identical columns) leave the
// heap in the order they always have (the reference kernel in the
// tests pins it), without boxing an item per operation.
type distHeap struct {
	items []distItem
	max   bool
}

// before reports whether a leaves the heap before b.
func (h *distHeap) before(a, b distItem) bool {
	if h.max {
		return a.d > b.d
	}
	return a.d < b.d
}

func (h *distHeap) push(it distItem) {
	h.items = append(h.items, it)
	items := h.items
	j := len(items) - 1
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !h.before(items[j], items[i]) {
			break
		}
		items[i], items[j] = items[j], items[i]
		j = i
	}
}

func (h *distHeap) pop() distItem {
	items := h.items
	n := len(items) - 1
	items[0], items[n] = items[n], items[0]
	i := 0
	for {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h.before(items[j2], items[j]) {
			j = j2
		}
		if !h.before(items[j], items[i]) {
			break
		}
		items[i], items[j] = items[j], items[i]
		i = j
	}
	h.items = items[:n]
	return items[n]
}

// sortByDist orders items by ascending distance. The order among
// equal distances is whatever pdqsort leaves, which is a function of
// the input sequence alone — the same function sort.Slice computed.
func sortByDist(items []distItem) {
	slices.SortFunc(items, func(a, b distItem) int {
		switch {
		case a.d < b.d:
			return -1
		case a.d > b.d:
			return 1
		}
		return 0
	})
}

// scratch is the working memory of one Add or Search: everything the
// beam search and the neighbor selection would otherwise allocate per
// call or per visited node. A scratch belongs to one goroutine between
// getScratch and scratchPool.Put; nothing in it outlives that span,
// and every use starts by resetting the part it reads (a fresh visited
// epoch, zero-length buffers), so a result never depends on which
// scratch the pool handed out or which graph used it last.
type scratch struct {
	// visited[id] == epoch marks node id as seen by the current
	// searchLayer; bumping epoch clears the set in O(1).
	visited []uint32
	epoch   uint32
	cand    distHeap   // min-heap: the frontier
	result  distHeap   // max-heap: the best ef so far
	found   []distItem // searchLayer's answer
	links   []distItem // a node's links with their distances, for re-selection
	fresh   []int32    // searchLayer: the unvisited neighbors of the popped node
	dists   []float64  // the distances of a batch of nodes (see dists)
	sel     []distItem // selectNeighbors' answer
	pruned  []distItem
}

// scratchPool is shared by all graphs: a pool inside each Graph would
// keep a dropped graph (and the vector block its nodes alias) reachable
// from the runtime's pool list for two more GC cycles.
var scratchPool sync.Pool

func getScratch() *scratch {
	if s, ok := scratchPool.Get().(*scratch); ok {
		return s
	}
	return &scratch{result: distHeap{max: true}}
}

// beginVisit starts an empty visited set over n nodes.
func (s *scratch) beginVisit(n int) {
	if len(s.visited) < n {
		// Unstamped (zero) entries: epoch is never zero here. append
		// grows the capacity geometrically, so a graph growing one node
		// per Add does not reallocate per Add.
		s.visited = append(s.visited, make([]uint32, n-len(s.visited))...)
	}
	s.epoch++
	if s.epoch == 0 { // wrapped: stamps from 2^32 searches ago would read as current
		clear(s.visited)
		s.epoch = 1
	}
}

// searchLayer is the beam search of the paper (Algorithm 2): returns
// up to ef nodes closest to q at layer l with their distances, sorted
// by distance. The slice is s.found, valid until s searches again.
func (g *Graph) searchLayer(s *scratch, q embedding.Vector, ep int32, ef, l int) []distItem {
	s.beginVisit(len(g.nodes))
	cand, result := &s.cand, &s.result
	cand.items, result.items = cand.items[:0], result.items[:0]
	d := dist(q, g.nodes[ep].vec)
	s.visited[ep] = s.epoch
	cand.push(distItem{ep, d})
	result.push(distItem{ep, d})
	for len(cand.items) > 0 {
		c := cand.pop()
		if c.d > result.items[0].d && len(result.items) >= ef {
			break
		}
		// Mark the unvisited neighbors first, then take their distances
		// as one batch, then decide for each in neighbor order.
		s.fresh = s.fresh[:0]
		for _, nb := range g.neighborsAt(c.id, l) {
			if s.visited[nb] == s.epoch {
				continue
			}
			s.visited[nb] = s.epoch
			s.fresh = append(s.fresh, nb)
		}
		s.dists = g.dists(q, s.fresh, s.dists)
		for i, nb := range s.fresh {
			d := s.dists[i]
			if len(result.items) < ef || d < result.items[0].d {
				cand.push(distItem{nb, d})
				result.push(distItem{nb, d})
				if len(result.items) > ef {
					result.pop()
				}
			}
		}
	}
	s.found = append(s.found[:0], result.items...)
	sortByDist(s.found)
	return s.found
}

// selectNeighbors is the heuristic selection of the paper (Algorithm
// 4): take candidates closest-first, but admit one only if it is
// closer to the base than to every already-admitted neighbor. This
// yields spatially diverse links that keep clustered data connected —
// with simple closest-m selection, well-separated clusters fragment
// into disconnected components. Pruned candidates backfill remaining
// slots (keepPrunedConnections). cands carry their distance to the
// base and are sorted in place; the answer is cands itself or s.sel.
func (g *Graph) selectNeighbors(s *scratch, cands []distItem, m int) []distItem {
	if len(cands) <= m {
		return cands
	}
	sortByDist(cands)
	selected, pruned := s.sel[:0], s.pruned[:0]
	for _, c := range cands {
		if len(selected) >= m {
			break
		}
		diverse := true
		for _, sd := range selected {
			if dist(g.nodes[c.id].vec, g.nodes[sd.id].vec) < c.d {
				diverse = false
				break
			}
		}
		if diverse {
			selected = append(selected, c)
		} else {
			pruned = append(pruned, c)
		}
	}
	for _, c := range pruned {
		if len(selected) >= m {
			break
		}
		selected = append(selected, c)
	}
	s.sel, s.pruned = selected, pruned
	return selected
}

// Search returns the k most similar indexed vectors to q, best first.
// efSearch controls the recall/latency trade-off; values below k are
// raised to k.
func (g *Graph) Search(q embedding.Vector, k, efSearch int) []Result {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if g.entry < 0 || k <= 0 {
		return nil
	}
	if efSearch < k {
		efSearch = k
	}
	s := getScratch()
	defer scratchPool.Put(s)
	ep := g.entry
	for l := g.maxLevel; l > 0; l-- {
		ep = g.greedyClosest(s, q, ep, l)
	}
	found := g.searchLayer(s, q, ep, efSearch, 0)
	if len(found) > k {
		found = found[:k]
	}
	out := make([]Result, len(found))
	for i, it := range found {
		out[i] = Result{Key: g.nodes[it.id].key, Score: q.Dot(g.nodes[it.id].vec)}
	}
	return out
}

// Keys returns the node keys in insertion order: node i is the i-th
// key added (or decoded).
func (g *Graph) Keys() []string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]string, len(g.nodes))
	for i := range g.nodes {
		out[i] = g.nodes[i].key
	}
	return out
}

// Vector returns the stored vector for key, if present.
func (g *Graph) Vector(key string) (embedding.Vector, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	id, ok := g.byKey[key]
	if !ok {
		return nil, false
	}
	return g.nodes[id].vec, true
}

// BruteForce returns the exact top-k by scanning all vectors; the
// recall baseline for benchmarks.
func (g *Graph) BruteForce(q embedding.Vector, k int) []Result {
	g.mu.RLock()
	defer g.mu.RUnlock()
	res := make([]Result, 0, len(g.nodes))
	for i := range g.nodes {
		res = append(res, Result{Key: g.nodes[i].key, Score: q.Dot(g.nodes[i].vec)})
	}
	sort.Slice(res, func(i, j int) bool {
		if res[i].Score != res[j].Score {
			return res[i].Score > res[j].Score
		}
		return res[i].Key < res[j].Key
	})
	if len(res) > k {
		res = res[:k]
	}
	return res
}
