package hnsw

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"tablehound/internal/embedding"
)

// referenceGraph is the HNSW kernel as it stood before the scratch-
// based rewrite: a map[int32]bool visited set, container/heap over
// boxed items, sort.Slice, and selectNeighbors recomputing every
// candidate distance. It is the oracle the production kernel must
// match bit for bit — same topology, same tie order — and exists only
// in tests.
type referenceGraph struct {
	cfg      Config
	ml       float64
	rng      *rand.Rand
	nodes    []node
	byKey    map[string]int32
	entry    int32
	maxLevel int
}

func newReference(cfg Config) *referenceGraph {
	cfg = cfg.withDefaults()
	return &referenceGraph{
		cfg:   cfg,
		ml:    1 / math.Log(float64(cfg.M)),
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		byKey: make(map[string]int32),
		entry: -1,
	}
}

// graph views the reference topology as a production Graph, for
// AppendSnapshotShared. The node slices are shared, not copied.
func (g *referenceGraph) graph() *Graph {
	return &Graph{cfg: g.cfg, ml: g.ml, rng: g.rng, nodes: g.nodes, byKey: g.byKey, entry: g.entry, maxLevel: g.maxLevel}
}

// Add inserts a unit vector under a unique key.
func (g *referenceGraph) Add(key string, vec embedding.Vector) error {
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
	ep := g.entry
	// Greedy descent through layers above the new node's level.
	for l := g.maxLevel; l > level; l-- {
		ep = g.greedyClosest(vec, ep, l)
	}
	// Insert at each layer from min(level, maxLevel) down to 0.
	top := level
	if top > g.maxLevel {
		top = g.maxLevel
	}
	for l := top; l >= 0; l-- {
		cands := g.searchLayer(vec, []int32{ep}, g.cfg.EfConstruction, l)
		maxM := g.cfg.M
		if l == 0 {
			maxM = 2 * g.cfg.M
		}
		selected := g.selectNeighbors(vec, cands, g.cfg.M)
		g.nodes[id].neighbors[l] = selected
		for _, nb := range selected {
			g.nodes[nb].neighbors[l] = append(g.nodes[nb].neighbors[l], id)
			if len(g.nodes[nb].neighbors[l]) > maxM {
				g.nodes[nb].neighbors[l] = g.selectNeighbors(
					g.nodes[nb].vec, g.nodes[nb].neighbors[l], maxM)
			}
		}
		if len(cands) > 0 {
			ep = cands[0]
		}
	}
	if level > g.maxLevel {
		g.maxLevel = level
		g.entry = id
	}
	return nil
}

// greedyClosest walks layer l greedily toward q from ep.
func (g *referenceGraph) greedyClosest(q embedding.Vector, ep int32, l int) int32 {
	cur := ep
	curDist := dist(q, g.nodes[cur].vec)
	for {
		improved := false
		for _, nb := range g.neighborsAt(cur, l) {
			if d := dist(q, g.nodes[nb].vec); d < curDist {
				cur, curDist = nb, d
				improved = true
			}
		}
		if !improved {
			return cur
		}
	}
}

func (g *referenceGraph) neighborsAt(id int32, l int) []int32 {
	if l >= len(g.nodes[id].neighbors) {
		return nil
	}
	return g.nodes[id].neighbors[l]
}

// refHeap is a min-heap or max-heap over (id, dist) by dist.
type refItem struct {
	id int32
	d  float64
}
type refHeap struct {
	items []refItem
	max   bool
}

func (h *refHeap) Len() int { return len(h.items) }
func (h *refHeap) Less(i, j int) bool {
	if h.max {
		return h.items[i].d > h.items[j].d
	}
	return h.items[i].d < h.items[j].d
}
func (h *refHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *refHeap) Push(x interface{}) { h.items = append(h.items, x.(refItem)) }
func (h *refHeap) Pop() interface{} {
	old := h.items
	n := len(old)
	it := old[n-1]
	h.items = old[:n-1]
	return it
}

// searchLayer is the beam search of the paper (Algorithm 2): returns
// up to ef node IDs closest to q at layer l, sorted by distance.
func (g *referenceGraph) searchLayer(q embedding.Vector, eps []int32, ef, l int) []int32 {
	visited := make(map[int32]bool, ef*4)
	cand := &refHeap{}            // min-heap of frontier
	result := &refHeap{max: true} // max-heap of best ef
	for _, ep := range eps {
		d := dist(q, g.nodes[ep].vec)
		visited[ep] = true
		heap.Push(cand, refItem{ep, d})
		heap.Push(result, refItem{ep, d})
	}
	for cand.Len() > 0 {
		c := heap.Pop(cand).(refItem)
		worst := result.items[0].d
		if c.d > worst && result.Len() >= ef {
			break
		}
		for _, nb := range g.neighborsAt(c.id, l) {
			if visited[nb] {
				continue
			}
			visited[nb] = true
			d := dist(q, g.nodes[nb].vec)
			if result.Len() < ef || d < result.items[0].d {
				heap.Push(cand, refItem{nb, d})
				heap.Push(result, refItem{nb, d})
				if result.Len() > ef {
					heap.Pop(result)
				}
			}
		}
	}
	out := make([]refItem, len(result.items))
	copy(out, result.items)
	sort.Slice(out, func(i, j int) bool { return out[i].d < out[j].d })
	ids := make([]int32, len(out))
	for i, it := range out {
		ids[i] = it.id
	}
	return ids
}

// selectNeighbors is the heuristic selection of the paper (Algorithm
// 4): take candidates closest-first, but admit one only if it is
// closer to the base than to every already-admitted neighbor. This
// yields spatially diverse links that keep clustered data connected —
// with simple closest-m selection, well-separated clusters fragment
// into disconnected components. Pruned candidates backfill remaining
// slots (keepPrunedConnections).
func (g *referenceGraph) selectNeighbors(base embedding.Vector, cands []int32, m int) []int32 {
	if len(cands) <= m {
		out := make([]int32, len(cands))
		copy(out, cands)
		return out
	}
	type cd struct {
		id int32
		d  float64
	}
	ds := make([]cd, len(cands))
	for i, c := range cands {
		ds[i] = cd{c, dist(base, g.nodes[c].vec)}
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i].d < ds[j].d })
	selected := make([]cd, 0, m)
	var pruned []cd
	for _, c := range ds {
		if len(selected) >= m {
			break
		}
		diverse := true
		for _, s := range selected {
			if dist(g.nodes[c.id].vec, g.nodes[s.id].vec) < c.d {
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
	out := make([]int32, len(selected))
	for i, s := range selected {
		out[i] = s.id
	}
	return out
}

// Search returns the k most similar indexed vectors to q, best first.
// efSearch controls the recall/latency trade-off; values below k are
// raised to k.
func (g *referenceGraph) Search(q embedding.Vector, k, efSearch int) []Result {
	if g.entry < 0 || k <= 0 {
		return nil
	}
	if efSearch < k {
		efSearch = k
	}
	ep := g.entry
	for l := g.maxLevel; l > 0; l-- {
		ep = g.greedyClosest(q, ep, l)
	}
	ids := g.searchLayer(q, []int32{ep}, efSearch, 0)
	if len(ids) > k {
		ids = ids[:k]
	}
	out := make([]Result, len(ids))
	for i, id := range ids {
		out[i] = Result{Key: g.nodes[id].key, Score: q.Dot(g.nodes[id].vec)}
	}
	return out
}
