package hnsw

import (
	"fmt"
	"math"
	"math/rand"

	"tablehound/internal/embedding"
	"tablehound/internal/snap"
)

// AppendSnapshotShared encodes the graph topology: node keys, neighbor
// lists, entry point. HNSW construction is insertion-order- and
// RNG-dependent, so unlike the LSH indexes it cannot be rebuilt
// deterministically from its inputs alone — the nodes, their per-level
// neighbor lists, the entry point, and the top level are all
// serialized verbatim. Vectors are omitted: the caller stores them
// (in the shared vector block, or as the columns the nodes index) and
// hands them back to DecodeSnapshotShared, which keeps the snapshot
// section small and its decode copy-free.
func (g *Graph) AppendSnapshotShared(e *snap.Encoder) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	e.U32(uint32(g.cfg.M))
	e.U32(uint32(g.cfg.EfConstruction))
	e.I64(g.cfg.Seed)
	e.I64(int64(g.entry))
	e.U32(uint32(g.maxLevel))
	e.U32(uint32(len(g.nodes)))
	for i := range g.nodes {
		n := &g.nodes[i]
		e.Str(n.key)
		e.U32(uint32(len(n.neighbors)))
		for _, level := range n.neighbors {
			e.I32s(level)
		}
	}
}

// RebindVecs points every node's vector at vecOf(its key), for callers
// that move the backing storage after construction or share it with
// the vectors' other owner: only the memory moves. A key vecOf does not
// know, or a vector that is not bit-equal to the node's, fails; the
// graph must then not be used.
func (g *Graph) RebindVecs(vecOf func(key string) (embedding.Vector, bool)) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	for i := range g.nodes {
		n := &g.nodes[i]
		v, ok := vecOf(n.key)
		if !ok {
			return fmt.Errorf("hnsw: no vector to rebind node %q onto", n.key)
		}
		if !bitEqual(v, n.vec) {
			return fmt.Errorf("hnsw: node %q vector differs from the one it is rebound onto", n.key)
		}
		n.vec = v
	}
	return nil
}

// bitEqual reports whether two vectors hold the same bits.
func bitEqual(a, b embedding.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// DecodeSnapshotShared rebuilds a graph written by AppendSnapshotShared:
// vecOf supplies node i, whose key is key, its vector (a vector-store
// row, possibly mmap-backed, or the vector its caller holds under the
// key), nil when it has none, which fails the decode. The level RNG is
// re-seeded from the stored config and advanced past one draw per
// node, where the saved graph's stream stood: a caller that keeps
// inserting after load draws the levels the saved graph would have
// drawn, so saving, loading and inserting the rest builds the graph
// inserting every key into one graph builds.
func DecodeSnapshotShared(d *snap.Decoder, vecOf func(i int, key string) embedding.Vector) (*Graph, error) {
	cfg := Config{
		M:              int(d.U32()),
		EfConstruction: int(d.U32()),
		Seed:           d.I64(),
	}
	entry := int32(d.I64())
	maxLevel := int(d.U32())
	numNodes := int(d.U32())
	if d.Err() != nil {
		return nil, d.Err()
	}
	if cfg.M <= 0 {
		return nil, fmt.Errorf("%w: hnsw M=%d", snap.ErrCorrupt, cfg.M)
	}
	// The counts below size allocations, so each is held to the bytes
	// left: a node is at least a key length and a level count, a level
	// at least a neighbor count.
	if numNodes > d.Remaining()/8 {
		return nil, fmt.Errorf("%w: hnsw claims %d nodes in %d bytes", snap.ErrCorrupt, numNodes, d.Remaining())
	}
	g := &Graph{
		cfg:      cfg,
		ml:       1 / math.Log(float64(cfg.M)),
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		byKey:    make(map[string]int32, numNodes),
		entry:    entry,
		maxLevel: maxLevel,
	}
	g.nodes = make([]node, numNodes)
	for i := 0; i < numNodes; i++ {
		key := d.Str()
		levels := int(d.U32())
		if d.Err() != nil {
			return nil, d.Err()
		}
		vec := vecOf(i, key)
		if vec == nil {
			return nil, fmt.Errorf("%w: hnsw node %d (%q) has no vector", snap.ErrCorrupt, i, key)
		}
		if levels > d.Remaining()/4 {
			return nil, fmt.Errorf("%w: hnsw node %d claims %d levels in %d bytes", snap.ErrCorrupt, i, levels, d.Remaining())
		}
		neighbors := make([][]int32, levels)
		for l := range neighbors {
			nbs := d.I32s()
			for _, nb := range nbs {
				if nb < 0 || int(nb) >= numNodes {
					return nil, fmt.Errorf("%w: hnsw neighbor %d out of range", snap.ErrCorrupt, nb)
				}
			}
			neighbors[l] = nbs
		}
		if _, dup := g.byKey[key]; dup {
			return nil, fmt.Errorf("%w: hnsw duplicate key %q", snap.ErrCorrupt, key)
		}
		g.nodes[i] = node{key: key, vec: vec, neighbors: neighbors}
		g.byKey[key] = int32(i)
	}
	// Add links a new node to the nodes a search reaches on each level
	// and links them back on that level, so a node linked on level l
	// must have a level l of its own.
	for i := range g.nodes {
		for l, nbs := range g.nodes[i].neighbors {
			for _, nb := range nbs {
				if len(g.nodes[nb].neighbors) <= l {
					return nil, fmt.Errorf("%w: hnsw node %d links node %d on level %d, above its top", snap.ErrCorrupt, i, nb, l)
				}
			}
		}
	}
	for range numNodes { // one level draw per Add
		g.rng.Float64()
	}
	if numNodes == 0 {
		if entry != -1 {
			return nil, fmt.Errorf("%w: hnsw empty graph with entry %d", snap.ErrCorrupt, entry)
		}
	} else if entry < 0 || int(entry) >= numNodes {
		return nil, fmt.Errorf("%w: hnsw entry %d out of range", snap.ErrCorrupt, entry)
	} else if top := len(g.nodes[entry].neighbors); maxLevel+1 != top {
		// Add keeps the entry point on the top level; Search descends
		// maxLevel layers from it, so a forged value is a 2^32-step loop.
		return nil, fmt.Errorf("%w: hnsw top level %d, entry node has %d levels", snap.ErrCorrupt, maxLevel, top)
	}
	return g, nil
}
