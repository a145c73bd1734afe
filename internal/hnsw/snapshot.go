package hnsw

import (
	"fmt"
	"math"
	"math/rand"

	"tablehound/internal/embedding"
	"tablehound/internal/snap"
)

// AppendSnapshot encodes the full graph topology. HNSW construction
// is insertion-order- and RNG-dependent, so unlike the LSH indexes it
// cannot be rebuilt deterministically from its inputs alone — the
// nodes, their per-level neighbor lists, the entry point, and the top
// level are all serialized verbatim.
func (g *Graph) AppendSnapshot(e *snap.Encoder) {
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
		e.F32s(n.vec)
		e.U32(uint32(len(n.neighbors)))
		for _, level := range n.neighbors {
			e.I32s(level)
		}
	}
}

// AppendSnapshotShared encodes the graph topology only: node keys,
// neighbor lists, entry point. Vectors are omitted — the caller
// stores them in the shared vector block, whose row i backs node i —
// which keeps big graphs' snapshot sections small and their decode
// copy-free. Graphs whose vectors are not externalized (TUS's
// natural-language index) keep using AppendSnapshot.
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

// DecodeSnapshotShared rebuilds a graph written by
// AppendSnapshotShared: at(i) supplies node i's vector (typically a
// vector-store row, possibly mmap-backed) and must be valid for n
// nodes. The level RNG continues as DecodeSnapshot's does.
func DecodeSnapshotShared(d *snap.Decoder, at func(int) []float32, n int) (*Graph, error) {
	return decodeSnapshot(d, at, n)
}

// RebindVecs replaces every node's vector with at(i), for callers
// that move the backing storage after construction. Vector values
// must be identical; only the memory moves.
func (g *Graph) RebindVecs(at func(int) []float32, n int) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if n != len(g.nodes) {
		return fmt.Errorf("hnsw: rebind over %d rows, graph has %d nodes", n, len(g.nodes))
	}
	for i := range g.nodes {
		g.nodes[i].vec = embedding.Vector(at(i))
	}
	return nil
}

// DecodeSnapshot rebuilds a graph written by AppendSnapshot. The
// level RNG is re-seeded from the stored config and advanced past one
// draw per node, where the saved graph's stream stood: a caller that
// keeps inserting after load draws the levels the saved graph would
// have drawn, so saving, loading and inserting the rest builds the
// graph inserting every key into one graph builds.
func DecodeSnapshot(d *snap.Decoder) (*Graph, error) {
	return decodeSnapshot(d, nil, 0)
}

// decodeSnapshot handles both layouts: with at == nil vectors are
// inline per node; otherwise they come from at and n is the required
// node count.
func decodeSnapshot(d *snap.Decoder, at func(int) []float32, n int) (*Graph, error) {
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
	if at != nil && numNodes != n {
		return nil, fmt.Errorf("%w: hnsw has %d nodes, vector segment %d rows", snap.ErrCorrupt, numNodes, n)
	}
	// The counts below size allocations, so each is held to the bytes
	// left: a node is at least a key length and a level count (plus a
	// vector length when inline), a level at least a neighbor count.
	minNode := 8
	if at == nil {
		minNode = 12
	}
	if numNodes > d.Remaining()/minNode {
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
		var vec embedding.Vector
		if at == nil {
			vec = d.F32s()
		} else {
			vec = embedding.Vector(at(i))
		}
		levels := int(d.U32())
		if d.Err() != nil {
			return nil, d.Err()
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
