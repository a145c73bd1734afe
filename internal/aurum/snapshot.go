package aurum

import (
	"fmt"

	"tablehound/internal/snap"
	"tablehound/internal/table"
)

// AppendSnapshot encodes the discovery graph: construction config,
// the sorted column-key nodes, and each node's adjacency list in its
// built (weight-sorted) order. Edge targets are stored as indices into
// the node list — the graph averages several edges per node, so
// repeating full column keys would dominate the section and decode
// time. The column-to-table maps are rebuilt on decode by splitting
// the column keys.
func (g *Graph) AppendSnapshot(e *snap.Encoder) {
	e.F64(g.cfg.ContentThreshold)
	e.F64(g.cfg.SchemaThreshold)
	e.F64(g.cfg.PKFKContainment)
	e.F64(g.cfg.PKFKUniqueness)
	e.U32(uint32(g.cfg.NumHashes))
	e.Strs(g.nodes)
	for _, k := range g.nodes {
		es := g.adj[k]
		e.U32(uint32(len(es)))
		for _, edge := range es {
			e.U32(uint32(g.byKey[edge.To]))
			e.U8(uint8(edge.Kind))
			e.F64(edge.Weight)
		}
	}
}

// DecodeSnapshot rebuilds a graph written by AppendSnapshot.
func DecodeSnapshot(d *snap.Decoder) (*Graph, error) {
	cfg := Config{
		ContentThreshold: d.F64(),
		SchemaThreshold:  d.F64(),
		PKFKContainment:  d.F64(),
		PKFKUniqueness:   d.F64(),
		NumHashes:        int(d.U32()),
	}
	nodes := d.Strs()
	if d.Err() != nil {
		return nil, d.Err()
	}
	g := &Graph{
		cfg:     cfg,
		byKey:   make(map[string]int, len(nodes)),
		adj:     make(map[string][]Edge),
		tableOf: make(map[string]string, len(nodes)),
		colsOf:  make(map[string][]string),
	}
	for i, k := range nodes {
		if _, dup := g.byKey[k]; dup {
			return nil, fmt.Errorf("%w: duplicate graph node %q", snap.ErrCorrupt, k)
		}
		g.nodes = append(g.nodes, k)
		g.byKey[k] = i
		id, _ := table.SplitColumnKey(k)
		g.tableOf[k] = id
		g.colsOf[id] = append(g.colsOf[id], k)
	}
	for _, k := range nodes {
		numEdges := d.Count(13) // an edge is at least a target, a kind and a weight
		if d.Err() != nil {
			return nil, d.Err()
		}
		if numEdges == 0 {
			continue
		}
		es := make([]Edge, numEdges)
		for j := 0; j < numEdges; j++ {
			toIdx := int(d.U32())
			kind := EdgeKind(d.U8())
			weight := d.F64()
			if d.Err() != nil {
				return nil, d.Err()
			}
			if toIdx < 0 || toIdx >= len(nodes) {
				return nil, fmt.Errorf("%w: graph edge to node index %d of %d", snap.ErrCorrupt, toIdx, len(nodes))
			}
			if kind < SchemaSim || kind > PKFK {
				return nil, fmt.Errorf("%w: graph edge kind %d", snap.ErrCorrupt, kind)
			}
			es[j] = Edge{From: k, To: nodes[toIdx], Kind: kind, Weight: weight}
		}
		g.adj[k] = es
	}
	return g, nil
}
