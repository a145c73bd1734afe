// Package aurum implements an Aurum-style discovery graph (Fernandez
// et al., ICDE 2018; the "navigation over a linkage graph" mode of
// Section 2.6): columns are nodes of an enterprise knowledge graph
// whose edges record content similarity, schema similarity, and
// candidate PK-FK relationships. Discovery queries become graph
// primitives — neighbors of a column, and join paths connecting two
// tables through chains of joinable columns.
package aurum

import (
	"errors"
	"sort"

	"tablehound/internal/lsh"
	"tablehound/internal/minhash"
	"tablehound/internal/schema"
	"tablehound/internal/table"
	"tablehound/internal/tokenize"
)

// EdgeKind labels a graph edge.
type EdgeKind int

// Edge kinds, from weakest to strongest join evidence.
const (
	SchemaSim  EdgeKind = iota // similar column names
	ContentSim                 // overlapping value sets
	PKFK                       // containment + uniqueness: key/foreign-key
)

func (k EdgeKind) String() string {
	switch k {
	case SchemaSim:
		return "schema"
	case ContentSim:
		return "content"
	case PKFK:
		return "pkfk"
	}
	return "unknown"
}

// Edge is one relationship in the graph.
type Edge struct {
	From, To string // column keys
	Kind     EdgeKind
	Weight   float64
}

// Config tunes graph construction.
type Config struct {
	// ContentThreshold is the minimum Jaccard for a content edge
	// (default 0.25).
	ContentThreshold float64
	// SchemaThreshold is the minimum name similarity for a schema
	// edge (default 0.75).
	SchemaThreshold float64
	// PKFKContainment is the minimum containment of the FK side in
	// the PK side (default 0.85).
	PKFKContainment float64
	// PKFKUniqueness is the minimum distinct ratio of the PK side
	// (default 0.9).
	PKFKUniqueness float64
	// NumHashes is the MinHash width for candidate generation
	// (default 128).
	NumHashes int
}

func (c Config) withDefaults() Config {
	if c.ContentThreshold <= 0 {
		c.ContentThreshold = 0.25
	}
	if c.SchemaThreshold <= 0 {
		c.SchemaThreshold = 0.75
	}
	if c.PKFKContainment <= 0 {
		c.PKFKContainment = 0.85
	}
	if c.PKFKUniqueness <= 0 {
		c.PKFKUniqueness = 0.9
	}
	if c.NumHashes <= 0 {
		c.NumHashes = 128
	}
	return c
}

// Graph is the built discovery graph. Construct with Build; read-only
// afterwards.
type Graph struct {
	cfg   Config
	nodes []string // sorted column keys
	adj   map[string][]Edge
	// tableOf maps a column key to its table ID.
	tableOf map[string]string
	// colsOf maps a table ID to its column keys.
	colsOf map[string][]string
}

// nodeData carries per-column build state.
type nodeData struct {
	key      string
	tableID  string
	name     string
	distinct []string
	unique   float64 // distinct/rows
	sig      minhash.Signature
}

// Build constructs the graph over the tables' string-like columns.
func Build(tables []*table.Table, cfg Config) (*Graph, error) {
	cfg = cfg.withDefaults()
	hasher := minhash.NewHasher(cfg.NumHashes, 31)
	var nodes []nodeData
	for _, t := range tables {
		for _, c := range t.Columns {
			if c.Type != table.TypeString && c.Type != table.TypeDate && c.Type != table.TypeUnknown {
				continue
			}
			distinct := tokenize.NormalizeSet(c.Values)
			if len(distinct) < 2 {
				continue
			}
			nodes = append(nodes, nodeData{
				key:      table.ColumnKey(t.ID, c.Name),
				tableID:  t.ID,
				name:     c.Name,
				distinct: distinct,
				unique:   float64(len(distinct)) / float64(c.Len()),
				sig:      hasher.Sign(distinct),
			})
		}
	}
	if len(nodes) == 0 {
		return nil, errors.New("aurum: no usable columns")
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].key < nodes[j].key })
	g := &Graph{
		cfg:     cfg,
		adj:     make(map[string][]Edge),
		tableOf: make(map[string]string, len(nodes)),
		colsOf:  make(map[string][]string),
	}
	for _, n := range nodes {
		g.nodes = append(g.nodes, n.key)
		g.tableOf[n.key] = n.tableID
		g.colsOf[n.tableID] = append(g.colsOf[n.tableID], n.key)
	}
	// Content candidates via LSH, verified exactly.
	b, r := lsh.OptimalParams(cfg.ContentThreshold, cfg.NumHashes, 0.7, 0.3)
	ix := lsh.New(b, r)
	for _, n := range nodes {
		if err := ix.Add(n.sig); err != nil {
			return nil, err
		}
	}
	ix.Build()
	// Signatures went in in node order: an LSH ordinal is a node index.
	var (
		collided lsh.Seen
		cands    []int32
	)
	seen := make(map[[2]int]bool)
	for i, n := range nodes {
		collided.Reset(len(nodes))
		cands = ix.Query(cands[:0], n.sig, b, &collided)
		for _, cand := range cands {
			j := int(cand)
			if j == i || n.tableID == nodes[j].tableID {
				continue
			}
			a, bb := i, j
			if bb < a {
				a, bb = bb, a
			}
			if seen[[2]int{a, bb}] {
				continue
			}
			seen[[2]int{a, bb}] = true
			g.linkContent(&nodes[a], &nodes[bb])
		}
	}
	// Schema edges: name similarity across tables (exhaustive over
	// distinct names, which are few compared to columns).
	g.linkSchemas(nodes)
	for k := range g.adj {
		es := g.adj[k]
		sort.Slice(es, func(i, j int) bool {
			if es[i].Weight != es[j].Weight {
				return es[i].Weight > es[j].Weight
			}
			return es[i].To < es[j].To
		})
	}
	return g, nil
}

// linkContent verifies a candidate pair and adds content and PK-FK
// edges as evidence warrants.
func (g *Graph) linkContent(a, b *nodeData) {
	jac := minhash.ExactJaccard(a.distinct, b.distinct)
	if jac >= g.cfg.ContentThreshold {
		g.addEdge(Edge{From: a.key, To: b.key, Kind: ContentSim, Weight: jac})
	}
	// PK-FK: the FK side's values are contained in a near-unique PK
	// side. Test both directions.
	g.testPKFK(a, b)
	g.testPKFK(b, a)
}

// testPKFK adds a PKFK edge when fk's values sit inside pk's and pk
// looks like a key.
func (g *Graph) testPKFK(pk, fk *nodeData) {
	if pk.unique < g.cfg.PKFKUniqueness {
		return
	}
	c := minhash.ExactContainment(fk.distinct, pk.distinct)
	if c >= g.cfg.PKFKContainment {
		g.addEdge(Edge{From: fk.key, To: pk.key, Kind: PKFK, Weight: c})
	}
}

// linkSchemas scores every cross-table column pair by label. Columns
// are many and distinct labels few, so each label is normalised and
// interned once and each label pair scored once: sims[a*nl+b] memoises
// schema.LabelSimilarity in argument order (-1 = not yet scored),
// which makes every edge and weight the one NameMatcher would produce
// pair by pair.
func (g *Graph) linkSchemas(nodes []nodeData) {
	labelOf := make([]int, len(nodes))
	var labels []string
	ids := make(map[string]int)
	for i := range nodes {
		l := schema.NormLabel(nodes[i].name)
		id, ok := ids[l]
		if !ok {
			id = len(labels)
			ids[l] = id
			labels = append(labels, l)
		}
		labelOf[i] = id
	}
	nl := len(labels)
	sims := make([]float64, nl*nl)
	for i := range sims {
		sims[i] = -1
	}
	for i := range nodes {
		row := sims[labelOf[i]*nl : (labelOf[i]+1)*nl]
		for j := i + 1; j < len(nodes); j++ {
			if nodes[i].tableID == nodes[j].tableID {
				continue
			}
			s := &row[labelOf[j]]
			if *s < 0 {
				*s = schema.LabelSimilarity(labels[labelOf[i]], labels[labelOf[j]])
			}
			if *s >= g.cfg.SchemaThreshold {
				g.addEdge(Edge{From: nodes[i].key, To: nodes[j].key, Kind: SchemaSim, Weight: *s})
			}
		}
	}
}

// addEdge records the edge in both directions.
func (g *Graph) addEdge(e Edge) {
	g.adj[e.From] = append(g.adj[e.From], e)
	g.adj[e.To] = append(g.adj[e.To], Edge{From: e.To, To: e.From, Kind: e.Kind, Weight: e.Weight})
}

// NumColumns returns the node count.
func (g *Graph) NumColumns() int { return len(g.nodes) }

// NumEdges returns the undirected edge count.
func (g *Graph) NumEdges() int {
	n := 0
	for _, es := range g.adj {
		n += len(es)
	}
	return n / 2
}

// Neighbors returns a column's edges, optionally filtered by kind
// (pass -1 for all), strongest first.
func (g *Graph) Neighbors(columnKey string, kind EdgeKind) []Edge {
	var out []Edge
	for _, e := range g.adj[columnKey] {
		if kind < 0 || e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

// JoinHop is one step of a join path: join leftCol with rightCol.
type JoinHop struct {
	FromColumn string
	ToColumn   string
	Kind       EdgeKind
	Weight     float64
}

// JoinPath finds the shortest chain of joinable-column hops that
// connects two tables, preferring stronger evidence (PKFK > content)
// at equal length. minKind restricts usable edges (ContentSim skips
// schema-only edges). Returns nil when no path exists or maxHops is
// exceeded.
func (g *Graph) JoinPath(fromTable, toTable string, minKind EdgeKind, maxHops int) []JoinHop {
	if fromTable == toTable || maxHops <= 0 {
		return nil
	}
	start, okS := g.colsOf[fromTable]
	_, okT := g.colsOf[toTable]
	if !okS || !okT {
		return nil
	}
	// BFS over tables: state = table ID; transition = any edge of
	// sufficient kind from any of its columns.
	type state struct {
		tableID string
		path    []JoinHop
	}
	visited := map[string]bool{fromTable: true}
	queue := []state{{tableID: fromTable}}
	_ = start
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if len(cur.path) >= maxHops {
			continue
		}
		// Deterministic expansion order.
		cols := append([]string{}, g.colsOf[cur.tableID]...)
		sort.Strings(cols)
		for _, col := range cols {
			for _, e := range g.adj[col] {
				if e.Kind < minKind {
					continue
				}
				next := g.tableOf[e.To]
				if visited[next] {
					continue
				}
				hop := JoinHop{FromColumn: e.From, ToColumn: e.To, Kind: e.Kind, Weight: e.Weight}
				path := append(append([]JoinHop{}, cur.path...), hop)
				if next == toTable {
					return path
				}
				visited[next] = true
				queue = append(queue, state{tableID: next, path: path})
			}
		}
	}
	return nil
}

// RelatedTables returns tables reachable from the given table within
// maxHops over edges of at least minKind, nearest first.
func (g *Graph) RelatedTables(tableID string, minKind EdgeKind, maxHops int) []string {
	if _, ok := g.colsOf[tableID]; !ok {
		return nil
	}
	visited := map[string]int{tableID: 0}
	queue := []string{tableID}
	var out []string
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if visited[cur] >= maxHops {
			continue
		}
		cols := append([]string{}, g.colsOf[cur]...)
		sort.Strings(cols)
		for _, col := range cols {
			for _, e := range g.adj[col] {
				if e.Kind < minKind {
					continue
				}
				next := g.tableOf[e.To]
				if _, seen := visited[next]; seen {
					continue
				}
				visited[next] = visited[cur] + 1
				out = append(out, next)
				queue = append(queue, next)
			}
		}
	}
	return out
}
