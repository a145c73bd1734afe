package aurum

import (
	"fmt"
	"reflect"
	"testing"

	"tablehound/internal/datagen"
	"tablehound/internal/schema"
	"tablehound/internal/table"
)

// chainLake builds tables forming a join chain:
//
//	orders.customer_id -> customers.id (PKFK)
//	customers.city     ~  cities.city  (content overlap)
//
// plus an unrelated island table.
func chainLake() []*table.Table {
	n := 40
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("cust_%03d", i)
	}
	cities := make([]string, n)
	for i := range cities {
		cities[i] = fmt.Sprintf("city_%02d", i%12)
	}
	// Orders reference a subset of customers (FK side, repeats).
	orderCust := make([]string, 60)
	orderItem := make([]string, 60)
	for i := range orderCust {
		orderCust[i] = ids[i%25]
		orderItem[i] = fmt.Sprintf("item_%03d", i)
	}
	cityNames := make([]string, 12)
	cityPop := make([]string, 12)
	for i := range cityNames {
		cityNames[i] = fmt.Sprintf("city_%02d", i)
		cityPop[i] = fmt.Sprintf("%d", (i+1)*10000)
	}
	island := table.MustNew("island", "island", []*table.Column{
		table.NewColumn("gene", []string{"brca1", "tp53", "egfr"}),
		table.NewColumn("chrom", []string{"17", "17", "7"}),
	})
	return []*table.Table{
		table.MustNew("orders", "orders", []*table.Column{
			table.NewColumn("customer_id", orderCust),
			table.NewColumn("item", orderItem),
		}),
		table.MustNew("customers", "customers", []*table.Column{
			table.NewColumn("id", ids),
			table.NewColumn("city", cities),
		}),
		table.MustNew("cities", "cities", []*table.Column{
			table.NewColumn("city", cityNames),
			table.NewColumn("population", cityPop),
		}),
		island,
	}
}

func buildChain(t *testing.T) *Graph {
	t.Helper()
	g, err := Build(chainLake(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuildGraphShape(t *testing.T) {
	g := buildChain(t)
	if g.NumColumns() == 0 || g.NumEdges() == 0 {
		t.Fatalf("graph empty: %d cols %d edges", g.NumColumns(), g.NumEdges())
	}
}

func TestPKFKDetected(t *testing.T) {
	g := buildChain(t)
	es := g.Neighbors("orders.customer_id", PKFK)
	found := false
	for _, e := range es {
		if e.To == "customers.id" {
			found = true
			if e.Weight < 0.9 {
				t.Errorf("PKFK weight = %v", e.Weight)
			}
		}
	}
	if !found {
		t.Errorf("PKFK orders.customer_id -> customers.id missing; edges: %+v", es)
	}
	// The reverse direction must NOT be a PKFK edge from customers.id
	// (customers.id is the key; orders side is not unique).
	for _, e := range g.Neighbors("customers.id", PKFK) {
		if e.To == "orders.customer_id" && e.From == "customers.id" {
			// The symmetric record of the same edge is fine; a genuine
			// reversed PKFK (orders.customer_id as PK) is not.
			continue
		}
	}
}

func TestContentEdge(t *testing.T) {
	g := buildChain(t)
	es := g.Neighbors("customers.city", ContentSim)
	found := false
	for _, e := range es {
		if e.To == "cities.city" {
			found = true
		}
	}
	if !found {
		t.Errorf("content edge customers.city ~ cities.city missing; %+v", es)
	}
}

func TestSchemaEdge(t *testing.T) {
	g := buildChain(t)
	es := g.Neighbors("customers.city", SchemaSim)
	found := false
	for _, e := range es {
		if e.To == "cities.city" {
			found = true
		}
	}
	if !found {
		t.Error("identical names should produce a schema edge")
	}
}

func TestJoinPathAcrossChain(t *testing.T) {
	g := buildChain(t)
	path := g.JoinPath("orders", "cities", ContentSim, 4)
	if len(path) != 2 {
		t.Fatalf("path = %+v, want 2 hops", path)
	}
	if path[0].ToColumn != "customers.id" && path[0].ToColumn != "customers.city" {
		t.Errorf("first hop = %+v", path[0])
	}
	if path[1].ToColumn != "cities.city" {
		t.Errorf("second hop = %+v", path[1])
	}
	// No path to the island.
	if p := g.JoinPath("orders", "island", ContentSim, 5); p != nil {
		t.Errorf("island reached: %+v", p)
	}
	// Hop limit respected.
	if p := g.JoinPath("orders", "cities", ContentSim, 1); p != nil {
		t.Errorf("1-hop limit violated: %+v", p)
	}
	// Self and unknown tables.
	if g.JoinPath("orders", "orders", ContentSim, 3) != nil {
		t.Error("self path should be nil")
	}
	if g.JoinPath("orders", "nope", ContentSim, 3) != nil {
		t.Error("unknown table should be nil")
	}
}

func TestRelatedTables(t *testing.T) {
	g := buildChain(t)
	rel := g.RelatedTables("orders", ContentSim, 2)
	want := map[string]bool{"customers": true, "cities": true}
	if len(rel) != 2 {
		t.Fatalf("related = %v", rel)
	}
	for _, id := range rel {
		if !want[id] {
			t.Errorf("unexpected related table %s", id)
		}
	}
	// Nearest first.
	if rel[0] != "customers" {
		t.Errorf("order = %v", rel)
	}
	if g.RelatedTables("nope", ContentSim, 2) != nil {
		t.Error("unknown table should be nil")
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(nil, Config{}); err == nil {
		t.Error("empty build should fail")
	}
	numeric := table.MustNew("n", "n", []*table.Column{
		table.NewColumn("x", []string{"1", "2", "3"}),
	})
	if _, err := Build([]*table.Table{numeric}, Config{}); err == nil {
		t.Error("no string columns should fail")
	}
}

func TestEdgeKindString(t *testing.T) {
	if SchemaSim.String() != "schema" || ContentSim.String() != "content" ||
		PKFK.String() != "pkfk" || EdgeKind(9).String() != "unknown" {
		t.Error("EdgeKind strings wrong")
	}
}

// linkSchemasReference is the pair-by-pair scoring linkSchemas
// replaced, kept as the oracle: two throwaway columns and one
// NameMatcher call for every cross-table column pair.
func (g *Graph) linkSchemasReference(nodes []nodeData) {
	m := schema.NameMatcher{}
	for i := range nodes {
		for j := i + 1; j < len(nodes); j++ {
			if nodes[i].tableID == nodes[j].tableID {
				continue
			}
			ci := table.NewColumn(nodes[i].name, nil)
			cj := table.NewColumn(nodes[j].name, nil)
			if s := m.Score(ci, cj); s >= g.cfg.SchemaThreshold {
				g.addEdge(Edge{From: nodes[i].key, To: nodes[j].key, Kind: SchemaSim, Weight: s})
			}
		}
	}
}

// TestLinkSchemasMatchesPerPairReference pins the memoised schema
// linking to the per-pair NameMatcher scoring on a generated lake,
// whose headers repeat across the tables of a template ("dom03_1" many
// times over) and differ by one character between columns ("dom03_1" /
// "dom03_2", "note_0" / "note_1"), plus hand-written labels that only
// normalisation makes equal: same edges, same weights, same insertion
// order — which is what keeps snapshot bytes unchanged.
func TestLinkSchemasMatchesPerPairReference(t *testing.T) {
	gen := datagen.Generate(datagen.Config{Seed: 5, NumDomains: 8, DomainSize: 30, NumTemplates: 5, TablesPerTemplate: 6})
	var nodes []nodeData
	for _, tb := range gen.Tables {
		for _, c := range tb.Columns {
			nodes = append(nodes, nodeData{key: table.ColumnKey(tb.ID, c.Name), tableID: tb.ID, name: c.Name})
		}
	}
	for i, name := range []string{"Customer-ID", "customer_id", "customer id", "CustomerID", "", "_", "customer_ids"} {
		id := fmt.Sprintf("hand%d", i)
		nodes = append(nodes, nodeData{key: table.ColumnKey(id, name), tableID: id, name: name})
	}
	cfg := Config{}.withDefaults()
	got := &Graph{cfg: cfg, adj: make(map[string][]Edge)}
	want := &Graph{cfg: cfg, adj: make(map[string][]Edge)}
	got.linkSchemas(nodes)
	want.linkSchemasReference(nodes)
	if want.NumEdges() == 0 {
		t.Fatal("reference linked nothing; the fixture no longer exercises schema edges")
	}
	if !reflect.DeepEqual(got.adj, want.adj) {
		t.Fatalf("memoised linking differs from the per-pair reference: %d edges, want %d", got.NumEdges(), want.NumEdges())
	}
}
