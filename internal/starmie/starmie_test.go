package starmie

import (
	"context"
	"testing"

	"tablehound/internal/datagen"
	"tablehound/internal/embedding"
	"tablehound/internal/metrics"
	"tablehound/internal/table"
)

func testLake() (*datagen.Lake, *embedding.Model) {
	lake := datagen.Generate(datagen.Config{
		Seed:              21,
		NumDomains:        14,
		DomainSize:        100,
		NumTemplates:      5,
		TablesPerTemplate: 5,
	})
	model := embedding.Train(lake.ColumnContexts(), embedding.Config{Dim: 64, Seed: 9})
	return lake, model
}

func TestEncodeColumnsContextShiftsVectors(t *testing.T) {
	_, model := testLake()
	enc := NewEncoder(model, 0.4)
	free := NewEncoder(model, 0)
	// Same column values in two different table contexts.
	shared := []string{"alpha", "beta", "gamma", "delta"}
	t1 := table.MustNew("t1", "t1", []*table.Column{
		table.NewColumn("x", shared),
		table.NewColumn("ctx", []string{"red", "green", "blue", "cyan"}),
	})
	t2 := table.MustNew("t2", "t2", []*table.Column{
		table.NewColumn("x", shared),
		table.NewColumn("ctx", []string{"paris", "tokyo", "cairo", "lima"}),
	})
	c1 := enc.EncodeColumns(t1)[0]
	c2 := enc.EncodeColumns(t2)[0]
	f1 := free.EncodeColumns(t1)[0]
	f2 := free.EncodeColumns(t2)[0]
	// Context-free vectors are identical; contextual ones diverge.
	if embedding.Cosine(f1, f2) < 0.999 {
		t.Error("context-free encoder should ignore context")
	}
	if embedding.Cosine(c1, c2) > 0.98 {
		t.Errorf("contextual vectors too similar: %v", embedding.Cosine(c1, c2))
	}
}

func TestEncoderClampsWeight(t *testing.T) {
	_, model := testLake()
	if NewEncoder(model, -1).contextWeight != 0 {
		t.Error("negative weight not clamped")
	}
	if NewEncoder(model, 5).contextWeight != 0.9 {
		t.Error("excess weight not clamped")
	}
}

func TestSearchTablesFindsUnionable(t *testing.T) {
	lake, model := testLake()
	ix := NewIndex(NewEncoder(model, 0.3))
	for _, tbl := range lake.Tables {
		ix.AddTable(tbl)
	}
	if err := ix.Build(); err != nil {
		t.Fatal(err)
	}
	var retrieved [][]string
	var relevant []map[string]bool
	for i := 0; i < 5; i++ {
		q := lake.Tables[i*5]
		res, err := ix.SearchTables(context.Background(), q, 4, 64, false)
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]string, len(res))
		for j, r := range res {
			ids[j] = r.TableID
		}
		retrieved = append(retrieved, ids)
		relevant = append(relevant, lake.UnionableWith(q.ID))
	}
	if m := metrics.MAP(retrieved, relevant); m < 0.6 {
		t.Errorf("MAP = %.3f, want >= 0.6", m)
	}
}

func TestApproxMatchesExactRetrieval(t *testing.T) {
	lake, model := testLake()
	ix := NewIndex(NewEncoder(model, 0.3))
	for _, tbl := range lake.Tables {
		ix.AddTable(tbl)
	}
	if err := ix.Build(); err != nil {
		t.Fatal(err)
	}
	q := lake.Tables[3]
	qv := ix.enc.EncodeColumns(q)[0]
	exact := ix.SearchColumns(qv, 10, 0, true)
	approx := ix.SearchColumns(qv, 10, 100, false)
	truthSet := map[string]bool{}
	for _, r := range exact {
		truthSet[r.Key] = true
	}
	hits := 0
	for _, r := range approx {
		if truthSet[r.Key] {
			hits++
		}
	}
	if float64(hits)/float64(len(exact)) < 0.8 {
		t.Errorf("HNSW recall@10 vs exact = %d/%d", hits, len(exact))
	}
}

func TestIndexErrorsAndDedup(t *testing.T) {
	_, model := testLake()
	ix := NewIndex(NewEncoder(model, 0.3))
	if err := ix.Build(); err == nil {
		t.Error("empty Build should fail")
	}
	tbl := table.MustNew("t", "t", []*table.Column{
		table.NewColumn("a", []string{"x", "y"}),
	})
	ix.AddTable(tbl)
	ix.AddTable(tbl) // duplicate ignored
	if ix.NumColumns() != 1 {
		t.Errorf("NumColumns = %d", ix.NumColumns())
	}
}

func TestHomographDisambiguation(t *testing.T) {
	// The Starmie headline: a homograph column ("jaguar" the animal vs
	// the car) retrieves context-consistent matches when encoded with
	// context. Build a lake where the same value set appears with two
	// context column types.
	model := embedding.Train([][]string{
		{"lion", "tiger", "panther", "leopard", "jaguar"},
		{"ford", "toyota", "honda", "jaguar", "bmw"},
		{"habitat_forest", "habitat_savanna", "habitat_jungle"},
		{"dealer_north", "dealer_south", "dealer_west"},
	}, embedding.Config{Dim: 64, Seed: 2})
	animals := []string{"lion", "tiger", "jaguar", "panther"}
	cars := []string{"ford", "jaguar", "toyota", "honda"}
	habitats := []string{"habitat_forest", "habitat_savanna", "habitat_jungle", "habitat_forest"}
	dealers := []string{"dealer_north", "dealer_south", "dealer_west", "dealer_north"}

	mk := func(id string, a, b []string) *table.Table {
		return table.MustNew(id, id, []*table.Column{
			table.NewColumn("subject", a),
			table.NewColumn("context", b),
		})
	}
	ix := NewIndex(NewEncoder(model, 0.5))
	ix.AddTable(mk("animals1", animals, habitats))
	ix.AddTable(mk("cars1", cars, dealers))
	if err := ix.Build(); err != nil {
		t.Fatal(err)
	}
	// Query: an animal table containing the homograph.
	q := mk("query", []string{"jaguar", "leopard", "lion", "tiger"}, habitats)
	res, err := ix.SearchTables(context.Background(), q, 2, 64, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 || res[0].TableID != "animals1" {
		t.Errorf("contextual search results = %+v, want animals1 first", res)
	}
}

func TestSearchTablesSkipsSelf(t *testing.T) {
	lake, model := testLake()
	ix := NewIndex(NewEncoder(model, 0.3))
	for _, tbl := range lake.Tables {
		ix.AddTable(tbl)
	}
	if err := ix.Build(); err != nil {
		t.Fatal(err)
	}
	q := lake.Tables[0]
	res, err := ix.SearchTables(context.Background(), q, 30, 64, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.TableID == q.ID {
			t.Error("query table returned as its own result")
		}
	}
}
