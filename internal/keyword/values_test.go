package keyword

import (
	"testing"

	"tablehound/internal/table"
)

func valueTables() []*table.Table {
	mk := func(id string, cols map[string][]string) *table.Table {
		var cs []*table.Column
		// Deterministic column order.
		for _, name := range []string{"city", "mayor", "team", "player"} {
			if vals, ok := cols[name]; ok {
				cs = append(cs, table.NewColumn(name, vals))
			}
		}
		return table.MustNew(id, id, cs)
	}
	return []*table.Table{
		mk("cities1", map[string][]string{
			"city":  {"boston", "cambridge"},
			"mayor": {"wu", "siddiqui"},
		}),
		mk("cities2", map[string][]string{
			"city":  {"boston", "somerville"},
			"mayor": {"wu", "ballantyne"},
		}),
		mk("teams", map[string][]string{
			"team":   {"celtics", "bruins"},
			"player": {"tatum", "pastrnak"},
		}),
	}
}

func TestValueSearchHitsCellContents(t *testing.T) {
	ix := NewValueIndex(valueTables())
	res := ix.Search("boston", 5)
	if len(res) != 2 {
		t.Fatalf("results = %v", res)
	}
	for _, r := range res {
		if r.TableID == "teams" {
			t.Error("teams has no boston cell")
		}
	}
	if res := ix.Search("tatum", 5); len(res) != 1 || res[0].TableID != "teams" {
		t.Errorf("tatum results = %v", res)
	}
	if ix.Search("", 5) != nil || ix.Search("boston", 0) != nil {
		t.Error("degenerate queries should return nil")
	}
	if ix.Len() != 3 {
		t.Errorf("Len = %d", ix.Len())
	}
}

// TestValueIndexSelfFinish checks that a value index is searchable
// straight from NewValueIndex, with no finishing step.
func TestValueIndexSelfFinish(t *testing.T) {
	ix := NewValueIndex(valueTables()[:1])
	if res := ix.Search("boston", 1); len(res) != 1 {
		t.Errorf("Search on a fresh value index = %v, want one hit", res)
	}
}

func TestSearchClustersGroupBySchema(t *testing.T) {
	ix := NewValueIndex(valueTables())
	clusters := ix.SearchClusters("boston wu", 10)
	if len(clusters) != 1 {
		t.Fatalf("clusters = %+v", clusters)
	}
	cl := clusters[0]
	if len(cl.TableIDs) != 2 {
		t.Errorf("cluster members = %v", cl.TableIDs)
	}
	if len(cl.Schema) != 2 || cl.Schema[0] != "city" {
		t.Errorf("cluster schema = %v", cl.Schema)
	}
	// A query matching both schemas yields two clusters, best first.
	clusters = ix.SearchClusters("boston celtics", 10)
	if len(clusters) != 2 {
		t.Fatalf("two-schema clusters = %+v", clusters)
	}
	if clusters[0].Score < clusters[1].Score {
		t.Error("clusters not sorted by score")
	}
	if ix.SearchClusters("zzzz", 10) != nil {
		t.Error("no-hit query should return nil clusters")
	}
}
