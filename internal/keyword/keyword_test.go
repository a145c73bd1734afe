package keyword

import (
	"testing"

	"tablehound/internal/table"
)

func mkTable(id, name, desc string, tags []string, headers ...string) *table.Table {
	cols := make([]*table.Column, len(headers))
	for i, h := range headers {
		cols[i] = table.NewColumn(h, []string{"x"})
	}
	t := table.MustNew(id, name, cols)
	t.Description = desc
	t.Tags = tags
	return t
}

func demoIndex() *Index {
	return NewIndex([]*table.Table{
		mkTable("t1", "city population", "population counts for world cities", []string{"demographics"}, "city", "population", "year"),
		mkTable("t2", "company revenue", "annual revenue of tech companies", []string{"finance"}, "company", "revenue"),
		mkTable("t3", "city weather", "daily weather observations by city", []string{"climate"}, "city", "temp", "rain"),
		mkTable("t4", "bird sightings", "sightings of rare birds", []string{"nature"}, "species", "count"),
	})
}

func ids(rs []Result) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.TableID
	}
	return out
}

func TestSearchRanksRelevantFirst(t *testing.T) {
	ix := demoIndex()
	res := ix.Search("city population", 4)
	if len(res) == 0 || res[0].TableID != "t1" {
		t.Fatalf("top result = %v, want t1", ids(res))
	}
	// t3 matches "city" only; must rank after t1 but be present.
	found := false
	for _, r := range res {
		if r.TableID == "t3" {
			found = true
		}
		if r.TableID == "t4" {
			t.Error("irrelevant table retrieved")
		}
	}
	if !found {
		t.Error("partial match t3 missing")
	}
}

func TestSearchNameBeatsHeader(t *testing.T) {
	ix := NewIndex([]*table.Table{
		mkTable("byname", "weather data", "", nil, "a", "b"),
		mkTable("byheader", "misc", "", nil, "weather", "b"),
	})
	res := ix.Search("weather", 2)
	if len(res) != 2 || res[0].TableID != "byname" {
		t.Errorf("results = %v, want byname first", ids(res))
	}
}

func TestSearchEdgeCases(t *testing.T) {
	ix := demoIndex()
	if ix.Search("", 5) != nil {
		t.Error("empty query should return nil")
	}
	if ix.Search("the of and", 5) != nil {
		t.Error("stopword-only query should return nil")
	}
	if ix.Search("city", 0) != nil {
		t.Error("k=0 should return nil")
	}
	if got := ix.Search("zebra", 5); got != nil {
		t.Errorf("no-match query = %v", got)
	}
	if got := ix.Search("city", 1); len(got) != 1 {
		t.Errorf("k=1 returned %d", len(got))
	}
}

func TestBooleanSearch(t *testing.T) {
	ix := demoIndex()
	any := ix.BooleanSearch("city revenue", 10, false)
	if len(any) != 3 { // t1, t2, t3
		t.Errorf("OR matched %v", ids(any))
	}
	all := ix.BooleanSearch("city revenue", 10, true)
	if len(all) != 0 {
		t.Errorf("AND matched %v", ids(all))
	}
	all2 := ix.BooleanSearch("city population", 10, true)
	if len(all2) != 1 || all2[0].TableID != "t1" {
		t.Errorf("AND city population = %v", ids(all2))
	}
}

func TestBM25PrefersRareTerms(t *testing.T) {
	// "city" appears in two tables, "bird" in one; a doc matching the
	// rare term should outrank a doc matching the common one for a
	// two-term query matching one term each.
	ix := demoIndex()
	res := ix.Search("city bird", 4)
	if len(res) < 2 {
		t.Fatalf("results = %v", ids(res))
	}
	if res[0].TableID != "t4" {
		t.Errorf("rare-term doc should rank first, got %v", ids(res))
	}
}

func TestLen(t *testing.T) {
	if demoIndex().Len() != 4 {
		t.Error("Len wrong")
	}
}

// TestSearchWithoutExplicitFinish checks that an index is searchable
// straight from NewIndex, and that growing the lake means building a
// new index from the larger slice, which sees every table.
func TestSearchWithoutExplicitFinish(t *testing.T) {
	tables := []*table.Table{mkTable("t1", "solar panels", "", nil, "watts")}
	if res := NewIndex(tables).Search("solar", 1); len(res) != 1 {
		t.Errorf("Search on a fresh index = %v, want one hit", ids(res))
	}
	tables = append(tables, mkTable("t2", "solar farms", "", nil, "acres"))
	if res := NewIndex(tables).Search("solar", 5); len(res) != 2 {
		t.Errorf("Search on the rebuilt index = %v, want two hits", ids(res))
	}
}
