package apps

import (
	"testing"

	"tablehound/internal/datagen"
	"tablehound/internal/table"
)

// capitalLake builds tables encoding capitalOf plus a conflicting
// "largest city" relation over the same entity column.
func capitalLake() []*table.Table {
	countries := []string{"france", "japan", "egypt", "peru", "kenya", "norway"}
	capitals := []string{"paris", "tokyo", "cairo", "lima", "nairobi", "oslo"}
	// A different relation over the same entities (largest city),
	// diverging from capitalOf on the example rows.
	largest := []string{"marseille", "osaka", "cairo", "lima", "mombasa", "bergen"}
	t1 := table.MustNew("caps1", "capitals part 1", []*table.Column{
		table.NewColumn("country", countries[:4]),
		table.NewColumn("capital", capitals[:4]),
	})
	t2 := table.MustNew("caps2", "capitals part 2", []*table.Column{
		table.NewColumn("country", countries[2:]),
		table.NewColumn("capital", capitals[2:]),
	})
	t3 := table.MustNew("big", "largest cities", []*table.Column{
		table.NewColumn("country", countries),
		table.NewColumn("biggest", largest),
	})
	// A table with a wrong/conflicting mapping.
	t4 := table.MustNew("junk", "junk", []*table.Column{
		table.NewColumn("country", countries),
		table.NewColumn("random", []string{"a", "b", "c", "d", "e", "f"}),
	})
	return []*table.Table{t1, t2, t3, t4}
}

func TestAugmentByExample(t *testing.T) {
	a := NewEntityAugmenter(capitalLake())
	entities := []string{"France", "Japan", "Egypt", "Peru", "Kenya", "Norway"}
	examples := map[string]string{"France": "Paris", "Japan": "Tokyo"}
	got := a.AugmentByExample(entities, examples, 0.5)
	want := map[string]string{"Egypt": "cairo", "Peru": "lima", "Kenya": "nairobi", "Norway": "oslo"}
	for e, v := range want {
		av, ok := got[e]
		if !ok {
			t.Errorf("no value for %s", e)
			continue
		}
		if av.Value != v {
			t.Errorf("%s = %q, want %q", e, av.Value, v)
		}
		if av.Confidence <= 0 || av.Confidence > 1 {
			t.Errorf("%s confidence = %v", e, av.Confidence)
		}
		if len(av.Sources) == 0 {
			t.Errorf("%s has no sources", e)
		}
	}
	// Example entities are not re-derived.
	if _, ok := got["France"]; ok {
		t.Error("example entity should not be in output")
	}
	// Norway appears only in caps2 (which touches no example) and the
	// largest-city table (which contradicts both examples). Holistic
	// propagation must carry caps1's trust to caps2 through their
	// shared pairs, and the contradicting relation must be vetoed.
	if got["Norway"].Value != "oslo" {
		t.Errorf("Norway = %q; holistic propagation should pick oslo", got["Norway"].Value)
	}
}

func TestAugmentByExampleNoExamples(t *testing.T) {
	a := NewEntityAugmenter(capitalLake())
	if got := a.AugmentByExample([]string{"France"}, nil, 0.5); got != nil {
		t.Error("no examples should produce nil")
	}
}

func TestAugmentByExampleMinSupport(t *testing.T) {
	a := NewEntityAugmenter(capitalLake())
	// With impossible support demands nothing votes.
	got := a.AugmentByExample([]string{"Egypt"},
		map[string]string{"France": "Paris", "Japan": "Tokyo", "NoSuch": "x"}, 0.9)
	if len(got) != 0 {
		t.Errorf("over-strict support produced %v", got)
	}
}

func TestAugmentByAttribute(t *testing.T) {
	a := NewEntityAugmenter(capitalLake())
	got := a.AugmentByAttribute([]string{"France", "Kenya", "Atlantis"}, "country", "capital")
	if got["France"].Value != "paris" || got["Kenya"].Value != "nairobi" {
		t.Errorf("by-attribute = %v", got)
	}
	if _, ok := got["Atlantis"]; ok {
		t.Error("unknown entity should be absent")
	}
	// Kenya appears in both capital tables: confidence 1, two sources.
	if got["Kenya"].Confidence != 1 || len(got["Kenya"].Sources) != 1 {
		// caps2 only (caps1 holds first 4 countries).
		if len(got["Kenya"].Sources) == 0 {
			t.Errorf("Kenya sources = %v", got["Kenya"].Sources)
		}
	}
}

func TestAugmentConflictingEvidence(t *testing.T) {
	// Two tables assert different values; the one confirming more
	// examples wins.
	t1 := table.MustNew("good", "good", []*table.Column{
		table.NewColumn("e", []string{"e1", "e2", "e3", "e4"}),
		table.NewColumn("v", []string{"a1", "a2", "a3", "a4"}),
	})
	t2 := table.MustNew("bad", "bad", []*table.Column{
		table.NewColumn("e", []string{"e1", "e2", "e3", "e4"}),
		table.NewColumn("v", []string{"a1", "x2", "x3", "x4"}),
	})
	a := NewEntityAugmenter([]*table.Table{t1, t2})
	got := a.AugmentByExample([]string{"e3", "e4"},
		map[string]string{"e1": "a1", "e2": "a2"}, 0.5)
	if got["e3"].Value != "a3" || got["e4"].Value != "a4" {
		t.Errorf("conflict resolution failed: %v", got)
	}
	// The bad table disagrees with e2 -> must be excluded (disagree >
	// agree is false here: agrees on e1, disagrees on e2 -> 1 vs 1 ->
	// excluded by disagree >= agree? agree=1, disagree=1 -> kept only
	// if disagree <= agree; boundary keeps it but support 0.5 kept.
	// The good table confirms both examples and outweighs it anyway.
	if got["e3"].Confidence <= 0.5 {
		t.Errorf("good table should dominate: %v", got["e3"])
	}
}

func TestRelationsDedup(t *testing.T) {
	// Duplicate entity rows: first value wins, no panic.
	tbl := table.MustNew("dup", "dup", []*table.Column{
		table.NewColumn("e", []string{"x", "x"}),
		table.NewColumn("v", []string{"first", "second"}),
	})
	a := NewEntityAugmenter([]*table.Table{tbl})
	got := a.AugmentByAttribute([]string{"x"}, "e", "v")
	if got["x"].Value != "first" {
		t.Errorf("dup handling = %v", got)
	}
}

// TestAugmentEntitiesEndToEnd fills an attribute from two example
// pairs over a generated lake: a template table's first two columns
// are the relation, and a third entity of it must be augmented.
func TestAugmentEntitiesEndToEnd(t *testing.T) {
	gen := datagen.Generate(datagen.Config{
		Seed:              51,
		NumDomains:        12,
		DomainSize:        80,
		NumTemplates:      5,
		TablesPerTemplate: 4,
	})
	tbl := gen.Tables[0]
	ents := tbl.Columns[0].Values
	vals := tbl.Columns[1].Values
	examples := map[string]string{ents[0]: vals[0]}
	// Find a second distinct example and a target entity.
	var target string
	for i := 1; i < len(ents); i++ {
		if ents[i] != ents[0] {
			if len(examples) < 2 {
				examples[ents[i]] = vals[i]
			} else {
				target = ents[i]
				break
			}
		}
	}
	if target == "" {
		t.Skip("not enough distinct entities")
	}
	got := NewEntityAugmenter(gen.Tables).AugmentByExample([]string{target}, examples, 0.5)
	if len(got) == 0 {
		t.Fatalf("no augmentation for %q", target)
	}
}
