package annotate

import (
	"fmt"
	"math/rand"
	"testing"

	"tablehound/internal/datagen"
	"tablehound/internal/table"
)

// typedCorpus builds labeled columns from a generated lake: the label
// is the ground-truth domain name. Returns train and test splits with
// disjoint columns (but shared domains).
func typedCorpus(t *testing.T) (train, test []Example) {
	t.Helper()
	lake := datagen.Generate(datagen.Config{
		Seed:              31,
		NumDomains:        10,
		DomainSize:        150,
		NumTemplates:      8,
		TablesPerTemplate: 6,
		NoiseCols:         -1,
		NumericCols:       -1,
	})
	rng := rand.New(rand.NewSource(5))
	for _, tbl := range lake.Tables {
		for _, c := range tbl.Columns {
			d, ok := lake.ColumnDomain[table.ColumnKey(tbl.ID, c.Name)]
			if !ok {
				continue
			}
			ex := Example{Values: c.Values, Header: "col", Label: lake.DomainNames[d]}
			if rng.Float64() < 0.7 {
				train = append(train, ex)
			} else {
				test = append(test, ex)
			}
		}
	}
	return train, test
}

func accuracy(predict func([]string, string) (string, float64), test []Example) float64 {
	hit := 0
	for _, ex := range test {
		if l, _ := predict(ex.Values, ex.Header); l == ex.Label {
			hit++
		}
	}
	return float64(hit) / float64(len(test))
}

func TestLearnedAnnotatorAccuracy(t *testing.T) {
	train, test := typedCorpus(t)
	a, err := Train(train, Config{Epochs: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(a.Predict, test); acc < 0.8 {
		t.Errorf("learned accuracy = %.3f, want >= 0.8", acc)
	}
}

func TestLearnedBeatsRuleBaseline(t *testing.T) {
	train, test := typedCorpus(t)
	a, err := Train(train, Config{Epochs: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	learned := accuracy(a.Predict, test)
	rule := accuracy(RulePredict, test)
	if learned <= rule {
		t.Errorf("learned %.3f should beat rules %.3f on semantic types", learned, rule)
	}
}

func TestDictionaryBaselineHighPrecisionOnSeen(t *testing.T) {
	train, test := typedCorpus(t)
	d := TrainDictionary(train)
	// Values are shared between train and test columns of the same
	// domain, so dictionary lookup performs well here...
	if acc := accuracy(d.Predict, test); acc < 0.8 {
		t.Errorf("dictionary accuracy on overlapping vocab = %.3f", acc)
	}
	// ...but it cannot type unseen values at all.
	if l, conf := d.Predict([]string{"never", "seen", "values"}, ""); l != "" || conf != 0 {
		t.Errorf("dictionary on unseen = %q, %v", l, conf)
	}
}

func TestSatoSmoothingFixesAmbiguousColumn(t *testing.T) {
	// Train on two domains with distinct vocabularies plus an
	// ambiguous "shared" vocabulary that appears under both labels in
	// proportion to the table topic.
	var train []Example
	for i := 0; i < 30; i++ {
		train = append(train,
			Example{Values: vals("citya", 20, i), Header: "h", Label: "city"},
			Example{Values: vals("generic", 20, i), Header: "h", Label: "city"},
			Example{Values: vals("teamb", 20, i), Header: "h", Label: "team"},
		)
	}
	a, err := Train(train, Config{Epochs: 25, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// A table whose siblings are clearly "city": the ambiguous column
	// should lean city under smoothing.
	tbl := table.MustNew("t", "t", []*table.Column{
		table.NewColumn("a", vals("citya", 20, 99)),
		table.NewColumn("b", vals("citya", 20, 98)),
		table.NewColumn("amb", vals("generic", 20, 97)),
	})
	smoothed := a.AnnotateTable(tbl, true)
	if smoothed[2].Label != "city" {
		t.Errorf("smoothed ambiguous label = %q", smoothed[2].Label)
	}
	// Smoothing changes scores relative to the raw pass.
	raw := a.AnnotateTable(tbl, false)
	if raw[2].Score == smoothed[2].Score {
		t.Error("smoothing had no effect on scores")
	}
}

func vals(prefix string, n, salt int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s_%03d", prefix, (i*7+salt)%50)
	}
	return out
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil, Config{}); err == nil {
		t.Error("empty training set should fail")
	}
}

func TestFeaturesShapeAndSignals(t *testing.T) {
	f := Features([]string{"2020-01-01", "2021-05-05"}, "date_col")
	if len(f) != FeatureDim {
		t.Fatalf("dim = %d", len(f))
	}
	if f[2] != 1 { // date fraction
		t.Errorf("date fraction = %v", f[2])
	}
	fn := Features([]string{"1", "2", "3"}, "n")
	if fn[1] != 1 { // numeric fraction
		t.Errorf("numeric fraction = %v", fn[1])
	}
	if fe := Features(nil, "x"); len(fe) != FeatureDim {
		t.Error("empty column features wrong size")
	}
	// Distinct ratio: repeated values lower it.
	fr := Features([]string{"a", "a", "a", "b"}, "")
	if fr[4] != 0.5 {
		t.Errorf("distinct ratio = %v", fr[4])
	}
}

func TestScoresSumToOne(t *testing.T) {
	train, _ := typedCorpus(t)
	a, err := Train(train[:50], Config{Epochs: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	s := a.Scores([]string{"city_0001", "city_0002"}, "h")
	var sum float64
	for _, v := range s {
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("score sum = %v", sum)
	}
	if len(a.Labels()) == 0 {
		t.Error("no labels")
	}
}

func TestRulePredictTypes(t *testing.T) {
	cases := []struct {
		vals []string
		want string
	}{
		{[]string{"1", "2"}, "int"},
		{[]string{"1.5", "2.5"}, "float"},
		{[]string{"2020-01-01"}, "date"},
		{[]string{"true", "false"}, "bool"},
		{[]string{"hello", "world"}, "text"},
	}
	for _, c := range cases {
		if got, _ := RulePredict(c.vals, ""); got != c.want {
			t.Errorf("RulePredict(%v) = %q, want %q", c.vals, got, c.want)
		}
	}
	if got, conf := RulePredict(nil, ""); got != "" || conf != 0 {
		t.Error("empty column should be unknown")
	}
}

// TestAnnotateEndToEnd trains the detector on the ground-truth domains
// of a generated lake's first ten tables and annotates a table with
// Sato-style smoothing: one prediction per column.
func TestAnnotateEndToEnd(t *testing.T) {
	gen := datagen.Generate(datagen.Config{
		Seed:              51,
		NumDomains:        12,
		DomainSize:        80,
		NumTemplates:      5,
		TablesPerTemplate: 4,
	})
	var examples []Example
	for _, tbl := range gen.Tables[:10] {
		for _, c := range tbl.Columns {
			if d, ok := gen.ColumnDomain[table.ColumnKey(tbl.ID, c.Name)]; ok {
				examples = append(examples, Example{
					Values: c.Values, Header: c.Name, Label: gen.DomainNames[d],
				})
			}
		}
	}
	a, err := Train(examples, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if preds := a.AnnotateTable(gen.Tables[0], true); len(preds) != gen.Tables[0].NumCols() {
		t.Errorf("predictions = %d, want %d", len(preds), gen.Tables[0].NumCols())
	}
}
