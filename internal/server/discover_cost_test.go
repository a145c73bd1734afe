package server

import (
	"encoding/json"
	"strings"
	"testing"

	"tablehound/internal/discover"
)

// TestDiscoverExplainEstimates checks the wire explain block carries
// the cost-model fields: prefilter rows have est_out, a provably-total
// stage reads skipped, and the selective keyword ran first.
func TestDiscoverExplainEstimates(t *testing.T) {
	_, ts, gen := newTestServer(t, Config{})
	qt := gen.Tables[0]
	resp, body := postJSON(t, ts.URL+"/v1/discover", DiscoverRequest{
		TableID: qt.ID, Relation: "union", K: 5, Explain: true,
		Predicates: discover.Predicates{MinRows: 1, Keywords: "template0"},
	})
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var out DiscoverResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Explain) == 0 {
		t.Fatal("no explain block")
	}
	if out.Explain[0].Stage != discover.StageKeyword {
		t.Errorf("first stage = %s, want the selective keyword first", out.Explain[0].Stage)
	}
	var sawSkip, sawEst bool
	for _, st := range out.Explain {
		if st.Stage == discover.StageMeta && st.Skipped {
			sawSkip = true
		}
		if st.Stage == discover.StageKeyword && st.EstOut > 0 {
			sawEst = true
		}
	}
	if !sawSkip {
		t.Errorf("total min_rows=1 meta stage not skipped: %s", body)
	}
	if !sawEst {
		t.Errorf("keyword row carries no est_out: %s", body)
	}
	if !strings.Contains(string(body), "est_out") {
		t.Errorf("explain JSON lacks est_out field: %s", body)
	}
}
