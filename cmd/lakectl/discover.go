package main

import (
	"context"
	"flag"
	"fmt"
	"strings"

	"tablehound/internal/core"
	"tablehound/internal/discover"
	"tablehound/internal/server"
)

// cmdDiscover runs a conditional-discovery query: a relational seed
// (a lake table or a bare value column) plus predicates over the
// result tables, compiled into a staged plan (cheap prefilters →
// sketch candidates → exact verification).
//
// Offline mode builds or loads the system locally (-lake, or
// -snapshot/-deltas); client mode (-addr) queries a running
// lakeserved or lakerouter.
func cmdDiscover(args []string) error {
	fs := flag.NewFlagSet("discover", flag.ExitOnError)
	addr := fs.String("addr", "", "running lakeserved/lakerouter address (replaces -lake/-snapshot)")
	dir := fs.String("lake", "", "lake directory")
	tableID := fs.String("table", "", "seed table ID")
	values := fs.String("values", "", "comma-separated seed column values (join relation)")
	column := fs.String("column", "", "seed-table column feeding the join side (default: first usable)")
	relation := fs.String("relation", "any", "relation: join | union | any")
	mode := fs.String("mode", "overlap", "join scoring mode: overlap | containment")
	method := fs.String("method", "tus", "union method: tus | santos | starmie | d3l")
	k := fs.Int("k", 10, "results")
	threshold := fs.Float64("threshold", 0.5, "containment threshold (join -mode containment)")
	explain := fs.Bool("explain", false, "print the per-stage explanation block")
	colNames := fs.String("col-names", "", "predicate: comma-separated column names the result must have")
	colTypes := fs.String("col-types", "", "predicate: comma-separated column types the result must have (bool,int,float,date,string)")
	minRows := fs.Int("min-rows", 0, "predicate: minimum row count")
	maxRows := fs.Int("max-rows", 0, "predicate: maximum row count (0 = unbounded)")
	minCols := fs.Int("min-cols", 0, "predicate: minimum column count")
	maxCols := fs.Int("max-cols", 0, "predicate: maximum column count (0 = unbounded)")
	keywords := fs.String("keywords", "", "predicate: metadata keywords (all must match)")
	predValues := fs.String("pred-values", "", "predicate: comma-separated cell values the result must contain")
	bf := addBuildFlags(fs)
	fs.Parse(args)

	preds := discover.Predicates{
		ColumnNames: splitCSV(*colNames),
		ColumnTypes: splitCSV(*colTypes),
		MinRows:     *minRows,
		MaxRows:     *maxRows,
		MinCols:     *minCols,
		MaxCols:     *maxCols,
		Keywords:    *keywords,
		Values:      splitCSV(*predValues),
	}
	if (*tableID == "") == (*values == "") {
		return fmt.Errorf("discover: exactly one of -table and -values is required")
	}

	if *addr != "" {
		req := server.DiscoverRequest{
			TableID:    *tableID,
			Values:     splitCSV(*values),
			Column:     *column,
			Relation:   *relation,
			Mode:       *mode,
			Method:     *method,
			Threshold:  *threshold,
			K:          *k,
			Predicates: preds,
			Explain:    *explain,
		}
		res, err := server.NewClient(*addr).Discover(context.Background(), req)
		if err != nil {
			return err
		}
		if res.Matches != nil {
			for i, m := range *res.Matches {
				fmt.Printf("%2d. %-32s overlap=%-5d containment=%.2f\n", i+1, m.ColumnKey, m.Overlap, m.Containment)
			}
		}
		if res.Results != nil {
			for i, r := range *res.Results {
				fmt.Printf("%2d. %-20s %.3f\n", i+1, r.TableID, r.Score)
			}
		}
		printExplain(res.Explain)
		return nil
	}

	sys, err := bf.buildSystem(*dir)
	if err != nil {
		return err
	}
	q := discover.Query{
		Values:     splitCSV(*values),
		Column:     *column,
		Relation:   *relation,
		Mode:       *mode,
		Method:     *method,
		Threshold:  *threshold,
		K:          *k,
		Predicates: preds,
	}
	if *tableID != "" {
		t := sys.Catalog.Table(*tableID)
		if t == nil {
			return fmt.Errorf("discover: no table %q", *tableID)
		}
		q.Seed = t
		q.Values = nil
	}
	return runPlan(sys, q, *explain)
}

// runPlan answers a query locally the way the server answers it: it
// compiles the discover plan, runs it, and prints the ranking (columns
// for the join relation, tables otherwise).
func runPlan(sys *core.System, q discover.Query, explain bool) error {
	res, err := executePlan(sys, q)
	if err != nil {
		return err
	}
	for i, m := range res.Matches {
		fmt.Printf("%2d. %-32s overlap=%-5d containment=%.2f\n", i+1, m.ColumnKey, m.Overlap, m.Containment)
	}
	for i, r := range res.Tables {
		fmt.Printf("%2d. %-20s %.3f\n", i+1, r.TableID, r.Score)
	}
	if explain {
		printExplain(res.Explain)
	}
	return nil
}

// executePlan compiles q against sys and runs it once.
func executePlan(sys *core.System, q discover.Query) (*discover.Result, error) {
	plan, err := discover.NewPlan(sys, q)
	if err != nil {
		return nil, err
	}
	return plan.Execute(context.Background())
}

func printExplain(stages []discover.StageExplain) {
	if len(stages) == 0 {
		return
	}
	fmt.Println("plan:")
	for _, st := range stages {
		if st.Skipped {
			fmt.Printf("  %-18s in=%-6d out=%-6d skipped (predicate provably total)\n", st.Stage, st.In, st.Out)
			continue
		}
		est := ""
		if st.EstOut > 0 || st.Cost > 0 {
			est = fmt.Sprintf(" est_out=%-5d cost=%-7d", st.EstOut, st.Cost)
		}
		fmt.Printf("  %-18s in=%-6d out=%-6d%s %dµs\n", st.Stage, st.In, st.Out, est, st.ElapsedUS)
	}
}

// splitCSV splits a comma-separated flag value, dropping empty items.
func splitCSV(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	var out []string
	for _, v := range strings.Split(s, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}
