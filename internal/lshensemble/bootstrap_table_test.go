package lshensemble

import (
	"bytes"
	"flag"
	"fmt"
	"go/format"
	"os"
	"testing"

	"tablehound/internal/parallel"
)

var updateTable = flag.Bool("update", false, "rewrite bootstrap_table.go from bootstrapParams")

// bootstrapTableFile renders params, the (bands, rows) bootstrapParams
// picks at 128 hashes for the representative of each 1e-3 threshold
// bucket, as bootstrap_table.go.
func bootstrapTableFile(t *testing.T, params [][2]int) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString(`// Code generated by "go test -run TestBootstrapTable -update"; DO NOT EDIT.

package lshensemble

// bootstrap128 holds the (bands, rows) bootstrapParams picks at 128
// hashes for the representative of each 1e-3 threshold bucket q:
// q/1000, or minJaccard for q = 0. optimalBootstrap reads it instead
// of integrating.
var bootstrap128 = [bootstrapBuckets][2]uint8{
`)
	for q, p := range params {
		if q%8 == 0 {
			buf.WriteString("\t")
		}
		fmt.Fprintf(&buf, "{%d, %d},", p[0], p[1])
		if q%8 == 7 || q == len(params)-1 {
			buf.WriteString("\n")
		} else {
			buf.WriteString(" ")
		}
	}
	buf.WriteString("}\n")
	src, err := format.Source(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// TestBootstrapTable recomputes every bucket of the committed table
// with bootstrapParams and fails on any difference; with -update (see
// go generate) it rewrites the table instead. It then checks that
// optimalBootstrap reads each bucket for thresholds at both its edges.
func TestBootstrapTable(t *testing.T) {
	params, err := parallel.Map(bootstrapBuckets, 0, func(q int) ([2]int, error) {
		b, r := bootstrapParams(max(float64(q)/1000, minJaccard), 128)
		return [2]int{b, r}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := bootstrapTableFile(t, params)
	if *updateTable {
		if err := os.WriteFile("bootstrap_table.go", want, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	got, err := os.ReadFile("bootstrap_table.go")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("bootstrap_table.go differs from what bootstrapParams computes; run go generate ./internal/lshensemble")
	}
	for q, p := range params {
		top := min((float64(q)+0.49)/1000, 1)
		bottom := max((float64(q)-0.49)/1000, minJaccard)
		for _, j := range []float64{top, bottom} {
			if b, r := optimalBootstrap(j, 128); [2]int{b, r} != p {
				t.Fatalf("bucket %d, j=%v: optimalBootstrap = (%d, %d), want %v", q, j, b, r, p)
			}
		}
	}
}
