package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"tablehound/internal/datagen"
	"tablehound/internal/table"
)

// heldOut is how many tables a lake keeps back from the base build and
// adds later as one delta (the issue's "add 10 tables").
const heldOut = 10

// lakeFiles is a generated lake on disk, split the way an operator
// meets it: a base directory built from scratch and a handful of CSVs
// that arrive later.
type lakeFiles struct {
	gen      *datagen.Lake
	baseDir  string
	addPaths []string // held-out CSVs, sorted
	ids      []string // every table ID, sorted
	hash     string   // sha256 over every CSV's name, side and bytes
}

// writeLake generates the workload's lake and writes it under dir as
// base/*.csv plus add/*.csv. The held-out tables are every tenth of the
// sorted IDs, so one per stretch of the lake whatever its shape, and
// the same on every run: which tables a base lacks moves its build and
// load times by more than the machine's noise does.
func writeLake(dir string, cfg datagen.Config) (*lakeFiles, error) {
	gen := datagen.Generate(cfg)
	tables := append([]*table.Table(nil), gen.Tables...)
	sort.Slice(tables, func(i, j int) bool { return tables[i].ID < tables[j].ID })

	stride := len(tables) / heldOut
	if stride < 2 {
		return nil, fmt.Errorf("a lake of %d tables is too small to hold %d out", len(tables), heldOut)
	}
	held := make(map[int]bool, heldOut)
	for i := 1; i <= heldOut; i++ {
		held[i*stride-1] = true
	}

	lf := &lakeFiles{gen: gen, baseDir: filepath.Join(dir, "base")}
	addDir := filepath.Join(dir, "add")
	for _, d := range []string{lf.baseDir, addDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	sum := sha256.New()
	for i, t := range tables {
		lf.ids = append(lf.ids, t.ID)
		name := t.ID + ".csv"
		path := filepath.Join(lf.baseDir, name)
		if held[i] {
			path = filepath.Join(addDir, name)
			lf.addPaths = append(lf.addPaths, path)
		}
		fmt.Fprintf(sum, "%v %s\n", held[i], name)
		if err := writeCSV(path, t, sum); err != nil {
			return nil, err
		}
	}
	lf.hash = hex.EncodeToString(sum.Sum(nil))[:16]
	return lf, nil
}

func writeCSV(path string, t *table.Table, also io.Writer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteCSV(io.MultiWriter(f, also)); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readAdded parses the held-out CSVs the way `lakectl add` does.
func (lf *lakeFiles) readAdded() ([]*table.Table, error) {
	out := make([]*table.Table, len(lf.addPaths))
	for i, p := range lf.addPaths {
		name := filepath.Base(p)
		t, err := table.FromCSVFile(name[:len(name)-len(filepath.Ext(name))], p)
		if err != nil {
			return nil, err
		}
		out[i] = t
	}
	return out, nil
}
