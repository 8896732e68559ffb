package main

import (
	"bytes"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	sac "repro"
	"repro/internal/stats"
)

// The golden outputs were recorded from the commit that introduced this
// benchmark (perfbench --record-golden). A change that claims to alter only
// speed must reproduce them exactly.
//
//go:embed golden
var goldenFS embed.FS

// goldenCell is one cell's recorded statistics: the SHA-256 of its JSON
// encoding, with the cycle count kept readable for mismatch reports.
type goldenCell struct {
	Sum    string `json:"sha256"`
	Cycles int64  `json:"cycles"`
}

var loadGolden = sync.OnceValues(func() (map[string]goldenCell, []byte) {
	cells := map[string]goldenCell{}
	if b, err := goldenFS.ReadFile("golden/cells.json"); err == nil {
		_ = json.Unmarshal(b, &cells) // a bad file leaves cells empty: every check fails loudly
	}
	table, _ := goldenFS.ReadFile("golden/fig8.txt")
	return cells, table
})

func goldenCells() map[string]goldenCell { c, _ := loadGolden(); return c }

func goldenFig8() []byte { _, t := loadGolden(); return t }

// statsSum hashes a run's full statistics, per-kernel records included.
func statsSum(st *stats.Run) string {
	b, err := json.Marshal(st)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// recordGolden runs the Fig 8 FastSet sweep once and writes its table and
// every cell's statistics hash into perfbench/golden.
func recordGolden(root string) error {
	r := sac.NewRunner()
	r.Benchmarks = sac.FastSet()
	f8, err := r.Fig8()
	if err != nil {
		return err
	}
	var table bytes.Buffer
	f8.Print(&table)
	cells := map[string]goldenCell{}
	for _, br := range f8.Runs {
		for org, st := range br.ByOrg {
			cells[cell{br.Spec.Name, org}.name()] = goldenCell{Sum: statsSum(st), Cycles: st.Cycles}
		}
	}
	b, err := json.MarshalIndent(cells, "", "  ")
	if err != nil {
		return err
	}
	dir := filepath.Join(root, "perfbench", "golden")
	if err := os.WriteFile(filepath.Join(dir, "cells.json"), append(b, '\n'), 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "fig8.txt"), table.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Printf("recorded %d cells and the Fig 8 table in %s\n", len(cells), dir)
	return nil
}
