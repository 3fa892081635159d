package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The suite's golden: every table kamlbench prints at goldenScale, in catalog
// order, rendered as kamlbench renders it. Every engine in the suite is
// serialized, so every cell repeats exactly. Regenerate it with
//
//	go test ./internal/experiments -run TestSuiteMatchesGolden -update
//
// and paste the tables that moved into EXPERIMENTS.md.
const goldenScale = 0.5

var (
	goldenFile = filepath.Join("testdata", "suite.golden")
	update     = flag.Bool("update", false, "rewrite "+goldenFile+" from this run")
)

// suiteText runs the whole suite at goldenScale and renders its tables.
func suiteText() string {
	var b strings.Builder
	for _, e := range Catalog() {
		for _, tb := range e.Run(goldenScale) {
			if b.Len() > 0 {
				b.WriteString("\n")
			}
			b.WriteString(tb.Render())
		}
	}
	return b.String()
}

// Two runs of the suite print the same tables, and this commit prints the
// committed ones: a cell that moves is a change to the model, to be blessed
// with its cause.
func TestSuiteMatchesGolden(t *testing.T) {
	if raceEnabled {
		t.Skip("the suite takes minutes under the race detector")
	}
	got := suiteText()
	if *update {
		if err := os.WriteFile(goldenFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	moved := 0
	for i := 0; i < max(len(gl), len(wl)); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			if moved++; moved <= 10 {
				t.Errorf("%s:%d:\n got  %q\n want %q", goldenFile, i+1, g, w)
			}
		}
	}
	t.Errorf("%d lines of the suite moved; bless them with their cause (-update)", moved)
}

// EXPERIMENTS.md quotes every table of the golden as it stands.
func TestExperimentsQuoteTheGolden(t *testing.T) {
	golden, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, table := range strings.Split(string(golden), "\n\n") {
		if !strings.Contains(string(doc), table) {
			t.Errorf("EXPERIMENTS.md does not quote this table of %s:\n%s", goldenFile, table)
		}
	}
}
