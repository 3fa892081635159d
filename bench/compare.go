package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readSuite(path string) (*suite, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s suite
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.Workloads) == 0 {
		return nil, fmt.Errorf("%s: no workloads (not a suite file?)", path)
	}
	return &s, nil
}

// worsening is how much worse new is than old as a share of old, given
// the metric's direction; negative means better.
func worsening(better string, old, new float64) float64 {
	if old == 0 {
		return 0
	}
	if better == "higher" {
		return (old - new) / old
	}
	return (new - old) / old
}

// compareFiles applies every end-to-end metric's direction and bound to
// the medians of two suite files, one table per workload, and reports
// whether new is free of regressions: no metric worse than its bound, no
// rise in failed requests. A pair whose recorded seed-to-seed spread is
// wider than the bound cannot be judged and is marked unresolved, not
// unchanged. Per-layer metrics are listed without a verdict: they explain
// a movement, they do not gate.
func compareFiles(w io.Writer, oldPath, newPath string) (bool, error) {
	oldS, err := readSuite(oldPath)
	if err != nil {
		return false, err
	}
	newS, err := readSuite(newPath)
	if err != nil {
		return false, err
	}
	if !oldS.Comparable || !newS.Comparable {
		fmt.Fprintln(w, "WARNING: a suite was taken at scale != 1; its numbers are non-comparable")
	}
	if oldS.Host != newS.Host {
		fmt.Fprintf(w, "WARNING: hosts differ (%+v vs %+v); host metrics are not comparable\n", oldS.Host, newS.Host)
	}
	ok := true
	for _, wl := range workloads {
		o, haveOld := oldS.Workloads[wl.Name]
		n, haveNew := newS.Workloads[wl.Name]
		if !haveOld || !haveNew {
			fmt.Fprintf(w, "\n== %s: missing from a suite ==\n", wl.Name)
			ok = false
			continue
		}
		fmt.Fprintf(w, "\n== %s ==\n%-34s %14s %14s %9s %7s  %s\n", wl.Name, "metric", "old", "new", "worse by", "bound", "verdict")
		for _, d := range endToEnd {
			om, nm := o.EndToEnd[d.Name], n.EndToEnd[d.Name]
			by := worsening(d.Better, om.Median, nm.Median)
			verdict := "ok"
			switch {
			case om.Spread > d.Bound || nm.Spread > d.Bound:
				verdict = fmt.Sprintf("unresolved (spread %.1f%% / %.1f%%)", 100*om.Spread, 100*nm.Spread)
			case by > d.Bound:
				verdict = fmt.Sprintf("REGRESSION: %s on %s", d.Name, wl.Name)
				ok = false
			case by < -d.Bound:
				verdict = "better"
			}
			fmt.Fprintf(w, "%-34s %14.4f %14.4f %8.2f%% %6.1f%%  %s\n", d.Name, om.Median, nm.Median, 100*by, 100*d.Bound, verdict)
		}
		oShare, nShare := ratio(float64(o.Failed), float64(o.Attempted)), ratio(float64(n.Failed), float64(n.Attempted))
		verdict := "ok"
		if nShare > oShare {
			verdict = fmt.Sprintf("REGRESSION: failed share rose on %s", wl.Name)
			ok = false
		}
		fmt.Fprintf(w, "%-34s %14.6f %14.6f %17s  %s\n", "failed/attempted", oShare, nShare, "any rise", verdict)
		for _, d := range perLayer {
			om, haveO := o.PerLayer[d.Name]
			nm, haveN := n.PerLayer[d.Name]
			if !haveO || !haveN || (om.NA && nm.NA) {
				continue
			}
			fmt.Fprintf(w, "  %-32s %14.4f %14.4f %8.2f%%\n", d.Name, om.Median, nm.Median, 100*worsening(d.Better, om.Median, nm.Median))
		}
	}
	return ok, nil
}
