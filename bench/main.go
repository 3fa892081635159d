// Command bench is the repository's benchmark: four workloads measured on
// two clocks (virtual = the modelled SSD, wall = the Go code), end to end
// and layer by layer. See README.md.
//
//	bench -workload get-flash -seed 1 -trace 0   one run (the builder's contract)
//	bench -seeds 1,2,3 -out out                  every workload x seed, untraced and traced
//	bench -compare old.json new.json             gate one suite against another
//	bench -contract                              print BENCHMARK.json
//	bench -ledger                                print the metric tables as markdown
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

func main() {
	var (
		workload = flag.String("workload", "", "run one workload ("+workloadNames()+"); empty runs the whole suite")
		seed     = flag.Int64("seed", 1, "workload seed of a single run")
		seconds  = flag.Float64("seconds", nominalSeconds, "measuring time a run is sized for; op counts scale by seconds/"+strconv.Itoa(nominalSeconds))
		trace    = flag.Int("trace", 0, "1 = traced run: spans, probes, control runs; reports the per-layer metrics")
		scale    = flag.Float64("scale", 1, "extra size factor, for tests only; a result at scale != 1 is stamped non-comparable")
		out      = flag.String("out", "out", "directory for result, suite and trace files")
		seeds    = flag.String("seeds", "1", "suite mode: comma-separated seeds")
		compare  = flag.Bool("compare", false, "compare two suite files: bench -compare old.json new.json")
		contract = flag.Bool("contract", false, "print BENCHMARK.json generated from the metric tables")
		ledger   = flag.Bool("ledger", false, "print the metric tables as markdown (README.md's tables)")
		rates    = flag.String("rates", "", "calibration only: six comma-separated ladder rates replacing the frozen ones (non-comparable)")
	)
	flag.Parse()
	var ladder []float64
	for _, f := range strings.FieldsFunc(*rates, func(r rune) bool { return r == ',' }) {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			fatal(fmt.Errorf("bad -rates: %w", err))
		}
		ladder = append(ladder, v)
	}

	switch {
	case *ledger:
		printLedger(os.Stdout)
	case *contract:
		b, err := json.MarshalIndent(contractFile(), "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", b)
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: bench -compare old.json new.json"))
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	case *workload != "":
		res, err := run(config{
			Workload: *workload, Seed: *seed, Trace: *trace != 0, Out: *out, Rates: ladder,
			Scale: *scale * *seconds / nominalSeconds,
		})
		if err != nil {
			fatal(err)
		}
		res.print(os.Stdout)
		if !res.Correct {
			os.Exit(1)
		}
	default:
		ok, err := runSuite(*seeds, *scale**seconds/nominalSeconds, *out)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return strings.Join(names, ", ")
}

// contractFile is BENCHMARK.json: the builder's contract, generated from
// the metric and workload tables so the two cannot drift.
func contractFile() any {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	c := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: nominalSeconds}
	for _, w := range workloads {
		c.Workloads = append(c.Workloads, wl{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		c.EndToEnd = append(c.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		c.PerLayer = append(c.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	return c
}

// printLedger renders the metric tables as markdown.
func printLedger(w io.Writer) {
	fmt.Fprintln(w, "| end-to-end metric | unit | better | bound |\n|---|---|---|---|")
	for _, m := range endToEnd {
		fmt.Fprintf(w, "| `%s` | %s | %s | %g%% |\n", m.Name, m.Unit, m.Better, 100*m.Bound)
	}
	fmt.Fprintln(w, "\n| per-layer metric | unit | better | source | should move |\n|---|---|---|---|---|")
	for _, m := range perLayer {
		fmt.Fprintf(w, "| `%s` | %s | %s | %s | %s |\n", m.Name, m.Unit, m.Better, m.Source, m.Moves)
	}
}

// ---- suite: every workload x seed, each run in its own process ----

// summary is one metric's values over a suite's runs of one workload.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"` // (q3-q1)/median
	Values []float64 `json:"values"` // one per seed, in seed order
	NA     bool      `json:"na,omitempty"`
}

// suiteWorkload is one workload's part of a suite file.
type suiteWorkload struct {
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	EndToEnd  map[string]summary `json:"end_to_end"`
	PerLayer  map[string]summary `json:"per_layer"`
}

// suite is what -seeds writes and -compare reads.
type suite struct {
	Host       hostRecord               `json:"host"`
	Scale      float64                  `json:"scale"`
	Comparable bool                     `json:"comparable"`
	Seeds      []int64                  `json:"seeds"`
	Workloads  map[string]suiteWorkload `json:"workloads"`
}

func summarize(unit string, vals []float64, na bool) summary {
	s := summary{Unit: unit, Values: vals, NA: na}
	if len(vals) == 1 {
		s.Median, s.Q1, s.Q3 = vals[0], vals[0], vals[0]
	} else {
		s.Q1, s.Median, s.Q3 = quartiles(vals)
		s.Spread = spread(vals)
	}
	return s
}

// runSuite runs every workload on every seed, untraced and then traced,
// each in a child process so that no run inherits another's heap, and
// writes suite.json. It reports whether every output verified.
func runSuite(seedList string, scale float64, out string) (bool, error) {
	var seeds []int64
	for _, f := range strings.Split(seedList, ",") {
		s, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			return false, fmt.Errorf("bad -seeds: %w", err)
		}
		seeds = append(seeds, s)
	}
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	st := suite{Host: thisHost(), Scale: scale, Comparable: scale == 1, Seeds: seeds, Workloads: map[string]suiteWorkload{}}
	ok := true
	for _, w := range workloads {
		sw := suiteWorkload{EndToEnd: map[string]summary{}, PerLayer: map[string]summary{}}
		for _, mode := range []struct {
			trace string
			defs  []metricDef
			into  map[string]summary
		}{{"0", endToEnd, sw.EndToEnd}, {"1", perLayer, sw.PerLayer}} {
			vals := map[string][]float64{}
			na := map[string]bool{}
			for _, seed := range seeds {
				dir := fmt.Sprintf("%s/seed-%d", out, seed)
				cmd := exec.Command(self, "-workload", w.Name, "-seed", strconv.FormatInt(seed, 10),
					"-trace", mode.trace, "-scale", strconv.FormatFloat(scale, 'g', -1, 64), "-out", dir)
				cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
				// Exit code 1 is a run whose outputs failed verification: its
				// result file is there and says so. Anything else is fatal.
				var exit *exec.ExitError
				if err := cmd.Run(); err != nil && (!errors.As(err, &exit) || exit.ExitCode() != 1) {
					return false, fmt.Errorf("%s seed %d: %w", w.Name, seed, err)
				}
				res, err := readResult(resultPath(dir, w.Name, mode.trace == "1"))
				if err != nil {
					return false, err
				}
				sw.Attempted += res.Attempted
				sw.Failed += res.Failed
				for _, d := range mode.defs {
					vals[d.Name] = append(vals[d.Name], res.Metrics[d.Name].Value)
					na[d.Name] = res.Metrics[d.Name].NA
				}
			}
			for _, d := range mode.defs {
				mode.into[d.Name] = summarize(d.Unit, vals[d.Name], na[d.Name])
			}
		}
		ok = ok && sw.Failed == 0
		st.Workloads[w.Name] = sw
	}
	path := filepath.Join(out, "suite.json")
	if err := writeJSON(path, st); err != nil {
		return false, err
	}
	fmt.Printf("suite written to %s (verified: %v)\n", path, ok)
	return ok, nil
}

func readResult(path string) (*result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res result
	if err := json.Unmarshal(b, &res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &res, nil
}
