// Command kamlbench regenerates the KAML paper's evaluation tables and
// figures (HPCA 2017, §V) on the simulated systems in this repository.
//
// Usage:
//
//	kamlbench                  # run everything at the default scale
//	kamlbench -run fig5,fig9   # specific experiments
//	kamlbench -scale 2         # larger working sets / longer windows
//	kamlbench -json out.json   # also write the tables as JSON ("-" = stdout)
//	kamlbench -cpuprofile cpu.pprof -memprofile mem.pprof
//	kamlbench -list            # list experiment IDs and scenarios
//
//	kamlbench -scenario diurnal              # embedded acceptance scenario
//	kamlbench -scenario path/to/custom.json  # scenario file on disk
//	kamlbench -scenario diurnal -json -      # canonical report JSON on stdout
//
// Experiment IDs: fig5 fig6 fig7 fig8 fig9 fig10 conflicts ablations qdsweep
// sisweep getscale traffic
//
// Scenario mode replays a declarative production-traffic scenario
// (phased arrival curves, hot-key storms, fault ramps, power cuts, node
// kills, live rebalancing) against the simulated device or cluster in
// virtual time and evaluates the scenario's assertion block. The exit
// code is 0 when every assertion holds and 1 otherwise, with the first
// failing assertion named on stderr.
//
// Each figure cell is an independent simulation on its own virtual clock,
// and the cells run on up to GOMAXPROCS host goroutines: the tables are
// identical at any core count.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"github.com/kaml-ssd/kaml/internal/experiments"
	"github.com/kaml-ssd/kaml/internal/telemetry"
	"github.com/kaml-ssd/kaml/scenarios"
)

// jsonExperiment is one experiment's results in the -json report.
type jsonExperiment struct {
	ID          string               `json:"id"`
	Description string               `json:"description"`
	WallSeconds float64              `json:"wall_seconds"`
	WallMS      float64              `json:"wall_ms"`
	AllocsPerOp float64              `json:"allocs_per_op"`
	Tables      []*experiments.Table `json:"tables"`

	// Telemetry merges the registries of every device the experiment
	// created (one per figure cell). Present only with -json.
	Telemetry *telemetry.Snapshot `json:"telemetry,omitempty"`
}

// jsonReport is the top-level -json document.
type jsonReport struct {
	Scale       float64          `json:"scale"`
	Cores       int              `json:"cores"`
	Experiments []jsonExperiment `json:"experiments"`
}

func main() {
	runFlag := flag.String("run", "", "comma-separated experiment IDs (default: all)")
	scale := flag.Float64("scale", 1.0, "working-set / window scale factor")
	jsonPath := flag.String("json", "", "write experiment tables as JSON to this path (\"-\" = stdout)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this path")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this path at exit")
	list := flag.Bool("list", false, "list experiment IDs and scenarios, then exit")
	scenario := flag.String("scenario", "", "run a traffic scenario (embedded name or JSON file path) instead of experiments")
	flag.Parse()

	cat := experiments.Catalog()
	if *list {
		fmt.Println("experiments:")
		for _, e := range cat {
			fmt.Printf("  %-12s %s\n", e.ID, e.Desc)
		}
		fmt.Println("\nscenarios (-scenario <name>):")
		for _, name := range scenarios.Names() {
			desc := ""
			if sc, err := scenarios.Load(name); err == nil {
				desc = sc.Description
			}
			fmt.Printf("  %-16s %s\n", name, desc)
		}
		return
	}

	if *scenario != "" {
		os.Exit(runScenario(*scenario, *jsonPath, os.Stdout, os.Stderr))
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "create %s: %v\n", *cpuProfile, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "start cpu profile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	want := map[string]bool{}
	if *runFlag != "" {
		for _, id := range strings.Split(*runFlag, ",") {
			want[strings.TrimSpace(id)] = true
		}
		for id := range want {
			found := false
			for _, e := range cat {
				if e.ID == id {
					found = true
				}
			}
			if !found {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (try -list)\n", id)
				os.Exit(2)
			}
		}
	}

	// With -json, merge every device registry an experiment creates into
	// its report entry so the artifact embeds the pipeline/GC telemetry.
	if *jsonPath != "" {
		telemetry.CollectGlobal(true)
		defer telemetry.CollectGlobal(false)
	}

	report := jsonReport{
		Scale: *scale,
		Cores: runtime.NumCPU(),
	}
	for _, e := range cat {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		fmt.Printf("--- running %s (%s) ---\n", e.ID, e.Desc)
		telemetry.ResetGlobal()
		var m0 runtime.MemStats
		runtime.ReadMemStats(&m0)
		ops0 := experiments.OpsCompleted()
		start := time.Now()
		tables := e.Run(experiments.Scale(*scale))
		for _, tb := range tables {
			fmt.Println(tb.Render())
		}
		elapsed := time.Since(start)
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		allocsPerOp := 0.0
		if ops := experiments.OpsCompleted() - ops0; ops > 0 {
			allocsPerOp = float64(m1.Mallocs-m0.Mallocs) / float64(ops)
		}
		fmt.Printf("(%s took %.1fs wall-clock, %.3g allocs/op)\n\n",
			e.ID, elapsed.Seconds(), allocsPerOp)
		je := jsonExperiment{
			ID: e.ID, Description: e.Desc,
			WallSeconds: elapsed.Seconds(),
			WallMS:      float64(elapsed.Microseconds()) / 1000,
			AllocsPerOp: allocsPerOp,
			Tables:      tables,
		}
		if *jsonPath != "" {
			je.Telemetry = telemetry.GlobalSnapshot()
		}
		report.Experiments = append(report.Experiments, je)
	}

	if *jsonPath != "" {
		blob, err := json.MarshalIndent(&report, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "encode json: %v\n", err)
			os.Exit(1)
		}
		blob = append(blob, '\n')
		if *jsonPath == "-" {
			os.Stdout.Write(blob)
		} else if err := os.WriteFile(*jsonPath, blob, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "create %s: %v\n", *memProfile, err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "write heap profile: %v\n", err)
			os.Exit(1)
		}
	}
}
