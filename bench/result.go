package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// hostRecord says what the numbers were taken on; it goes into every
// result file because no host number means anything without it.
type hostRecord struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func thisHost() hostRecord {
	return hostRecord{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int64   `json:"n"`            // samples behind the value
	NA    bool    `json:"na,omitempty"` // the metric has no meaning on this workload
}

// rungResult is one ladder rung.
type rungResult struct {
	Name       string  `json:"name"`
	Rate       float64 `json:"rate_ops_per_s"`
	Arrivals   int     `json:"arrivals"`
	BodyUS     float64 `json:"body_us"`  // mean of the fastest 99%
	TailUS     float64 `json:"tail_us"`  // mean of ranks 99%..99.9%
	WorstUS    float64 `json:"worst_us"` // mean of the slowest 0.1%
	P50US      float64 `json:"p50_us"`   // plain order statistics: the SLO is judged on p99
	P99US      float64 `json:"p99_us"`
	P999US     float64 `json:"p999_us"`
	Backlog50  int64   `json:"backlog_at_half"`
	Backlog    int64   `json:"backlog_at_end"`
	GenLagP99  float64 `json:"gen_lag_p99_us"`
	Failed     int64   `json:"failed"`
	Cut        bool    `json:"cut_short,omitempty"` // stopped early: backlog passed a tenth of the arrivals
	WallS      float64 `json:"wall_s"`
	MeetsLimit bool    `json:"meets_slo"`
}

// phaseResult is one driven phase's size and cost, in run order.
type phaseResult struct {
	Name  string  `json:"name"`
	Ops   int     `json:"ops"`
	WallS float64 `json:"wall_s"`
	VirtS float64 `json:"clock_s"` // on the phase's own clock
}

// result is everything one run of one workload produced.
type result struct {
	Workload   string           `json:"workload"`
	Seed       int64            `json:"seed"`
	Scale      float64          `json:"scale"`
	Comparable bool             `json:"comparable"` // false unless scale == 1
	Traced     bool             `json:"traced"`
	Host       hostRecord       `json:"host"`
	Correct    bool             `json:"correct"`
	Attempted  int64            `json:"attempted"`
	Failed     int64            `json:"failed"`
	LimitUS    float64          `json:"p99_limit_us"`
	Rungs      []rungResult     `json:"rungs,omitempty"`
	Phases     []phaseResult    `json:"phases"`
	Metrics    map[string]value `json:"metrics"`
	// Virtual holds the virtual-clock end-to-end metrics on traced runs
	// too: tracing cannot move the virtual clock, so a traced run must
	// reproduce them exactly.
	Virtual map[string]float64 `json:"virtual"`
	// HostSegments is the host throughput of each equal-op segment of the
	// peak phase, in order; host_ops_per_s is their median.
	HostSegments []float64 `json:"host_segments_ops_per_s,omitempty"`
	Spans        int64     `json:"spans,omitempty"`
	SpansLost    int64     `json:"spans_dropped,omitempty"`
	WallS        float64   `json:"wall_s"`
}

func (r *result) set(name string, v float64, n int64) {
	r.Metrics[name] = value{Value: v, N: n}
}

func (r *result) setVirtual(name string, v float64, n int64) {
	r.set(name, v, n)
	r.Virtual[name] = v
}

// finish keeps exactly the metrics the run's mode reports — every
// end-to-end metric untraced, every per-layer metric traced — stamping
// units and marking the ones this workload has no value for.
func (r *result) finish() {
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := r.Metrics[d.Name]
		v.Unit = d.Unit
		v.NA = !ok
		out[d.Name] = v
	}
	r.Metrics = out
	r.Correct = r.Failed == 0
}

// print writes the human table and, as the last line, the one JSON object
// the builder's contract asks for.
func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s  seed %d  scale %g  traced %v  %s  nproc %d  GOMAXPROCS %d\n",
		r.Workload, r.Seed, r.Scale, r.Traced, r.Host.GoVersion, r.Host.NumCPU, r.Host.GOMAXPROCS)
	if !r.Comparable {
		fmt.Fprintln(w, "NON-COMPARABLE: scale != 1 or calibration rates")
	}
	for _, g := range r.Rungs {
		fmt.Fprintf(w, "  %-3s %8.0f ops/s  n=%-6d body %9.2f  tail %10.2f  worst %11.2f | p50 %8.2f  p99 %10.2f  p999 %10.2f us  backlog %d->%d  slo %v  %.1fs\n",
			g.Name, g.Rate, g.Arrivals, g.BodyUS, g.TailUS, g.WorstUS, g.P50US, g.P99US, g.P999US, g.Backlog50, g.Backlog, g.MeetsLimit, g.WallS)
	}
	for _, p := range r.Phases {
		fmt.Fprintf(w, "  phase %-12s %8d ops  %6.2fs wall  %9.3fs on its clock\n", p.Name, p.Ops, p.WallS, p.VirtS)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := r.Metrics[n]
		if v.NA {
			fmt.Fprintf(w, "  %-38s %16s %-10s\n", n, "n/a", v.Unit)
			continue
		}
		fmt.Fprintf(w, "  %-38s %16.4f %-10s n=%d\n", n, v.Value, v.Unit, v.N)
	}
	fmt.Fprintf(w, "  attempted %d  failed %d  correct %v  wall %.1fs\n", r.Attempted, r.Failed, r.Correct, r.WallS)

	type lineMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]lineMetric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]lineMetric, len(r.Metrics))}
	for n, v := range r.Metrics {
		line.Metrics[n] = lineMetric{v.Value, v.Unit}
	}
	b, _ := json.Marshal(line) // plain numbers and strings cannot fail to marshal
	fmt.Fprintf(w, "%s\n", b)
}

// resultPath is where a run's full result is stored under dir.
func resultPath(dir, workload string, traced bool) string {
	name := "result-" + workload
	if traced {
		name += "-trace"
	}
	return filepath.Join(dir, name+".json")
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
