package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	kaml "github.com/kaml-ssd/kaml"
	"github.com/kaml-ssd/kaml/internal/cache"
	"github.com/kaml-ssd/kaml/internal/kamlssd"
	"github.com/kaml-ssd/kaml/internal/sim"
	"github.com/kaml-ssd/kaml/internal/workload"
)

// config is one run's request.
type config struct {
	Workload string
	Seed     int64
	Scale    float64
	Trace    bool
	Out      string    // directory for result and trace files; "" writes nothing
	Rates    []float64 // calibration only: replaces the frozen ladder rates
}

// runner is the state of one run.
type runner struct {
	cfg  config
	spec *workloadSpec
	drv  *driver
	or   *oracle
	res  *result

	keys     int // preloaded keys after scaling
	arrivals int // per rung
	peakOps  int
	warmOps  int

	attempted atomic.Int64
	failed    atomic.Int64

	// Single-device workloads.
	eng    *sim.Engine
	dev    *kaml.Device
	ns     kaml.Namespace
	cache  *cache.Cache
	zipf   *workload.Zipfian
	fresh  atomic.Uint64 // put-churn: fresh keys handed out
	maxFr  uint64
	siLost atomic.Int64 // txn-mixed: SI reads that lost their snapshot's version
}

// deviceOptions is the paper's 16x4-chip board at the experiments'
// microFlash block count: 256 MiB of flash.
func deviceOptions() kaml.Options {
	opts := kaml.DefaultOptions()
	opts.Flash.BlocksPerChip = 16
	opts.Flash.PagesPerBlock = 32
	opts.Firmware = kamlssd.DefaultConfig(opts.Flash)
	return opts
}

func scaled(n int, scale float64, floor int) int {
	if v := int(float64(n) * scale); v > floor {
		return v
	}
	return floor
}

func newRunner(cfg config) (*runner, error) {
	spec := findWorkload(cfg.Workload)
	if spec == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	if cfg.Scale <= 0 {
		return nil, fmt.Errorf("scale must be positive, have %g", cfg.Scale)
	}
	if cfg.Out != "" {
		if err := os.MkdirAll(cfg.Out, 0o755); err != nil {
			return nil, err
		}
	}
	if len(cfg.Rates) > 0 {
		if len(cfg.Rates) != len(spec.Rates) {
			return nil, fmt.Errorf("need %d ladder rates, have %d", len(spec.Rates), len(cfg.Rates))
		}
		calibrating := *spec
		copy(calibrating.Rates[:], cfg.Rates)
		spec = &calibrating
	}
	r := &runner{cfg: cfg, spec: spec, drv: &driver{seed: cfg.Seed}}
	r.keys = scaled(spec.Keys, cfg.Scale, 1000)
	r.arrivals = scaled(rungArrivals, cfg.Scale, 200)
	r.peakOps = scaled(spec.PeakOps, cfg.Scale, spec.Clients*peakSegments*4)
	r.warmOps = scaled(spec.WarmOps, cfg.Scale, spec.Clients*8)
	r.res = &result{
		Workload: spec.Name, Seed: cfg.Seed, Scale: cfg.Scale, Comparable: cfg.Scale == 1 && len(cfg.Rates) == 0,
		Traced: cfg.Trace, Host: thisHost(), LimitUS: spec.LimitUS,
		Metrics: make(map[string]value), Virtual: make(map[string]float64),
	}
	return r, nil
}

// run executes the workload and returns its result. The error is for
// set-up failures only; wrong outputs are counted in the result.
func run(cfg config) (*result, error) {
	r, err := newRunner(cfg)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	// One process, never more threads than the box has. The single-device
	// workloads run on ONE: a serialized engine executes one actor at a
	// time anyway, and with a second P the runtime hands half the
	// park/wake pairs across threads, which on the reference box costs a
	// third of the throughput and triples its run-to-run spread. One P also
	// puts the garbage collector's work on the measured clock.
	if r.spec.load == nil {
		runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
		r.res.Host = thisHost()
		err = r.runWire()
	} else {
		runtime.GOMAXPROCS(1)
		r.res.Host = thisHost()
		err = r.runDevice()
	}
	if err != nil {
		return nil, err
	}
	r.res.Attempted = r.attempted.Load()
	r.res.Failed = r.failed.Load()
	r.res.set("bench.failed_share", float64(r.res.Failed)/float64(r.res.Attempted), r.res.Attempted)
	if tr := r.drv.tr; tr != nil {
		r.res.Spans = int64(len(tr.recorded()))
		r.res.SpansLost = tr.dropped.Load()
		if cfg.Out != "" {
			path := filepath.Join(cfg.Out, "trace-"+r.spec.Name+".jsonl")
			if err := tr.writeJSONL(path, r.drv.phaseNames(), int(r.drv.seq.Load())); err != nil {
				return nil, err
			}
		}
	}
	for _, p := range r.drv.phases {
		r.res.Phases = append(r.res.Phases, phaseResult{p.name, p.ops, p.wallEnd.Sub(p.wallStart).Seconds(), p.elapsed().Seconds()})
	}
	r.res.WallS = time.Since(t0).Seconds()
	r.res.finish()
	if cfg.Out != "" {
		if err := writeJSON(resultPath(cfg.Out, r.spec.Name, cfg.Trace), r.res); err != nil {
			return nil, err
		}
	}
	return r.res, nil
}

// count folds a phase's outcome into the run totals.
func (r *runner) count(p *phase) {
	r.attempted.Add(int64(p.ops))
	r.failed.Add(p.failed.Load())
}

// scramble spreads zipf ranks over the key space (splitmix64 finalizer),
// as YCSB's scrambled zipfian does, so hot keys do not share index stripes
// or flash pages.
func scramble(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (r *runner) zipfKey(rng *rand.Rand) uint64 {
	return scramble(r.zipf.Next(rng)) % uint64(r.keys)
}

// runDevice drives the three single-device workloads. Everything from
// Open to Close happens on ONE root actor of a serialized engine: while it
// runs, the virtual clock cannot move, so nothing the driver does between
// phases (GC, MemStats, snapshots, span bookkeeping) can reach the
// schedule, and a seed replays bit for bit.
func (r *runner) runDevice() error {
	r.eng = sim.NewEngine()
	r.eng.Serialize(r.cfg.Seed)
	if r.cfg.Trace {
		r.drv.tr = newTracer(r.spanBudget(2*idleOps), r.eng.NowCheap)
	}
	var err error
	onActor(r.eng, func() { err = r.deviceLifecycle(simClock{r.eng}) })
	return err
}

// spanBudget sizes the span slice: every ladder request, half the peak
// (plus a segment of slack) and extra more requests, at the workload's
// spans per request. Spans past the budget are dropped and counted.
func (r *runner) spanBudget(extra int) int {
	traced := len(r.spec.Rates)*r.arrivals + r.peakOps/2 + r.peakOps/peakSegments + extra
	return min(traced*r.spec.SpansPerOp, 8<<20) // 48 B each: 384 MiB at most
}

func (r *runner) deviceLifecycle(clk clock) error {
	res := r.res
	// ---- setup: open, preload with PutBatch(8), Flush, warm-up ----
	t0 := time.Now()
	opts := deviceOptions()
	opts.Engine = r.eng
	dev, err := kaml.Open(opts)
	if err != nil {
		return err
	}
	r.dev = dev
	ls, err := r.spec.load(r)
	if err != nil {
		return err
	}
	if err := r.preload(); err != nil {
		return err
	}
	dev.Flush()
	preloadStats := dev.Stats()
	r.count(r.drv.closedLoop(clk, ls, "warm", r.spec.Clients, r.warmOps, false))
	setup := time.Since(t0)
	res.set("setup_s", setup.Seconds(), 1)

	// ---- ladder: six open-loop rungs at frozen rates ----
	winA := r.snapDevice()
	rungs := make([]*phase, len(r.spec.Rates))
	for i, rate := range r.spec.Rates {
		runtime.GC()
		rungs[i] = r.drv.openLoop(clk, ls, fmt.Sprintf("R%d", i+1), rate, r.arrivals, int64(r.arrivals/10))
		r.count(rungs[i])
	}
	r.ladderMetrics(rungs)

	// ---- peak: closed loop, host metrics ----
	runtime.GC()
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	peak := r.drv.closedLoop(clk, ls, "peak", r.spec.Clients, r.peakOps, r.cfg.Trace)
	runtime.ReadMemStats(&m1)
	r.count(peak)
	winB := r.snapDevice()
	runtime.GC()
	runtime.ReadMemStats(&m2)
	r.peakMetrics(peak, &m0, &m1, &m2)
	res.setVirtual("virt_peak_ops_per_s", peak.opsPerSec(), int64(peak.ops))

	// write_amp over ladder+peak; a workload that writes nothing there
	// (get-flash) reports its preload's instead, so the metric is defined —
	// and never 0 — on every workload.
	user, flash := winB.st.BytesWritten-winA.st.BytesWritten, winB.st.FlashBytesWritten-winA.st.FlashBytesWritten
	if user == 0 {
		user, flash = preloadStats.BytesWritten, preloadStats.FlashBytesWritten
	}
	res.setVirtual("write_amp", float64(flash)/float64(user), user)
	// Computed on every run, traced or not, so that both make exactly the
	// same calls into the device and stay on the same virtual schedule.
	r.deviceWindowMetrics(winA, winB)

	// ---- verify: power cut right after the last request, recovery, then
	// every key read back. The cut comes first so that it lands while
	// acknowledged writes are still only in NVRAM: those are the ones
	// recovery has to save, and a read-back before it would give the
	// flushers time to drain them.
	nd, err := r.powerCycle(dev)
	if err != nil {
		return err
	}
	r.dev = nd
	r.verifyAll(nd, "verify")
	if r.cfg.Trace {
		r.idlePhase(clk)
		r.spanMetrics(peak)
	}
	nd.Close()
	if r.cfg.Trace {
		// The probes and the control run are the same on every workload, so
		// they run on the same footing: the device gone, its heap collected.
		r.dev, r.cache = nil, nil
		runtime.GC()
		runProbes(res, r.cfg.Scale)
		if r.spec.Name == "get-flash" {
			r.telemetryOverhead()
		}
	}
	return nil
}

// powerCycle cuts power with whatever is still staged in NVRAM (no Flush:
// the acknowledged-but-unflushed writes are the ones recovery has to
// save), captures the crash image and runs recovery, timing it on both
// clocks. Call from an actor.
func (r *runner) powerCycle(dev *kaml.Device) (*kaml.Device, error) {
	p := r.drv.newPhase("recover", 1)
	eng := dev.Engine()
	p.mark(eng.Now())
	defer func() { p.mark(eng.Now()) }()
	dev.PowerCut()
	img := dev.Crash()
	v0, w0 := eng.Now(), time.Now()
	sp := r.drv.tr.begin(spanKamlReopen, p.id, -1, r.drv.seq.Add(1))
	nd, err := kaml.Reopen(img)
	r.drv.tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("reopen after power cut: %w", err)
	}
	st := nd.Stats()
	r.res.setVirtual("recover_virt_ms", float64(eng.Now()-v0)/1e6, 1)
	r.res.set("kamlssd.recover_host_ms", float64(time.Since(w0))/1e6, 1)
	r.res.set("kamlssd.recovered_records", float64(st.RecoveredRecords), 1)
	r.res.set("kamlssd.replayed_values", float64(st.ReplayedValues), 1)
	return nd, nil
}

// preload writes every key once, eight to an atomic batch.
func (r *runner) preload() error {
	r.or = newOracle(r.keys + int(r.maxFr))
	const batch = 8
	vals := make([]byte, batch*r.spec.ValueSize)
	recs := make([]kaml.Record, 0, batch)
	vers := make([]uint64, 0, batch)
	for lo := 0; lo < r.keys; lo += batch {
		recs, vers = recs[:0], vers[:0]
		for k := lo; k < lo+batch && k < r.keys; k++ {
			v := vals[(k-lo)*r.spec.ValueSize:][:r.spec.ValueSize]
			ver := r.or.begin(uint64(k))
			stamp(v, uint64(k), ver)
			recs = append(recs, kaml.Record{Namespace: r.ns, Key: uint64(k), Value: v})
			vers = append(vers, ver)
		}
		err := r.dev.PutBatch(recs)
		for i, rec := range recs {
			r.or.finish(rec.Key, vers[i], err == nil)
		}
		if err != nil {
			return fmt.Errorf("preload: %w", err)
		}
	}
	return nil
}

// verifyAll reads every key straight from the device and checks it; a
// missing key, a foreign value or a version older than the newest
// acknowledged write each count as a failed request.
func (r *runner) verifyAll(dev *kaml.Device, name string) {
	p := r.drv.newPhase(name, 0)
	p.mark(dev.Now())
	defer func() { p.mark(dev.Now()) }()
	n := uint64(r.keys) + min(r.fresh.Load(), r.maxFr)
	for key := uint64(0); key < n; key++ {
		p.ops++
		fl := r.or.floorOf(key)
		v, err := dev.Get(r.ns, key)
		if err != nil || !r.or.check(key, fl, v) {
			p.failed.Add(1)
		}
	}
	r.count(p)
}

// ladderMetrics turns the rungs into the pooled latency metrics (read at
// the reference rung) and the highest rate that meets the latency limit
// without a growing backlog.
func (r *runner) ladderMetrics(rungs []*phase) {
	res := r.res
	var slo float64
	var lags []int64
	for i, p := range rungs {
		slices.Sort(p.lat)
		lags = append(lags, p.lag...)
		g := rungResult{
			Name: p.name, Rate: r.spec.Rates[i], Arrivals: p.ops,
			BodyUS:    rankMean(p.lat, 0, 0.99) / 1e3,
			TailUS:    rankMean(p.lat, 0.99, 0.999) / 1e3,
			WorstUS:   rankMean(p.lat, 0.999, 1) / 1e3,
			P50US:     float64(quantile(p.lat, 0.50)) / 1e3,
			P99US:     float64(quantile(p.lat, 0.99)) / 1e3,
			P999US:    float64(quantile(p.lat, 0.999)) / 1e3,
			Backlog50: p.backlog50, Backlog: p.backlog, Failed: p.failed.Load(),
			Cut: p.cut, WallS: p.wallEnd.Sub(p.wallStart).Seconds(),
		}
		slices.Sort(p.lag)
		g.GenLagP99 = float64(quantile(p.lag, 0.99)) / 1e3
		// A failed request misses every latency limit, so a rung with one
		// cannot meet the SLO; the backlog may not grow over the rung's
		// second half by more than a tenth of its arrivals.
		g.MeetsLimit = g.P99US <= r.spec.LimitUS && g.Failed == 0 && !p.cut &&
			float64(p.backlog-p.backlog50) <= 0.1*float64(p.ops)
		if g.MeetsLimit && g.Rate > slo {
			slo = g.Rate
		}
		res.Rungs = append(res.Rungs, g)
	}
	ref := res.Rungs[refRung]
	n := int64(ref.Arrivals)
	res.setVirtual("virt_body_us", ref.BodyUS, n)
	res.setVirtual("virt_tail_us", ref.TailUS, n/100)
	res.setVirtual("bench.virt_worst_us", ref.WorstUS, n/1000)
	res.setVirtual("virt_rate_at_slo_ops", slo, int64(len(rungs)))
	slices.Sort(lags)
	res.set("bench.gen_lag_p99_us", float64(quantile(lags, 0.99))/1e3, int64(len(lags)))
}

// peakMetrics takes the host-side numbers from the closed-loop phase: m0
// and m1 bracket it, m2 follows a forced collection with the device still
// open.
func (r *runner) peakMetrics(p *phase, m0, m1, m2 *runtime.MemStats) {
	res := r.res
	ops := float64(p.ops)
	clean := segAll // a half-traced phase is judged on its untraced half
	if p.traceHalf {
		clean = segUntraced
	}
	rates := p.segmentRates(clean)
	res.HostSegments = p.segmentRates(segAll)
	res.set("host_ops_per_s", median(rates), int64(len(rates)))
	res.set("host_allocs_per_op", float64(m1.Mallocs-m0.Mallocs)/ops, int64(p.ops))
	res.set("host_bytes_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/ops, int64(p.ops))
	res.set("host_live_heap_mb", float64(m2.HeapAlloc)/(1<<20), 1)
	if p.traceHalf {
		with := p.segmentRates(segTraced)
		res.set("bench.trace_overhead_pct", 100*(1-median(with)/median(rates)), int64(len(with)))
	}
}
