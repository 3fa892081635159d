// Package experiments regenerates every table and figure in the KAML
// paper's evaluation (§V). Each Fig* function builds the systems involved
// on a fresh virtual clock, runs the paper's workload, and returns a typed
// table of the same series the paper plots. Absolute numbers come from the
// simulator's timing model (DESIGN.md §5); the claims to check are the
// shapes: who wins, by what factor, and where the crossovers sit.
package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/kaml-ssd/kaml/internal/blockdev"
	"github.com/kaml-ssd/kaml/internal/cache"
	"github.com/kaml-ssd/kaml/internal/flash"
	"github.com/kaml-ssd/kaml/internal/ftl"
	"github.com/kaml-ssd/kaml/internal/kamlssd"
	"github.com/kaml-ssd/kaml/internal/nvme"
	"github.com/kaml-ssd/kaml/internal/shoremt"
	"github.com/kaml-ssd/kaml/internal/sim"
	"github.com/kaml-ssd/kaml/internal/storage"
)

// Table is one reproduced figure or table.
type Table struct {
	ID     string // "fig5a", "fig9", ...
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Render formats the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		var l strings.Builder
		for i, c := range cells {
			fmt.Fprintf(&l, "%-*s  ", widths[i], c)
		}
		b.WriteString(strings.TrimRight(l.String(), " "))
		b.WriteString("\n")
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Scale shrinks or grows experiment working sets. 1.0 is the default
// benchmark size (seconds per figure); tests use smaller values.
type Scale float64

// cellParallelism caps how many figure cells — independent simulations,
// each on its own sim.Engine and virtual clock — run on host goroutines at
// once. 0 means GOMAXPROCS.
var cellParallelism atomic.Int64

// SetParallelism sets the cell worker-pool size. n <= 0 restores the
// default (GOMAXPROCS). Virtual-time results are unaffected: every cell is
// a self-contained simulation, so the pool changes only wall-clock time.
func SetParallelism(n int) {
	if n < 0 {
		n = 0
	}
	cellParallelism.Store(int64(n))
}

// Parallelism reports the effective cell worker-pool size.
func Parallelism() int {
	if p := int(cellParallelism.Load()); p > 0 {
		return p
	}
	return runtime.GOMAXPROCS(0)
}

// runCells executes fn(0..n-1) on up to Parallelism() workers. Callers
// write each cell's result into an index-addressed slot and assemble rows
// after the pool drains, so table contents never depend on scheduling
// order.
func runCells(n int, fn func(i int)) {
	p := Parallelism()
	if p > n {
		p = n
	}
	if p <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < p; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// cellJobs collects independent cell closures; run drains them through the
// worker pool.
type cellJobs []func()

func (j cellJobs) run() { runCells(len(j), func(i int) { j[i]() }) }

// opsDone counts operations completed inside measurement windows across
// every figure; the harness reads the running total to report allocations
// per simulated operation.
var opsDone atomic.Int64

// OpsCompleted returns the number of measured operations so far.
func OpsCompleted() int64 { return opsDone.Load() }

// microFlash is the device geometry for the microbenchmarks: the paper's
// 16x4 chip array with a reduced block count so simulated churn stays
// within host memory.
func microFlash() flash.Config {
	fc := flash.DefaultConfig()
	fc.BlocksPerChip = 16
	fc.PagesPerBlock = 32
	return fc
}

// kamlRig is a KAML SSD plus its simulation engine.
type kamlRig struct {
	eng  *sim.Engine
	arr  *flash.Array
	ctrl *nvme.Controller
	dev  *kamlssd.Device
}

func newKAMLRig(fc flash.Config, mod func(*kamlssd.Config)) *kamlRig {
	eng := sim.NewEngine()
	eng.Serialize(1)
	arr := flash.New(eng, fc)
	ctrl := nvme.New(eng, nvme.DefaultConfig())
	cfg := kamlssd.DefaultConfig(fc)
	if mod != nil {
		mod(&cfg)
	}
	return &kamlRig{eng: eng, arr: arr, ctrl: ctrl, dev: kamlssd.New(arr, ctrl, cfg)}
}

// blockRig is the baseline block SSD plus its simulation engine.
type blockRig struct {
	eng  *sim.Engine
	arr  *flash.Array
	ctrl *nvme.Controller
	dev  *ftl.Device
}

func newBlockRig(fc flash.Config) *blockRig {
	eng := sim.NewEngine()
	eng.Serialize(1)
	arr := flash.New(eng, fc)
	ctrl := nvme.New(eng, nvme.DefaultConfig())
	return &blockRig{eng: eng, arr: arr, ctrl: ctrl, dev: ftl.New(arr, ctrl)}
}

// measure runs `op` on `workers` concurrent actors for a warmup plus a
// measurement window of virtual time, and returns completed operations in
// the window. op returns false to stop its worker early (fatal error).
func measure(eng *sim.Engine, workers int, warmup, window time.Duration,
	op func(worker int, rng *rand.Rand) bool) int64 {

	var counting atomic.Bool
	var stop atomic.Bool
	var ops atomic.Int64
	wg := eng.NewWaitGroup()
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		eng.Go(fmt.Sprintf("bench-w%d", w), func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)*7919 + 13))
			for !stop.Load() {
				if !op(w, rng) {
					return
				}
				if counting.Load() {
					ops.Add(1)
				}
			}
		})
	}
	eng.Go("bench-clock", func() {
		eng.Sleep(warmup)
		counting.Store(true)
		eng.Sleep(window)
		counting.Store(false)
		stop.Store(true)
	})
	wg.Wait()
	opsDone.Add(ops.Load())
	return ops.Load()
}

// mbps converts (ops x bytesPerOp) over window to MB/s.
func mbps(ops int64, bytesPerOp int, window time.Duration) float64 {
	return float64(ops) * float64(bytesPerOp) / window.Seconds() / 1e6
}

// f2 formats a float with two decimals.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// newEngines builds the KAML caching-layer engine and the Shore-MT engine
// for OLTP/YCSB comparisons. Each gets its own fresh simulation.
type engineKind int

const (
	engineKAML engineKind = iota
	engineShore
)

type oltpRig struct {
	eng     *sim.Engine
	kind    engineKind
	kaml    *cache.Cache
	shore   *shoremt.Engine
	closeFn func()
}

func newOLTPRig(kind engineKind, fc flash.Config, cacheBytes int64, recordsPerLock int,
	shoreLockGran int, shorePoolFrames int) *oltpRig {

	eng := sim.NewEngine()
	eng.Serialize(1)
	arr := flash.New(eng, fc)
	ctrl := nvme.New(eng, nvme.DefaultConfig())
	r := &oltpRig{eng: eng, kind: kind}
	switch kind {
	case engineKAML:
		cfg := kamlssd.DefaultConfig(fc)
		dev := kamlssd.New(arr, ctrl, cfg)
		r.kaml = cache.New(dev, cache.Config{
			CapacityBytes:  cacheBytes,
			RecordsPerLock: recordsPerLock,
		})
		r.closeFn = r.kaml.Close
	case engineShore:
		dev := blockdev.New(ftl.New(arr, ctrl))
		cfg := shoremt.DefaultConfig()
		cfg.RecordsPerLock = shoreLockGran
		cfg.PoolFrames = shorePoolFrames
		cfg.LogPages = 256
		r.shore = shoremt.New(dev, eng, cfg)
		r.closeFn = r.shore.Close
	}
	return r
}

// storageEngine returns the rig's engine behind the neutral interface.
func (r *oltpRig) storageEngine() storage.Engine {
	if r.kind == engineKAML {
		return r.kaml
	}
	return r.shore
}
