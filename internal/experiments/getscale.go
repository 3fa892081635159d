package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"github.com/kaml-ssd/kaml/internal/kamlssd"
)

// getScaleWorkers is the reader-count ladder for the read-scaling sweep.
var getScaleWorkers = []int{1, 2, 4, 8, 16}

const (
	getScaleValueSize = 256
	getScaleKeysPerNS = 256
)

// getScaleTrials is the number of timed repetitions per cell; the reported
// wall-clock figure is the median, which keeps one noisy-neighbor stall or
// GC pause from defining a cell.
const getScaleTrials = 3

// GetScaleResult is one cell of the read-scaling sweep, exported so
// kamlbench can emit the sweep as machine-readable JSON (the CI smoke job
// consumes it).
type GetScaleResult struct {
	Workers int `json:"workers"`
	// GetsPerSec is the median wall-clock throughput across the trials;
	// Samples holds every trial so the artifact records the spread.
	GetsPerSec float64   `json:"gets_per_sec"`
	Samples    []float64 `json:"gets_per_sec_samples"`
	// VirtGetsPerSec is throughput against the simulated clock — the
	// figure the modeled device itself delivers. It is deterministic
	// (identical on any host, any run) and isolates device scaling from
	// host scheduling effects.
	VirtGetsPerSec float64 `json:"virt_gets_per_sec"`
	AllocsPerGet   float64 `json:"allocs_per_get"`
}

// GetScaleRaw runs one cell per worker count and returns wall-clock gets/s
// plus heap allocations per Get. Unlike the virtual-time experiments, the
// cells run strictly serially and ignore the -parallel pool: each cell
// times the real clock and reads process-wide allocation counters, so it
// must own the machine while it runs.
func GetScaleRaw(s Scale, workers []int) []GetScaleResult {
	total := int(40000 * float64(s))
	if total < 4096 {
		total = 4096
	}
	out := make([]GetScaleResult, 0, len(workers))
	for _, w := range workers {
		out = append(out, getScaleCell(w, total))
	}
	return out
}

// getScaleCell builds a fresh device, preloads one namespace per reader
// (the scaling under test is the read path, not key contention), flushes
// everything to flash, then runs the readers to completion against the
// wall clock.
func getScaleCell(workers, total int) GetScaleResult {
	r := newKAMLRig(microFlash(), nil)
	res := GetScaleResult{Workers: workers}
	r.eng.Go("main", func() {
		defer r.dev.Close()
		nsIDs := make([]uint32, workers)
		val := make([]byte, getScaleValueSize)
		for i := range nsIDs {
			ns, err := r.dev.CreateNamespace(kamlssd.NamespaceAttrs{IndexCapacity: getScaleKeysPerNS * 2})
			if err != nil {
				return
			}
			nsIDs[i] = ns
			const batch = 8
			for base := 0; base < getScaleKeysPerNS; base += batch {
				recs := make([]kamlssd.PutRecord, 0, batch)
				for k := base; k < base+batch && k < getScaleKeysPerNS; k++ {
					recs = append(recs, kamlssd.PutRecord{Namespace: ns, Key: uint64(k), Value: val})
				}
				if r.dev.Put(recs) != nil {
					return
				}
			}
		}
		r.dev.Flush()

		perWorker := total / workers
		done := perWorker * workers
		names := make([]string, workers)
		for w := range names {
			names[w] = fmt.Sprintf("getscale-r%d", w)
		}
		// The allocation window opens after the first trial: that one also
		// spawns the readers' actors, which a later trial reuses.
		var before, after runtime.MemStats
		var virtElapsed time.Duration
		for trial := 0; trial < getScaleTrials; trial++ {
			if trial == 1 {
				runtime.ReadMemStats(&before)
			}
			virtStart := r.eng.NowCheap()
			start := time.Now()
			wg := r.eng.NewWaitGroup()
			for w := 0; w < workers; w++ {
				w := w
				wg.Add(1)
				// Each reader walks its namespace's keys from a different
				// phase. All readers advance in virtual-time lockstep (every
				// Get costs the same), so starting them all at key 0 would
				// convoy the whole fleet onto the same flash chip at every
				// instant — a synchronized-scan pathology, not the
				// independent-reader workload this cell models.
				phase := w * getScaleKeysPerNS / workers
				r.eng.Go(names[w], func() {
					defer wg.Done()
					ns := nsIDs[w]
					for i := 0; i < perWorker; i++ {
						key := uint64(i+phase) % getScaleKeysPerNS
						if _, err := r.dev.Get(ns, key); err != nil {
							return
						}
					}
				})
			}
			wg.Wait()
			wall := time.Since(start)
			virtElapsed = r.eng.NowCheap() - virtStart
			res.Samples = append(res.Samples, float64(done)/wall.Seconds())
		}
		runtime.ReadMemStats(&after)
		opsDone.Add(int64(done * getScaleTrials))
		res.GetsPerSec = median(res.Samples)
		res.VirtGetsPerSec = float64(done) / virtElapsed.Seconds()
		res.AllocsPerGet = float64(after.Mallocs-before.Mallocs) / float64(done*(getScaleTrials-1))
	})
	r.eng.Wait()
	return res
}

// median returns the middle value of xs (mean of the middle two for even
// lengths) without mutating the caller's slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// GetScale measures how concurrent read-only throughput scales with the
// number of reader actors. A Get takes no namespace lock and shares no
// pipeline lock with other readers, so the virtual-time curve rises with
// every reader added (a Get that serialized on a shared lock would flatten
// it), and the wall-clock curve must stay flat or rise. gets/s is wall-clock,
// not virtual time: virtual-time throughput is identical by construction
// (determinism), so real contention only shows up on the real clock.
func GetScale(s Scale) *Table {
	cells := GetScaleRaw(s, getScaleWorkers)
	t := &Table{
		ID: "getscale",
		Title: fmt.Sprintf("concurrent Get scaling: %d B values, %d keys/namespace, one namespace per reader",
			getScaleValueSize, getScaleKeysPerNS),
		Header: []string{"workers", "gets_per_sec", "speedup_vs_1", "virt_gets_per_sec", "allocs_per_get"},
		Notes: []string{
			fmt.Sprintf("gets_per_sec is wall-clock (real time, whole process), median of %d trials; cells run serially and ignore -parallel", getScaleTrials),
			"virt_gets_per_sec is against the simulated clock: deterministic, host-independent device scaling",
			"on a single-core host the 1-worker cell is privileged: a lone actor self-wakes with zero goroutine switches, so wall-clock comparisons of 1 vs N>=2 mix in scheduler cost that virt_gets_per_sec excludes",
			"allocs_per_get is runtime.MemStats.Mallocs across the measured window / completed Gets",
		},
	}
	for _, c := range cells {
		speedup := "-"
		if base := cells[0].GetsPerSec; base > 0 {
			speedup = f2(c.GetsPerSec / base)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", c.Workers),
			f2(c.GetsPerSec),
			speedup,
			f2(c.VirtGetsPerSec),
			f2(c.AllocsPerGet),
		})
	}
	return t
}
