package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/kaml-ssd/kaml/internal/blockdev"
	"github.com/kaml-ssd/kaml/internal/flash"
	"github.com/kaml-ssd/kaml/internal/ftl"
	"github.com/kaml-ssd/kaml/internal/kamlssd"
	"github.com/kaml-ssd/kaml/internal/nvme"
	"github.com/kaml-ssd/kaml/internal/shoremt"
	"github.com/kaml-ssd/kaml/internal/sim"
	"github.com/kaml-ssd/kaml/internal/workload"
)

// Ablations probes the design claims §V-D.1 makes beyond the headline
// figures: checkpoint interference in the baseline ("double GC"), the
// locking-granularity sweep for KAML, and device-level write amplification
// for record-sized updates.
func Ablations(s Scale) []*Table {
	return []*Table{
		AblationCheckpoint(s),
		AblationGranularity(s),
		AblationWriteAmp(s),
		AblationIndexKind(s),
	}
}

// AblationIndexKind compares the per-namespace mapping-table structures
// §IV-C allows: the default hash table (at several load factors) against a
// B+tree, measured as single-thread Get latency. The hash table's cost
// depends on its load factor; the tree's on its depth. Each cell is the mean
// over every key of its table, read once in a seeded order, so a cell is the
// table's mean Get and not a sample of it; the table does not depend on s.
func AblationIndexKind(s Scale) *Table {
	t := &Table{
		ID:     "ablation-index",
		Title:  "Get latency by mapping-table structure (us, 1 thread)",
		Header: []string{"index", "n=2k", "n=20k"},
	}
	measureGet := func(kind kamlssd.IndexKind, n int, load float64) float64 {
		r := newKAMLRig(microFlash(), nil)
		var avg float64
		r.eng.Go("main", func() {
			defer r.dev.Close()
			attrs := kamlssd.NamespaceAttrs{Index: kind}
			if kind == kamlssd.IndexHash {
				attrs.IndexCapacity, n = sizedTable(n, load)
			}
			ns, err := r.dev.CreateNamespace(attrs)
			if err != nil {
				return
			}
			val := make([]byte, 512)
			for k := 0; k < n; k++ {
				if err := r.dev.Put([]kamlssd.PutRecord{{Namespace: ns, Key: uint64(k), Value: val}}); err != nil {
					return
				}
			}
			r.dev.Flush()
			order := rand.New(rand.NewSource(4)).Perm(n)
			start := r.eng.Now()
			for _, k := range order {
				if _, err := r.dev.Get(ns, uint64(k)); err != nil {
					return
				}
			}
			avg = (r.eng.Now() - start).Seconds() * 1e6 / float64(n)
		})
		r.eng.Wait()
		return avg
	}
	rows := []struct {
		name string
		kind kamlssd.IndexKind
		load float64
	}{
		{"hash @0.4", kamlssd.IndexHash, 0.4},
		{"hash @0.9", kamlssd.IndexHash, 0.9},
		{"tree", kamlssd.IndexTree, 0},
	}
	sizes := []int{2000, 20000}
	res := make([][]float64, len(rows))
	for i := range res {
		res[i] = make([]float64, len(sizes))
	}
	runCells(len(rows)*len(sizes), func(cell int) {
		ri, ni := cell/len(sizes), cell%len(sizes)
		res[ri][ni] = measureGet(rows[ri].kind, sizes[ni], rows[ri].load)
	})
	for ri, row := range rows {
		cells := []string{row.name}
		for ni := range sizes {
			cells = append(cells, fmt.Sprintf("%.1f", res[ri][ni]))
		}
		t.Rows = append(t.Rows, cells)
	}
	t.Notes = append(t.Notes,
		"hash cost tracks load factor and is size-independent; tree cost grows with log(n)",
		"§IV-C: per-namespace index structures let applications pick the trade-off")
	return t
}

// AblationCheckpoint compares Shore-MT TPC-B throughput with the
// background checkpointer on vs off — the "checkpointing ... can interfere
// with foreground activity" claim.
func AblationCheckpoint(s Scale) *Table {
	warm, window := oltpWindows(s)
	t := &Table{
		ID:     "ablation-ckpt",
		Title:  "Shore-MT TPC-B: background checkpointing interference",
		Header: []string{"checkpointer", "txn/s"},
	}
	intervals := []time.Duration{0, 20 * time.Millisecond}
	tpsByCell := make([]float64, len(intervals))
	runCells(len(intervals), func(cell int) {
		every := intervals[cell]
		cfg := tpcbConfig(s)
		eng := sim.NewEngine()
		arr := flash.New(eng, oltpFlash())
		ctrl := nvme.New(eng, nvme.DefaultConfig())
		dev := blockdev.New(ftl.New(arr, ctrl))
		scfg := shoremt.DefaultConfig()
		scfg.PoolFrames = 2048
		// A large log region plus one manual checkpoint after loading, so
		// the checkpointer-off variant is not killed by log exhaustion —
		// the comparison isolates the background copying.
		scfg.LogPages = 2048
		scfg.CheckpointEvery = every
		engine := shoremt.New(dev, eng, scfg)
		var tps float64
		eng.Go("main", func() {
			defer engine.Close()
			b, err := workload.NewTPCB(engine, cfg)
			if err != nil {
				return
			}
			if err := b.Load(); err != nil {
				return
			}
			if err := engine.Checkpoint(); err != nil {
				return
			}
			ops := measure(eng, oltpWorkers, warm, window, func(w int, rng *rand.Rand, _ func() bool) bool {
				return b.AccountUpdate(rng) == nil
			})
			tps = float64(ops) / window.Seconds()
		})
		eng.Wait()
		tpsByCell[cell] = tps
	})
	for cell, every := range intervals {
		label := "off"
		if every > 0 {
			label = fmt.Sprintf("every %v", every)
		}
		t.Rows = append(t.Rows, []string{label, fmt.Sprintf("%.0f", tpsByCell[cell])})
	}
	t.Notes = append(t.Notes,
		"paper §V-D.1: checkpoint copying happens in the background but interferes with foreground work")
	return t
}

// AblationGranularity sweeps the KAML caching layer's records-per-lock on
// TPC-B, extending Fig. 9's two points into a curve.
func AblationGranularity(s Scale) *Table {
	warm, window := oltpWindows(s)
	t := &Table{
		ID:     "ablation-gran",
		Title:  "KAML TPC-B throughput vs records per lock",
		Header: []string{"records/lock", "txn/s", "wait-die kills"},
	}
	grans := []int{1, 4, 16, 64}
	type granCell struct {
		tps   float64
		kills int64
	}
	cells := make([]granCell, len(grans))
	runCells(len(grans), func(cell int) {
		gran := grans[cell]
		cfg := tpcbConfig(s)
		workingSet := int64(cfg.Branches*cfg.AccountsPerBranch) * int64(cfg.ValueSize)
		rig := newOLTPRig(engineKAML, oltpFlash(), workingSet*2, gran, 1, 0)
		var tps float64
		var kills int64
		rig.eng.Go("main", func() {
			defer rig.closeFn()
			b, err := workload.NewTPCB(rig.kaml, cfg)
			if err != nil {
				return
			}
			if err := b.Load(); err != nil {
				return
			}
			ops := measure(rig.eng, oltpWorkers, warm, window, func(w int, rng *rand.Rand, _ func() bool) bool {
				return b.AccountUpdate(rng) == nil
			})
			tps = float64(ops) / window.Seconds()
			kills = rig.kaml.Stats().Dies
		})
		rig.eng.Wait()
		cells[cell] = granCell{tps: tps, kills: kills}
	})
	for cell, gran := range grans {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", gran),
			fmt.Sprintf("%.0f", cells[cell].tps),
			fmt.Sprintf("%d", cells[cell].kills),
		})
	}
	t.Notes = append(t.Notes,
		"paper: KAML throughput drops ~47% moving from 1 to 16 records per lock (Fig. 9)",
		"the §V-D.2 model predicts conflicts growing with granularity; kills confirm it")
	return t
}

// AblationWriteAmp measures device-level write amplification for 512-byte
// record updates: KAML appends records; the block device must write whole
// sectors and then garbage-collect them.
func AblationWriteAmp(s Scale) *Table {
	t := &Table{
		ID:     "ablation-wa",
		Title:  "write amplification, 512 B record update churn",
		Header: []string{"device", "payload MB", "flash MB", "write amp"},
	}
	n := int(1500 * float64(s))
	if n < 400 {
		n = 400
	}
	churn := n * 6
	const size = 512

	// Both devices are driven with 8 concurrent writers (the paper's
	// bandwidth configuration). KAML programs full pages at any offered
	// load (pages leave NVRAM when they fill), so its figure is the layout:
	// 5-chunk records leave 4 of 64 chunks unused, plus GC relocation.
	const workers = 8

	var rows [2][]string
	var jobs cellJobs

	// KAML device.
	jobs = append(jobs, func() {
		r := newKAMLRig(microFlash(), nil)
		var payload, flashMB float64
		r.eng.Go("main", func() {
			defer r.dev.Close()
			ns, keys, err := kamlPreload(r, n, size, 0.4)
			if err != nil {
				return
			}
			base := r.dev.Stats()
			wg := r.eng.NewWaitGroup()
			for w := 0; w < workers; w++ {
				w := w
				wg.Add(1)
				r.eng.Go("churn", func() {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w)))
					val := make([]byte, size)
					for i := 0; i < churn/workers; i++ {
						if err := r.dev.Put([]kamlssd.PutRecord{{Namespace: ns, Key: uint64(rng.Intn(keys)), Value: val}}); err != nil {
							return
						}
					}
				})
			}
			wg.Wait()
			r.dev.Flush()
			st := r.dev.Stats()
			payload = float64(st.BytesWritten-base.BytesWritten) / 1e6
			flashMB = float64(st.FlashBytesWritten-base.FlashBytesWritten) / 1e6
		})
		r.eng.Wait()
		rows[0] = []string{"KAML", f2(payload), f2(flashMB), f2(flashMB / payload)}
	})

	// Block device: each 512 B update is a sub-sector write (RMW + whole
	// sectors on flash).
	jobs = append(jobs, func() {
		r := newBlockRig(microFlash())
		var payload, flashMB float64
		r.eng.Go("main", func() {
			defer r.dev.Close()
			if err := blockPreload(r, n, size); err != nil {
				return
			}
			base := r.arr.Stats()
			wg := r.eng.NewWaitGroup()
			for w := 0; w < workers; w++ {
				w := w
				wg.Add(1)
				r.eng.Go("churn", func() {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w)))
					buf := make([]byte, ftl.SectorSize)
					for i := 0; i < churn/workers; i++ {
						if err := blockRecordIO(r, int64(rng.Intn(n)), size, true, false, buf); err != nil {
							return
						}
					}
				})
			}
			wg.Wait()
			r.dev.Drain()
			st := r.arr.Stats()
			payload = float64(churn*size) / 1e6
			flashMB = float64(st.Programs-base.Programs) * float64(microFlash().PageSize) / 1e6
		})
		r.eng.Wait()
		rows[1] = []string{"block SSD", f2(payload), f2(flashMB), f2(flashMB / payload)}
	})
	jobs.run()
	t.Rows = append(t.Rows, rows[0], rows[1])
	t.Notes = append(t.Notes,
		"KAML packs records into pages (§IV-B); the block path writes sector-granular data and GCs it — 'one layer of garbage collection rather than two' (§V-D.1)")
	return t
}
