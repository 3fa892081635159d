package kamlssd

import (
	"slices"
	"strconv"
	"testing"

	"github.com/kaml-ssd/kaml/internal/cmdq"
	"github.com/kaml-ssd/kaml/internal/flash"
)

// TestOneCellPerEvent checks that the firmware and pipeline events which
// have both a Stats() field and a registry series are one cell each: after a
// mixed workload the two names read the same non-zero value, and Stats()
// still counts with telemetry disabled. (The cache's three SI events have
// the same test in internal/cache.)
func TestOneCellPerEvent(t *testing.T) {
	for _, disabled := range []bool{false, true} {
		t.Run("DisableTelemetry="+strconv.FormatBool(disabled), func(t *testing.T) {
			fc := testFlashConfig()
			withRig(t, fc, func(c *Config) { c.DisableTelemetry = disabled }, func(r *rig) {
				ns, err := r.dev.CreateNamespace(NamespaceAttrs{})
				if err != nil {
					t.Fatal(err)
				}
				// One submitter issues a window of Puts before parking, so the
				// coalescer merges them; overwriting 20 keys with more than a
				// device's worth of bytes prunes versions and forces GC.
				raw := fc.TotalPages() * fc.PageSize
				for i := 0; i < raw/1000; i += 8 {
					var futs [8]*cmdq.Future
					for j := range futs {
						futs[j] = r.dev.SubmitPut(one(ns, uint64((i+j)%20), val(uint64(i+j), 1000)))
					}
					for _, f := range futs {
						if res := f.Wait(); res.Err != nil {
							t.Fatalf("put: %v", res.Err)
						}
					}
				}
				// A seqlock read retry needs a real read/write collision on one
				// table slot, which no deterministic schedule produces: fire the
				// cell the directory's OnRetry hook is bound to (index.go).
				r.dev.ctr.indexReadRetries.Add(3)

				st, reg := r.dev.Stats(), r.dev.Telemetry()
				if (reg == nil) != disabled {
					t.Fatalf("Telemetry() = %v with DisableTelemetry=%v", reg, disabled)
				}
				var erases int64
				for lg := range r.dev.logs {
					erases += reg.Counter("kaml_gc_erases_total", "log", strconv.Itoa(lg)).Value()
				}
				for _, ev := range []struct {
					name          string
					stats, series int64
				}{
					{"IndexReadRetries", st.IndexReadRetries, reg.Counter("kaml_ssd_index_read_retries_total").Value()},
					{"VersionsPruned", st.VersionsPruned, reg.Counter("kaml_mvcc_versions_pruned_total").Value()},
					{"GCErases", st.GCErases, erases},
					{"CoalescerBatches", st.CoalescerBatches, reg.Counter("kaml_cmdq_batch_commits_total").Value()},
					{"CoalescedPuts", st.CoalescedPuts, reg.Counter("kaml_cmdq_coalesced_puts_total").Value()},
				} {
					if ev.stats == 0 {
						t.Errorf("Stats().%s = 0: the workload never produced the event", ev.name)
					}
					if !disabled && ev.series != ev.stats {
						t.Errorf("%s: Stats() says %d, its registry series %d", ev.name, ev.stats, ev.series)
					}
				}
			})
		})
	}
}

// TestEveryFlashProgramCounted holds the firmware's program accounting to
// the flash array's own: whichever stream programs a page — host flush,
// swap-out of a mapping table, GC relocation of the swapped table's pages —
// Stats().Programs counts it and FlashBytesWritten is Programs pages' worth,
// or write amplification under-reports.
func TestEveryFlashProgramCounted(t *testing.T) {
	fc := testFlashConfig()
	withRig(t, fc, func(c *Config) { c.NumLogs = 2 }, func(r *rig) {
		// Host stream: a few flushed pages of ordinary records.
		hot, _ := r.dev.CreateNamespace(NamespaceAttrs{})
		for k := uint64(0); k < 40; k++ {
			if err := r.dev.Put(one(hot, k, val(k, 1000))); err != nil {
				t.Fatal(err)
			}
		}
		r.dev.Flush()
		// Swap-out stream: one block's worth of (empty) mapping tables, one
		// index page each, which fills and seals the log's GC-stream block.
		// The tables are empty because GC mounts a swapped table as soon as
		// it meets one of its records (the liveness check needs the chains),
		// and a mounted table has no index pages left to relocate.
		var roots []*namespace
		var before []flash.PPN
		for i := 0; i < fc.PagesPerBlock; i++ {
			id, _ := r.dev.CreateNamespace(NamespaceAttrs{IndexCapacity: 64})
			if err := r.dev.SwapOutIndex(id); err != nil {
				t.Fatal(err)
			}
			root := r.dev.namespaces[id]
			if len(root.swapPages) != 1 {
				t.Fatalf("swap-out of ns %d programmed %d index pages, want 1", id, len(root.swapPages))
			}
			roots = append(roots, root)
			before = append(before, root.swapPages[0])
		}
		// Forced GC of that block: every page in it is a live index page.
		lg, lc, block := r.dev.blockOf(before[0])
		if !lc.blocks[block].sealed {
			t.Fatal("the block holding the swapped tables never sealed")
		}
		newCollector(r.dev, lg).collectBlock(slices.Index(lg.chips, lc), block)
		for i, root := range roots {
			if !root.swapped || len(root.swapPages) != 1 || root.swapPages[0] == before[i] {
				t.Fatalf("ns %d: GC did not relocate its index page (%v -> %v)", root.id, before[i], root.swapPages)
			}
		}
		st := r.dev.Stats()
		if got := r.arr.Stats().Programs; st.Programs != got {
			t.Errorf("Stats().Programs = %d, the flash array programmed %d pages", st.Programs, got)
		}
		if want := st.Programs * int64(fc.PageSize); st.FlashBytesWritten != want {
			t.Errorf("FlashBytesWritten = %d, want Programs x PageSize = %d", st.FlashBytesWritten, want)
		}
	})
}
