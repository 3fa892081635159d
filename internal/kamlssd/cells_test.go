package kamlssd

import (
	"slices"
	"strconv"
	"testing"

	"github.com/kaml-ssd/kaml/internal/cmdq"
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
// the flash array's own: whichever stream programs a page — host flush or
// GC relocation — Stats().Programs counts it and FlashBytesWritten is
// Programs pages' worth, or write amplification under-reports.
func TestEveryFlashProgramCounted(t *testing.T) {
	fc := testFlashConfig()
	withRig(t, fc, func(c *Config) { c.NumLogs = 2 }, func(r *rig) {
		// Host stream: page by page to alternate logs, eight records a page,
		// until log 0's first block (the even pages of the first sixteen) is
		// programmed and a page of the next one with it.
		ns, _ := r.dev.CreateNamespace(NamespaceAttrs{})
		keys := uint64((2*fc.PagesPerBlock + 2) * 8)
		for k := uint64(0); k < keys; k++ {
			if err := r.dev.Put(one(ns, k, val(k, churnValue))); err != nil {
				t.Fatal(err)
			}
		}
		r.dev.Flush()
		// Overwrite every other record of that block, so half of it is live.
		for k := uint64(0); k < uint64(2*fc.PagesPerBlock*8); k += 2 {
			if k/8%2 == 0 {
				if err := r.dev.Put(one(ns, k, val(k+1, churnValue))); err != nil {
					t.Fatal(err)
				}
			}
		}
		r.dev.Flush()
		// GC stream: a forced collection of the half-overwritten block.
		loc := location(r.dev.namespaces[ns].fam.chains.Head(1).Loc())
		lg, lc, block := r.dev.blockOf(loc.ppn())
		if lg != r.dev.logs[0] || !lc.blocks[block].sealed {
			t.Fatalf("key 1 is not in a sealed block of log 0 (log %d)", lg.id)
		}
		programs := r.arr.Stats().Programs
		newCollector(r.dev, lg).collectBlock(slices.Index(lg.chips, lc), block)
		st := r.dev.Stats()
		if st.GCCopies == 0 || r.arr.Stats().Programs == programs {
			t.Fatalf("GC copied %d records and programmed %d pages: it relocated nothing",
				st.GCCopies, r.arr.Stats().Programs-programs)
		}
		if got := r.arr.Stats().Programs; st.Programs != got {
			t.Errorf("Stats().Programs = %d, the flash array programmed %d pages", st.Programs, got)
		}
		if want := st.Programs * int64(fc.PageSize); st.FlashBytesWritten != want {
			t.Errorf("FlashBytesWritten = %d, want Programs x PageSize = %d", st.FlashBytesWritten, want)
		}
		for k := uint64(0); k < keys; k++ {
			want := val(k, churnValue)
			if k < uint64(2*fc.PagesPerBlock*8) && k/8%2 == 0 && k%2 == 0 {
				want = val(k+1, churnValue)
			}
			if v, err := r.dev.Get(ns, k); err != nil || string(v) != string(want) {
				t.Fatalf("key %d after the collection: %v", k, err)
			}
		}
	})
}
