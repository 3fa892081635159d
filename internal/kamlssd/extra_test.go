package kamlssd

import (
	"testing"
	"time"

	"github.com/kaml-ssd/kaml/internal/flash"
	"github.com/kaml-ssd/kaml/internal/nvme"
	"github.com/kaml-ssd/kaml/internal/sim"
)

// TestWearLevelingSpreadsErases churns a hot key set and checks that GC's
// erase-count-aware victim selection keeps block wear reasonably even
// (paper §IV-E: "spread erases evenly across the blocks").
func TestWearLevelingSpreadsErases(t *testing.T) {
	fc := testFlashConfig()
	withRig(t, fc, func(c *Config) { c.NumLogs = 2 }, func(r *rig) {
		ns, _ := r.dev.CreateNamespace(NamespaceAttrs{})
		raw := fc.TotalPages() * fc.PageSize
		valueSize := 1000
		writes := raw / valueSize * 2
		for i := 0; i < writes; i++ {
			k := uint64(i % 30) // hot set
			if err := r.dev.Put(one(ns, k, val(k, valueSize))); err != nil {
				t.Fatalf("put %d: %v", i, err)
			}
		}
		r.dev.Flush()

		// Collect per-block erase counts.
		var min, max, total, blocks int
		min = 1 << 30
		for ch := 0; ch < fc.Channels; ch++ {
			for chip := 0; chip < fc.ChipsPerChannel; chip++ {
				for b := 0; b < fc.BlocksPerChip; b++ {
					e := r.arr.EraseCount(r.arr.BlockPPN(ch, chip, b, 0))
					total += e
					blocks++
					if e < min {
						min = e
					}
					if e > max {
						max = e
					}
				}
			}
		}
		if total == 0 {
			t.Fatal("no erases happened")
		}
		avg := float64(total) / float64(blocks)
		// Wear should not concentrate: the hottest block must stay within
		// a small multiple of the mean.
		if float64(max) > avg*4+4 {
			t.Fatalf("wear skew: min=%d max=%d avg=%.1f", min, max, avg)
		}
	})
}

// TestEraseFailureRetiresBlock poisons erases and checks the device keeps
// serving I/O with the bad blocks retired.
func TestEraseFailureRetiresBlock(t *testing.T) {
	fc := testFlashConfig()
	e := sim.NewEngine()
	arr := flash.New(e, fc)
	ctrl := nvme.New(e, nvme.DefaultConfig())
	cfg := DefaultConfig(fc)
	cfg.NumLogs = 2
	dev := New(arr, ctrl, cfg)
	for b := 0; b < 3; b++ {
		arr.InjectEraseFailure(arr.BlockPPN(0, 0, b, 0))
	}
	e.Go("churn", func() {
		defer dev.Close()
		ns, _ := dev.CreateNamespace(NamespaceAttrs{})
		raw := fc.TotalPages() * fc.PageSize
		writes := raw / 1000
		for i := 0; i < writes; i++ {
			if err := dev.Put(one(ns, uint64(i%25), val(uint64(i), 1000))); err != nil {
				t.Errorf("put %d: %v", i, err)
				return
			}
		}
		// Everything still readable.
		for k := uint64(0); k < 25; k++ {
			if _, err := dev.Get(ns, k); err != nil {
				t.Errorf("get %d: %v", k, err)
				return
			}
		}
	})
	e.Wait()
}

// TestDeleteNamespaceFreesSpaceForGC fills a namespace, deletes it, and
// verifies GC can reclaim enough space for a second namespace of the same
// size — i.e. deleted records really do become garbage.
func TestDeleteNamespaceFreesSpaceForGC(t *testing.T) {
	fc := testFlashConfig()
	withRig(t, fc, func(c *Config) { c.NumLogs = 2 }, func(r *rig) {
		raw := fc.TotalPages() * fc.PageSize
		// Half the device per namespace — by bytes and, now that pages pack,
		// by pages too: eight 1000 B values fill a page exactly, so a round is
		// 262 of the 512 pages and four rounds cannot fit without reclaim.
		// Every seal here is an exact-fit seal, which is what makes this the
		// test that catches a log cursor that only moves on "does not fit"
		// (all pages to one log, GC shuffling full blocks, over-commit panic).
		fill := raw / 2 / 1000
		for round := 0; round < 4; round++ {
			ns, err := r.dev.CreateNamespace(NamespaceAttrs{})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < fill; i++ {
				if err := r.dev.Put(one(ns, uint64(i), val(uint64(i), 1000))); err != nil {
					t.Fatalf("round %d put %d: %v", round, i, err)
				}
			}
			if err := r.dev.DeleteNamespace(ns); err != nil {
				t.Fatal(err)
			}
		}
		// Four half-device fills only fit if deletion freed space.
		if r.dev.Stats().GCErases == 0 {
			t.Fatal("GC never reclaimed the deleted namespaces")
		}
	})
}

// TestNamespaceLogRestriction checks that a namespace restricted to one
// log appends more slowly than one using every log (the Fig. 8 mechanism,
// observed through the public interface).
func TestNamespaceLogRestriction(t *testing.T) {
	fc := testFlashConfig()
	run := func(logs int) time.Duration {
		e := sim.NewEngine()
		arr := flash.New(e, fc)
		ctrl := nvme.New(e, nvme.DefaultConfig())
		cfg := DefaultConfig(fc)
		cfg.NumLogs = 8
		dev := New(arr, ctrl, cfg)
		var elapsed time.Duration
		e.Go("main", func() {
			defer dev.Close()
			ns, _ := dev.CreateNamespace(NamespaceAttrs{NumLogs: logs})
			start := e.Now()
			// The 1-log namespace owns one chip (64 pages) in this geometry;
			// keep the working set well inside that.
			wg := e.NewWaitGroup()
			for w := 0; w < 8; w++ {
				w := w
				wg.Add(1)
				e.Go("writer", func() {
					defer wg.Done()
					for i := 0; i < 15; i++ {
						k := uint64(w*1000 + i)
						if err := dev.Put(one(ns, k, val(k, 1000))); err != nil {
							t.Errorf("put: %v", err)
							return
						}
					}
				})
			}
			wg.Wait()
			dev.Flush()
			elapsed = e.Now() - start
		})
		e.Wait()
		return elapsed
	}
	narrow := run(1)
	wide := run(8)
	if narrow <= wide {
		t.Fatalf("1-log namespace (%v) should be slower than 8-log (%v)", narrow, wide)
	}
}

// TestGetConcurrentWithPutSameKey hammers one key with a writer while a
// reader spins; the reader must always see some complete version.
func TestGetConcurrentWithPutSameKey(t *testing.T) {
	withRig(t, testFlashConfig(), nil, func(r *rig) {
		ns, _ := r.dev.CreateNamespace(NamespaceAttrs{})
		if err := r.dev.Put(one(ns, 1, val(0, 500))); err != nil {
			t.Fatal(err)
		}
		wg := r.e.NewWaitGroup()
		wg.Add(2)
		r.e.Go("writer", func() {
			defer wg.Done()
			for i := 1; i <= 150; i++ {
				if err := r.dev.Put(one(ns, 1, val(uint64(i), 500))); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
		})
		r.e.Go("reader", func() {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				v, err := r.dev.Get(ns, 1)
				if err != nil {
					t.Errorf("get: %v", err)
					return
				}
				if len(v) != 500 {
					t.Errorf("torn read: %d bytes", len(v))
					return
				}
				// A complete version: all bytes derive from the same seed.
				seed := uint64(v[0])
				for j := range v {
					if v[j] != byte(seed+uint64(j)) {
						t.Errorf("inconsistent version at byte %d", j)
						return
					}
				}
			}
		})
		wg.Wait()
	})
}
