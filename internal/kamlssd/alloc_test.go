package kamlssd

import (
	"testing"

	"github.com/kaml-ssd/kaml/internal/flash"
	"github.com/kaml-ssd/kaml/internal/nvme"
	"github.com/kaml-ssd/kaml/internal/sim"
)

// getAllocBudget is the hot-path allocation ceiling for one flushed-read
// Get (DESIGN.md §13). The seed spent ~33 allocs/Get (task + Future +
// park-token channels per wakeup); direct execution plus pooled park
// tokens brought the steady state under 8. The budget leaves headroom for
// compiler/runtime drift, not for new per-Get allocations — if this trips,
// something joined the hot path.
const getAllocBudget = 12

// TestGetAllocBudget pins the allocation count of the lock-free read path:
// Gets against a flushed working set, telemetry on (the default), one
// reader. Runs inside the simulation actor so AllocsPerRun measures only
// this actor's work — the flushers are parked on their work condvars and
// allocate nothing while the reader runs.
func TestGetAllocBudget(t *testing.T) {
	const keys = 64
	e := sim.NewEngine()
	arr := flash.New(e, testFlashConfig())
	ctrl := nvme.New(e, nvme.DefaultConfig())
	cfg := DefaultConfig(testFlashConfig())
	cfg.NumLogs = 4
	dev := New(arr, ctrl, cfg)
	var got float64
	e.Go("alloc-main", func() {
		defer dev.Close()
		ns, err := dev.CreateNamespace(NamespaceAttrs{})
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		for k := uint64(0); k < keys; k++ {
			if err := dev.Put(one(ns, k, val(k, 256))); err != nil {
				t.Errorf("put: %v", err)
				return
			}
		}
		dev.Flush()
		// Warm every pool (park tokens, timer entries) before measuring.
		for i := 0; i < 4*keys; i++ {
			if _, err := dev.Get(ns, uint64(i)%keys); err != nil {
				t.Errorf("warmup get: %v", err)
				return
			}
		}
		var k uint64
		got = testing.AllocsPerRun(256, func() {
			if _, err := dev.Get(ns, k%keys); err != nil {
				t.Errorf("get: %v", err)
			}
			k++
		})
	})
	e.Wait()
	if t.Failed() {
		return
	}
	if got > getAllocBudget {
		t.Fatalf("flushed Get allocates %.1f/op, budget %d (see DESIGN.md §13)", got, getAllocBudget)
	}
	t.Logf("flushed Get: %.1f allocs/op (budget %d)", got, getAllocBudget)
}

// The write-path budgets: allocations of one synchronous 256 B Put and of
// one 4-record PutBatch, each pinned at the measured steady state plus one
// of slack (the parent of the single-path change measured 33 and 49 for the
// same calls). Writes inherently allocate — the NVRAM stages a private copy
// of each value, batch and undo bookkeeping, the future, packer chunks — so
// these guard the path rather than claim a number: if one trips, something
// started copying, re-validating or re-counting a Put on its way down.
const (
	putAllocBudget      = 29
	putBatchAllocBudget = 42
)

func TestPutAllocBudget(t *testing.T)      { testPutAllocs(t, 1, putAllocBudget) }
func TestPutBatchAllocBudget(t *testing.T) { testPutAllocs(t, 4, putBatchAllocBudget) }

// testPutAllocs measures dev.Put of an n-record batch (the batch slice is
// built outside the measured call, as a caller's would be).
func testPutAllocs(t *testing.T, n int, budget float64) {
	if raceEnabled {
		t.Skip("sync.Pool is lossy under the race detector; the budget is exact")
	}
	const keys = 64
	e := sim.NewEngine()
	arr := flash.New(e, testFlashConfig())
	ctrl := nvme.New(e, nvme.DefaultConfig())
	cfg := DefaultConfig(testFlashConfig())
	cfg.NumLogs = 4
	dev := New(arr, ctrl, cfg)
	var got float64
	e.Go("alloc-main", func() {
		defer dev.Close()
		ns, err := dev.CreateNamespace(NamespaceAttrs{})
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		batch, v := make([]PutRecord, n), val(3, 256)
		var k uint64
		put := func() error {
			for i := range batch {
				batch[i] = PutRecord{Namespace: ns, Key: k % keys, Value: v}
				k++
			}
			return dev.Put(batch)
		}
		for i := 0; i < 2*keys; i++ {
			if err := put(); err != nil {
				t.Errorf("warmup put: %v", err)
				return
			}
		}
		got = testing.AllocsPerRun(256, func() {
			if err := put(); err != nil {
				t.Errorf("put: %v", err)
			}
		})
	})
	e.Wait()
	if t.Failed() {
		return
	}
	if got > budget {
		t.Fatalf("%d-record Put allocates %.1f/op, budget %.0f", n, got, budget)
	}
	t.Logf("%d-record Put: %.1f allocs/op (budget %.0f)", n, got, budget)
}
