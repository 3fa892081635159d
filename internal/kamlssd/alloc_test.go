package kamlssd

import (
	"runtime"
	"testing"

	"github.com/kaml-ssd/kaml/internal/flash"
	"github.com/kaml-ssd/kaml/internal/nvme"
	"github.com/kaml-ssd/kaml/internal/sim"
)

// getAllocBudget is the hot-path allocation ceiling for one flushed-read
// Get (DESIGN.md §13): the measured steady state plus one. The seed spent
// ~33 allocs/Get (task + Future + park-token channels per wakeup); direct
// execution plus pooled park tokens brought it to 7, and parks that allocate
// nothing (timers by value, reasons built once) to 2 — the command handed to
// the pipeline and the value the Get returns, copied out of the page. If
// this trips, something joined the hot path.
const getAllocBudget = 3

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
// one 4-record PutBatch, each pinned one above the measured steady state (2
// and 6; 14 and 28 while the NVRAM, the coalescer and execPut allocated their
// bookkeeping per request, 25 and 40 before parks stopped allocating, 33 and
// 49 before the single request path). A write allocates only what outlives
// it: the future its caller waits on (which carries the command, a batch's
// records copied once beside it) and a version node per record. The page a
// full packer hands to flash comes once per page, under one per Put.
const (
	putAllocBudget      = 3
	putBatchAllocBudget = 7
)

func TestPutAllocBudget(t *testing.T)      { testPutAllocs(t, 1, putAllocBudget) }
func TestPutBatchAllocBudget(t *testing.T) { testPutAllocs(t, 4, putBatchAllocBudget) }

// testPutAllocs measures dev.Put of an n-record batch (the batch slice is
// built outside the measured call, as a caller's would be).
func testPutAllocs(t *testing.T, n int, budget float64) {
	if raceEnabled && n > 1 {
		t.Skip("a batch Put allocates 10.0 times under the race detector, against the plain build's budget of 7")
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

// coalescedPutAllocBudget bounds what a merged single-record Put allocates,
// every actor's share included — writer, coalescer, flusher: the measured
// 2.27 (the future, the version node, a share of each page) plus one.
const coalescedPutAllocBudget = 3.3

// TestCoalescedPutAllocBudget measures the merge path, which the Put budget
// above never takes — with one writer every cut commits alone. Eight writer
// actors issue single-record Puts to keys no other writer touches, so the
// coalescer merges what arrives together, and what the whole phase allocates
// on every goroutine is charged to the Puts it ran.
func TestCoalescedPutAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("a coalesced Put allocates 3.32 times under the race detector, against the plain build's budget of 3.3")
	}
	const writers, putsEach = 8, 64
	e := sim.NewEngine()
	arr := flash.New(e, testFlashConfig())
	ctrl := nvme.New(e, nvme.DefaultConfig())
	cfg := DefaultConfig(testFlashConfig())
	cfg.NumLogs = 4
	dev := New(arr, ctrl, cfg)
	var perPut, perCommit float64
	e.Go("alloc-main", func() {
		defer dev.Close()
		ns, err := dev.CreateNamespace(NamespaceAttrs{})
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		v := val(3, 256)
		phase := func() {
			wg := e.NewWaitGroup()
			for w := 0; w < writers; w++ {
				wg.Add(1)
				e.Go("writer", func() {
					defer wg.Done()
					batch := make([]PutRecord, 1)
					for i := 0; i < putsEach; i++ {
						batch[0] = PutRecord{Namespace: ns, Key: uint64(w + writers*(i%8)), Value: v}
						if err := dev.Put(batch); err != nil {
							t.Errorf("put: %v", err)
							return
						}
					}
				})
			}
			wg.Wait()
		}
		phase() // warm the pools, the free lists and the coalescer's buffers
		before := dev.Stats()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		phase()
		runtime.ReadMemStats(&ms1)
		after := dev.Stats()
		puts := after.Puts - before.Puts
		perPut = float64(ms1.Mallocs-ms0.Mallocs) / float64(puts)
		perCommit = float64(after.CoalescerRecords-before.CoalescerRecords) /
			float64(after.CoalescerBatches-before.CoalescerBatches)
	})
	e.Wait()
	if t.Failed() {
		return
	}
	if perCommit <= 1 {
		t.Fatalf("setup: %.2f records per commit, want a merge", perCommit)
	}
	if perPut > coalescedPutAllocBudget {
		t.Fatalf("a coalesced Put allocates %.2f/op, budget %.1f", perPut, coalescedPutAllocBudget)
	}
	t.Logf("coalesced Put: %.2f allocs/op at %.2f records per commit (budget %.1f)", perPut, perCommit, coalescedPutAllocBudget)
}

// allocated reports how many heap bytes and objects fn allocates, every
// goroutine's included: call it from the only actor of a serialized engine
// that runs.
func allocated(fn func()) (bytes, objects int64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return int64(after.TotalAlloc - before.TotalAlloc), int64(after.Mallocs - before.Mallocs)
}

// The byte budgets of the two page scans. A collection reads its victim's
// pages and parses them in place, so what it allocates is the pages that
// relocation fills — a page image per relocated page, 1 024 B per record of
// the 1000 B values these tests write, eight to a page — and a little
// bookkeeping, not a copy of every value it parses, live or dead. A recovery
// scan allocates the lists it hands the join — each reader's, 32 B a record,
// and the one they are appended into. Measured: 1 040 B per relocated record
// and 550-650 B per scanned page of eight records (the margin of two
// recoveries, so the noise of the fixed cost shows); before the scans parsed
// in place, 10 281 and 9 138 — every parsed value copied, every relocation
// page copied again by the flash program, and a fresh padding page per
// partial block.
//
// The join's budgets, per record it keeps. It sorts the scan's list in
// place and pushes each kept version into the key's cell, so at the margin
// it allocates nothing: measured 0 B and 0 allocations a kept record (a
// fixed ~14 KB in 7 allocations, however long the scan). The map-of-maps
// candidate set the sort replaced took 160 B in 3.02 allocations, a
// candidate slice per key and two sorted copies of each family's keys.
const (
	gcBytesPerRelocatedRecord = 1200
	recoveryBytesPerPage      = 1000
	joinBytesPerRecord        = 16
	joinAllocsPerRecord       = 0.1
)

// TestGCCollectionByteBudget collects one victim block directly, the way its
// collector would (the collectors themselves never wake: collectorsOff), and
// charges what the collection allocates to the records it relocated. The
// first collection warms the collector's scratch; the second is measured.
func TestGCCollectionByteBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations would be counted")
	}
	collectorsOff(t)
	r := newSerialRig(1, testFlashConfig(), func(c *Config) { c.NumLogs = 1 })
	r.e.Go("test", func() {
		d := r.dev
		w := newScanLoad(t, d)
		w.put(40 * 8)
		d.Flush()
		lg := d.logs[0]
		c := newCollector(d, lg)
		var perRecord int64
		for round := 0; round < 2; round++ {
			lg.mu.Lock()
			chip, block, ok := d.victim(lg)
			lg.mu.Unlock()
			if !ok {
				t.Fatalf("setup: round %d found no victim", round)
			}
			copies := d.Stats().GCCopies
			bytes, _ := allocated(func() { c.collectBlock(chip, block) })
			relocated := d.Stats().GCCopies - copies
			if relocated == 0 {
				t.Fatalf("setup: round %d relocated nothing", round)
			}
			perRecord = bytes / relocated
			t.Logf("collection %d: %d B for %d relocated records, %d B each", round, bytes, relocated, perRecord)
		}
		if perRecord > gcBytesPerRelocatedRecord {
			t.Errorf("a collection allocates %d B per relocated record, budget %d", perRecord, gcBytesPerRelocatedRecord)
		}
		w.checkAll(d)
		d.Close()
	})
	r.e.Wait()
}

// TestRecoveryScanByteBudget charges what recovery allocates at the margin:
// the fixed cost — the device's tables, the readers, the sort's counts — is
// the same for a short log and a long one, so the difference between the
// two is what the extra pages cost the scan (steps 1-4, scanDevice) and what
// the extra records they hold cost the join.
func TestRecoveryScanByteBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations would be counted")
	}
	type cost struct{ scanBytes, joinBytes, joinAllocs, pages, records int64 }
	recoverAfter := func(pages int) (c cost) {
		r := newSerialRig(1, testFlashConfig(), nil)
		r.e.Go("test", func() {
			w := newScanLoad(t, r.dev)
			w.put(pages * 8)
			r.dev.Flush()
			r.dev.PowerFail()
			r.dev.AwaitHalt()
			var d *Device
			var recs []scanRec
			var err error
			c.scanBytes, _ = allocated(func() { d, recs, err = scanDevice(r.arr, r.ctrl, r.dev.Config(), r.dev.NVRAM()) })
			if err != nil {
				t.Errorf("scan: %v", err)
				return
			}
			c.joinBytes, c.joinAllocs = allocated(func() { _, err = d.join(recs) })
			if err != nil {
				t.Errorf("join: %v", err)
			}
			c.pages, c.records = d.ctr.scannedPages.Value(), d.ctr.recoveredRecords.Value()
		})
		r.e.Wait()
		return c
	}
	short, long := recoverAfter(50), recoverAfter(150)
	if t.Failed() {
		return
	}
	perPage := (long.scanBytes - short.scanBytes) / (long.pages - short.pages)
	records := float64(long.records - short.records)
	joinBytes := float64(long.joinBytes-short.joinBytes) / records
	joinAllocs := float64(long.joinAllocs-short.joinAllocs) / records
	t.Logf("scan: %d B for %d pages, %d B for %d: %d B per scanned page", short.scanBytes, short.pages, long.scanBytes, long.pages, perPage)
	t.Logf("join: %d B in %d allocations for %d kept records, %d B in %d for %d: %.0f B and %.3f allocations per kept record",
		short.joinBytes, short.joinAllocs, short.records, long.joinBytes, long.joinAllocs, long.records, joinBytes, joinAllocs)
	if perPage > recoveryBytesPerPage {
		t.Errorf("the scan allocates %d B per scanned page, budget %d", perPage, recoveryBytesPerPage)
	}
	if joinBytes > joinBytesPerRecord || joinAllocs > joinAllocsPerRecord {
		t.Errorf("the join allocates %.0f B in %.3f allocations per kept record, budget %d B and %.2f",
			joinBytes, joinAllocs, joinBytesPerRecord, joinAllocsPerRecord)
	}
}
