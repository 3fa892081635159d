package kamlssd

import (
	"fmt"
	"testing"
	"time"

	"github.com/kaml-ssd/kaml/internal/flash"
	"github.com/kaml-ssd/kaml/internal/telemetry"
)

// Tests for a full sealed queue (log.go): a page takes its flash address
// when the flusher dequeues it, so only the flusher waits for an erased
// block; a writer that meets a full queue sends its record on to the
// namespace's next log; and only a namespace whose every log is full holds
// its writers back.

// stalled reports whether lg's open page is left full for a flusher that
// programs nothing: the flusher holds a dequeued page and waits for an
// erased block, behind a full queue. With the collectors off no block is
// ever collected, so every record is cold.
func stalled(lg *logState) bool {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	return lg.open[streamCold].sealWanted && lg.active[streamCold] == nil && lg.inflight.data == nil
}

// stallLogs overwrites a page's worth of keys per log through ns until every
// log in logs is stalled, one Put a millisecond: slower than a log programs,
// so a queue fills only behind a flusher that waits for a block. With the
// collectors off none comes back, and the overwrites leave the logs' first
// blocks pure garbage for returnBlock. Reports whether the logs stalled.
func stallLogs(t *testing.T, r *rig, ns uint32, logs []*logState) bool {
	t.Helper()
	keys := uint64(8 * len(logs))
	for puts := uint64(0); puts < 10000; puts++ {
		all := true
		for _, lg := range logs {
			all = all && stalled(lg)
		}
		if all {
			return true
		}
		if err := r.dev.Put(one(ns, puts%keys, val(puts, churnValue))); err != nil {
			t.Errorf("fill %d: %v", puts, err)
			return false
		}
		r.e.Sleep(time.Millisecond)
	}
	t.Errorf("setup: the logs did not stall")
	return false
}

// returnBlock collects lg's best victim the way its collector would, so the
// flusher waiting for an erased block gets one.
func returnBlock(t *testing.T, d *Device, lg *logState) {
	t.Helper()
	lg.mu.Lock()
	chip, block, ok := d.victim(lg)
	lg.mu.Unlock()
	if !ok {
		t.Errorf("setup: log %d has no victim", lg.id)
		return
	}
	newCollector(d, lg).collectBlock(chip, block)
}

// failNextProgram is a fault plan that fails the first program it sees.
type failNextProgram struct{ failed bool }

func (f *failNextProgram) Decide(op flash.Op, _ flash.PPN, _ time.Duration) flash.Verdict {
	if op == flash.OpProgram && !f.failed {
		f.failed = true
		return flash.VerdictFail
	}
	return flash.VerdictOK
}

// sealedSince is how many pages lg has sealed since it had sealed seq.
func sealedSince(lg *logState, seq uint64) uint64 {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	return lg.pageSeq - seq
}

// A namespace spans four logs, and log 0's flusher waits for an erased block
// behind a full queue. The namespace does not notice: each of its Puts takes
// what a Put to the idle device took, and every record lands on logs 1-3.
// Once a block comes back, log 0's flusher seals the page left for it as
// soon as its queue has room — which a page whose program failed takes away
// for one more dequeue.
func TestFullLogDoesNotStallTheNamespace(t *testing.T) {
	const puts = 200
	collectorsOff(t)
	r := newRig(testFlashConfig(), nil)
	r.e.Go("test", func() {
		d, lg := r.dev, r.dev.logs[0]
		defer d.Close()
		wide, _ := d.CreateNamespace(NamespaceAttrs{NumLogs: 4})
		narrow, _ := d.CreateNamespace(NamespaceAttrs{NumLogs: 1})
		put := func(key uint64) time.Duration {
			start := r.e.Now()
			if err := d.Put(one(wide, key, val(key, churnValue))); err != nil {
				t.Errorf("put %d: %v", key, err)
				return -1
			}
			return r.e.Now() - start
		}
		idle := put(puts)
		if !stallLogs(t, r, narrow, d.logs[:1]) {
			return
		}
		lg.mu.Lock()
		left, queued := lg.pageSeq, len(lg.sealedQueue)
		lg.mu.Unlock()
		if queued != d.cfg.QueueDepthPerLog {
			t.Errorf("setup: log 0 queues %d pages, want a full queue of %d", queued, d.cfg.QueueDepthPerLog)
			return
		}

		for k := uint64(0); k < puts; k++ {
			if took := put(k); took != idle {
				t.Errorf("Put %d took %v beside the stalled log, %v on the idle device", k, took, idle)
				return
			}
		}
		var landed int64
		for _, other := range d.logs[1:] {
			other.mu.Lock()
			landed += 8*sealedPages(other) + int64(other.open[streamCold].packer.Count())
			other.mu.Unlock()
		}
		if n := sealedSince(lg, left); landed != puts || n != 0 {
			t.Errorf("logs 1-3 hold %d records, want the %d Puts'; the stalled log 0 sealed %d pages", landed, puts, n)
		}
		rerouted := lg.rerouted.Value()
		if rerouted == 0 || d.Stats().RecordsRerouted != rerouted ||
			d.Telemetry().Counter("kaml_ssd_records_rerouted_total", "log", "0").Value() != rerouted {
			t.Errorf("log 0 counted %d records rerouted, Stats %d", rerouted, d.Stats().RecordsRerouted)
		}

		// A block comes back and the first program into it fails: the failed
		// page goes back into the queue and fills it, so the dequeue after the
		// failure leaves the page that was left for the flusher where it is,
		// and the next dequeue seals it.
		returnBlock(t, d, lg)
		r.arr.SetInjector(&failNextProgram{})
		for end := r.e.Now() + 2*time.Millisecond; d.Stats().ProgramRetries == 0 && r.e.Now() < end; {
			r.e.Sleep(10 * time.Microsecond)
		}
		if n := sealedSince(lg, left); d.Stats().ProgramRetries != 1 || n != 0 {
			t.Errorf("after a failed program: %d retries and %d pages sealed, want 1 and none: the queue was full",
				d.Stats().ProgramRetries, n)
		}
		r.e.Sleep(2 * time.Millisecond)
		r.arr.SetInjector(nil)
		if n := sealedSince(lg, left); n != 1 || stalled(lg) {
			t.Errorf("log 0 sealed %d pages once a block came back, want the one left for its flusher", n)
		}
		for k := uint64(0); k <= puts; k++ {
			if v, err := d.Get(wide, k); err != nil || string(v) != string(val(k, churnValue)) {
				t.Errorf("key %d: %v", k, err)
				return
			}
		}
	})
	r.e.Wait()
}

// Only a namespace whose every log has a full queue holds its writers back:
// the device is flash-bound then, each writer's record waits staged in NVRAM
// until a flusher seals the page left for it, and NVRAM stays within
// TestNVRAMOccupancyBounded's bound. The writers go on once blocks come back.
func TestAllLogsFullIsBackpressure(t *testing.T) {
	const writers = 4
	collectorsOff(t)
	r := newRig(testFlashConfig(), func(c *Config) { c.NumLogs = 2 })
	cfg := r.dev.Config()
	bound := int64(cfg.NumLogs*(numHostStreams+cfg.QueueDepthPerLog+1)*8 + writers)
	r.e.Go("test", func() {
		d := r.dev
		defer d.Close()
		ns, _ := d.CreateNamespace(NamespaceAttrs{})
		if !stallLogs(t, r, ns, d.logs) {
			return
		}
		wg := r.e.NewWaitGroup()
		var done [writers]bool
		for w := range done {
			wg.Add(1)
			r.e.Go(fmt.Sprintf("writer-%d", w), func() {
				defer wg.Done()
				key := uint64(1000 + w)
				if err := d.Put(one(ns, key, val(key, churnValue))); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				done[w] = true
			})
		}
		r.e.Sleep(10 * time.Millisecond)
		for w, ok := range done {
			if ok {
				t.Errorf("writer %d finished with every queue full", w)
			}
		}
		if staged := d.ctr.nvramStaged.Value(); staged > bound || staged < bound/2 {
			t.Errorf("%d records staged in NVRAM, want at most the bound %d and at least half of it", staged, bound)
		}
		for _, lg := range d.logs {
			returnBlock(t, d, lg)
		}
		wg.Wait()
		for w := range done {
			key := uint64(1000 + w)
			if v, err := d.Get(ns, key); err != nil || string(v) != string(val(key, churnValue)) {
				t.Errorf("writer %d's key: %v", w, err)
			}
		}
	})
	r.e.Wait()
}

// A writer that met every log of its namespace full waits for the first log
// that has room again, whichever it is — not for the last log it met. Both
// logs are stalled; a block comes back to one of them only, and the writer
// goes on as soon as that log's flusher seals the page left for it, while
// the other log is still stalled. The wait is in
// kaml_ssd_log_full_wait_seconds.
func TestWriterWakesOnFirstLogWithRoom(t *testing.T) {
	for room := range 2 {
		t.Run(fmt.Sprintf("room on log %d", room), func(t *testing.T) {
			collectorsOff(t)
			r := newRig(testFlashConfig(), func(c *Config) { c.NumLogs = 2 })
			r.e.Go("test", func() {
				d := r.dev
				defer d.Close()
				ns, _ := d.CreateNamespace(NamespaceAttrs{})
				if !stallLogs(t, r, ns, d.logs) {
					return
				}
				const key = 1000
				var done time.Duration
				start := r.e.Now()
				writer := r.e.NewWaitGroup()
				writer.Add(1)
				r.e.Go("writer", func() {
					defer writer.Done()
					if err := d.Put(one(ns, key, val(key, churnValue))); err != nil {
						t.Errorf("writer: %v", err)
						return
					}
					done = r.e.Now()
				})
				r.e.Sleep(time.Millisecond)
				if done != 0 || d.room.waiters.Load() != 1 {
					t.Errorf("setup: the writer finished (%v) or is not waiting for room (%d waiters)",
						done, d.room.waiters.Load())
					return
				}
				parked := r.e.Now()
				lg, other := d.logs[room], d.logs[1-room]
				left := sealedSince(lg, 0)
				returnBlock(t, d, lg)
				returned := r.e.Now()
				for end := r.e.Now() + 10*time.Millisecond; done == 0 && r.e.Now() < end; {
					r.e.Sleep(10 * time.Microsecond)
				}
				if done == 0 || !stalled(other) {
					t.Errorf("with room on log %d only, the writer finished at %v (0: not at all) and log %d is stalled: %v",
						room, done, other.id, stalled(other))
				}
				if sealedSince(lg, left) == 0 {
					t.Errorf("log %d sealed no page once its block came back", room)
				}
				returnBlock(t, d, other) // let a writer still waiting finish
				writer.Wait()
				if v, err := d.Get(ns, key); err != nil || string(v) != string(val(key, churnValue)) {
					t.Errorf("the writer's key: %v", err)
				}
				// The writer waited from before parked until after the block came
				// back, and its Put took from start to done.
				h := d.Telemetry().Histogram("kaml_ssd_log_full_wait_seconds", telemetry.UnitSeconds)
				if waited := time.Duration(h.Sum()); h.Count() != 1 || waited < returned-parked || waited > done-start {
					t.Errorf("kaml_ssd_log_full_wait_seconds holds %d waits of %v in all; want one of %v to %v",
						h.Count(), waited, returned-parked, done-start)
				}
			})
			r.e.Wait()
		})
	}
}
