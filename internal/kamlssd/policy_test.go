package kamlssd

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"github.com/kaml-ssd/kaml/internal/record"
	"github.com/kaml-ssd/kaml/internal/telemetry"
)

// Tests for the seal policy (log.go): a page leaves NVRAM when it is full or
// when the device is drained, never because time passed; a namespace moves to
// its next log once per page; and NVRAM occupancy stays bounded without a
// watermark.

// sealedPages returns how many pages lg has sealed, all causes.
func sealedPages(lg *logState) int64 {
	var n int64
	for c := range lg.sealed {
		n += lg.sealed[c].Value()
	}
	return n
}

// leftPages reports whether some log holds an open page that a writer left
// for its flusher to seal (sealWanted).
func leftPages(d *Device) bool {
	for _, lg := range d.logs {
		lg.mu.Lock()
		left := lg.open[streamCold].sealWanted || lg.open[streamHot].sealWanted
		lg.mu.Unlock()
		if left {
			return true
		}
	}
	return false
}

// A lone Put followed by nothing stays in NVRAM — readable, and never
// programmed — for as long as nothing drains the device; it survives a power
// cut; and Flush is what takes it to flash.
func TestLonePutStaysInNVRAMUntilFlush(t *testing.T) {
	r := newRig(testFlashConfig(), nil)
	r.e.Go("test", func() {
		ns, _ := r.dev.CreateNamespace(NamespaceAttrs{})
		want := val(9, 300)
		if err := r.dev.Put(one(ns, 9, want)); err != nil {
			t.Errorf("put: %v", err)
			return
		}
		r.e.Sleep(time.Second) // 20000 of the old flush timer's periods
		if st := r.dev.Stats(); st.Programs != 0 {
			t.Errorf("%d pages programmed with one record staged and no drain", st.Programs)
		}
		got, err := r.dev.Get(ns, 9)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("get before the cut: %v", err)
		}
		if hits := r.dev.Stats().NVRAMHits; hits != 1 {
			t.Errorf("NVRAMHits = %d, want 1: the record should still be staged", hits)
		}

		dev2, err := powerCycle(r.dev, r.arr, r.ctrl)
		if err != nil {
			t.Errorf("recover: %v", err)
			return
		}
		defer dev2.Close()
		if st := dev2.Stats(); st.ReplayedValues != 1 || st.Programs != 0 {
			t.Errorf("after recovery: ReplayedValues %d (want 1), Programs %d (want 0)", st.ReplayedValues, st.Programs)
		}
		if got, err = dev2.Get(ns, 9); err != nil || !bytes.Equal(got, want) {
			t.Errorf("get after recovery: %v", err)
		}

		dev2.Flush()
		st := dev2.Stats()
		if st.Programs != 1 {
			t.Errorf("Flush programmed %d pages, want 1", st.Programs)
		}
		if got, err = dev2.Get(ns, 9); err != nil || !bytes.Equal(got, want) {
			t.Errorf("get after flush: %v", err)
		}
		if hits := dev2.Stats().NVRAMHits; hits != st.NVRAMHits {
			t.Errorf("Get after Flush was served from NVRAM")
		}
		reg := dev2.Telemetry()
		if n := reg.Counter("kaml_ssd_pages_sealed_total", "log", "0", "cause", "drain").Value(); n != 1 {
			t.Errorf("pages_sealed_total{log=0,cause=drain} = %d, want 1", n)
		}
		if h := reg.Histogram("kaml_ssd_sealed_page_chunks", telemetry.UnitNone).Snapshot(); h.N != 1 || h.Sum != 3 {
			t.Errorf("sealed_page_chunks: %d pages, %d chunks; want 1 page of 3 chunks", h.N, h.Sum)
		}
	})
	r.e.Wait()
}

// Eight 1000-byte values fill a page exactly, so every seal is an exact-fit
// seal. The cursor must advance on those too: while no queue is full (one
// writer never fills one here), a namespace's pages stay balanced across its
// logs to within one, after any number of Puts.
func TestExactFitSealsStayBalanced(t *testing.T) {
	if c := (record.Record{Value: make([]byte, 1000)}).Chunks(record.DefaultChunkSize); c != 8 {
		t.Fatalf("a 1000 B value takes %d chunks; this test needs 8 (64/8 fills a page exactly)", c)
	}
	withRig(t, testFlashConfig(), func(c *Config) { c.NumLogs = 2 }, func(r *rig) {
		ns, _ := r.dev.CreateNamespace(NamespaceAttrs{})
		for i := 0; i < 200; i++ {
			if err := r.dev.Put(one(ns, uint64(i%40), val(uint64(i), 1000))); err != nil {
				t.Fatalf("put %d: %v", i, err)
			}
			a, b := sealedPages(r.dev.logs[0]), sealedPages(r.dev.logs[1])
			if a-b > 1 || b-a > 1 {
				t.Fatalf("after %d Puts the logs have sealed %d and %d pages", i+1, a, b)
			}
		}
		full := r.dev.logs[0].sealed[sealFull].Value() + r.dev.logs[1].sealed[sealFull].Value()
		if full != 200/8 {
			t.Fatalf("%d exact-fit seals, want %d", full, 200/8)
		}
	})
}

// Sixteen writers push a small device far faster than its flash programs.
// NVRAM occupancy is bounded by construction — per log an open page per host
// stream, the sealed queue and the page being programmed — plus one record
// per writer (a Put stages its record before it routes it), with no
// watermark.
func TestNVRAMOccupancyBounded(t *testing.T) {
	const (
		writers    = 16
		perWriter  = 150
		valueBytes = 1000 // 8 records to a page
	)
	r := newRig(testFlashConfig(), func(c *Config) { c.NumLogs = 2 })
	cfg := r.dev.Config()
	bound := int64(cfg.NumLogs*(numHostStreams+cfg.QueueDepthPerLog+1)*8 + writers)
	r.e.Go("test", func() {
		defer r.dev.Close()
		ns, _ := r.dev.CreateNamespace(NamespaceAttrs{})
		peak := make([]int64, writers)
		wg := r.e.NewWaitGroup()
		for w := 0; w < writers; w++ {
			wg.Add(1)
			r.e.Go(fmt.Sprintf("writer-%d", w), func() {
				defer wg.Done()
				for i := 0; i < perWriter; i++ {
					key := uint64(w*32 + i%32)
					if err := r.dev.Put(one(ns, key, val(key+uint64(i), valueBytes))); err != nil {
						t.Errorf("writer %d: %v", w, err)
						return
					}
					peak[w] = max(peak[w], r.dev.ctr.nvramStaged.Value())
				}
			})
		}
		wg.Wait()
		var top int64
		for _, p := range peak {
			top = max(top, p)
		}
		if top > bound {
			t.Errorf("nvramStaged peaked at %d records, bound %d", top, bound)
		}
		// The storm must actually have leaned on the bound, or this proves nothing.
		if top < bound/2 {
			t.Errorf("nvramStaged peaked at %d records, under half the bound %d: the writers never filled NVRAM", top, bound)
		}
		// Backpressure must not have cost fill: no page left NVRAM other than
		// full. That is an invariant of the pages, not a count of them: routing
		// (under ns.mu) and appending (under lg.mu) are not one step, so a
		// record routed with a stale cursor lands on the log the namespace just
		// left, and the storm can end with a partial open page on every log
		// instead of on one — a full page fewer per extra partial one. A page
		// that filled behind a full queue is sealed by its flusher at the next
		// dequeue, which may come after the last Put returned: wait for it.
		for leftPages(r.dev) {
			r.e.Sleep(10 * time.Microsecond)
		}
		var sealed, other, open int64
		for _, lg := range r.dev.logs {
			lg.mu.Lock()
			sealed += lg.sealed[sealFull].Value()
			other += sealedPages(lg) - lg.sealed[sealFull].Value()
			for s := range lg.open {
				open += int64(lg.open[s].packer.Count())
			}
			lg.mu.Unlock()
		}
		if other != 0 {
			t.Errorf("%d pages left NVRAM before Close for a cause other than full", other)
		}
		if want := int64(writers*perWriter/8 - (cfg.NumLogs - 1)); sealed < want {
			t.Errorf("%d full pages sealed for %d records, want at least %d", sealed, writers*perWriter, want)
		}
		if got := 8*sealed + open; got != writers*perWriter {
			t.Errorf("8 x %d full pages + %d records in open pages = %d, want every one of the %d records", sealed, open, got, writers*perWriter)
		}
		t.Logf("peak %d staged records, bound %d, %d pages sealed", top, bound, sealed)
	})
	r.e.Wait()
}
