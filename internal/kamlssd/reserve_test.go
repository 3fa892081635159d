package kamlssd

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/kaml-ssd/kaml/internal/record"
)

// Tests for the host streams' reserve counted in pages: relocationPages
// bounds what a victim's relocation programs, a victim whose bound fits in
// the GC stream's open block lets a host stream take the reserve's second
// block (gcCovered, hostReserve), a host stream at the reserve shares the
// other host stream's open block, and the slack left still absorbs a
// retirement.

// Whatever records of at most m chunks a victim holds, relocating them
// (gcPagesNeeded, the next-fit packing relocate does) programs no more pages
// than relocationPages of a block with their bytes and maxChunks m; with
// records as long as a page the bound is the pairwise one.
func TestRelocationPagesBoundTheRelocation(t *testing.T) {
	fc := testFlashConfig()
	sp := &space{fc: &fc}
	perPage := fc.PageSize / chunkSize
	value := make([]byte, fc.PageSize)
	rng := rand.New(rand.NewSource(1))
	var live []gcRecord
	for m := 1; m <= perPage; m++ {
		for trial := 0; trial < 200; trial++ {
			live = live[:0]
			for n := rng.Intn(8 * perPage / m); n >= 0; n-- {
				c := m // the longest records leave the most room unused
				if rng.Intn(2) == 0 {
					c = 1 + rng.Intn(m)
				}
				live = append(live, gcRecord{rec: record.Record{Value: value[:c*chunkSize-record.HeaderSize]}})
			}
			pages, bytes := sp.gcPagesNeeded(live)
			bm := blockMeta{validBytes: bytes, maxChunks: m}
			bound := sp.relocationPages(&bm)
			if pages > bound {
				t.Fatalf("%d records of at most %d chunks (%d B) program %d pages, bound %d",
					len(live), m, bytes, pages, bound)
			}
			if pairwise := int(2*bytes/int64(fc.PageSize)) + 1; m == perPage && bound != pairwise {
				t.Fatalf("records up to a page long (%d B): bound %d, want the pairwise %d", bytes, bound, pairwise)
			}
		}
	}
}

// A host stream that needs a block at the log's reserve takes one only while
// the victim being collected is covered, and then only down to one block
// below the reserve; otherwise it shares the other host stream's open block,
// if that stream has one, whatever the collector is doing. Each take at the
// reserve is counted, only while telemetry is on.
func TestHostStreamsAtTheReserve(t *testing.T) {
	const (
		open   = "opens a block"
		share  = "shares the other stream's block"
		refuse = "is refused"
	)
	cases := []struct {
		name             string
		covered, starved bool
		free             int  // lg.freeBlocks
		other            bool // the hot stream has an open block
		want             string
	}{
		{"covered at the reserve", true, false, gcReserveBlocks, false, open},
		{"covered, the other stream's block open", true, false, gcReserveBlocks, true, open},
		{"covered, one block below the reserve", true, false, gcReserveBlocks - 1, true, share},
		{"covered, one block below the reserve, nothing to share", true, false, gcReserveBlocks - 1, false, refuse},
		{"not covered at the reserve", false, false, gcReserveBlocks, false, refuse},
		{"not covered, collector starved", false, true, gcReserveBlocks, true, share},
		{"not covered, collector collecting", false, false, gcReserveBlocks, true, share},
		{"above the reserve", false, false, gcReserveBlocks + 1, true, open},
	}
	for _, tel := range []bool{true, false} {
		for _, tc := range cases {
			name := tc.name
			if !tel {
				name += " (telemetry off)"
			}
			t.Run(name, func(t *testing.T) {
				mod := func(c *Config) { c.NumLogs, c.DisableTelemetry = 2, !tel }
				withRig(t, testFlashConfig(), mod, func(r *rig) {
					d, lg := r.dev, r.dev.logs[0]
					lg.mu.Lock()
					defer lg.mu.Unlock()
					// The state is made through the ledger: the hot stream's open
					// block and the free blocks above tc.free are taken off the
					// free lists, and go back at the end; a covered victim is
					// one with nothing to relocate.
					var taken []appendPoint
					take := func(ci int) int {
						b, ok := lg.space.popFree(ci)
						if ok {
							taken = append(taken, appendPoint{chip: ci, block: b})
						}
						return b
					}
					lg.active = [numStreams]*appendPoint{}
					hot := &appendPoint{chip: 1, page: 3}
					if tc.other {
						hot.block = take(hot.chip)
						lg.active[streamHot] = hot
					}
					ch, chip := lg.chipAddr(hot.chip)
					shared := d.arr.BlockPPN(ch, chip, hot.block, hot.page)
					for ci := 0; lg.space.freeBlocks > tc.free; ci = (ci + 1) % len(lg.chips) {
						take(ci)
					}
					if tc.covered {
						lg.space.cover(&blockMeta{}, &appendPoint{})
					}
					lg.space.setStarved(tc.starved)
					covered0, shared0 := d.ctr.reserveCovered.Value(), d.ctr.reserveShared.Value()

					ppn, err := lg.nextPPN(streamCold)
					got := refuse
					switch cold := lg.active[streamCold]; {
					case err != nil:
					case cold != nil && lg.freeBlocks == tc.free-1:
						got = open
						lg.space.pushFree(cold.chip, cold.block) // back, for the next test
					case cold == nil && ppn == shared && hot.page == 4:
						got = share
					default:
						t.Fatalf("nextPPN gave ppn %d: cold stream %+v, %d free blocks", ppn, cold, lg.freeBlocks)
					}
					if got != tc.want {
						t.Errorf("the cold stream %s (err %v), want it %s", got, err, tc.want)
					}
					var wantCovered, wantShared int64
					if tel && got == open && tc.free <= gcReserveBlocks {
						wantCovered = 1
					}
					if tel && got == share {
						wantShared = 1
					}
					if n := d.ctr.reserveCovered.Value() - covered0; n != wantCovered {
						t.Errorf("%d covered takes counted, want %d", n, wantCovered)
					}
					if n := d.ctr.reserveShared.Value() - shared0; n != wantShared {
						t.Errorf("%d shared pages counted, want %d", n, wantShared)
					}
					for _, ap := range taken {
						lg.space.pushFree(ap.chip, ap.block)
					}
					lg.space.nextVictim() // ends the coverage
					lg.space.setStarved(false)
					lg.active = [numStreams]*appendPoint{}
				})
			})
		}
	}
}

// A host stream takes the reserve's second block while the victim is
// covered, and then the victim's erase fails: the block is retired and gives
// nothing back. The slack the reserve keeps absorbs that: the relocation
// needed no block, the next victim starts with the GC stream's room C ≥ P,
// its collection allocates without a panic, and every key reads back after a
// power cycle.
func TestRetirementDuringACoveredCollection(t *testing.T) {
	setGCWater(t, 0, 1<<20) // the collectors stay parked; pick never stops at the high watermark
	r := newSerialRig(1, testFlashConfig(), func(c *Config) { c.NumLogs = 2 })
	r.e.Go("test", func() {
		d := r.dev
		P := d.fc.PagesPerBlock
		w := newScanLoad(t, d)
		if err := d.SetNamespaceLogs(w.ns, 1); err != nil {
			t.Fatalf("setup: %v", err)
		}
		lg := d.logs[0]
		w.put(8 * P) // a block of the host stream's pages first: the GC block opens off its chip
		openGCBlock(t, lg, noChip)
		lg.mu.Lock()
		lg.victimChip = noChip
		lg.mu.Unlock()
		room := func() int {
			lg.mu.Lock()
			defer lg.mu.Unlock()
			c := lg.freeBlocks * P
			if gc := lg.active[streamGC]; gc != nil {
				c += P - gc.page
			}
			return c
		}
		// Fill the log to its reserve: the block that took it there is the
		// host stream's open one.
		for freeBlocksOf(lg) > gcReserveBlocks {
			w.put(1)
		}
		d.Flush()
		if free := freeBlocksOf(lg); free != gcReserveBlocks {
			t.Fatalf("setup: the log has %d free blocks, want %d", free, gcReserveBlocks)
		}

		c := newCollector(d, lg)
		lg.mu.Lock()
		vc, vb, ok := c.pick()
		covered := lg.gcCovered
		lg.mu.Unlock()
		if !ok || !covered {
			t.Fatalf("setup: picked chip %d block %d (ok %v), covered %v: want a covered victim", vc, vb, ok, covered)
		}
		takes := d.ctr.reserveCovered.Value()
		for freeBlocksOf(lg) == gcReserveBlocks {
			w.put(1)
		}
		d.Flush()
		if free, n := freeBlocksOf(lg), d.ctr.reserveCovered.Value()-takes; free != gcReserveBlocks-1 || n != 1 {
			t.Fatalf("the host stream left %d free blocks in %d covered takes, want %d in 1", free, n, gcReserveBlocks-1)
		}

		ch, chip := lg.chipAddr(vc)
		first := r.arr.BlockPPN(ch, chip, vb, 0)
		r.arr.InjectEraseFailure(first)
		retired := d.ctr.blocksRetired.Value()
		c.collectBlock(vc, vb)
		lg.mu.Lock()
		gone := lg.chips[vc].blocks[vb].retired
		lg.mu.Unlock()
		if !gone || d.ctr.blocksRetired.Value() != retired+1 {
			t.Fatalf("the victim whose erase failed was not retired")
		}
		if free := freeBlocksOf(lg); free != gcReserveBlocks-1 {
			t.Errorf("the covered collection left %d free blocks, want %d: it took one", free, gcReserveBlocks-1)
		}

		lg.mu.Lock()
		vc, vb, ok = c.pick()
		lg.mu.Unlock()
		if !ok {
			t.Fatal("no next victim")
		}
		if C := room(); C < P {
			t.Errorf("the next victim starts with C = %d pages, want at least P = %d", C, P)
		}
		erases := d.Stats().GCErases
		c.collectBlock(vc, vb) // panics "cannot allocate" if C fell short
		if d.Stats().GCErases != erases+1 {
			t.Errorf("the next victim was not collected")
		}

		dev2, err := powerCycle(d, r.arr, r.ctrl)
		if err != nil {
			t.Fatalf("recover: %v", err)
		}
		defer dev2.Close()
		w.checkAll(dev2)
	})
	r.e.Wait()
}

// The ledger's geometry check (checkSpace), which a test binary runs after
// every collection's erase and every recovery rebuild, passes on a device in
// service and names the log and the block of a misplaced one: an open block
// put back on a free list, and a retired one.
func TestLedgerCheckNamesAMisplacedBlock(t *testing.T) {
	// check runs the check on lg and returns what it panicked with.
	check := func(lg *logState) (msg any) {
		defer func() { msg = recover() }()
		lg.checkSpace()
		return nil
	}
	cases := []struct {
		name  string
		place func(t *testing.T, lg *logState) (ci, b int) // misplaces a block of lg
	}{
		{"an open block on a free list", func(t *testing.T, lg *logState) (int, int) {
			if _, err := lg.nextPPN(streamCold); err != nil {
				t.Fatalf("setup: %v", err)
			}
			ap := lg.active[streamCold]
			lg.space.pushFree(ap.chip, ap.block)
			return ap.chip, ap.block
		}},
		{"a retired block on a free list", func(t *testing.T, lg *logState) (int, int) {
			b, _ := lg.space.popFree(2)
			lg.space.reclaim(2, b, false) // its erase failed
			if msg := check(lg); msg != nil {
				t.Fatalf("setup: a retired block fails the check: %v", msg)
			}
			lg.space.pushFree(2, b)
			return 2, b
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			withRig(t, testFlashConfig(), func(c *Config) { c.NumLogs = 2 }, func(r *rig) {
				lg := r.dev.logs[1]
				lg.mu.Lock()
				defer lg.mu.Unlock()
				if msg := check(lg); msg != nil {
					t.Fatalf("a device in service fails the check: %v", msg)
				}
				ci, b := tc.place(t, lg)
				want := fmt.Sprintf("log 1 chip %d block %d ", ci, b)
				if msg, _ := check(lg).(string); !strings.Contains(msg, want) {
					t.Errorf("the check reports %q, want it to name %q", msg, want)
				}
			})
		})
	}
}
