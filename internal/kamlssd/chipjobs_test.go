package kamlssd

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"github.com/kaml-ssd/kaml/internal/flash"
	"github.com/kaml-ssd/kaml/internal/record"
	"github.com/kaml-ssd/kaml/internal/telemetry"
	"github.com/kaml-ssd/kaml/internal/workload"
)

// Tests for one job per chip: a log's host and GC streams open their blocks
// off the chips its other jobs use (openBlock, busyChip), a victim is scanned
// one page read at a time (collector.startScan), a victim is relocated while
// it is still being read where the log keeps the two apart (collectBlock), a
// scan that fails leaves its victim in place, and with
// these rules the flushers of a log under garbage collection spend nearly
// all their time programming.

// A block opens on a chip no other job of its log is using, on a log with
// more chips than streams: a host stream's next block avoids the victim's
// chip and the GC stream's, the GC stream's avoids the victim's and the host
// streams'. The other host stream's chip is one more chip in rotation: the
// host streams share a flusher, so they do not keep apart, nor seek each
// other out. When no chip with a free block qualifies, and on a log too
// small to keep its jobs apart, allocation takes the next chip in rotation.
func TestHostBlocksAvoidTheCollectorsChips(t *testing.T) {
	const none = -1
	cases := []struct {
		name   string
		logs   int // testFlashConfig's 8 chips over logs: 2 gives 4 chips a log, 4 gives 2
		stream int
		host   [numHostStreams]int // chips of the host streams' open blocks
		gc     int                 // chip of the GC stream's open block
		victim int                 // chip of the victim being collected
		empty  []int               // chips without a free block
		next   int                 // lg.nextChip
		want   []int               // chips of the blocks the stream opens, in turn
	}{
		{name: "cold stream off the victim and GC chips", logs: 2, stream: streamCold,
			host: [2]int{none, none}, gc: 2, victim: 1, next: 1, want: []int{3, 0}},
		{name: "hot stream off the victim and GC chips", logs: 2, stream: streamHot,
			host: [2]int{0, none}, gc: 0, victim: 3, next: 3, want: []int{1, 2}},
		{name: "GC stream off the host and victim chips", logs: 2, stream: streamGC,
			host: [2]int{0, 1}, gc: none, victim: 2, next: 0, want: []int{3, 3}},
		{name: "no victim: only the GC chip is avoided", logs: 2, stream: streamCold,
			host: [2]int{none, none}, gc: 0, victim: noChip, next: 0, want: []int{1, 2, 3, 1}},
		{name: "host stream falls back to the rotation", logs: 2, stream: streamCold,
			host: [2]int{none, none}, gc: 1, victim: 0, empty: []int{2, 3}, next: 0, want: []int{0, 1, 0}},
		{name: "GC stream falls back to the rotation", logs: 2, stream: streamGC,
			host: [2]int{0, 1}, gc: none, victim: 2, empty: []int{3}, next: 1, want: []int{1, 2, 0}},
		{name: "hot stream does not follow the cold stream's chip", logs: 2, stream: streamHot,
			host: [2]int{2, none}, gc: 0, victim: 1, next: 3, want: []int{3, 2}},
		{name: "2-chip log allocates in rotation", logs: 4, stream: streamCold,
			host: [2]int{none, none}, gc: 1, victim: 0, next: 0, want: []int{0, 1, 0, 1}},
		{name: "2-chip log's GC stream allocates in rotation", logs: 4, stream: streamGC,
			host: [2]int{1, none}, gc: none, victim: 0, next: 1, want: []int{1, 0, 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			withRig(t, testFlashConfig(), func(c *Config) { c.NumLogs = tc.logs }, func(r *rig) {
				lg := r.dev.logs[0]
				lg.mu.Lock()
				defer lg.mu.Unlock()
				// The streams' open blocks, and every free block of the chips
				// tc.empty names, are taken off the free lists through the
				// ledger, and go back at the end.
				var taken []*appendPoint
				take := func(ci int) *appendPoint {
					b, ok := lg.space.popFree(ci)
					if !ok {
						return nil
					}
					taken = append(taken, &appendPoint{chip: ci, block: b})
					return taken[len(taken)-1]
				}
				at := func(ci int) *appendPoint {
					if ci == none {
						return nil
					}
					return take(ci)
				}
				lg.active = [numStreams]*appendPoint{at(tc.host[0]), at(tc.host[1]), at(tc.gc)}
				lg.victimChip, lg.nextChip = tc.victim, tc.next
				for _, ci := range tc.empty {
					for take(ci) != nil {
					}
				}
				var got []int
				for range tc.want {
					ap, err := lg.openBlock(tc.stream)
					if err != nil {
						t.Fatalf("open: %v", err)
					}
					got = append(got, ap.chip)
					lg.space.pushFree(ap.chip, ap.block) // back, for the next test
				}
				if fmt.Sprint(got) != fmt.Sprint(tc.want) {
					t.Errorf("stream %d opens its blocks on chips %v, want %v", tc.stream, got, tc.want)
				}
				for _, ap := range taken {
					lg.space.pushFree(ap.chip, ap.block)
				}
				lg.active, lg.victimChip = [numStreams]*appendPoint{}, noChip
			})
		})
	}
}

// A victim's page read is a sense that holds its chip (ReadLatency) and a
// transfer that holds its channel. The scan reads one page at a time, on a
// chip a host stream programs and off one alike, so a flusher's program on
// the victim's chip waits behind one read at most. The pick claims the
// victim's chip (victimChip), so no block of the log opens beside it, and
// counts the victim by whether a host stream programs its chip.
func TestVictimScanReadsOnePageAtATime(t *testing.T) {
	fc := testFlashConfig()
	fc.PagesPerBlock = 32
	want := time.Duration(fc.PagesPerBlock) * (fc.ReadLatency + fc.TransferTime(fc.PageSize+fc.OOBSize))
	cases := []struct {
		name   string
		host   [numHostStreams]int
		onHost int64 // 1 when a host stream has its open block on the victim's chip
	}{
		{"off every host chip", [2]int{1, 2}, 0},
		{"on a host chip", [2]int{3, 0}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			setGCWater(t, gcLowFree, 1<<20)
			withRig(t, fc, func(c *Config) { c.NumLogs = 2 }, func(r *rig) {
				d, lg := r.dev, r.dev.logs[0]
				layVictims(t, d, lg, []victimBlock{{chip: 0, block: 0}}, tc.host)
				c := newCollector(d, lg)
				lg.mu.Lock()
				ci, block, ok := c.pick()
				claimed := lg.victimChip
				lg.mu.Unlock()
				if !ok || ci != 0 || block != 0 || claimed != 0 {
					t.Fatalf("picked chip %d block %d (ok %v), chip %d claimed: want the block laid on chip 0",
						ci, block, ok, claimed)
				}
				if h, o := d.ctr.gcVictimsHost.Value(), d.ctr.gcVictimsOther.Value(); h != tc.onHost || o != 1-tc.onHost {
					t.Errorf("kaml_gc_victims_total counts %d on a host chip, %d on another, want %d and %d", h, o, tc.onHost, 1-tc.onHost)
				}
				ch, chip := lg.chipAddr(ci)
				start := r.e.Now()
				c.startScan(ch, chip, block)
				c.scanned.Wait()
				took, err := r.e.Now()-start, c.reader.err
				c.endScan()
				if err != nil {
					t.Fatalf("the scan failed: %v", err)
				}
				if took != want {
					t.Errorf("a %d-page victim scans in %v, want %v", fc.PagesPerBlock, took, want)
				}
				lg.mu.Lock()
				lg.active, lg.victimChip, lg.gcStarved = [numStreams]*appendPoint{}, noChip, false
				lg.mu.Unlock()
			})
		})
	}
}

// failRead fails every read of one page: with cut, by cutting the power,
// otherwise with a persistent read error.
type failRead struct {
	ppn   flash.PPN
	cut   bool
	fired atomic.Int64
}

func (f *failRead) Decide(op flash.Op, p flash.PPN, _ time.Duration) flash.Verdict {
	if op != flash.OpRead || p != f.ppn {
		return flash.VerdictOK
	}
	f.fired.Add(1)
	if f.cut {
		return flash.VerdictPowerCut
	}
	return flash.VerdictFail
}

// A scan that meets a power cut or a page it cannot read early, on the
// victim's first page or a middle one, abandons its victim: nothing is
// programmed and the victim is not erased, the reader has exited when the
// collection returns, and every key reads back after recovery. A pipelined
// collection that meets one late, after it has programmed relocation pages,
// abandons its victim too: the records it moved stay moved, the index points
// at their new copies, and every key reads back after recovery.
func TestScanFailureKeepsTheVictim(t *testing.T) {
	for _, cut := range []bool{false, true} {
		for _, page := range []int{0, 4} {
			t.Run(fmt.Sprintf("cut=%v/page=%d", cut, page), func(t *testing.T) {
				collectorsOff(t)
				r := newRig(testFlashConfig(), func(c *Config) { c.NumLogs = 2 })
				r.e.Go("test", func() {
					d := r.dev
					w := newScanLoad(t, d)
					w.put(60 * 8)
					d.Flush()
					lg := d.logs[0]
					lg.mu.Lock()
					vc, vb := -1, -1
					for ci, lc := range lg.chips {
						ch, chip := lg.chipAddr(ci)
						for b := range lc.blocks {
							if vc < 0 && !lg.hostChip(ci) && lc.blocks[b].sealed &&
								r.arr.ProgrammedPages(r.arr.BlockPPN(ch, chip, b, 0)) == d.fc.PagesPerBlock {
								vc, vb = ci, b
							}
						}
					}
					live := vc >= 0 && lg.chips[vc].blocks[vb].validBytes > 0
					lg.mu.Unlock()
					if vc < 0 {
						t.Fatal("setup: log 0 has no full block off its host chips")
					}
					if !live {
						t.Fatal("setup: the victim holds no live record: keeping it proves nothing")
					}
					ch, chip := lg.chipAddr(vc)
					first := r.arr.BlockPPN(ch, chip, vb, 0)
					erases, programs := r.arr.EraseCount(first), r.arr.Stats().Programs
					inj := &failRead{ppn: first + flash.PPN(page), cut: cut}
					r.arr.SetInjector(inj)
					newCollector(d, lg).collectBlock(vc, vb)
					r.arr.SetInjector(nil)
					if inj.fired.Load() == 0 {
						t.Fatalf("setup: page %d of the victim was never read", page)
					}
					if d.crashed.Load() != cut {
						t.Errorf("after the scan the device is crashed=%v, want %v", d.crashed.Load(), cut)
					}
					if cut {
						r.arr.PowerOn()
					}
					if n := r.arr.EraseCount(first); n != erases || r.arr.ProgrammedPages(first) != d.fc.PagesPerBlock {
						t.Errorf("the victim was erased (%d erases, was %d)", n, erases)
					}
					if n := r.arr.Stats().Programs - programs; n != 0 {
						t.Errorf("the abandoned collection programmed %d pages", n)
					}
					dev2, err := powerCycle(d, r.arr, r.ctrl)
					if err != nil {
						t.Fatalf("recover: %v", err)
					}
					defer dev2.Close()
					w.checkAll(dev2)
				})
				r.e.Wait()
			})
		}
	}
	for _, cut := range []bool{false, true} {
		for _, back := range []int{2, 1} {
			t.Run(fmt.Sprintf("cut=%v/late/page=P-%d", cut, back), func(t *testing.T) {
				collectorsOff(t)
				fc := testFlashConfig()
				fc.PagesPerBlock = 32
				page := fc.PagesPerBlock - back
				r := newRig(fc, func(c *Config) { c.NumLogs = 2 })
				r.e.Go("test", func() {
					d := r.dev
					w := newScanLoad(t, d)
					w.put(8 * fc.PagesPerBlock * 2 * 3) // three blocks a log, one live record a page
					d.Flush()
					lg := d.logs[0]
					vc, vb := pickVictim(t, d, lg)
					gcChip := openGCBlock(t, lg, vc)
					lg.mu.Lock()
					pipelined, host := lg.pipelines(vc, vb), lg.hostChip(vc)
					gcBlock := lg.active[streamGC].block
					lg.mu.Unlock()
					if !pipelined || host {
						t.Fatalf("setup: the victim on chip %d (a host chip: %v) is not collected in a pipeline", vc, host)
					}
					ch, chip := lg.chipAddr(vc)
					first := r.arr.BlockPPN(ch, chip, vb, 0)
					gch, gchip := lg.chipAddr(gcChip)
					gcFirst := r.arr.BlockPPN(gch, gchip, gcBlock, 0)
					erases := r.arr.EraseCount(first)
					inj := &lateFailRead{failRead: failRead{ppn: first + flash.PPN(page), cut: cut}, arr: r.arr, gc: gcFirst}
					r.arr.SetInjector(inj)
					newCollector(d, lg).collectBlock(vc, vb)
					r.arr.SetInjector(nil)
					if inj.fired.Load() == 0 {
						t.Fatalf("setup: page %d of the victim was never read", page)
					}
					if inj.relocated.Load() == 0 {
						t.Fatalf("setup: no relocation page was programmed before page %d was read", page)
					}
					if d.crashed.Load() != cut {
						t.Errorf("after the scan the device is crashed=%v, want %v", d.crashed.Load(), cut)
					}
					if cut {
						r.arr.PowerOn()
					}
					if n := r.arr.EraseCount(first); n != erases || r.arr.ProgrammedPages(first) != d.fc.PagesPerBlock {
						t.Errorf("the victim was erased (%d erases, was %d)", n, erases)
					}
					// Every record on a programmed relocation page is the one
					// version of its key the index holds there.
					fam, moved := d.families[w.ns], 0
					for p := range r.arr.ProgrammedPages(gcFirst) {
						ppn := gcFirst + flash.PPN(p)
						data, oob, err := r.arr.ReadPage(ppn)
						if err != nil {
							t.Fatalf("read relocation page %d: %v", p, err)
						}
						placed, err := record.Parse(data, oob, chunkSize)
						if err != nil {
							t.Fatalf("parse relocation page %d: %v", p, err)
						}
						for _, pl := range placed {
							moved++
							if fam.chains.VersionAtLoc(pl.Record.Key, uint64(flashLoc(ppn, pl.StartChunk, pl.NumChunks))) == nil {
								t.Errorf("key %d was relocated to page %d, but the index does not point at the copy", pl.Record.Key, p)
							}
						}
					}
					t.Logf("%d records moved in %d relocation pages before page %d failed", moved, inj.relocated.Load(), page)
					dev2, err := powerCycle(d, r.arr, r.ctrl)
					if err != nil {
						t.Fatalf("recover: %v", err)
					}
					defer dev2.Close()
					w.checkAll(dev2)
				})
				r.e.Wait()
			})
		}
	}
}

// lateFailRead is a failRead that notes how many pages of the GC block at gc
// had been programmed when it first failed the read.
type lateFailRead struct {
	failRead
	arr       *flash.Array
	gc        flash.PPN
	relocated atomic.Int64
}

func (f *lateFailRead) Decide(op flash.Op, p flash.PPN, at time.Duration) flash.Verdict {
	if op == flash.OpRead && p == f.ppn && f.fired.Load() == 0 {
		f.relocated.Store(int64(f.arr.ProgrammedPages(f.gc)))
	}
	return f.failRead.Decide(op, p, at)
}

// openGCBlock opens the GC stream's block as the first relocation page of a
// victim on chip vc would, with the victim's chip claimed, and returns the
// chip it opened on.
func openGCBlock(t *testing.T, lg *logState, vc int) int {
	t.Helper()
	lg.mu.Lock()
	defer lg.mu.Unlock()
	lg.victimChip = vc
	ap, err := lg.openBlock(streamGC)
	if err != nil {
		t.Fatalf("setup: open the GC stream's block: %v", err)
	}
	lg.chips[ap.chip].blocks[ap.block].stream = streamGC
	lg.active[streamGC] = ap
	return ap.chip
}

// The collector relocates a victim's live records while the victim's later
// pages are still being read, where its log keeps the two apart: a 32-page
// victim on the bench geometry, whose GC block is on another chip, is
// scanned and relocated in the longer of the two plus one program (the last
// page's records can be programmed only after it is read), where the serial
// collection takes their sum. One whose GC block is on its own chip is
// pipelined too, and takes less than the serial time. A victim on a 2-chip
// log, and one whose relocation bound (relocationPages) is a block although
// its live records pack into fewer pages, take exactly the serial time.
// Every collection programs the pages gcPagesNeeded counts for the victim's
// live records, no more than relocationPages bounds.
func TestRelocationOverlapsTheScan(t *testing.T) {
	fc := flash.DefaultConfig()
	fc.BlocksPerChip, fc.PagesPerBlock = 16, 32
	transfer := fc.TransferTime(fc.PageSize + fc.OOBSize)
	program := fc.ProgramLatency + transfer
	scan := time.Duration(fc.PagesPerBlock) * (fc.ReadLatency + transfer)
	perPageChunks := fc.PageSize / chunkSize
	cases := []struct {
		name       string
		logs       int    // DefaultConfig's 64 chips over logs: 16 gives 4 chips a log, 32 gives 2
		chunks     int    // chunks of each record
		live       uint64 // of each page's worth of keys, the first live stay live
		big        bool   // key 0's first version has C/2+1 chunks, and its block is the victim
		gcOnVictim bool   // the GC stream's open block is on the victim's chip
		pipelined  bool
	}{
		{"4-chip log, GC block on another chip", 16, 8, 3, false, false, true},
		{"GC block on the victim's chip", 16, 8, 3, false, true, true},
		{"2-chip log", 32, 8, 3, false, false, false},
		{"valid bytes do not guarantee a gain", 16, 4, 8, true, false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			collectorsOff(t)
			r := newRig(fc, func(c *Config) { c.NumLogs = tc.logs })
			r.e.Go("test", func() {
				d := r.dev
				defer d.Close()
				ns, _ := d.CreateNamespace(NamespaceAttrs{})
				if err := d.SetNamespaceLogs(ns, 1); err != nil {
					t.Fatalf("setup: %v", err)
				}
				// Three blocks of log 0, perPage records a page, of which
				// the first tc.live of every perPage keys stay live.
				perPage := uint64(perPageChunks / tc.chunks)
				size := tc.chunks*chunkSize - record.HeaderSize
				keys := perPage * uint64(fc.PagesPerBlock) * 3
				value := func(k uint64, pass int) []byte {
					if tc.big && k == 0 && pass == 0 {
						return val(k, (perPageChunks/2+1)*chunkSize-record.HeaderSize)
					}
					return val(k+uint64(pass)*keys, size)
				}
				for pass, k := 0, uint64(0); pass < 2; k++ {
					if k == keys {
						pass, k = pass+1, 0
						continue
					}
					if pass == 1 && k%perPage < tc.live {
						continue
					}
					if err := d.Put(one(ns, k, value(k, pass))); err != nil {
						t.Fatalf("put %d: %v", k, err)
					}
				}
				d.Flush()
				lg := d.logs[0]
				vc, vb := pickVictim(t, d, lg)
				if tc.big {
					_, lc, b := d.blockOf(location(d.families[ns].chains.Head(0).Loc()).ppn())
					vc, vb = slices.Index(lg.chips, lc), b
				}
				if tc.gcOnVictim {
					lg.mu.Lock()
					b, ok := lg.space.popFree(vc)
					if !ok {
						t.Fatalf("setup: chip %d has no free block", vc)
					}
					lg.chips[vc].blocks[b].stream = streamGC
					lg.active[streamGC], lg.victimChip = &appendPoint{chip: vc, block: b}, vc
					lg.mu.Unlock()
				} else {
					openGCBlock(t, lg, vc)
				}
				// What the scan will find live, and so the pages the
				// relocation must program.
				pre := newCollector(d, lg)
				ch, chip := lg.chipAddr(vc)
				pre.startScan(ch, chip, vb)
				pre.scanned.Wait()
				need, _ := lg.space.gcPagesNeeded(pre.reader.live)
				pre.endScan()
				lg.mu.Lock()
				pipelined, bound := lg.pipelines(vc, vb), lg.space.relocationPages(&lg.chips[vc].blocks[vb])
				lg.mu.Unlock()
				if pipelined != tc.pipelined {
					t.Fatalf("setup: the victim is pipelined %v, want %v", pipelined, tc.pipelined)
				}
				if need > bound {
					t.Errorf("the victim's live records pack into %d pages, more than its bound %d", need, bound)
				}
				if tc.big && (bound < fc.PagesPerBlock || need >= fc.PagesPerBlock) {
					t.Fatalf("setup: the victim is bounded by %d pages and packs into %d: want a block and fewer", bound, need)
				}
				start, programs := r.e.Now(), r.arr.Stats().Programs
				newCollector(d, lg).collectBlock(vc, vb)
				took := r.e.Now() - start - fc.EraseLatency
				n := int(r.arr.Stats().Programs - programs)
				if d.Stats().GCErases != 1 || n == 0 {
					t.Fatalf("setup: %d erases, %d relocation pages: the victim was not collected", d.Stats().GCErases, n)
				}
				if n != need {
					t.Errorf("the collection programmed %d pages, want the %d gcPagesNeeded counts", n, need)
				}
				relocation := time.Duration(n) * program
				serial := scan + relocation
				t.Logf("scan %v, %d relocation pages %v (bound %d): collected in %v (serial %v)", scan, n, relocation, bound, took, serial)
				switch {
				case !tc.pipelined && took != serial:
					t.Errorf("scan and relocation took %v, want the serial %v", took, serial)
				case tc.gcOnVictim && took >= serial:
					t.Errorf("scan and relocation took %v, want less than the serial %v", took, serial)
				case tc.pipelined && !tc.gcOnVictim && took > max(scan, relocation)+program+transfer:
					t.Errorf("scan and relocation took %v, want at most %v", took, max(scan, relocation)+program+transfer)
				}
				for k := range keys {
					want := value(k, 1)
					if k%perPage < tc.live {
						want = value(k, 0)
					}
					if v, err := d.Get(ns, k); err != nil || !bytes.Equal(v, want) {
						t.Fatalf("key %d reads back wrong: %v", k, err)
					}
				}
			})
			r.e.Wait()
		})
	}
}

// Fig 8's bench geometry (16 logs of 4 chips, 16 blocks of 32 pages) under
// 512 B Zipf overwrites past the device's capacity, once every log has
// collected many victims: the flushers must spend nearly all their time
// programming. A flusher's page takes ProgramLatency plus its transfer
// at the least (the floor), so the share of the logs' time their flushers
// spent at the floor is programs x floor / (NumLogs x window), from
// kaml_ssd_program_wait_seconds. What it loses is counted there by cause and
// in kaml_ssd_free_block_wait_seconds: programs behind the log's own
// collector on a shared chip, and waits for it to free a block, which the
// reserve counted in pages all but removes.
func TestFlushersProgramThroughGC(t *testing.T) {
	const (
		writers   = 64
		valueSize = 512
		keys      = 200000
		victims   = 8 // per log, before the window opens
		window    = 300 * time.Millisecond
		// The share reads 0.976 here: 0.979 while a host stream opened its
		// block on the other host stream's chip first, 0.980 with the host
		// streams' reserve counted in whole blocks, 0.965 with each victim scanned before
		// any of it was relocated and the two host streams on chips of
		// their own, and 0.921 with a host stream's blocks opening beside
		// its collector's victim and GC block, and every victim read one
		// page at a time.
		minShare = 0.97
		// The flushers wait 0 s for a free block here: 33.1 ms with the
		// reserve counted in whole blocks and shared only while the
		// collector was starved.
		maxFreeWait = 3300 * time.Microsecond
	)
	fc := flash.DefaultConfig()
	fc.BlocksPerChip, fc.PagesPerBlock = 16, 32
	r := newRig(fc, func(c *Config) { c.NumLogs = fc.Channels }) // DefaultConfig's 4 chips a log
	var share float64
	var waits [numWaitCauses + 1]time.Duration // by cause, then free-block waits
	r.e.Go("test", func() {
		d := r.dev
		defer d.Close()
		ns, _ := d.CreateNamespace(NamespaceAttrs{IndexCapacity: 4 * keys})
		reg := d.Telemetry()
		snap := func() (programs int64, by [numWaitCauses + 1]time.Duration) {
			for c := range numWaitCauses {
				h := reg.Histogram("kaml_ssd_program_wait_seconds", telemetry.UnitSeconds, "cause", waitCauseNames[c]).Snapshot()
				programs, by[c] = programs+h.N, time.Duration(h.Sum)
			}
			by[numWaitCauses] = time.Duration(reg.Histogram("kaml_ssd_free_block_wait_seconds", telemetry.UnitSeconds).Snapshot().Sum)
			return programs, by
		}
		collected := func() bool {
			for _, lg := range d.logs {
				if lg.gcErases.Value() < victims {
					return false
				}
			}
			return true
		}
		// Every key once, eight to a batch, so the live data fills about
		// half of the flash and every victim holds some.
		loaders := r.e.NewWaitGroup()
		for l := 0; l < writers; l++ {
			loaders.Add(1)
			r.e.Go(fmt.Sprintf("loader-%d", l), func() {
				defer loaders.Done()
				v := make([]byte, valueSize)
				batch := make([]PutRecord, 0, 8)
				for k := uint64(l) * 8; k < keys; k += writers * 8 {
					batch = batch[:0]
					for i := k; i < min(k+8, keys); i++ {
						batch = append(batch, PutRecord{Namespace: ns, Key: i, Value: v})
					}
					if err := d.Put(batch); err != nil {
						t.Errorf("preload: %v", err)
						return
					}
				}
			})
		}
		loaders.Wait()
		zipf := workload.NewZipfian(keys, workload.YCSBTheta)
		var start, until time.Duration
		var p0 int64
		var w0 [numWaitCauses + 1]time.Duration
		opened := false
		wg := r.e.NewWaitGroup()
		for w := 0; w < writers; w++ {
			wg.Add(1)
			r.e.Go(fmt.Sprintf("writer-%d", w), func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(w)))
				v := make([]byte, valueSize)
				for !opened || r.e.Now() < until {
					if err := d.Put(one(ns, zipf.Next(rng), v)); err != nil {
						t.Errorf("writer %d: %v", w, err)
						return
					}
					if !opened && collected() {
						opened, start = true, r.e.Now()
						until = start + window
						p0, w0 = snap()
					}
				}
			})
		}
		wg.Wait()
		p1, w1 := snap()
		for i := range waits {
			waits[i] = w1[i] - w0[i]
		}
		floor := fc.ProgramLatency + fc.TransferTime(fc.PageSize+fc.OOBSize)
		took := r.e.Now() - start
		share = float64(p1-p0) * floor.Seconds() / (float64(d.cfg.NumLogs) * took.Seconds())
	})
	r.e.Wait()
	t.Logf("the flushers programmed at the floor %.1f %% of the time; beyond it they waited %v behind a victim, %v behind the GC stream, %v otherwise, and %v for a free block",
		100*share, waits[waitVictim], waits[waitGC], waits[waitOther], waits[numWaitCauses])
	if share < minShare {
		t.Errorf("the flushers programmed at the floor %.1f %% of the time, want at least %.1f %%", 100*share, 100*minShare)
	}
	if w := waits[numWaitCauses]; w > maxFreeWait {
		t.Errorf("the flushers waited %v for a free block, want at most %v", w, maxFreeWait)
	}
}
