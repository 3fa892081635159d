package kamlssd

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"github.com/kaml-ssd/kaml/internal/flash"
	"github.com/kaml-ssd/kaml/internal/telemetry"
	"github.com/kaml-ssd/kaml/internal/workload"
)

// Tests for one job per chip: a log's host and GC streams open their blocks
// off the chips its other jobs use (openBlock, busyChip), a victim no flusher
// shares is scanned two reads at a time (collector.scan), a scan that fails
// leaves its victim in place, and with both rules the flushers of a log
// under garbage collection spend nearly all their time programming.

// A block opens on a chip no other job of its log is using, on a log with
// more chips than streams: a host stream's next block avoids the victim's
// chip and the GC stream's, the GC stream's avoids the victim's and the host
// streams'. When no chip with a free block qualifies, and on a log too small
// to keep its jobs apart, allocation takes the next chip in rotation.
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
		{name: "2-chip log allocates in rotation", logs: 4, stream: streamCold,
			host: [2]int{none, none}, gc: 1, victim: 0, next: 0, want: []int{0, 1, 0, 1}},
		{name: "2-chip log's GC stream allocates in rotation", logs: 4, stream: streamGC,
			host: [2]int{1, none}, gc: none, victim: 0, next: 1, want: []int{1, 0, 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			withRig(t, testFlashConfig(), func(c *Config) { c.NumLogs = tc.logs }, func(r *rig) {
				d, lg := r.dev, r.dev.logs[0]
				lg.mu.Lock()
				defer lg.mu.Unlock()
				// Open blocks on a block the test made up, which no stream
				// opens (openBlock pops from the front of the free lists).
				at := func(ci int) *appendPoint {
					if ci == none {
						return nil
					}
					return &appendPoint{chip: ci, block: d.fc.BlocksPerChip - 1}
				}
				lg.active = [numStreams]*appendPoint{at(tc.host[0]), at(tc.host[1]), at(tc.gc)}
				lg.victimChip, lg.nextChip = tc.victim, tc.next
				emptied := make(map[int][]int)
				for _, ci := range tc.empty {
					emptied[ci], lg.chips[ci].free = lg.chips[ci].free, nil
					lg.freeBlocks -= len(emptied[ci])
				}
				var got []int
				for range tc.want {
					ap, err := lg.openBlock(tc.stream)
					if err != nil {
						t.Fatalf("open: %v", err)
					}
					got = append(got, ap.chip)
					lg.chips[ap.chip].free = append(lg.chips[ap.chip].free, ap.block) // back, for the next test
					lg.freeBlocks++
				}
				if fmt.Sprint(got) != fmt.Sprint(tc.want) {
					t.Errorf("stream %d opens its blocks on chips %v, want %v", tc.stream, got, tc.want)
				}
				for ci, free := range emptied {
					lg.chips[ci].free = free
					lg.freeBlocks += len(free)
				}
				lg.active, lg.victimChip = [numStreams]*appendPoint{}, noChip
			})
		})
	}
}

// A victim's page read is a sense that holds its chip (ReadLatency) and a
// transfer that holds its channel. On a chip no host stream programs, the
// scan keeps two reads in flight, so the chip senses without a break and
// only the last transfer shows; on a chip a host stream programs, it reads
// one page at a time, so a flusher's program waits behind one read at most.
func TestVictimScanKeepsTwoReadsInFlight(t *testing.T) {
	fc := testFlashConfig()
	fc.PagesPerBlock = 32
	pages := time.Duration(fc.PagesPerBlock)
	transfer := fc.TransferTime(fc.PageSize + fc.OOBSize)
	cases := []struct {
		name    string
		host    [numHostStreams]int
		readers int
		want    time.Duration
	}{
		{"off every host chip", [2]int{1, 2}, readersPerChip, pages*fc.ReadLatency + transfer},
		{"on a host chip", [2]int{3, 0}, 1, pages * (fc.ReadLatency + transfer)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			withRig(t, fc, func(c *Config) { c.NumLogs, c.GCHighWater = 2, 1<<20 }, func(r *rig) {
				d, lg := r.dev, r.dev.logs[0]
				layVictims(t, d, lg, []victimBlock{{chip: 0, block: 0}}, tc.host)
				c := newCollector(d, lg)
				lg.mu.Lock()
				ci, block, readers, ok := c.pick()
				claimed := lg.victimChip
				lg.mu.Unlock()
				if !ok || ci != 0 || block != 0 || claimed != 0 {
					t.Fatalf("picked chip %d block %d (ok %v), chip %d claimed: want the block laid on chip 0",
						ci, block, ok, claimed)
				}
				if readers != tc.readers {
					t.Errorf("the victim is scanned with %d reads in flight, want %d", readers, tc.readers)
				}
				ch, chip := lg.chipAddr(ci)
				start := r.e.Now()
				if _, ok := c.scan(ch, chip, block, readers); !ok {
					t.Fatal("the scan failed")
				}
				if took := r.e.Now() - start; took != tc.want {
					t.Errorf("a %d-page victim scans in %v, want %v", fc.PagesPerBlock, took, tc.want)
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

// A two-reader scan that meets a power cut or a page it cannot read, on
// either reader's share of the pages, abandons its victim: nothing is
// relocated and the victim is not erased, both readers have exited when the
// collection returns, and every key reads back after recovery.
func TestTwoReaderScanFailureKeepsTheVictim(t *testing.T) {
	for _, cut := range []bool{false, true} {
		for _, page := range []int{4, 5} { // the collector's share, the second reader's
			t.Run(fmt.Sprintf("cut=%v/page=%d", cut, page), func(t *testing.T) {
				r := newSerialRig(1, testFlashConfig(), func(c *Config) {
					c.NumLogs, c.GCLowWater, c.GCHighWater = 2, 0, 0
				})
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
					lg.mu.Unlock()
					if vc < 0 {
						t.Fatal("setup: log 0 has no full block off its host chips")
					}
					ch, chip := lg.chipAddr(vc)
					first := r.arr.BlockPPN(ch, chip, vb, 0)
					erases, programs, copies := r.arr.EraseCount(first), r.arr.Stats().Programs, d.Stats().GCCopies
					inj := &failRead{ppn: first + flash.PPN(page), cut: cut}
					r.arr.SetInjector(inj)
					newCollector(d, lg).collectBlock(vc, vb, readersPerChip)
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
					if !cut && d.Stats().GCCopies == copies {
						t.Errorf("the scan found no live record before it gave up: the victim proves nothing")
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
}

// Fig 8's bench geometry (16 logs of 4 chips, 16 blocks of 32 pages) under
// 512 B Zipf overwrites past the device's capacity, once every log has
// collected many victims: the flushers must spend nearly all their time
// programming. A flusher's page takes ProgramLatency plus its transfer
// at the least (the floor), so the share of the logs' time their flushers
// spent at the floor is programs x floor / (NumLogs x window), from
// kaml_ssd_program_wait_seconds. What it loses is counted there by cause and
// in kaml_ssd_free_block_wait_seconds: programs behind the log's own
// collector on a shared chip, and waits for it to free a block.
func TestFlushersProgramThroughGC(t *testing.T) {
	const (
		writers   = 64
		valueSize = 512
		keys      = 200000
		victims   = 8 // per log, before the window opens
		window    = 300 * time.Millisecond
		// The share reads 0.965 here, and 0.921 with a host stream's blocks
		// opening beside its collector's victim and GC block, and every
		// victim read one page at a time.
		minShare = 0.945
	)
	fc := flash.DefaultConfig()
	fc.BlocksPerChip, fc.PagesPerBlock = 16, 32
	r := newSerialRig(1, fc, func(c *Config) { c.NumLogs = fc.Channels }) // DefaultConfig's 4 chips a log
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
}
