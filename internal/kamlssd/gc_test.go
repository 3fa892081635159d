package kamlssd

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/kaml-ssd/kaml/internal/flash"
	"github.com/kaml-ssd/kaml/internal/record"
	"github.com/kaml-ssd/kaml/internal/telemetry"
)

// Tests for the per-log collectors (gc.go) and the waits they end (log.go):
// logs reclaim in parallel, a collector needs no prompting to notice its log
// is low, nothing ticks while the device is idle, an all-valid log is left
// alone, and shutdown — orderly or by power cut — reaches every wait.

// churnValue is the value size the tests below write: eight such records
// fill a page exactly, so a log's pages, blocks and garbage are countable.
const churnValue = 1000

func freeBlocksOf(lg *logState) int {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	return lg.space.freeBlocks
}

// churner overwrites a working set of four blocks' worth of keys per log,
// round after round, through a namespace on the device's first few logs.
type churner struct {
	t    *testing.T
	r    *rig
	ns   uint32
	keys uint64
	puts uint64
}

func (c *churner) put() {
	c.t.Helper()
	if err := c.r.dev.Put(one(c.ns, c.puts%c.keys, val(c.puts, churnValue))); err != nil {
		c.t.Fatalf("put %d: %v", c.puts, err)
	}
	c.puts++
}

// checkLast reads the last record put back from dev.
func (c *churner) checkLast(dev *Device) {
	c.t.Helper()
	last := c.puts - 1
	if v, err := dev.Get(c.ns, last%c.keys); err != nil || string(v) != string(val(last, churnValue)) {
		c.t.Errorf("the last acknowledged Put (%d) reads back wrong: %v", last, err)
	}
}

// churnUntilLow churns until each of the first nLogs logs has been seen
// below gcLowFree — page-wise round-robin takes them there within a few
// pages of each other, with ten-odd blocks of pure garbage behind them — and
// returns the churner and the instant the first log fell.
func churnUntilLow(t *testing.T, r *rig, nLogs int) (c *churner, firstLow time.Duration) {
	t.Helper()
	ns, err := r.dev.CreateNamespace(NamespaceAttrs{NumLogs: nLogs})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	c = &churner{t: t, r: r, ns: ns, keys: uint64(nLogs * 4 * r.dev.fc.PagesPerBlock * 8)}
	fell := make([]bool, nLogs)
	for n := 0; n < nLogs; {
		if c.puts > 20*c.keys {
			t.Fatalf("after %d Puts only %d of %d logs ever fell below gcLowFree", c.puts, n, nLogs)
		}
		c.put()
		for i, lg := range r.dev.logs[:nLogs] {
			if !fell[i] && freeBlocksOf(lg) < gcLowFree {
				if n == 0 {
					firstLow = r.e.Now()
				}
				fell[i] = true
				n++
			}
		}
	}
	return c, firstLow
}

// awaitHighWater blocks until each of the device's first nLogs logs is back
// at gcHighFree, failing the test if that takes more than bound of virtual
// time.
func awaitHighWater(t *testing.T, r *rig, dev *Device, nLogs int, bound time.Duration) {
	t.Helper()
	deadline := r.e.Now() + bound
	for _, lg := range dev.logs[:nLogs] {
		for freeBlocksOf(lg) < gcHighFree {
			if r.e.Now() > deadline {
				t.Fatalf("log %d still has %d free blocks %v after going low, want gcHighFree %d",
					lg.id, freeBlocksOf(lg), bound, gcHighFree)
			}
			r.e.Sleep(20 * time.Microsecond)
		}
	}
}

// reclaimTime is the virtual time from the first of nLogs logs falling below
// gcLowFree until all of them are back at gcHighFree, with no writes after
// the last one fell.
func reclaimTime(t *testing.T, nLogs int) time.Duration {
	var took time.Duration
	r := newRig(testFlashConfig(), nil)
	r.e.Go("test", func() {
		defer r.dev.Close()
		_, firstLow := churnUntilLow(t, r, nLogs)
		awaitHighWater(t, r, r.dev, nLogs, time.Second)
		took = r.e.Now() - firstLow
		// Every victim is counted once, by its chip, in /metrics.
		var erases int64
		for _, lg := range r.dev.logs {
			erases += lg.gcErases.Value()
		}
		host := r.dev.Telemetry().Counter("kaml_gc_victims_total", "chip", "host").Value()
		other := r.dev.Telemetry().Counter("kaml_gc_victims_total", "chip", "other").Value()
		if erases == 0 || host+other != erases {
			t.Errorf("kaml_gc_victims_total reads %d on host chips and %d on others; the collectors erased %d victims",
				host, other, erases)
		}
	})
	r.e.Wait()
	return took
}

// Four logs that run low together are reclaimed together: each has its own
// collector and its own chips. (One device-wide collector served them one
// after another and took four times as long as for one.)
func TestLogsReclaimInParallel(t *testing.T) {
	one, four := reclaimTime(t, 1), reclaimTime(t, 4)
	t.Logf("back at gcHighFree after %v for one log, %v for four at once", one, four)
	if one <= 0 || four >= 2*one {
		t.Errorf("four logs took %v to reclaim, one alone %v: want under twice as long", four, one)
	}
}

// A log can come up below its watermark: recovery rebuilds the free lists
// from what is programmed and pads every partially-programmed block. Nobody
// opens a block then, so nobody signals the collector — it has to test its
// predicate before its first wait.
func TestRecoveredLogCollectsUnprompted(t *testing.T) {
	r := newRig(testFlashConfig(), nil)
	r.e.Go("test", func() {
		c, _ := churnUntilLow(t, r, 1)
		dev2, err := powerCycle(r.dev, r.arr, r.ctrl)
		if err != nil {
			t.Errorf("recover: %v", err)
			return
		}
		defer dev2.Close()
		awaitHighWater(t, r, dev2, 1, 100*time.Millisecond)
		if dev2.Stats().GCErases == 0 {
			t.Error("setup: log 0 came up at gcHighFree already; the cut did not leave it low")
		}
		c.checkLast(dev2)
	})
	r.e.Wait()
}

// An open device with nothing to do costs nothing: no actor holds a timer,
// so the virtual clock stands still (the GC poll used to race it ahead), the
// engine does not mistake that for a deadlock, and the next request is served.
func TestIdleDeviceParksTheClock(t *testing.T) {
	r := newRig(testFlashConfig(), nil)
	var ns uint32
	request := func(fn func()) {
		done := make(chan struct{})
		r.e.Go("request", func() {
			defer close(done)
			fn()
		})
		<-done
	}
	put := func(key uint64) {
		if err := r.dev.Put(one(ns, key, val(key, 300))); err != nil {
			t.Errorf("put %d: %v", key, err)
		}
	}
	request(func() {
		ns, _ = r.dev.CreateNamespace(NamespaceAttrs{})
		put(0)
		r.dev.Flush()
	})
	time.Sleep(10 * time.Millisecond) // let the request's last actors park
	before := r.e.Now()
	time.Sleep(50 * time.Millisecond)
	if after := r.e.Now(); after != before {
		t.Errorf("the idle device's clock moved %v in 50 wall-ms", after-before)
	}
	request(func() {
		put(1)
		r.dev.Close()
	})
	r.e.Wait()
}

// A log whose sealed blocks are all fully valid has no victim: collecting
// one would copy a block into a block. The collector leaves it alone — no
// copies, no erases, no over-commit panic minutes later — and resumes when
// overwrites, whichever log they are routed through, turn its blocks into
// garbage.
func TestAllValidLogIsLeftAlone(t *testing.T) {
	withRig(t, testFlashConfig(), func(c *Config) { c.NumLogs = 2 }, func(r *rig) {
		ns, _ := r.dev.CreateNamespace(NamespaceAttrs{})
		// Once-written keys, page by page to alternate logs, until log 0 opens
		// the last block its host stream may take.
		var keys uint64
		for freeBlocksOf(r.dev.logs[0]) > gcReserveBlocks {
			if err := r.dev.Put(one(ns, keys, val(keys, churnValue))); err != nil {
				t.Fatalf("fill %d: %v", keys, err)
			}
			keys++
		}
		r.dev.Flush()
		r.e.Sleep(50 * time.Millisecond) // a dozen victims' worth of time
		if st := r.dev.Stats(); st.GCCopies != 0 || st.GCErases != 0 {
			t.Fatalf("nothing was overwritten, yet GC copied %d records and erased %d blocks", st.GCCopies, st.GCErases)
		}
		// One atomic batch overwrites every key of log 0's first block — the
		// even pages of the first sixteen. The cursor spreads the new records
		// over both logs, inside the pages their open blocks have left; what
		// wakes log 0's collector is the old versions dying, and its victim is
		// pure garbage by the time it is scanned.
		var batch []PutRecord
		for k := uint64(0); k < uint64(2*r.dev.fc.PagesPerBlock*8); k++ {
			if k/8%2 == 0 {
				batch = append(batch, PutRecord{Namespace: ns, Key: k, Value: val(k+1, churnValue)})
			}
		}
		if err := r.dev.Put(batch); err != nil {
			t.Fatalf("overwrite: %v", err)
		}
		r.dev.Flush()
		r.e.Sleep(50 * time.Millisecond)
		if st := r.dev.Stats(); st.GCErases != 1 || st.GCCopies != 0 {
			t.Errorf("after a block of log 0 died GC erased %d blocks and copied %d records, want 1 and 0", st.GCErases, st.GCCopies)
		}
		if free := freeBlocksOf(r.dev.logs[0]); free != gcReserveBlocks+1 {
			t.Errorf("log 0 has %d free blocks, want the one reclaimed on top of the reserve", free)
		}
		for k := uint64(0); k < keys; k += 5 {
			want := val(k, churnValue)
			if k < 128 && k/8%2 == 0 {
				want = val(k+1, churnValue)
			}
			if v, err := r.dev.Get(ns, k); err != nil || string(v) != string(want) {
				t.Fatalf("key %d after reclaim: %v", k, err)
			}
		}
	})
}

// slowEraseConfig makes one victim take longer than the host needs to use
// up the blocks it has left, so a writer reliably catches up with its log's
// collector and has to wait for it.
func slowEraseConfig() flash.Config {
	fc := testFlashConfig()
	fc.EraseLatency = 50 * time.Millisecond
	return fc
}

// freeBlockWaits is how many times a flusher has waited for its collector.
func freeBlockWaits(d *Device) int64 {
	return d.Telemetry().Histogram("kaml_ssd_free_block_wait_seconds", telemetry.UnitSeconds).Snapshot().N
}

// fillOpenBlock puts until log 0's flusher has dequeued the last page of its
// open host block, with records in the open NVRAM page that do not fill it:
// the flusher's next page needs a block the host stream may not take until
// the collector returns one.
func (c *churner) fillOpenBlock() {
	c.t.Helper()
	lg := c.r.dev.logs[0]
	for {
		lg.mu.Lock()
		op := &lg.open[streamCold] // no block has been collected: nothing is hot
		atEnd := lg.active[streamCold] == nil && op.packer.Count() > 0 && op.packer.FreeChunks() > 0
		lg.mu.Unlock()
		if atEnd {
			return
		}
		c.put()
	}
}

// Close drains a log whose flusher has to wait for a free block: the
// collectors outlive the flushers, so the block arrives, the last flusher out
// tells the collectors, and Close returns.
func TestCloseWhileFlusherWaitsForFreeBlock(t *testing.T) {
	r := newRig(slowEraseConfig(), nil)
	r.e.Go("test", func() {
		c, _ := churnUntilLow(t, r, 1)
		c.fillOpenBlock()
		if n := freeBlockWaits(r.dev); n != 0 {
			t.Errorf("setup: the flusher already waited %d times for a free block", n)
		}
		r.dev.Close()
		if n := freeBlockWaits(r.dev); n != 1 {
			t.Errorf("the flusher waited %d times for a free block during Close, want once", n)
		}
		if n := r.dev.logs[0].sealed[sealClose].Value(); n != 1 {
			t.Errorf("%d pages sealed by Close on log 0, want 1", n)
		}
		if n := r.dev.nv.unflushed(); n != 0 {
			t.Errorf("Close returned with %d records still in NVRAM", n)
		}
	})
	r.e.Wait()
}

// A power cut reaches every wait: the writer parked on a full queue, behind
// the flusher parked for a free block, fails with ErrPowerLoss, the
// collectors — one mid-victim, three parked — exit, and the device halts and
// recovers.
func TestPowerCutWakesFreeBlockAndCollectorWaits(t *testing.T) {
	r := newRig(slowEraseConfig(), nil)
	r.e.Go("test", func() {
		c, _ := churnUntilLow(t, r, 1)
		c.fillOpenBlock()
		// The namespace has one log: its queue fills behind the flusher, and
		// a writer left with a full page has no other log to go to.
		var werr error
		writer := r.e.NewWaitGroup()
		writer.Add(1)
		r.e.Go("writer", func() {
			defer writer.Done()
			for i := uint64(0); i < 64 && werr == nil; i++ {
				werr = r.dev.Put(one(c.ns, c.keys+i, val(i, churnValue)))
			}
		})
		r.e.Sleep(5 * time.Millisecond) // a tenth of the erase the flusher waits for
		lg := r.dev.logs[0]
		lg.mu.Lock()
		free, open, left, queued := lg.freeBlocks, lg.active[streamCold], lg.open[streamCold].sealWanted, len(lg.sealedQueue)
		lg.mu.Unlock()
		if free > gcReserveBlocks || open != nil || !left || queued != r.dev.cfg.QueueDepthPerLog {
			t.Errorf("setup: log 0 has %d free blocks, open block %v, a page left for the flusher %v and %d queued: the writer is not waiting",
				free, open, left, queued)
		}
		dev2, err := powerCycle(r.dev, r.arr, r.ctrl)
		if err != nil {
			t.Errorf("recover: %v", err)
			return
		}
		defer dev2.Close()
		writer.Wait()
		if !errors.Is(werr, ErrPowerLoss) {
			t.Errorf("the parked writer returned %v, want ErrPowerLoss", werr)
		}
		c.checkLast(dev2)
	})
	r.e.Wait()
}

// victimBlock is a sealed, fully programmed block the victim tests lay out
// on a log: its chip (an index into the log's chips), block, live bytes and
// erase count.
type victimBlock struct {
	chip, block int
	valid       int64
	erases      int
}

// layVictims makes each of blocks a collectable block of lg: erased
// erases times, every page programmed, sealed with valid live bytes. The
// host streams' open blocks go on the chips hostChips names (-1: the stream
// has none). The collectors stay parked: the log never runs low.
func layVictims(t *testing.T, d *Device, lg *logState, blocks []victimBlock, hostChips [numHostStreams]int) {
	t.Helper()
	for _, vb := range blocks {
		ch, chip := lg.chipAddr(vb.chip)
		first := d.arr.BlockPPN(ch, chip, vb.block, 0)
		for i := 0; i < vb.erases; i++ {
			if err := d.arr.EraseBlock(first); err != nil {
				t.Fatalf("setup: erase: %v", err)
			}
		}
		for p := 0; p < d.fc.PagesPerBlock; p++ {
			if err := d.arr.ProgramPage(d.arr.BlockPPN(ch, chip, vb.block, p), []byte{1}, nil); err != nil {
				t.Fatalf("setup: program: %v", err)
			}
		}
		lg.mu.Lock()
		bm := &lg.chips[vb.chip].blocks[vb.block]
		bm.sealed, bm.validBytes = true, vb.valid
		lg.mu.Unlock()
	}
	lg.mu.Lock()
	for s, ci := range hostChips {
		lg.active[s] = nil
		if ci >= 0 {
			lg.active[s] = &appendPoint{chip: ci, block: d.fc.BlocksPerChip - 1}
		}
	}
	lg.mu.Unlock()
}

// pickVictim returns lg's victim as a victimBlock's chip and block.
func pickVictim(t *testing.T, d *Device, lg *logState) (chip, block int) {
	t.Helper()
	lg.mu.Lock()
	defer lg.mu.Unlock()
	ci, b, ok := d.victim(lg)
	if !ok {
		t.Fatal("no victim")
	}
	return ci, b
}

// A victim's scan and erase hold its chip. Of the blocks as worn as the
// paper's pick (lowest valid bytes + erases x 4 chunks, §IV-E), the collector
// takes the best-scoring one on a chip where no host stream of its log has
// its open block, so its log's flusher does not program behind its own
// collector. It keeps the paper's pick when every candidate sits on a host
// chip, and when every off-host-chip candidate is more worn.
func TestVictimPrefersAChipNoHostStreamPrograms(t *testing.T) {
	const chunk = int64(chunkSize)
	cases := []struct {
		name       string
		host       [numHostStreams]int
		blocks     []victimBlock
		chip, blk  int
		wantReason string
	}{
		{
			name: "off a host chip",
			host: [numHostStreams]int{0, -1},
			blocks: []victimBlock{
				{chip: 0, block: 0, valid: 0},                     // the paper's pick, on the cold stream's chip
				{chip: 1, block: 0, valid: 6 * chunk},             // the best off-host-chip candidate
				{chip: 2, block: 0, valid: 8 * chunk},             // a worse one
				{chip: 3, block: 1, valid: 0, erases: 1},          // scores better, but more worn than the pick
				{chip: 3, block: 0, valid: 40 * chunk, erases: 0}, // the worst
			},
			chip: 1, blk: 0,
			wantReason: "the best-scoring candidate off every host chip, no more worn than the paper's pick",
		},
		{
			name: "every candidate on a host chip",
			host: [numHostStreams]int{1, 0},
			blocks: []victimBlock{
				{chip: 0, block: 0, valid: 4 * chunk},
				{chip: 1, block: 0, valid: 2 * chunk}, // the paper's pick
				{chip: 1, block: 1, valid: 8 * chunk},
			},
			chip: 1, blk: 0,
			wantReason: "the paper's pick: no candidate is off a host chip",
		},
		{
			name: "the off-host-chip candidates are more worn",
			host: [numHostStreams]int{0, 0},
			blocks: []victimBlock{
				{chip: 0, block: 0, valid: 4 * chunk}, // the paper's pick: score 4 chunks
				{chip: 2, block: 0, valid: 0, erases: 1},
				{chip: 3, block: 0, valid: 0, erases: 2},
			},
			chip: 0, blk: 0,
			wantReason: "the paper's pick: every off-host-chip candidate has more erases",
		},
		{
			name: "no host stream has an open block",
			host: [numHostStreams]int{-1, -1},
			blocks: []victimBlock{
				{chip: 0, block: 0, valid: 0},
				{chip: 1, block: 0, valid: 4 * chunk},
			},
			chip: 0, blk: 0,
			wantReason: "the paper's pick: no chip is a host chip",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			withRig(t, testFlashConfig(), func(c *Config) { c.NumLogs = 2 }, func(r *rig) {
				d, lg := r.dev, r.dev.logs[0]
				layVictims(t, d, lg, tc.blocks, tc.host)
				if chip, blk := pickVictim(t, d, lg); chip != tc.chip || blk != tc.blk {
					t.Errorf("victim is chip %d block %d, want chip %d block %d: %s",
						chip, blk, tc.chip, tc.blk, tc.wantReason)
				}
				// Leave no open block naming a block the test made up.
				lg.mu.Lock()
				lg.active = [numStreams]*appendPoint{}
				lg.mu.Unlock()
			})
		})
	}
}

// Every collection frees at least a page, so the GC stream never needs more
// room than the log's reserve and the last collections left it. Records that
// do not divide a page — two 3 000 B or one 5 000 B value to a page — pass
// the byte test before the scan with a block whose live records still pack
// into every one of its pages; the collector leaves such a block unerased
// (noGain). Each case fills the device to a share of its pages, overwrites
// keys drawn uniformly, and reads every key back.
func TestEveryCollectionFreesAPage(t *testing.T) {
	const overwrites = 20000
	cases := []struct {
		logs, value int
		fill        float64 // of the device's pages
	}{
		{2, 3000, 0.8},
		{2, 5000, 0.8},
		{1, 3000, 0.9},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%d logs x %d B at %.0f%%", tc.logs, tc.value, 100*tc.fill), func(t *testing.T) {
			fc := testFlashConfig()
			r := newRig(fc, func(c *Config) { c.NumLogs = tc.logs })
			r.e.Go("test", func() {
				d := r.dev
				defer d.Close()
				ns, _ := d.CreateNamespace(NamespaceAttrs{})
				perPage := fc.PageSize / chunkSize / record.Record{Value: make([]byte, tc.value)}.Chunks(chunkSize)
				keys := uint64(tc.fill * float64(fc.TotalPages()*perPage))
				last := make([]uint64, keys) // the seed of each key's newest value
				put := func(k, seed uint64) bool {
					if err := d.Put(one(ns, k, val(seed, tc.value))); err != nil {
						t.Errorf("put %d: %v", k, err)
						return false
					}
					last[k] = seed
					return true
				}
				for k := range keys {
					if !put(k, k) {
						return
					}
				}
				rng := rand.New(rand.NewSource(1))
				for i := range uint64(overwrites) {
					if !put(uint64(rng.Int63n(int64(keys))), keys+i) {
						return
					}
				}
				d.Flush()
				for k := range keys {
					if v, err := d.Get(ns, k); err != nil || !bytes.Equal(v, val(last[k], tc.value)) {
						t.Errorf("key %d reads back wrong: %v", k, err)
						return
					}
				}
				var host int64
				for _, lg := range d.logs {
					host += sealedPages(lg)
				}
				st := d.Stats()
				gcPages := st.Programs - host
				t.Logf("%d erases, %d GC pages programmed", st.GCErases, gcPages)
				if st.GCErases == 0 || gcPages > st.GCErases*int64(fc.PagesPerBlock-1) {
					t.Errorf("the GC stream programmed %d pages for %d erases: want at least one page freed per collection",
						gcPages, st.GCErases)
				}
			})
			r.e.Wait()
		})
	}
}

// A victim that frees nothing is scanned once: the collector leaves it
// unerased and marked, and does not pick it again until a version on it
// dies. Eight 5 000 B records, one to a page, fill a block with five pages'
// worth of bytes, so only the scan finds that they need all eight pages.
func TestNoGainVictimIsScannedOnce(t *testing.T) {
	setGCWater(t, 0, 1<<20) // the collectors stay parked; pick always looks
	withRig(t, testFlashConfig(), func(c *Config) { c.NumLogs = 1 }, func(r *rig) {
		const value = 5000
		d, lg := r.dev, r.dev.logs[0]
		ns, _ := d.CreateNamespace(NamespaceAttrs{})
		for k := range uint64(d.fc.PagesPerBlock) {
			if err := d.Put(one(ns, k, val(k, value))); err != nil {
				t.Errorf("put %d: %v", k, err)
				return
			}
		}
		d.Flush()
		c := newCollector(d, lg)
		collect := func() bool {
			lg.mu.Lock()
			ci, b, ok := c.pick()
			lg.mu.Unlock()
			if ok {
				c.collectBlock(ci, b)
			}
			return ok
		}
		victims := func() int64 { return d.ctr.gcVictimsHost.Value() + d.ctr.gcVictimsOther.Value() }
		check := func(when string, wantVictims, wantErases, wantCopies int64) {
			t.Helper()
			if st := d.Stats(); victims() != wantVictims || st.GCErases != wantErases || st.GCCopies != wantCopies {
				t.Errorf("%s: %d victims, %d erases, %d copies; want %d, %d, %d",
					when, victims(), st.GCErases, st.GCCopies, wantVictims, wantErases, wantCopies)
			}
		}
		if !collect() {
			t.Error("setup: the full block is no victim")
			return
		}
		check("after the scan", 1, 0, 0)
		if collect() {
			t.Error("the block that frees nothing was picked again")
		}
		check("after a second pick", 1, 0, 0)
		// One version on the block dies: seven records pack into seven pages.
		if err := d.Put(one(ns, 0, val(100, value))); err != nil {
			t.Errorf("overwrite: %v", err)
			return
		}
		d.Flush()
		if !collect() {
			t.Error("a version on the block died, yet it is no victim")
			return
		}
		check("after a version died", 2, 1, int64(d.fc.PagesPerBlock-1))
		for k := range uint64(d.fc.PagesPerBlock) {
			want := val(k, value)
			if k == 0 {
				want = val(100, value)
			}
			if v, err := d.Get(ns, k); err != nil || !bytes.Equal(v, want) {
				t.Errorf("key %d reads back wrong: %v", k, err)
			}
		}
	})
}

// readsIn counts the reads of pages [from, to).
type readsIn struct {
	from, to flash.PPN
	n        int64
}

func (r *readsIn) Decide(op flash.Op, p flash.PPN, _ time.Duration) flash.Verdict {
	if op == flash.OpRead && p >= r.from && p < r.to {
		r.n++
	}
	return flash.VerdictOK
}

// A victim page whose OOB checks but whose records do not parse — its bitmap
// does not match its data — stops the scan as a page that cannot be read
// does: the pages after it are not read, nothing is programmed, the victim is
// not erased, and every key reads back after a power cycle. (The page's own
// bitmap is put back first: recovery fails on a page that does not parse.)
func TestUnparsablePageKeepsTheVictim(t *testing.T) {
	collectorsOff(t)
	const bad = 4
	r := newRig(testFlashConfig(), func(c *Config) { c.NumLogs = 2 })
	r.e.Go("test", func() {
		d := r.dev
		w := newScanLoad(t, d)
		w.put(60 * 8)
		d.Flush()
		lg := d.logs[0]
		vc, vb := pickVictim(t, d, lg)
		lg.mu.Lock()
		live := lg.chips[vc].blocks[vb].validBytes > 0
		lg.mu.Unlock()
		if !live {
			t.Fatal("setup: the victim holds no live record: keeping it proves nothing")
		}
		ch, chip := lg.chipAddr(vc)
		first := r.arr.BlockPPN(ch, chip, vb, 0)
		// The array keeps the OOB it was programmed with: rewrite its bitmap
		// in place so that chunk 0 alone ends a record, which cuts the page's
		// first record (eight chunks) short.
		data, oob, err := r.arr.ReadPage(first + bad)
		if err != nil {
			t.Fatalf("setup: read page %d: %v", bad, err)
		}
		saved := bytes.Clone(oob)
		copy(oob, buildOOB([]byte{1, 0, 0, 0, 0, 0, 0, 0}, data))
		if _, perr := record.Parse(data, oob, chunkSize); !checkOOB(oob, data) || perr == nil {
			t.Fatalf("setup: page %d checks %v and parses (%v): want it to check and not parse", bad, checkOOB(oob, data), perr)
		}
		erases, programs := r.arr.EraseCount(first), r.arr.Stats().Programs
		reads := &readsIn{from: first + bad + 1, to: first + flash.PPN(d.fc.PagesPerBlock)}
		r.arr.SetInjector(reads)
		newCollector(d, lg).collectBlock(vc, vb)
		r.arr.SetInjector(nil)
		if reads.n != 0 {
			t.Errorf("the scan read %d pages after the one that does not parse", reads.n)
		}
		if d.crashed {
			t.Error("the device crashed")
		}
		if n := r.arr.EraseCount(first); n != erases || r.arr.ProgrammedPages(first) != d.fc.PagesPerBlock {
			t.Errorf("the victim was erased (%d erases, was %d)", n, erases)
		}
		if n := r.arr.Stats().Programs - programs; n != 0 {
			t.Errorf("the abandoned collection programmed %d pages", n)
		}
		copy(oob, saved)
		dev2, err := powerCycle(d, r.arr, r.ctrl)
		if err != nil {
			t.Fatalf("recover: %v", err)
		}
		defer dev2.Close()
		w.checkAll(dev2)
	})
	r.e.Wait()
}

// failProgramOf fails the first program of one page.
type failProgramOf struct {
	ppn   flash.PPN
	fired bool
}

func (f *failProgramOf) Decide(op flash.Op, p flash.PPN, _ time.Duration) flash.Verdict {
	if op == flash.OpProgram && p == f.ppn && !f.fired {
		f.fired = true
		return flash.VerdictFail
	}
	return flash.VerdictOK
}

// A program that fails on the GC stream mid-relocation consumes its page
// (programPage): it is counted once in ProgramRetries, the copy lands on the
// stream's next page, and the collection goes on to erase its victim. The
// block that ate the program is retired at its next erase, and every key
// reads back after a power cycle.
func TestGCProgramFailureRetiresItsBlock(t *testing.T) {
	collectorsOff(t)
	fc := testFlashConfig()
	fc.PagesPerBlock = 16 // a victim's sixteen cold keys relocate into two pages at least
	r := newRig(fc, func(c *Config) { c.NumLogs = 2 })
	r.e.Go("test", func() {
		d := r.dev
		w := newScanLoad(t, d)
		w.put(8 * fc.PagesPerBlock * 2 * 10) // ten blocks a log
		d.Flush()
		lg := d.logs[0]
		c := newCollector(d, lg)
		vc, vb := pickVictim(t, d, lg)
		gcChip := openGCBlock(t, lg, vc)
		lg.mu.Lock()
		gcBlock := lg.active[streamGC].block
		failed := &lg.chips[gcChip].blocks[gcBlock]
		lg.mu.Unlock()
		ch, chip := lg.chipAddr(vc)
		first := r.arr.BlockPPN(ch, chip, vb, 0)
		gch, gchip := lg.chipAddr(gcChip)
		gcFirst := r.arr.BlockPPN(gch, gchip, gcBlock, 0)
		erases, before := r.arr.EraseCount(first), d.Stats()
		inj := &failProgramOf{ppn: gcFirst + 1}
		r.arr.SetInjector(inj)
		c.collectBlock(vc, vb)
		r.arr.SetInjector(nil)
		if !inj.fired {
			t.Fatal("setup: the relocation programmed fewer than two pages")
		}
		if n := d.Stats().ProgramRetries - before.ProgramRetries; n != 1 {
			t.Errorf("ProgramRetries rose by %d, want 1", n)
		}
		if n := r.arr.EraseCount(first); n != erases+1 {
			t.Errorf("the victim has %d erases, want %d", n, erases+1)
		}
		lg.mu.Lock()
		progFailed := failed.progFailed
		lg.mu.Unlock()
		if progFailed != 1 {
			t.Errorf("the GC block counts %d failed programs, want 1", progFailed)
		}
		// The consumed page carries nothing; the copies on the next page are
		// the versions the index holds.
		if _, torn, err := d.readRecords(gcFirst+1, nil); !torn || err != nil {
			t.Errorf("the failed page reads torn=%v (%v), want torn", torn, err)
		}
		placed, torn, err := d.readRecords(gcFirst+2, nil)
		if torn || err != nil || len(placed) == 0 {
			t.Fatalf("the page after the failed one holds %d records (torn=%v, %v)", len(placed), torn, err)
		}
		fam := d.families[w.ns]
		for _, pl := range placed {
			if fam.chains.VersionAtLoc(pl.Record.Key, uint64(flashLoc(gcFirst+2, pl.StartChunk, pl.NumChunks))) == nil {
				t.Errorf("key %d was relocated past the failed page, but the index does not point at the copy", pl.Record.Key)
			}
		}
		// Collect until the GC stream has filled the block, then the block.
		for {
			lg.mu.Lock()
			sealed := failed.sealed
			lg.mu.Unlock()
			if sealed {
				break
			}
			c.collectBlock(pickVictim(t, d, lg))
		}
		retired, gcErases := d.Stats().BlocksRetired, r.arr.EraseCount(gcFirst)
		c.collectBlock(gcChip, gcBlock)
		if n := d.Stats().BlocksRetired - retired; n != 1 {
			t.Errorf("collecting the block that ate a program retired %d blocks, want 1", n)
		}
		lg.mu.Lock()
		isRetired, onFree := failed.retired, slices.Contains(lg.chips[gcChip].freeList, gcBlock)
		lg.mu.Unlock()
		if !isRetired || onFree || r.arr.EraseCount(gcFirst) != gcErases+1 {
			t.Errorf("the block that ate a program: retired %v, on the free list %v, %d erases (was %d)",
				isRetired, onFree, r.arr.EraseCount(gcFirst), gcErases)
		}
		dev2, err := powerCycle(d, r.arr, r.ctrl)
		if err != nil {
			t.Fatalf("recover: %v", err)
		}
		defer dev2.Close()
		if !dev2.logs[0].chips[gcChip].blocks[gcBlock].retired {
			t.Error("recovery put the retired block back in service")
		}
		w.checkAll(dev2)
	})
	r.e.Wait()
}
