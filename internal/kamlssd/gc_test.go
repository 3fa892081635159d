package kamlssd

import (
	"errors"
	"testing"
	"time"

	"github.com/kaml-ssd/kaml/internal/flash"
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
	return lg.freeBlocks
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
// below GCLowWater — page-wise round-robin takes them there within a few
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
			t.Fatalf("after %d Puts only %d of %d logs ever fell below GCLowWater", c.puts, n, nLogs)
		}
		c.put()
		for i, lg := range r.dev.logs[:nLogs] {
			if !fell[i] && freeBlocksOf(lg) < r.dev.cfg.GCLowWater {
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
// at GCHighWater, failing the test if that takes more than bound of virtual
// time.
func awaitHighWater(t *testing.T, r *rig, dev *Device, nLogs int, bound time.Duration) {
	t.Helper()
	deadline := r.e.Now() + bound
	for _, lg := range dev.logs[:nLogs] {
		for freeBlocksOf(lg) < dev.cfg.GCHighWater {
			if r.e.Now() > deadline {
				t.Fatalf("log %d still has %d free blocks %v after going low, want GCHighWater %d",
					lg.id, freeBlocksOf(lg), bound, dev.cfg.GCHighWater)
			}
			r.e.Sleep(20 * time.Microsecond)
		}
	}
}

// reclaimTime is the virtual time from the first of nLogs logs falling below
// GCLowWater until all of them are back at GCHighWater, with no writes after
// the last one fell.
func reclaimTime(t *testing.T, nLogs int) time.Duration {
	var took time.Duration
	r := newSerialRig(1, testFlashConfig(), nil)
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
	t.Logf("back at GCHighWater after %v for one log, %v for four at once", one, four)
	if one <= 0 || four >= 2*one {
		t.Errorf("four logs took %v to reclaim, one alone %v: want under twice as long", four, one)
	}
}

// A log can come up below its watermark: recovery rebuilds the free lists
// from what is programmed and pads every partially-programmed block. Nobody
// opens a block then, so nobody signals the collector — it has to test its
// predicate before its first wait.
func TestRecoveredLogCollectsUnprompted(t *testing.T) {
	r := newSerialRig(1, testFlashConfig(), nil)
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
			t.Error("setup: log 0 came up at GCHighWater already; the cut did not leave it low")
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
	r := newSerialRig(1, slowEraseConfig(), nil)
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
	r := newSerialRig(1, slowEraseConfig(), nil)
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
