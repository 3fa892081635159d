package kamlssd

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"github.com/kaml-ssd/kaml/internal/faultinject"
	"github.com/kaml-ssd/kaml/internal/flash"
	"github.com/kaml-ssd/kaml/internal/hashindex"
	"github.com/kaml-ssd/kaml/internal/nvme"
	"github.com/kaml-ssd/kaml/internal/record"
	"github.com/kaml-ssd/kaml/internal/sim"
	"github.com/kaml-ssd/kaml/internal/telemetry"
)

// Tests for recovery (recover.go): two readers per chip recover at the
// array's bandwidth and write nothing to it; the sorted join recovers the
// state one actor walking the array would, whichever reader runs when;
// partial blocks are resumed, not padded, and a second crash after one is
// recovered like the first; and recovery leaks nothing and loses nothing when
// power is cut again mid-recovery, and rides out read faults. Most tests run
// at eight, two and one chips per log, on engines of several seeds: under
// -race that is the check that readers share nothing they write.

var scanNumLogs = []int{1, 4, 8}

// scanLoad fills a device page by page: seven overwrites of a small hot set
// and one once-written cold key per page, so every block keeps a little live
// data however much of it has turned to garbage.
type scanLoad struct {
	t    *testing.T
	dev  *Device
	ns   uint32
	puts uint64
	last map[uint64][]byte // the last acknowledged value of each key
}

func newScanLoad(t *testing.T, dev *Device) *scanLoad {
	t.Helper()
	ns, err := dev.CreateNamespace(NamespaceAttrs{})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	return &scanLoad{t: t, dev: dev, ns: ns, last: make(map[uint64][]byte)}
}

func (w *scanLoad) put(n int) {
	w.t.Helper()
	for ; n > 0; n-- {
		key := w.puts % 56
		if w.puts%8 == 7 {
			key = 1<<20 + w.puts
		}
		v := val(w.puts, churnValue)
		if err := w.dev.Put(one(w.ns, key, v)); err != nil {
			w.t.Fatalf("put %d: %v", w.puts, err)
		}
		w.last[key] = v
		w.puts++
	}
}

// checkAll reads every key back from dev.
func (w *scanLoad) checkAll(dev *Device) {
	w.t.Helper()
	for key, want := range w.last {
		if got, err := dev.Get(w.ns, key); err != nil || !bytes.Equal(got, want) {
			w.t.Errorf("acknowledged key %d reads back wrong after recovery: %v", key, err)
			return
		}
	}
}

// crashImage is what a power cut leaves behind — every programmed page and
// the NVRAM — detached from the engine it happened on, so that one cut can be
// recovered on any engine, any number of times.
type crashImage struct {
	fc    flash.Config
	cfg   Config
	pages []imagePage // in (chip, block, page) order
	nv    *NVRAM      // pristine: load hands out copies
}

type imagePage struct {
	ppn       flash.PPN
	data, oob []byte
}

// captureImage reads a halted device's array back. Call from an actor.
func captureImage(t *testing.T, dev *Device, arr *flash.Array) *crashImage {
	t.Helper()
	arr.SetInjector(nil)
	arr.PowerOn()
	img := &crashImage{fc: arr.Config(), cfg: dev.Config(), nv: cloneNVRAM(dev.NVRAM())}
	for first := flash.PPN(0); int(first) < img.fc.TotalPages(); first += flash.PPN(img.fc.PagesPerBlock) {
		for p := 0; p < arr.ProgrammedPages(first); p++ {
			ppn := first + flash.PPN(p)
			data, oob, err := arr.ReadPage(ppn)
			if err != nil {
				t.Fatalf("capture ppn %d: %v", ppn, err)
			}
			img.pages = append(img.pages, imagePage{ppn, data, oob})
		}
	}
	return img
}

// load programs the image onto a fresh array on e and copies its NVRAM. Call
// from an actor of e.
func (img *crashImage) load(t *testing.T, e *sim.Engine) (*flash.Array, *nvme.Controller, *NVRAM) {
	t.Helper()
	arr := flash.New(e, img.fc)
	for _, p := range img.pages {
		if err := arr.ProgramPage(p.ppn, p.data, p.oob); err != nil {
			t.Fatalf("load ppn %d: %v", p.ppn, err)
		}
	}
	return arr, nvme.New(e, nvme.DefaultConfig()), cloneNVRAM(img.nv)
}

func cloneNVRAM(nv *NVRAM) *NVRAM {
	c := NewNVRAM()
	c.nextNSID, c.nvSeq, c.nextBatch = nv.nextNSID, nv.nvSeq, nv.nextBatch
	c.staged.Store(nv.staged.Load())
	for seq, e := range nv.values {
		e.val = slices.Clone(e.val)
		c.values[seq] = e
	}
	maps.Copy(c.batches, nv.batches)
	maps.Copy(c.open, nv.open)
	for _, m := range nv.catalog {
		c.putNS(*m)
	}
	maps.Copy(c.aborted, nv.aborted)
	maps.Copy(c.badBlocks, nv.badBlocks)
	return c
}

// onEngine runs fn as the only root actor of a fresh engine seeded with
// seed, and returns when the engine has no actor left: a reader that
// outlived its Recover would hang it (and the engine would say who, five
// seconds later).
func onEngine(seed int64, fn func(e *sim.Engine)) {
	e := sim.NewEngine()
	e.Serialize(seed)
	e.Go("test", func() { fn(e) })
	e.Wait()
}

func scheduleName(seed int64) string { return fmt.Sprintf("serialized seed %d", seed) }

// cutImage is the ordinary crash: most of the load flushed, the last tail
// puts still in NVRAM or on their way to flash when the power goes.
func cutImage(t *testing.T, nLogs, tail int) (*crashImage, *scanLoad) {
	t.Helper()
	var img *crashImage
	var w *scanLoad
	r := newRig(testFlashConfig(), func(c *Config) { c.NumLogs = nLogs })
	r.e.Go("test", func() {
		w = newScanLoad(t, r.dev)
		w.put(200 * 8)
		r.dev.Flush()
		w.put(tail)
		r.dev.PowerFail()
		r.dev.AwaitHalt()
		img = captureImage(t, r.dev, r.arr)
	})
	r.e.Wait()
	return img, w
}

// Recovery is as fast as the array allows: no slower than a tenth above the
// time its busiest chip needs to sense its pages (and hand the last one to
// the channel), or its busiest channel to move its pages, whichever is
// longer. (One actor reading chip after chip took the sum over all chips:
// 5.5 times as long here, 52 times on the paper's 64 chips; one reader per
// chip left the chip idle through each transfer, 1.2-1.3 times the floor.)
func TestRecoveryRunsAtArrayBandwidth(t *testing.T) {
	fc := testFlashConfig()
	r := newRig(fc, nil)
	r.e.Go("test", func() {
		w := newScanLoad(t, r.dev)
		w.put(150 * 8)
		r.dev.Flush()
		var floor time.Duration
		var pages int64
		xfer := fc.TransferTime(fc.PageSize + fc.OOBSize)
		for ch := 0; ch < fc.Channels; ch++ {
			var bus time.Duration
			for chip := 0; chip < fc.ChipsPerChannel; chip++ {
				n := 0
				for b := 0; b < fc.BlocksPerChip; b++ {
					n += r.arr.ProgrammedPages(r.arr.BlockPPN(ch, chip, b, 0))
				}
				pages += int64(n)
				floor = max(floor, time.Duration(n)*fc.ReadLatency+xfer)
				bus += time.Duration(n) * xfer
			}
			floor = max(floor, bus)
		}
		if pages < 150 {
			t.Fatalf("setup: %d pages on flash, want at least 150", pages)
		}

		r.dev.PowerFail()
		r.dev.AwaitHalt()
		start := r.e.Now()
		dev2, err := Recover(r.arr, r.ctrl, r.dev.Config(), r.dev.NVRAM())
		if err != nil {
			t.Errorf("recover: %v", err)
			return
		}
		defer dev2.Close()
		took := r.e.Now() - start
		t.Logf("%d pages scanned in %v; the array's floor is %v", pages, took, floor)
		if took < floor || took > floor*11/10 {
			t.Errorf("recovery took %v, want between the array's floor %v and 1.1 times that", took, floor)
		}
		st := dev2.Stats()
		if st.RecoveryScannedPages != pages {
			t.Errorf("Stats() says %d pages scanned, the array %d", st.RecoveryScannedPages, pages)
		}
		for series, stat := range map[string]int64{
			"kaml_recovery_scanned_pages_total":       st.RecoveryScannedPages,
			"kaml_recovery_torn_pages_total":          st.TornPagesSkipped,
			"kaml_recovery_records_total":             st.RecoveredRecords,
			"kaml_recovery_replayed_values_total":     st.ReplayedValues,
			"kaml_recovery_dropped_uncommitted_total": st.DroppedUncommitted,
		} {
			if n := dev2.Telemetry().Counter(series).Value(); n != stat {
				t.Errorf("%s reads %d, its Stats() field %d: one cell per event", series, n, stat)
			}
		}
		if st.RecoveredRecords == 0 {
			t.Error("Stats() says recovery rebuilt no record")
		}
		h := dev2.Telemetry().Histogram("kaml_recovery_seconds", telemetry.UnitSeconds)
		if h.Count() != 1 || time.Duration(h.Sum()) != took {
			t.Errorf("kaml_recovery_seconds holds %d samples summing to %v, want the one recovery of %v",
				h.Count(), time.Duration(h.Sum()), took)
		}
		if n := r.dev.Telemetry().Histogram("kaml_recovery_seconds", telemetry.UnitSeconds).Count(); n != 0 {
			t.Errorf("the device that never crashed reports %d recoveries", n)
		}
		w.checkAll(dev2)
	})
	r.e.Wait()
}

// cutOnErase cuts power at the first erase: after a collector has programmed
// its victim's live records somewhere else, before the victim is gone.
type cutOnErase struct{ fired atomic.Bool }

func (c *cutOnErase) Decide(op flash.Op, _ flash.PPN, _ time.Duration) flash.Verdict {
	if op == flash.OpErase && !c.fired.Swap(true) {
		return flash.VerdictPowerCut
	}
	return flash.VerdictOK
}

// firstProgram gives the array's first program the verdict v.
type firstProgram struct {
	v     flash.Verdict
	fired atomic.Bool
}

func (f *firstProgram) Decide(op flash.Op, _ flash.PPN, _ time.Duration) flash.Verdict {
	if op == flash.OpProgram && !f.fired.Swap(true) {
		return f.v
	}
	return flash.VerdictOK
}

// A program that fails or is torn leaves a page the scans skip. Flash keeps
// the page it is handed instead of a copy, so this checks that it keeps no
// part of it on failure: the consumed page fails checkOOB (zeroed OOB), while
// the record page the caller still holds passes it, ready to be programmed
// again. A page whose magic and CRC hold but whose type is not a record
// page's fails it too.
func TestTornAndFailedPagesFailCheckOOB(t *testing.T) {
	for _, v := range []flash.Verdict{flash.VerdictFail, flash.VerdictPowerCutTorn} {
		r := newRig(testFlashConfig(), nil)
		r.e.Go("test", func() {
			d := r.dev
			p := record.NewPacker(d.fc.PageSize, chunkSize)
			for k := uint64(1); p.Fits(record.HeaderSize + 300); k++ {
				p.Add(record.Record{Namespace: 1, Key: k, Seq: k, Value: val(k, 300)})
			}
			data, bitmap := p.Finish()
			oob := buildOOB(bitmap, data)
			ppn := r.arr.BlockPPN(0, 0, d.fc.BlocksPerChip-1, 0) // a block no log has opened
			r.arr.SetInjector(&firstProgram{v: v})
			if err := r.arr.ProgramPage(ppn, data, oob); err == nil {
				t.Errorf("verdict %d: program succeeded", v)
			}
			r.arr.SetInjector(nil)
			r.arr.PowerOn()
			stored, storedOOB, err := r.arr.ReadPage(ppn)
			if err != nil {
				t.Errorf("verdict %d: the consumed page: %v", v, err)
			} else if checkOOB(storedOOB, stored) {
				t.Errorf("verdict %d: the consumed page passes checkOOB", v)
			}
			if !checkOOB(oob, data) {
				t.Errorf("verdict %d: the caller's page no longer passes checkOOB", v)
			}
			typed := append([]byte(nil), oob...)
			typed[oobTypeOff] = 1
			if checkOOB(typed, data) {
				t.Errorf("verdict %d: a CRC-valid page of type 1 passes checkOOB", v)
			}
			d.Close()
		})
		r.e.Wait()
	}
}

// relocationCutImage is a crash between a GC relocation's program and its
// victim's erase: the victim's live records are on flash twice, under one
// sequence number each, and where a log has several chips the two copies sit
// on different ones. Everything is flushed, a snapshot pins old versions, and
// the collectors never wake by themselves (collectorsOff), so a device
// recovered from it stays exactly as Recover left it.
func relocationCutImage(t *testing.T, nLogs int) *crashImage {
	t.Helper()
	var img *crashImage
	collectorsOff(t)
	r := newRig(testFlashConfig(), func(c *Config) { c.NumLogs = nLogs })
	r.e.Go("test", func() {
		d := r.dev
		w := newScanLoad(t, d)
		w.put(80 * 8)
		if _, err := d.SnapshotNamespace(w.ns); err != nil {
			t.Fatalf("snapshot: %v", err)
		}
		w.put(120 * 8)
		d.Flush()
		// The victim: log 0's first full block on a chip the GC stream will
		// not open its next block on.
		lg := d.logs[0]
		lg.mu.Lock()
		victimChip, victimBlock := -1, -1
		for ci, lc := range lg.chips {
			if ci == lg.nextChip && len(lg.chips) > 1 {
				continue
			}
			ch, chip := lg.chipAddr(ci)
			for b := range lc.blocks {
				if victimChip < 0 && lc.blocks[b].sealed && r.arr.ProgrammedPages(r.arr.BlockPPN(ch, chip, b, 0)) == d.fc.PagesPerBlock {
					victimChip, victimBlock = ci, b
				}
			}
		}
		lg.mu.Unlock()
		if victimChip < 0 {
			t.Fatal("setup: log 0 has no full block to collect")
		}
		r.arr.SetInjector(&cutOnErase{})
		newCollector(d, lg).collectBlock(victimChip, victimBlock)
		if !d.crashed.Load() || d.Stats().GCCopies == 0 {
			t.Fatalf("setup: collecting the victim copied %d records and crashed=%v, want a cut at its erase",
				d.Stats().GCCopies, d.crashed.Load())
		}
		d.AwaitHalt()
		img = captureImage(t, d, r.arr)
		if n := len(img.nv.values); n != 0 {
			t.Fatalf("setup: %d values still in NVRAM after Flush", n)
		}
	})
	r.e.Wait()
	return img
}

// recovered is everything the recovery scan decides.
type recovered struct {
	versions   []versionAt     // every version the chains retain, sorted
	blocks     []blockMeta     // chip-major: [chip*BlocksPerChip+block]
	free       [][]int         // each chip's free list, in order
	resume     [][]appendPoint // each log's resume list, in order
	freeBlocks []int           // per log
	records    int64           // Stats().RecoveredRecords
}

type versionAt struct {
	root     uint32
	key, seq uint64
	loc      location
}

func (s *recovered) sortVersions() {
	slices.SortFunc(s.versions, func(a, b versionAt) int {
		return cmp.Or(cmp.Compare(a.root, b.root), cmp.Compare(a.key, b.key), cmp.Compare(a.seq, b.seq))
	})
}

// diff names the first thing two recovered states disagree on.
func (s *recovered) diff(o *recovered) string {
	switch {
	case reflect.DeepEqual(s, o):
		return ""
	case s.records != o.records || len(s.versions) != len(o.versions):
		return fmt.Sprintf("%d records in %d versions against %d in %d", s.records, len(s.versions), o.records, len(o.versions))
	case !reflect.DeepEqual(s.free, o.free) || !reflect.DeepEqual(s.freeBlocks, o.freeBlocks):
		return fmt.Sprintf("free lists %v (%v per log) against %v (%v)", s.free, s.freeBlocks, o.free, o.freeBlocks)
	case !reflect.DeepEqual(s.resume, o.resume):
		return fmt.Sprintf("resume lists %v against %v", s.resume, o.resume)
	}
	for i, v := range s.versions {
		if v != o.versions[i] {
			return fmt.Sprintf("version %+v against %+v", v, o.versions[i])
		}
	}
	perChip := len(s.blocks) / len(s.free)
	for i, b := range s.blocks {
		if b != o.blocks[i] {
			return fmt.Sprintf("chip %d block %d is %+v against %+v", i/perChip, i%perChip, b, o.blocks[i])
		}
	}
	return "something this function does not look at"
}

// recoveredOf reads the state of a device Recover has just returned.
func recoveredOf(dev *Device) *recovered {
	fc := dev.fc
	s := &recovered{
		blocks:  make([]blockMeta, fc.Chips()*fc.BlocksPerChip),
		free:    make([][]int, fc.Chips()),
		records: dev.Stats().RecoveredRecords,
	}
	for _, lg := range dev.logs {
		lg.mu.Lock()
		s.freeBlocks = append(s.freeBlocks, lg.freeBlocks)
		s.resume = append(s.resume, append([]appendPoint{}, lg.resume...))
		for _, lc := range lg.chips {
			copy(s.blocks[lc.global*fc.BlocksPerChip:], lc.blocks)
			s.free[lc.global] = append([]int{}, lc.freeList...)
		}
		lg.mu.Unlock()
	}
	dev.mu.RLock()
	for root, fam := range dev.families {
		fam.chains.Range(func(key uint64, v *hashindex.Version) bool {
			for ; v != nil; v = v.Prev() {
				s.versions = append(s.versions, versionAt{root, key, v.Seq, location(v.Loc())})
			}
			return true
		})
	}
	dev.mu.RUnlock()
	s.sortVersions()
	return s
}

// referenceScan is the scan as one actor ran it before there were readers
// per chip, reduced to what an image with nothing in NVRAM needs: walk the
// array in (log, chip, block, page, chunk) order, put each partial block on
// its log's resume list, and keep, per key and pin boundary, the newest
// record at or below the boundary — the first one met when a sequence is on
// flash twice. It is the reference the readers and the sorted join are held
// to. dups counts the sequences it met twice, apart of them on two chips.
func referenceScan(t *testing.T, img *crashImage) (s *recovered, dups, apart int) {
	t.Helper()
	fc, nLogs := img.fc, img.cfg.NumLogs
	programmed := make(map[flash.PPN][]imagePage) // by the block's first page
	for _, p := range img.pages {
		first := p.ppn - p.ppn%flash.PPN(fc.PagesPerBlock)
		programmed[first] = append(programmed[first], p)
	}
	bounds := make(map[uint32][]uint64) // per family root: its pins' cutoffs and its head, ascending
	for _, m := range img.nv.catalog {
		root := cmp.Or(m.origin, m.id)
		bounds[root] = append(bounds[root], m.cutoff)
	}
	for root, bs := range bounds {
		slices.Sort(bs)
		bounds[root] = slices.Compact(bs)
	}
	type keyOf struct {
		root uint32
		key  uint64
	}
	best := make(map[keyOf][]versionAt)
	seen := make(map[uint64]flash.PPN)
	s = &recovered{
		blocks:     make([]blockMeta, fc.Chips()*fc.BlocksPerChip),
		free:       make([][]int, fc.Chips()),
		resume:     make([][]appendPoint, nLogs),
		freeBlocks: make([]int, nLogs),
	}
	for lg := 0; lg < nLogs; lg++ {
		s.resume[lg] = []appendPoint{}
		for chip := lg; chip < fc.Chips(); chip += nLogs {
			s.free[chip] = []int{}
			for b := 0; b < fc.BlocksPerChip; b++ {
				first := flash.PPN((chip*fc.BlocksPerChip + b) * fc.PagesPerBlock)
				meta := &s.blocks[chip*fc.BlocksPerChip+b]
				switch {
				case img.nv.isRetired(first):
					meta.retired = true
					continue
				case len(programmed[first]) == 0:
					s.free[chip] = append(s.free[chip], b)
					s.freeBlocks[lg]++
					continue
				case len(programmed[first]) < fc.PagesPerBlock:
					s.resume[lg] = append(s.resume[lg], appendPoint{chip: chip / nLogs, block: b, page: len(programmed[first])})
				default:
					meta.sealed = true
				}
				for _, p := range programmed[first] {
					if !checkOOB(p.oob, p.data) {
						continue
					}
					placed, err := record.Parse(p.data, p.oob, chunkSize)
					if err != nil {
						t.Fatalf("reference parse ppn %d: %v", p.ppn, err)
					}
					for _, pl := range placed {
						rec := pl.Record
						if rec.Seq == 0 || img.nv.isAborted(rec.Seq) {
							continue
						}
						if at, twice := seen[rec.Seq]; twice {
							dups++
							if int(at)/fc.PagesPerChip() != chip {
								apart++
							}
						}
						seen[rec.Seq] = p.ppn
						k := keyOf{rec.Namespace, rec.Key}
						if best[k] == nil {
							best[k] = make([]versionAt, len(bounds[rec.Namespace]))
						}
						for i, bound := range bounds[rec.Namespace] {
							if rec.Seq <= bound && rec.Seq > best[k][i].seq {
								best[k][i] = versionAt{rec.Namespace, rec.Key, rec.Seq, flashLoc(p.ppn, pl.StartChunk, pl.NumChunks)}
							}
						}
					}
				}
			}
		}
	}
	for _, cands := range best {
		for i, v := range cands {
			if v.seq == 0 || i > 0 && v.seq == cands[i-1].seq {
				continue // nothing at or below this boundary, or the version below it again
			}
			s.versions = append(s.versions, v)
			bm := &s.blocks[int(v.loc.ppn())/fc.PagesPerBlock]
			bm.validBytes += int64(v.loc.nchunks() * chunkSize)
			bm.maxChunks = max(bm.maxChunks, v.loc.nchunks())
			s.records++
		}
	}
	s.sortVersions()
	return s, dups, apart
}

// Whichever reader runs when, recovery rebuilds what one actor walking the
// array would: every version's location, every block's accounting, every free
// and resume list — with sequences that are on flash twice, on two chips, to
// choose between.
func TestRecoveredStateSameWhateverSchedule(t *testing.T) {
	for _, nLogs := range scanNumLogs {
		t.Run(fmt.Sprintf("NumLogs=%d", nLogs), func(t *testing.T) {
			img := relocationCutImage(t, nLogs)
			want, dups, apart := referenceScan(t, img)
			partial := 0
			for _, r := range want.resume {
				partial += len(r)
			}
			t.Logf("%d pages, %d versions retained, %d sequences on flash twice (%d of them on two chips), %d partial blocks",
				len(img.pages), len(want.versions), dups, apart, partial)
			if dups == 0 || (apart == 0) != (nLogs == img.fc.Chips()) || partial == 0 {
				t.Fatalf("setup: %d sequences on flash twice, %d of them on two chips, %d partial blocks", dups, apart, partial)
			}
			for seed := int64(0); seed <= 5; seed++ {
				onEngine(seed, func(e *sim.Engine) {
					arr, ctrl, nv := img.load(t, e)
					dev, err := Recover(arr, ctrl, img.cfg, nv)
					if err != nil {
						t.Errorf("%s: recover: %v", scheduleName(seed), err)
						return
					}
					defer dev.Close()
					if diff := want.diff(recoveredOf(dev)); diff != "" {
						t.Errorf("%s: the reference scan and Recover disagree: %s", scheduleName(seed), diff)
					}
				})
			}
		})
	}
}

// A power cut in the middle of recovery — at its first read, or at an
// instant when every reader is busy — fails that recovery with the cut
// itself, leaves no reader behind, and costs nothing: the next recovery
// replays and rebuilds what an undisturbed one does.
func TestPowerCutDuringRecovery(t *testing.T) {
	for _, nLogs := range scanNumLogs {
		img, w := cutImage(t, nLogs, 3*8+5)
		var undisturbed Stats
		onEngine(0, func(e *sim.Engine) {
			arr, ctrl, nv := img.load(t, e)
			dev, err := Recover(arr, ctrl, img.cfg, nv)
			if err != nil {
				t.Fatalf("NumLogs=%d: undisturbed recover: %v", nLogs, err)
			}
			undisturbed = dev.Stats()
			dev.Close()
		})
		if undisturbed.ReplayedValues == 0 {
			t.Fatalf("NumLogs=%d setup: an undisturbed recovery replays no value", nLogs)
		}
		for _, cut := range []struct {
			name string
			plan func(now time.Duration) faultinject.Config
		}{
			{"at the first read", func(now time.Duration) faultinject.Config {
				return faultinject.Config{CutAtTime: now}
			}},
			{"mid-scan", func(now time.Duration) faultinject.Config {
				return faultinject.Config{CutAtTime: now + 500*time.Microsecond}
			}},
		} {
			for _, seed := range []int64{0, 1} {
				t.Run(fmt.Sprintf("NumLogs=%d/%s/%s", nLogs, cut.name, scheduleName(seed)), func(t *testing.T) {
					onEngine(seed, func(e *sim.Engine) {
						arr, ctrl, nv := img.load(t, e)
						arr.SetInjector(faultinject.New(cut.plan(e.Now())))
						dev, err := Recover(arr, ctrl, img.cfg, nv)
						if !errors.Is(err, flash.ErrPowerCut) {
							if err == nil {
								dev.Close()
							}
							t.Errorf("recovery with power cut %s returned %v, want flash.ErrPowerCut", cut.name, err)
							return
						}
						dev, err = Recover(arr, ctrl, img.cfg, nv)
						if err != nil {
							t.Errorf("second recover: %v", err)
							return
						}
						defer dev.Close()
						st := dev.Stats()
						if st.ReplayedValues != undisturbed.ReplayedValues || st.RecoveredRecords != undisturbed.RecoveredRecords {
							t.Errorf("after the cut recovery replayed %d values and rebuilt %d records, undisturbed %d and %d",
								st.ReplayedValues, st.RecoveredRecords, undisturbed.ReplayedValues, undisturbed.RecoveredRecords)
						}
						w.checkAll(dev)
					})
				})
			}
		}
	}
}

// Read faults during the scan: a read is retried, a page that stays unreadable
// is skipped and both are counted, by sixteen readers drawing from one fault
// plan. Recovery still succeeds, and nothing whose acknowledged value was
// still in NVRAM is lost.
func TestRecoveryScanRidesOutReadFaults(t *testing.T) {
	for _, nLogs := range scanNumLogs {
		img, w := cutImage(t, nLogs, 3*8+5)
		inNVRAM := make(map[uint64]bool)
		for _, e := range img.nv.values {
			if bytes.Equal(e.val, w.last[e.key]) {
				inNVRAM[e.key] = true
			}
		}
		if len(inNVRAM) == 0 {
			t.Fatalf("NumLogs=%d setup: no key's last acknowledged value is in NVRAM at the cut", nLogs)
		}
		for _, seed := range []int64{0, 1} {
			t.Run(fmt.Sprintf("NumLogs=%d/%s", nLogs, scheduleName(seed)), func(t *testing.T) {
				onEngine(seed, func(e *sim.Engine) {
					arr, ctrl, nv := img.load(t, e)
					// Three reads in five fail: one page in thirteen fails all five.
					plan := faultinject.New(faultinject.Config{Seed: 1, ReadFailProb: 0.6})
					arr.SetInjector(plan)
					dev, err := Recover(arr, ctrl, img.cfg, nv)
					if err != nil {
						t.Errorf("recover: %v", err)
						return
					}
					defer dev.Close()
					plan.SetProbs(0, 0, 0)
					st := dev.Stats()
					t.Logf("%d pages scanned: %d reads retried, %d pages skipped", st.RecoveryScannedPages, st.ReadRetries, st.TornPagesSkipped)
					if st.ReadRetries == 0 || st.TornPagesSkipped == 0 {
						t.Errorf("%d reads retried and %d pages skipped, want some of each", st.ReadRetries, st.TornPagesSkipped)
					}
					for key := range inNVRAM {
						if got, err := dev.Get(w.ns, key); err != nil || !bytes.Equal(got, w.last[key]) {
							t.Errorf("key %d, acknowledged and still in NVRAM at the cut, reads back wrong: %v", key, err)
						}
					}
				})
			})
		}
	}
}

// opCount counts the operations the array is asked for, by kind, and hands
// each to next (nil: every one succeeds).
type opCount struct {
	n    [3]atomic.Int64 // by flash.Op
	next flash.Injector
}

func (c *opCount) Decide(op flash.Op, p flash.PPN, now time.Duration) flash.Verdict {
	c.n[op].Add(1)
	if c.next == nil {
		return flash.VerdictOK
	}
	return c.next.Decide(op, p, now)
}

// Recovery reads the array and writes nothing to it: across Recover — the
// scan, the join, the actors' start, and the replay of a few values into an
// open page — the array is asked for no program and no erase, and neither
// is it by a recovery that power fails mid-scan.
func TestRecoveryWritesNothing(t *testing.T) {
	for _, nLogs := range scanNumLogs {
		img, w := cutImage(t, nLogs, 5)
		for _, cut := range []bool{false, true} {
			t.Run(fmt.Sprintf("NumLogs=%d/cut=%v", nLogs, cut), func(t *testing.T) {
				onEngine(1, func(e *sim.Engine) {
					arr, ctrl, nv := img.load(t, e)
					ops := &opCount{}
					if cut {
						ops.next = faultinject.New(faultinject.Config{CutAtTime: e.Now() + 500*time.Microsecond})
					}
					arr.SetInjector(ops)
					dev, err := Recover(arr, ctrl, img.cfg, nv)
					reads, programs, erases := ops.n[flash.OpRead].Load(), ops.n[flash.OpProgram].Load(), ops.n[flash.OpErase].Load()
					if err == nil {
						defer dev.Close()
					}
					if cut != errors.Is(err, flash.ErrPowerCut) {
						t.Errorf("recover: %v", err)
						return
					}
					if programs != 0 || erases != 0 || reads == 0 {
						t.Errorf("recovery asked the array for %d reads, %d programs and %d erases, want reads only", reads, programs, erases)
					}
					if cut {
						return
					}
					if st := dev.Stats(); st.ReplayedValues == 0 || st.RecoveryScannedPages != reads {
						t.Errorf("setup: %d values replayed and %d pages scanned in %d reads, want some and one read a page",
							st.ReplayedValues, st.RecoveryScannedPages, reads)
					}
					w.checkAll(dev)
				})
			})
		}
	}
}

// A partial block is resumed, not padded: each log's first seal after
// recovery lands on the first unprogrammed page of the first block on its
// resume list, holding values the recovery replayed, and no erased block is
// opened for it.
func TestFirstSealResumesPartialBlock(t *testing.T) {
	for _, nLogs := range scanNumLogs {
		img, w := cutImage(t, nLogs, 3*8+5)
		want, _, _ := referenceScan(t, img) // the allocator as the array left it
		onEngine(1, func(e *sim.Engine) {
			arr, ctrl, nv := img.load(t, e)
			dev, err := Recover(arr, ctrl, img.cfg, nv)
			if err != nil {
				t.Errorf("NumLogs=%d: recover: %v", nLogs, err)
				return
			}
			defer dev.Close()
			dev.Flush() // the replayed values leave NVRAM
			sealing := 0
			for i, lg := range dev.logs {
				lg.mu.Lock()
				sealed := lg.pageSeq
				free := make([][]int, len(lg.chips))
				for ci, lc := range lg.chips {
					free[ci] = slices.Clone(lc.freeList)
				}
				freeBlocks := lg.freeBlocks
				lg.mu.Unlock()
				if sealed == 0 {
					continue
				}
				sealing++
				if len(want.resume[i]) == 0 {
					t.Errorf("NumLogs=%d setup: log %d sealed %d pages and had no block to resume", nLogs, i, sealed)
					return
				}
				ap := want.resume[i][0]
				ch, chip := lg.chipAddr(ap.chip)
				ppn := arr.BlockPPN(ch, chip, ap.block, ap.page)
				data, oob, err := arr.ReadPage(ppn)
				if err != nil {
					t.Errorf("NumLogs=%d: log %d's first seal is not on page %d of chip %d block %d: %v", nLogs, i, ap.page, ap.chip, ap.block, err)
					continue
				}
				placed, err := record.Parse(data, oob, chunkSize)
				if err != nil || len(placed) == 0 {
					t.Errorf("NumLogs=%d: log %d's resumed page holds %d records (%v)", nLogs, i, len(placed), err)
				}
				for _, pl := range placed {
					if _, replayed := img.nv.values[pl.Record.Seq]; !replayed {
						t.Errorf("NumLogs=%d: log %d's resumed page holds seq %d, which recovery did not replay", nLogs, i, pl.Record.Seq)
					}
				}
				for ci, lc := range lg.chips {
					if !slices.Equal(free[ci], want.free[lc.global]) {
						t.Errorf("NumLogs=%d: chip %d's free list is %v after the seal, %v before: an erased block was opened",
							nLogs, lc.global, free[ci], want.free[lc.global])
					}
				}
				if freeBlocks != want.freeBlocks[i] {
					t.Errorf("NumLogs=%d: log %d has %d free blocks after the seal, %d before", nLogs, i, freeBlocks, want.freeBlocks[i])
				}
			}
			if sealing == 0 {
				t.Errorf("NumLogs=%d setup: no log sealed a page after recovery", nLogs)
			}
			w.checkAll(dev)
		})
	}
}

// resumedCutImage is two cuts in a row: an ordinary cut, a recovery, more
// load flushed into the blocks that recovery resumed, and a second cut with
// nothing left in NVRAM. The collectors never wake (collectorsOff), so a
// device recovered from it stays as Recover left it.
func resumedCutImage(t *testing.T, nLogs int) (*crashImage, *scanLoad) {
	t.Helper()
	var img *crashImage
	var w *scanLoad
	collectorsOff(t)
	r := newRig(testFlashConfig(), func(c *Config) { c.NumLogs = nLogs })
	r.e.Go("test", func() {
		w = newScanLoad(t, r.dev)
		w.put(100 * 8)
		r.dev.Flush()
		w.put(3*8 + 5)
		r.dev.PowerFail()
		r.dev.AwaitHalt()
		// The partial blocks the recovery will resume, and how far each is
		// programmed.
		partial := make(map[flash.PPN]int)
		fc := r.dev.fc
		for first := flash.PPN(0); int(first) < fc.TotalPages(); first += flash.PPN(fc.PagesPerBlock) {
			if n := r.arr.ProgrammedPages(first); n > 0 && n < fc.PagesPerBlock {
				partial[first] = n
			}
		}
		dev, err := Recover(r.arr, r.ctrl, r.dev.Config(), r.dev.NVRAM())
		if err != nil {
			t.Errorf("first recover: %v", err)
			return
		}
		w.dev = dev
		w.put(16 * 8)
		dev.Flush()
		grew := 0
		for first, n := range partial {
			if r.arr.ProgrammedPages(first) > n {
				grew++
			}
		}
		dev.PowerFail()
		dev.AwaitHalt()
		if grew == 0 {
			t.Errorf("setup: none of %d resumed blocks took another page", len(partial))
			return
		}
		img = captureImage(t, dev, r.arr)
		if n := len(img.nv.values); n != 0 {
			t.Errorf("setup: %d values still in NVRAM after Flush", n)
			img = nil
		}
	})
	r.e.Wait()
	if img == nil {
		t.FailNow()
	}
	return img, w
}

// Two crashes in a row, the second after a resumed block has taken more
// pages: the second recovery rebuilds what one actor walking the array
// would, whichever reader runs when, and every acknowledged value reads back.
func TestSecondCrashAfterResumedBlock(t *testing.T) {
	for _, nLogs := range scanNumLogs {
		t.Run(fmt.Sprintf("NumLogs=%d", nLogs), func(t *testing.T) {
			img, w := resumedCutImage(t, nLogs)
			want, _, _ := referenceScan(t, img)
			for seed := int64(0); seed <= 5; seed++ {
				onEngine(seed, func(e *sim.Engine) {
					arr, ctrl, nv := img.load(t, e)
					dev, err := Recover(arr, ctrl, img.cfg, nv)
					if err != nil {
						t.Errorf("%s: recover: %v", scheduleName(seed), err)
						return
					}
					defer dev.Close()
					if diff := want.diff(recoveredOf(dev)); diff != "" {
						t.Errorf("%s: the reference scan and Recover disagree: %s", scheduleName(seed), diff)
					}
					w.checkAll(dev)
				})
			}
		})
	}
}

// sortScan is scanOrder, whatever the keys look like: namespaces that differ,
// keys that differ in any byte or share all but the lowest, sequences on flash
// twice and in NVRAM too, runs on both sides of the radix cutoff.
func TestSortScanIsScanOrder(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 31, 33, 1000, 20000} {
		recs := make([]scanRec, n)
		for i := range recs {
			rec := scanRec{ns: uint32(r.Intn(3)) << (8 * r.Intn(4)), log: uint32(r.Intn(4)), seq: uint64(r.Intn(64))}
			switch r.Intn(3) {
			case 0:
				rec.key = r.Uint64()
			case 1:
				rec.key = uint64(r.Intn(300))
			default:
				rec.key = 1<<40 + uint64(r.Intn(4))
			}
			rec.loc = flashLoc(flash.PPN(r.Intn(1<<16)), r.Intn(64), 1)
			if r.Intn(8) == 0 {
				rec.log, rec.loc = nvramScanLog, nvramLoc(rec.seq)
			}
			recs[i] = rec
		}
		want := slices.Clone(recs)
		slices.SortFunc(want, scanOrder)
		sortScan(recs, 11)
		if !slices.Equal(recs, want) {
			t.Errorf("%d records: sortScan and scanOrder disagree", n)
		}
	}
}

// A value still in NVRAM whose page reached flash — the cut fell between the
// page's program and its install — is durable already: the join keeps the
// flash copy and credits its block, and finishes the NVRAM value instead of
// replaying it.
func TestNVRAMValueAlreadyOnFlashIsFinished(t *testing.T) {
	for _, nLogs := range scanNumLogs {
		img, w := cutImage(t, nLogs, 0)
		want, _, _ := referenceScan(t, img)
		onEngine(1, func(e *sim.Engine) {
			arr, ctrl, nv := img.load(t, e)
			// Every key's newest version back in NVRAM, as if not yet installed.
			for i, v := range want.versions {
				if next := i + 1; next < len(want.versions) && want.versions[next].root == v.root && want.versions[next].key == v.key {
					continue
				}
				nv.values[v.seq] = nvEntry{ns: v.root, key: v.key, val: slices.Clone(w.last[v.key])}
				nv.staged.Add(1)
			}
			staged := len(nv.values)
			if staged == 0 {
				t.Errorf("NumLogs=%d setup: no version to put back in NVRAM", nLogs)
				return
			}
			dev, err := Recover(arr, ctrl, img.cfg, nv)
			if err != nil {
				t.Errorf("NumLogs=%d: recover: %v", nLogs, err)
				return
			}
			defer dev.Close()
			if n := dev.Stats().ReplayedValues; n != 0 || len(nv.values) != 0 {
				t.Errorf("NumLogs=%d: of %d values also on flash, %d replayed and %d left in NVRAM, want none",
					nLogs, staged, n, len(nv.values))
			}
			if diff := want.diff(recoveredOf(dev)); diff != "" {
				t.Errorf("NumLogs=%d: the reference scan and Recover disagree: %s", nLogs, diff)
			}
			w.checkAll(dev)
		})
	}
}

// Ordered probing makes the mapping table's layout a function of its key
// set, so the table recovery rebuilds in its own order is the one the device
// had at the cut: every key's Get costs the probes it cost before. (Plain
// linear probing places a key by insertion order, and the rebuild moved
// them.)
func TestRecoveredIndexProbesAsBefore(t *testing.T) {
	const keys = 700 // load 0.68 of the 1024-slot table: long clusters
	r := newRig(testFlashConfig(), nil)
	r.e.Go("test", func() {
		ns, err := r.dev.CreateNamespace(NamespaceAttrs{IndexCapacity: 1024})
		if err != nil {
			t.Error(err)
			return
		}
		order := rand.New(rand.NewSource(3)).Perm(keys)
		for i := 0; i < keys; i += 8 {
			batch := make([]PutRecord, 0, 8)
			for _, k := range order[i:min(i+8, keys)] {
				batch = append(batch, PutRecord{Namespace: ns, Key: uint64(k), Value: val(uint64(k), 64)})
			}
			if err := r.dev.Put(batch); err != nil {
				t.Errorf("put: %v", err)
				return
			}
		}
		probes := func(dev *Device) []int {
			p := make([]int, keys)
			for k := range p {
				_, p[k] = dev.namespaces[ns].fam.chains.Lookup(uint64(k))
			}
			return p
		}
		before := probes(r.dev)
		dev2, err := powerCycle(r.dev, r.arr, r.ctrl)
		if err != nil {
			t.Errorf("recover: %v", err)
			return
		}
		defer dev2.Close()
		after, moved := probes(dev2), 0
		for k := range before {
			if before[k] != after[k] {
				if moved < 5 {
					t.Errorf("key %d: %d probes before the cut, %d after recovery", k, before[k], after[k])
				}
				moved++
			}
		}
		if moved > 0 {
			t.Errorf("%d of %d keys changed probe count across recovery", moved, keys)
		}
	})
	r.e.Wait()
}
