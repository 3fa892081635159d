package kamlssd

import (
	"errors"
	"fmt"
	"time"

	"github.com/kaml-ssd/kaml/internal/flash"
	"github.com/kaml-ssd/kaml/internal/record"
	"github.com/kaml-ssd/kaml/internal/sim"
)

// collector is one log's garbage collector (§IV-E): an actor that sleeps
// until its log falls below its low watermark and then reclaims victims until
// the log is back at its high one, concurrently with the other logs'
// collectors.
// Beside the loop it owns the scratch a collection needs — the prune pass's
// lists, the scan's record lists, the relocation packer — for life, so a
// collection allocates only what it hands to others: the relocation pages,
// which go to flash as they are.
type collector struct {
	d  *Device
	lg *logState

	// Prune-pass scratch (pruneFamilies).
	fams []*family
	keep []bool
	pins []uint64

	// Per-victim scratch: the scan's readers, each with the records of the
	// page it parses and the live records it found, where each page's live
	// records end in its reader's list (pageEnd, by victim page), the scan's
	// live records in page order (live), the records of the relocation page
	// being filled (group), and its packer. Parsed and live records alias the
	// victim's pages (record.AppendParsed): the only copy of a value is the
	// one relocation packs. The readers are actors named scanName, scanned
	// waits for them, and each publishes a page's records under mu and
	// signals pageRead, which the collector waits on for the next page it
	// relocates (awaitPage).
	readers  [readersPerChip]victimReader
	nReaders int // readers of the current victim
	pageEnd  []int
	mu       *sim.Mutex
	pageRead *sim.Cond
	scanned  *sim.WaitGroup
	scanName string
	live     []gcRecord
	group    []gcRecord
	packer   *record.Packer
}

// victimReader is one reader of a victim scan: it reads every n-th page of
// the victim from page first, and lists the live records on them in page
// order. It fills its list in a copy of its own and publishes the list under
// collector.mu at each page's end, with next and, when it stops early, err.
type victimReader struct {
	placed []record.Placed
	live   []gcRecord
	next   int           // the next page of its share: the pages before it are listed
	err    error         // the read that ended the scan early: a power cut or a persistent read error
	end    time.Duration // when it published its last page (telemetry only)
}

func newCollector(d *Device, lg *logState) *collector {
	mu := d.eng.NewMutex(fmt.Sprintf("kaml-gc%d", lg.id))
	return &collector{d: d, lg: lg, packer: record.NewPacker(d.fc.PageSize, chunkSize),
		pageEnd: make([]int, d.fc.PagesPerBlock), mu: mu, pageRead: d.eng.NewCond(mu),
		scanned: d.eng.NewWaitGroup(), scanName: fmt.Sprintf("kaml-gc%d.scan", lg.id)}
}

// gcStopped reports whether the collectors should exit. They outlive Close
// until every flusher has drained — the final flushes may need a block
// freed — so the last flusher to exit wakes them (flusherLoop); a crash stops
// them at once.
func (d *Device) gcStopped() bool {
	return d.crashed.Load() || (d.closed.Load() && d.flushersLive.Load() == 0)
}

// loop is the collector actor. Nothing in it ticks: it blocks on the log's
// gcCv, which openBlock signals when a block opened takes the log below the
// low watermark, gcRetry when a starved log may have a victim again, and
// shutdown. The predicate is tested before the first wait, because a log can
// come up below its watermark (Recover rebuilds the free lists from what is
// programmed, and opens no block) or end a cycle there, and then nobody
// would ever signal it.
func (c *collector) loop() {
	d, lg := c.d, c.lg
	defer d.stopped.Done()
	for {
		lg.mu.Lock()
		for !d.gcStopped() && (lg.freeBlocks >= d.gcLow || lg.gcStarved) {
			lg.gcCv.WaitIdle()
		}
		lg.mu.Unlock()
		if d.gcStopped() {
			return
		}
		d.ctr.gcActive.Add(1)
		// One prune pass per wake-up, before the first victim is chosen:
		// versions no pin can see release their flash space, which is what
		// lets the victim scoring below find them as garbage (snapshot-aware
		// GC, DESIGN.md §14).
		c.pruneFamilies()
		for {
			lg.mu.Lock()
			chipIdx, block, readers, ok := c.pick()
			lg.mu.Unlock()
			if !ok {
				break
			}
			if d.tel != nil {
				start := d.eng.NowCheap()
				c.collectBlock(chipIdx, block, readers)
				d.gcPause.ObserveDuration(d.eng.NowCheap() - start)
			} else {
				c.collectBlock(chipIdx, block, readers)
			}
		}
		d.ctr.gcActive.Add(-1)
	}
}

// pick is one step of a collection cycle: it ends the last victim's claim on
// its chip and, while the log is below its high watermark, picks the next
// victim (victim) and claims its chip, so no block of the log opens beside it
// (busyChip). The victim is scanned with readers reads in flight: two on a
// chip no host stream of the log has its open block on, where a second read
// delays nobody but the scan, one on a chip the flusher programs (scan).
// A victim whose relocation fits in the GC stream's open block
// (relocationPages) is covered (gcCovered): its collection takes no free
// block, so the pick wakes a flusher waiting for one, which may take the
// reserve's second block now (hostReserve).
// Reports false when the cycle is over: the log is back at its high
// watermark, the power is off, or no block is worth collecting — then the
// collector parks until gcRetry says the answer may have changed, set under
// the same hold of lg.mu as the search, so no such event can fall between.
// Called with lg.mu held.
func (c *collector) pick() (chipIdx, block, readers int, ok bool) {
	d, lg := c.d, c.lg
	lg.victimChip, lg.gcCovered = noChip, false
	if lg.freeBlocks >= d.gcHigh || d.crashed.Load() {
		return 0, 0, 0, false
	}
	chipIdx, block, ok = d.victim(lg)
	lg.gcStarved = !ok
	switch {
	case !ok:
		return 0, 0, 0, false
	case lg.hostChip(chipIdx):
		d.ctr.gcVictimsHost.Inc()
		readers = 1
	default:
		d.ctr.gcVictimsOther.Inc()
		readers = readersPerChip
	}
	lg.victimChip = chipIdx
	if gc := lg.active[streamGC]; gc != nil &&
		d.relocationPages(&lg.chips[chipIdx].blocks[block]) <= d.fc.PagesPerBlock-gc.page {
		lg.gcCovered = true
		lg.freeCv.Broadcast()
	}
	return chipIdx, block, readers, true
}

// victim picks the block to collect among the sealed blocks whose collection
// may free anything: not marked noGain, and whose valid bytes fill fewer
// pages than a block holds (frees, on the lower bound of the pages its live
// records pack into). The paper's pick is the lowest combined score of valid
// bytes and erase count ("low erase counts and small amounts of valid
// data", §IV-E). A victim's scan, relocation reads and erase hold its chip,
// and this log's flusher programs the chips its host streams have open
// blocks on, so a victim on one of those stalls the log's own programs:
// when a candidate sits on a chip with no host stream's open block and has
// no more erases than the paper's pick, the collector takes the best-scoring
// such candidate instead. Otherwise — every candidate on a host chip, as on
// a log with one chip, or none as little worn — it takes the paper's pick.
// Called with lg.mu held.
func (d *Device) victim(lg *logState) (chipIdx, block int, ok bool) {
	pageSize := int64(d.fc.PageSize)
	// candidate returns block b of chip ci's score and erase count, and
	// whether it may be collected at all.
	candidate := func(ci, b int, erases int64) (score int64, ok bool) {
		bm := &lg.chips[ci].blocks[b]
		if !bm.sealed || bm.retired || bm.noGain || !d.frees(int((bm.validBytes+pageSize-1)/pageSize)) {
			return 0, false
		}
		ch, chip := lg.chipAddr(ci)
		// A block is sealed when its last page is *allocated*. Queued
		// pages take their address only when the flusher dequeues them,
		// so the one host page allocated but not yet programmed is the
		// flusher's in-flight page; erasing its block now would destroy
		// it. Only fully-programmed blocks qualify.
		first := d.arr.BlockPPN(ch, chip, b, 0)
		if d.arr.ProgrammedPages(first) < d.fc.PagesPerBlock {
			return 0, false
		}
		// The flusher may have finished programming the block's last
		// page but not yet installed its index entries; collecting now
		// could erase a page that is about to become live. That page is
		// its in-flight one.
		if lg.inflight.data != nil {
			a := d.arr.Decode(lg.inflight.ppn)
			if a.Channel == ch && a.Chip == chip && a.Block == b {
				return 0, false
			}
		}
		return bm.validBytes + erases*int64(chunkSize)*4, true
	}
	best := int64(1) << 62
	var bestErases int64
	wearMin, wearMax := int64(1)<<62, int64(-1)
	for ci, lc := range lg.chips {
		ch, chip := lg.chipAddr(ci)
		for b := range lc.blocks {
			if lc.blocks[b].retired {
				continue
			}
			// The same erase counters refresh the log's wear-spread gauges
			// while we are already walking every block.
			e := int64(d.arr.EraseCount(d.arr.BlockPPN(ch, chip, b, 0)))
			wearMin, wearMax = min(wearMin, e), max(wearMax, e)
			if score, cand := candidate(ci, b, e); cand && score < best {
				best, bestErases = score, e
				chipIdx, block, ok = ci, b, true
			}
		}
	}
	if wearMax >= 0 {
		lg.wearMin.Set(wearMin)
		lg.wearMax.Set(wearMax)
	}
	if !ok || !lg.hostChip(chipIdx) {
		return chipIdx, block, ok
	}
	best = int64(1) << 62
	for ci, lc := range lg.chips {
		if lg.hostChip(ci) {
			continue
		}
		ch, chip := lg.chipAddr(ci)
		for b := range lc.blocks {
			e := int64(d.arr.EraseCount(d.arr.BlockPPN(ch, chip, b, 0)))
			if score, cand := candidate(ci, b, e); cand && e <= bestErases && score < best {
				best = score
				chipIdx, block = ci, b
			}
		}
	}
	return chipIdx, block, ok
}

// hostChip reports whether one of the log's host streams has its open block
// on chip ci (an index into lg.chips): the chips the flusher programs next.
// Called with lg.mu held.
func (lg *logState) hostChip(ci int) bool {
	for s := 0; s < numHostStreams; s++ {
		if ap := lg.active[s]; ap != nil && ap.chip == ci {
			return true
		}
	}
	return false
}

// gcRecord is a still-valid record found in a victim block.
type gcRecord struct {
	rec      record.Record
	oldLoc   location
	newChunk int
}

// A collection's phases, observed in kaml_gc_phase_seconds for each victim
// that is relocated: the scan from the pick to its last page read, what
// relocation took after that (the part the pipeline did not hide behind the
// scan), and the erase.
const (
	phaseScan = iota
	phaseRelocate
	phaseErase
	numGCPhases
)

var gcPhaseNames = [numGCPhases]string{"scan", "relocate", "erase"}

// collectBlock scans one victim block with readers reads in flight,
// relocates its live data, erases it, and returns it to the log's free list,
// waking the writers that wait for one. When the log can keep the scan and
// the relocation apart and the victim is known to free a page (pipelines),
// each page's live records are relocated as soon as the page is read, so the
// GC stream programs while the victim's later pages are still being read.
// Otherwise the whole victim is scanned first (scan), and a victim whose live
// records would program as many pages as its erase returns is left unerased
// and marked noGain, so every collection frees at least a page. Called with
// no locks held; every index check and install takes namespace locks per
// record.
func (c *collector) collectBlock(chipIdx, block, readers int) {
	d, lg := c.d, c.lg
	ch, chip := lg.chipAddr(chipIdx)
	var start time.Duration
	if d.tel != nil {
		start = d.eng.NowCheap()
	}
	lg.mu.Lock()
	overlap := lg.pipelines(chipIdx, block)
	lg.mu.Unlock()
	defer c.endScan()
	if overlap {
		c.startScan(ch, chip, block, readers)
		for page := range d.fc.PagesPerBlock {
			recs, ok := c.awaitPage(page)
			if !ok || c.relocate(recs) != nil {
				return // the victim must not be erased
			}
		}
	} else {
		live, ok := c.scan(ch, chip, block, readers)
		if !ok {
			return // the victim must not be erased
		}
		if pages, bytes := gcPagesNeeded(d, live); !d.frees(pages) {
			lg.mu.Lock()
			// A version that died during the scan was counted live, and its
			// discount, which clears the mark, has already come: leave the
			// block unmarked for the next pick to scan again.
			bm := &lg.chips[chipIdx].blocks[block]
			bm.noGain = bm.validBytes >= bytes
			lg.mu.Unlock()
			return
		}
		if c.relocate(live) != nil {
			return // power cut mid-relocation: the victim must not be erased
		}
	}
	if c.flush() != nil {
		return
	}
	if d.tel != nil {
		scanned, now := c.scanEnd(), d.eng.NowCheap()
		d.gcPhase[phaseScan].ObserveDuration(scanned - start)
		d.gcPhase[phaseRelocate].ObserveDuration(now - scanned)
		start = now
	}

	first := d.arr.BlockPPN(ch, chip, block, 0)
	err := d.arr.EraseBlock(first)
	if errors.Is(err, flash.ErrPowerCut) {
		d.noticePowerLoss()
		return
	}
	if d.tel != nil {
		d.gcPhase[phaseErase].ObserveDuration(d.eng.NowCheap() - start)
	}
	if err != nil {
		// Erase failure: take the block out of service permanently. The
		// retirement is recorded in NVRAM so recovery never reuses it.
		lg.mu.Lock()
		lg.chips[chipIdx].blocks[block].retired = true
		lg.chips[chipIdx].blocks[block].sealed = false
		lg.mu.Unlock()
		d.nvMu.Lock()
		d.nv.retireBlock(first)
		d.nvMu.Unlock()
		d.ctr.blocksRetired.Inc()
		lg.gcErases.Inc()
		return
	}
	lg.gcErases.Inc()
	d.nvMu.Lock()
	erased := d.nv.nvSeq
	d.nvMu.Unlock()
	lg.mu.Lock()
	lg.gcCovered = false // the erase returns what a covered take borrowed
	bm := &lg.chips[chipIdx].blocks[block]
	lg.learnHotLife(bm, erased)
	bm.sealed = false
	bm.validBytes, bm.maxChunks = 0, 0
	retire := bm.progFailed > 0
	if retire {
		// The block ate at least one program during its last life; retire
		// it rather than risk further failures (conservative bad-block
		// policy — the erase itself succeeded).
		bm.retired = true
		bm.progFailed = 0
	} else {
		lg.chips[chipIdx].free = append(lg.chips[chipIdx].free, block)
		lg.freeBlocks++
		lg.freeCv.Broadcast()
	}
	lg.mu.Unlock()
	if retire {
		d.nvMu.Lock()
		d.nv.retireBlock(first)
		d.nvMu.Unlock()
		d.ctr.blocksRetired.Inc()
	}
}

// pipelines reports whether the collector may relocate victim block of chip
// ci page by page while the scan reads on. Three gates, each for a measured
// reason:
//   - the log has more chips than streams, so its jobs keep to chips of
//     their own (openBlock); on a smaller log an overlap's programs land
//     beside the scan and the flusher, and the records it copies early are
//     more often rewritten before the victim would have been scanned;
//   - the GC stream has its open block on another chip than the victim, or
//     its programs would only queue behind the scan's reads;
//   - twice the victim's valid bytes fit in one page less than a block: a
//     next-fit packing programs fewer than 2 x bytes / PageSize + 1 pages
//     (any two pages in a row hold more than a page's bytes), so the
//     collection frees a page whatever the scan finds, and nothing it
//     programs can be for a victim that gcPagesNeeded would have kept
//     (noGain). Valid bytes bound the live records the scan can find: no
//     record becomes live on a sealed, fully programmed block.
//
// Called with lg.mu held.
func (lg *logState) pipelines(ci, block int) bool {
	fc := &lg.d.fc
	gc := lg.active[streamGC]
	return len(lg.chips) > numStreams && gc != nil && gc.chip != ci &&
		2*lg.chips[ci].blocks[block].validBytes <= int64(fc.PagesPerBlock-1)*int64(fc.PageSize)
}

// startScan starts the readers of a victim block: readers actors, each
// reading every readers-th page (readPages). A read is a sense that holds
// the chip, then a transfer that holds the channel: with readers =
// readersPerChip one page senses while the one before it transfers, as
// recovery's scan reads, so the chip senses without a break. The collector
// asks for that only on a chip no flusher of its log programs; on one that a
// flusher does, the scan reads one page at a time, so a flusher's program
// waits behind at most one read. The collector itself reads nothing: it
// relocates, and waits for pages with awaitPage or scan.
func (c *collector) startScan(ch, chip, block, readers int) {
	c.nReaders = readers
	for r := range readers {
		c.readers[r].next = r
		c.scanned.Add(1)
		c.d.eng.Go(c.scanName, func() {
			defer c.scanned.Done()
			c.readPages(&c.readers[r], ch, chip, block, r, readers)
		})
	}
}

// scan reads every page of a victim block with readers reads in flight
// (startScan) and returns the live records on them, in page order. Reports
// false when a read failed for good: erasing then could destroy live records
// the scan never saw, so the victim is abandoned and a later pass retries it.
func (c *collector) scan(ch, chip, block, readers int) ([]gcRecord, bool) {
	c.startScan(ch, chip, block, readers)
	c.scanned.Wait()
	if c.failed() {
		return nil, false
	}
	live := c.live[:0]
	for page := range c.d.fc.PagesPerBlock {
		live = append(live, c.pageRecords(page)...)
	}
	c.live = live
	return live, true
}

// awaitPage waits until the victim's page has been read and returns the live
// records on it. Reports false as soon as any reader has stopped on a read
// that failed for good: the collection is abandoned, and what it relocated
// so far stays relocated.
func (c *collector) awaitPage(page int) ([]gcRecord, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rd := &c.readers[page%c.nReaders]
	for rd.next <= page && !c.failed() {
		c.pageRead.Wait()
	}
	if c.failed() {
		return nil, false
	}
	return c.pageRecords(page), true
}

// failed reports whether a reader of the current victim stopped on a failed
// read. Called with c.mu held, or once the readers have exited.
func (c *collector) failed() bool {
	for _, rd := range c.readers[:c.nReaders] {
		if rd.err != nil {
			return true
		}
	}
	return false
}

// pageRecords is the live records of a victim page its reader has listed.
// Called with c.mu held, or once the readers have exited.
func (c *collector) pageRecords(page int) []gcRecord {
	from := 0
	if page >= c.nReaders {
		from = c.pageEnd[page-c.nReaders]
	}
	return c.readers[page%c.nReaders].live[from:c.pageEnd[page]]
}

// scanEnd is when the current victim's last page was read. Called once every
// page has been.
func (c *collector) scanEnd() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	var end time.Duration
	for _, rd := range c.readers[:c.nReaders] {
		end = max(end, rd.end)
	}
	return end
}

// endScan ends a collection: it waits for the readers to exit, notices a
// power cut one of them met, and empties the scratch. It keeps the lists'
// storage, not what they point at: a parked collector must not pin a
// victim's worth of page images. A relocation page left half packed by an
// abandoned collection is dropped; its records are still on the victim.
func (c *collector) endScan() {
	c.scanned.Wait()
	for r := range c.readers {
		rd := &c.readers[r]
		if errors.Is(rd.err, flash.ErrPowerCut) {
			c.d.noticePowerLoss()
		}
		clear(rd.placed[:cap(rd.placed)]) // each page re-slices it: clear past len
		clear(rd.live)
		rd.live, rd.err, rd.next, rd.end = rd.live[:0], nil, 0, 0
	}
	clear(c.live)
	c.live = c.live[:0]
	clear(c.group[:cap(c.group)])
	c.group = c.group[:0]
	if !c.packer.Empty() {
		c.packer.Finish()
	}
}

// readPages is one reader of a victim scan: it reads pages first, first+n,
// ... of the block and lists the records still live on them, stopping at a
// power cut or a page unreadable after every retry (rd.err). It publishes
// each page's records as soon as it has parsed them.
func (c *collector) readPages(rd *victimReader, ch, chip, block, first, n int) {
	d := c.d
	live := rd.live
	for page := first; page < d.fc.PagesPerBlock; page += n {
		ppn := d.arr.BlockPPN(ch, chip, block, page)
		var data, oob []byte
		var err error
		for tries := 0; ; tries++ {
			data, oob, err = d.arr.ReadPage(ppn)
			if err == nil || !errors.Is(err, flash.ErrInjectedFailure) || tries >= maxReadRetries {
				break
			}
			d.ctr.readRetries.Inc()
		}
		if errors.Is(err, flash.ErrPowerCut) || errors.Is(err, flash.ErrInjectedFailure) {
			c.mu.Lock()
			rd.err = err
			c.pageRead.Signal()
			c.mu.Unlock()
			return
		}
		// An unwritten page, or a torn or garbage one, carries nothing live.
		if err == nil && checkOOB(oob, data) {
			var perr error
			rd.placed, perr = record.AppendParsed(rd.placed[:0], data, oob, chunkSize)
			if perr != nil {
				panic(fmt.Sprintf("kamlssd: GC parse %d: %v", ppn, perr))
			}
			for _, pl := range rd.placed {
				loc := flashLoc(ppn, pl.StartChunk, pl.NumChunks)
				if d.recordLive(pl.Record, loc) {
					live = append(live, gcRecord{rec: pl.Record, oldLoc: loc})
				}
			}
		}
		c.mu.Lock()
		rd.live, rd.next, c.pageEnd[page] = live, page+n, len(live)
		if d.tel != nil {
			rd.end = d.eng.NowCheap()
		}
		c.pageRead.Signal()
		c.mu.Unlock()
	}
}

// learnHotLife measures the lifetime of a host block the collector has just
// erased, from its birth to erased, the NVRAM sequence at the erase: a hot
// block's sets the log's hotLife, and so does a cold block's until a hot one
// has been collected. A block whose birth the log did not see (recovered, or
// the GC stream's: born 0) teaches nothing. Called with lg.mu held.
func (lg *logState) learnHotLife(bm *blockMeta, erased uint64) {
	if bm.born == 0 || (bm.stream == streamCold && lg.hotLearned) {
		return
	}
	lg.hotLife = erased - bm.born
	lg.hotLearned = lg.hotLearned || bm.stream == streamHot
}

// gcPagesNeeded reports how many pages relocating the victim's live records
// programs — a next-fit count in scan order, the packing relocate does —
// and the bytes of chunks they hold.
func gcPagesNeeded(d *Device, live []gcRecord) (pages int, bytes int64) {
	chunksPerPage := d.fc.PageSize / chunkSize
	chunks := 0
	for _, g := range live {
		c := g.rec.Chunks(chunkSize)
		if chunks+c > chunksPerPage {
			pages++
			chunks = 0
		}
		chunks += c
		bytes += int64(c * chunkSize)
	}
	if chunks > 0 {
		pages++
	}
	return pages, bytes
}

// relocationPages bounds the pages relocating block bm's live records can
// program, whatever its scan finds live: those records are at most
// bm.maxChunks chunks each and bm.validBytes in all, and the bound is the
// smaller of two next-fit ones (gcPagesNeeded is next-fit). A page is closed
// only by a record that does not fit on it, so with C chunks to a page every
// page but the last holds more than C − maxChunks chunks: k pages of n chunks
// have k ≤ (n − 1) ÷ (C − maxChunks + 1) + 1. And any two pages in a row hold
// more than a page's chunks, so k < 2 × bytes ÷ PageSize + 1 (pipelines).
// Called with the block's log's mu held.
func (d *Device) relocationPages(bm *blockMeta) int {
	chunks := int(bm.validBytes / chunkSize)
	if chunks == 0 {
		return 0
	}
	perPage := d.fc.PageSize / chunkSize
	nextFit := (chunks-1)/(perPage-bm.maxChunks+1) + 1
	pairwise := int(2*bm.validBytes/int64(d.fc.PageSize)) + 1
	return min(nextFit, pairwise)
}

// frees reports whether collecting a block frees anything: relocating its
// live records programs pages pages of the GC stream, and its erase returns
// a block's.
func (d *Device) frees(pages int) bool { return pages < d.fc.PagesPerBlock }

// recordLive implements §IV-E's validity rule under MVCC: a scanned record
// is live iff its family's version chains still retain a version at exactly
// the scanned location — the key's newest version, or an older one kept
// because a snapshot cutoff or transaction pin can still see it. Pruning
// (mvcc.go) is what turns superseded versions into garbage; a family whose
// members are all deleted has no chains entry, so its records are dead.
// The chain walk is lock-free.
func (d *Device) recordLive(rec record.Record, loc location) bool {
	d.mu.RLock()
	fam := d.families[rec.Namespace]
	d.mu.RUnlock()
	return fam != nil && fam.chains.VersionAtLoc(rec.Key, uint64(loc)) != nil
}

// gcProgram programs one GC-stream page, rewriting on injected program
// failures (each failed page is consumed and its block marked for
// retirement). Returns the PPN that finally holds the data, or an error on
// power cut — the caller must then abandon the collection without erasing.
func (d *Device) gcProgram(lg *logState, data, oob []byte) (flash.PPN, error) {
	for {
		lg.mu.Lock()
		ppn, err := lg.nextPPN(streamGC)
		lg.mu.Unlock()
		if err != nil {
			panic(fmt.Sprintf("kamlssd: GC of log %d cannot allocate: %v", lg.id, err))
		}
		perr := d.programPage(ppn, data, oob)
		if perr == nil {
			return ppn, nil
		}
		if errors.Is(perr, flash.ErrPowerCut) {
			d.noticePowerLoss()
			return 0, perr
		}
		if !errors.Is(perr, flash.ErrInjectedFailure) {
			panic(fmt.Sprintf("kamlssd: GC program: %v", perr))
		}
		d.ctr.programRetries.Inc()
		if flg, lc, b := d.blockOf(ppn); lc != nil {
			flg.mu.Lock()
			lc.blocks[b].progFailed++
			flg.mu.Unlock()
		}
	}
}

// relocate packs live records into the relocation page, programming each
// page the next record does not fit on (flush). Fails only on a power cut.
func (c *collector) relocate(live []gcRecord) error {
	for _, g := range live {
		if !c.packer.Fits(g.rec.EncodedSize()) {
			if err := c.flush(); err != nil {
				return err
			}
		}
		g.newChunk = c.packer.Add(g.rec)
		c.group = append(c.group, g)
	}
	return nil
}

// flush programs the relocation page on the log's GC stream, if it holds
// anything, and swings its records' chain nodes, re-validating each record
// at install time (it may have been superseded while GC was running). The
// records count as copies once their page is programmed.
func (c *collector) flush() error {
	d, lg := c.d, c.lg
	if c.packer.Empty() {
		return nil
	}
	data, bitmap := c.packer.Finish()
	ppn, perr := d.gcProgram(lg, data, buildOOB(bitmap, data))
	if perr != nil {
		return perr
	}
	// Hold the device read lock across the install loop so namespace
	// creation/deletion can't observe a half-swung page (same reason as
	// the flusher's install, log.go).
	var bytes int64
	d.mu.RLock()
	for _, g := range c.group {
		bytes += int64(g.oldLoc.nchunks() * chunkSize)
		newLoc := flashLoc(ppn, g.newChunk, g.oldLoc.nchunks())
		fam := d.families[g.rec.Namespace]
		if fam == nil {
			continue // family deleted mid-GC: dead on arrival
		}
		fam.root.mu.Lock()
		node := fam.chains.VersionAtLoc(g.rec.Key, uint64(g.oldLoc))
		if node != nil {
			node.SetLoc(uint64(newLoc))
		}
		fam.root.mu.Unlock()
		if node == nil {
			continue // version superseded and pruned mid-GC
		}
		d.discountValid(g.oldLoc)
		d.creditValid(newLoc)
	}
	d.mu.RUnlock()
	d.ctr.gcCopies.Add(int64(len(c.group)))
	lg.gcCopiedBytes.Add(bytes)
	clear(c.group) // keep the storage only
	c.group = c.group[:0]
	return nil
}
