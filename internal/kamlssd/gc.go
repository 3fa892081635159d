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

	// Per-victim scratch: the scan's reader, with the records of the page it
	// parses and the live records it found, where each page's live records
	// end in its list (pageEnd, by victim page), the records of the
	// relocation page being filled (group), and its packer. Parsed and live
	// records alias the victim's pages (record.AppendParsed): the only copy of
	// a value is the one relocation packs. The reader is an actor named
	// scanName, scanned waits for it, and it publishes each page's records
	// under mu and signals pageRead, which the collector waits on for the next
	// page it relocates (awaitPage).
	reader   victimReader
	pageEnd  []int
	mu       *sim.Mutex
	pageRead *sim.Cond
	scanned  *sim.WaitGroup
	scanName string
	group    []gcRecord
	packer   *record.Packer
}

// victimReader is the reader of a victim scan: it reads the victim's pages
// in order and lists the live records on them. It fills its list in a copy
// of its own and publishes the list under collector.mu at each page's end,
// with next and, when it stops early, err.
type victimReader struct {
	placed []record.Placed
	live   []gcRecord
	next   int           // the next page to read: the pages before it are listed
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
	return d.crashed || (d.closed && d.flushersLive == 0)
}

// loop is the collector actor. Nothing in it ticks: it blocks on the log's
// gcCv until the ledger has work for it (space.wantsGC). popFree signals
// gcCv when it takes the log below the low watermark, gcRetry when a starved
// log may have a victim again, and so does shutdown. The predicate is tested
// before the first wait: a log can come up low (Recover rebuilds the free
// lists and opens no block) or end a cycle there, and nobody signals it.
func (c *collector) loop() {
	d, lg := c.d, c.lg
	defer d.stopped.Done()
	for {
		lg.mu.Lock()
		for !d.gcStopped() && !lg.space.wantsGC() {
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
			chipIdx, block, ok := c.pick()
			lg.mu.Unlock()
			if !ok {
				break
			}
			start := d.telNow()
			c.collectBlock(chipIdx, block)
			d.since(d.gcPause, start)
		}
		d.ctr.gcActive.Add(-1)
	}
}

// pick is one step of a collection cycle: it ends the last victim's claim on
// its chip and, while the log is below its high watermark, picks the next
// victim (victim) and claims its chip, so no block of the log opens beside it
// (busyChip), and lets the ledger cover it (space.cover). Reports false when
// the cycle is over: the log is back at its high watermark, the power is
// off, or no block is worth collecting — then the collector parks until
// gcRetry, starved under the same hold of lg.mu as the search, so no event
// can fall between. Called with lg.mu held.
func (c *collector) pick() (chipIdx, block int, ok bool) {
	d, lg := c.d, c.lg
	lg.victimChip = noChip
	if !lg.space.nextVictim() || d.crashed {
		return 0, 0, false
	}
	chipIdx, block, ok = d.victim(lg)
	lg.space.setStarved(!ok)
	switch {
	case !ok:
		return 0, 0, false
	case lg.hostChip(chipIdx):
		d.ctr.gcVictimsHost.Inc()
	default:
		d.ctr.gcVictimsOther.Inc()
	}
	lg.victimChip = chipIdx
	lg.space.cover(&lg.chips[chipIdx].blocks[block], lg.active[streamGC])
	return chipIdx, block, true
}

// victim picks the block to collect among those whose collection may free
// anything (space.collectible). The paper's pick is the lowest combined
// score of valid bytes and erase count ("low erase counts and small amounts
// of valid data", §IV-E). A victim's scan, relocation reads and erase hold
// its chip, and this log's flusher programs the chips its host streams have
// open blocks on, so a victim on one of those stalls the log's own programs:
// when a candidate sits on a chip with no host stream's open block and has
// no more erases than the paper's pick, the collector takes the best-scoring
// such candidate instead. Otherwise — every candidate on a host chip, as on
// a log with one chip, or none as little worn — it takes the paper's pick.
// Called with lg.mu held.
func (d *Device) victim(lg *logState) (chipIdx, block int, ok bool) {
	// candidate returns block b of chip ci's score and erase count, and
	// whether it may be collected at all.
	candidate := func(ci, b int, erases int64) (score int64, ok bool) {
		bm := &lg.chips[ci].blocks[b]
		if !lg.space.collectible(bm) {
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
		if in := lg.inflight.ppn; lg.inflight.data != nil && in-in%flash.PPN(d.fc.PagesPerBlock) == first {
			return 0, false
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

// collectBlock scans one victim block, relocates its live data, erases it,
// and hands it back to the ledger (space.reclaim). A reader actor reads the
// victim's pages in order (startScan), and the collector relocates each
// page's live records once the page is read (awaitPage). When the log can keep the scan and the relocation apart and
// the victim is known to free a page (pipelines), it starts at once, so the
// GC stream programs while the victim's later pages are still being read.
// Otherwise it waits for the whole scan first, and a victim whose live
// records would program as many pages as its erase returns is left unerased
// and marked noGain, so every collection frees at least a page. Called with
// no locks held; every index check and install takes namespace locks per
// record.
func (c *collector) collectBlock(chipIdx, block int) {
	d, lg := c.d, c.lg
	ch, chip := lg.chipAddr(chipIdx)
	start := d.telNow()
	lg.mu.Lock()
	overlap := lg.pipelines(chipIdx, block)
	lg.mu.Unlock()
	defer c.endScan()
	c.startScan(ch, chip, block)
	if !overlap {
		c.scanned.Wait()
		if c.reader.err != nil {
			return // the victim must not be erased
		}
		if pages, bytes := lg.space.gcPagesNeeded(c.reader.live); !lg.space.frees(pages) {
			lg.mu.Lock()
			lg.space.markNoGain(&lg.chips[chipIdx].blocks[block], bytes)
			lg.mu.Unlock()
			return
		}
	}
	for page := range d.fc.PagesPerBlock {
		recs, ok := c.awaitPage(page)
		if !ok || c.relocate(recs) != nil {
			return // the victim must not be erased
		}
	}
	if c.flush() != nil {
		return
	}
	if d.tel != nil {
		// Every page has been read: the reader wrote end for the last time
		// before it published the last page, which awaitPage saw under mu.
		scanned, now := c.reader.end, d.eng.NowCheap()
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
	d.since(d.gcPhase[phaseErase], start)
	lg.gcErases.Inc()
	var erased uint64
	if err == nil {
		d.nvMu.Lock()
		erased = d.nv.nvSeq
		d.nvMu.Unlock()
	}
	lg.mu.Lock()
	if err == nil {
		lg.learnHotLife(&lg.chips[chipIdx].blocks[block], erased)
	}
	retire := lg.space.reclaim(chipIdx, block, err == nil)
	lg.checkSpace()
	lg.mu.Unlock()
	if retire {
		d.nvMu.Lock()
		d.nv.retireBlock(first)
		d.nvMu.Unlock()
		d.ctr.blocksRetired.Inc()
	}
}

// pipelines reports whether the collector may relocate victim block of chip
// ci page by page while the scan reads on. Two gates, each for a measured
// reason:
//   - the log has more chips than streams, so its jobs keep to chips of
//     their own (openBlock); on a smaller log an overlap's programs land
//     beside the scan and the flusher, and the records it copies early are
//     more often rewritten before the victim would have been scanned;
//   - the victim's relocation bound is less than a block (relocationPages,
//     frees), so the collection frees a page whatever the scan finds, and
//     nothing it programs can be for a victim that gcPagesNeeded would have
//     kept (noGain).
//
// Called with lg.mu held.
func (lg *logState) pipelines(ci, block int) bool {
	return len(lg.chips) > numStreams && lg.space.frees(lg.space.relocationPages(&lg.chips[ci].blocks[block]))
}

// startScan starts the reader of a victim block (readPages). A read is a
// sense that holds the chip, then a transfer that holds the channel, so a
// flusher's program on the victim's chip waits behind one read at most. The
// collector itself reads nothing: it relocates, and waits for pages with
// awaitPage or for the whole scan with scanned.
func (c *collector) startScan(ch, chip, block int) {
	c.scanned.Add(1)
	c.d.eng.Go(c.scanName, func() {
		defer c.scanned.Done()
		c.readPages(ch, chip, block)
	})
}

// awaitPage waits until the victim's page has been read and returns the live
// records on it. Reports false as soon as the reader has stopped on a read
// that failed for good: erasing then could destroy live records the scan
// never saw, so the collection is abandoned, what it relocated so far stays
// relocated, and a later pass retries the victim.
func (c *collector) awaitPage(page int) ([]gcRecord, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rd := &c.reader
	for rd.next <= page && rd.err == nil {
		c.pageRead.Wait()
	}
	if rd.err != nil {
		return nil, false
	}
	from := 0
	if page > 0 {
		from = c.pageEnd[page-1]
	}
	return rd.live[from:c.pageEnd[page]], true
}

// endScan ends a collection: it waits for the reader to exit, notices a
// power cut it met, and empties the scratch. It keeps the lists' storage,
// not what they point at: a parked collector must not pin a victim's worth
// of page images. A relocation page left half packed by an abandoned
// collection is dropped; its records are still on the victim.
func (c *collector) endScan() {
	c.scanned.Wait()
	rd := &c.reader
	if errors.Is(rd.err, flash.ErrPowerCut) {
		c.d.noticePowerLoss()
	}
	clear(rd.placed[:cap(rd.placed)]) // each page re-slices it: clear past len
	clear(rd.live)
	rd.live, rd.err, rd.next, rd.end = rd.live[:0], nil, 0, 0
	clear(c.group[:cap(c.group)])
	c.group = c.group[:0]
	if !c.packer.Empty() {
		c.packer.Finish()
	}
}

// readPages is the reader of a victim scan: it reads the block's pages in
// order (readRecords) and lists the records still live on them, stopping at a
// page it cannot read or parse (rd.err). It publishes each page's records as
// soon as it has parsed them.
func (c *collector) readPages(ch, chip, block int) {
	d, rd := c.d, &c.reader
	live := rd.live
	for page := range d.fc.PagesPerBlock {
		ppn := d.arr.BlockPPN(ch, chip, block, page)
		var err error
		// A torn or garbage page carries nothing live.
		rd.placed, _, err = d.readRecords(ppn, rd.placed[:0])
		if err != nil {
			c.mu.Lock()
			rd.err = err
			c.pageRead.Signal()
			c.mu.Unlock()
			return
		}
		for _, pl := range rd.placed {
			loc := flashLoc(ppn, pl.StartChunk, pl.NumChunks)
			if d.recordLive(pl.Record, loc) {
				live = append(live, gcRecord{rec: pl.Record, oldLoc: loc})
			}
		}
		c.mu.Lock()
		rd.live, rd.next, c.pageEnd[page] = live, page+1, len(live)
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

// gcProgram programs one GC-stream page, again on the stream's next page
// each time a program fails. Returns the PPN that holds the data, or an error
// on power cut — the caller must then abandon the collection without erasing.
func (d *Device) gcProgram(lg *logState, data, oob []byte) (flash.PPN, error) {
	for {
		lg.mu.Lock()
		ppn, err := lg.nextPPN(streamGC)
		lg.mu.Unlock()
		if err != nil {
			panic(fmt.Sprintf("kamlssd: GC of log %d cannot allocate: %v", lg.id, err))
		}
		err = d.programPage(ppn, data, oob)
		if err == nil || errors.Is(err, flash.ErrPowerCut) {
			return ppn, err
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
		if d.swing(g.rec.Namespace, g.rec.Key, g.oldLoc, newLoc) {
			d.discountValid(g.oldLoc)
		}
	}
	d.mu.RUnlock()
	d.ctr.gcCopies.Add(int64(len(c.group)))
	lg.gcCopiedBytes.Add(bytes)
	clear(c.group) // keep the storage only
	c.group = c.group[:0]
	return nil
}
