package kamlssd

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"github.com/kaml-ssd/kaml/internal/flash"
	"github.com/kaml-ssd/kaml/internal/record"
	"github.com/kaml-ssd/kaml/internal/sim"
)

// collector is one log's garbage collector (§IV-E): an actor that sleeps
// until its log falls below GCLowWater and then reclaims victims until the
// log is back at GCHighWater, concurrently with the other logs' collectors.
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
	// page it parses and the live records it found, the records of the
	// relocation page being filled, and its packer. Parsed and live records
	// alias the victim's pages (record.AppendParsed): the only copy of a
	// value is the one relocation packs. scanned waits for the readers beside
	// the collector's own, each an actor named scanName.
	readers  [readersPerChip]victimReader
	scanned  *sim.WaitGroup
	scanName string
	group    []gcRecord
	packer   *record.Packer
}

// victimReader is one reader of a victim scan: it reads every n-th page of
// the victim from page first, and lists the live records on them in page
// order.
type victimReader struct {
	placed []record.Placed
	live   []gcRecord
	err    error // the read that ended the scan early: a power cut or a persistent read error
}

func newCollector(d *Device, lg *logState) *collector {
	return &collector{d: d, lg: lg, packer: record.NewPacker(d.fc.PageSize, chunkSize),
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
		for !d.gcStopped() && (lg.freeBlocks >= d.cfg.GCLowWater || lg.gcStarved) {
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
// its chip and, while the log is below GCHighWater, picks the next victim
// (victim) and claims its chip, so no block of the log opens beside it
// (busyChip). The victim is scanned with readers reads in flight: two on a
// chip no host stream of the log has its open block on, where a second read
// delays nobody but the scan, one on a chip the flusher programs (scan).
// Reports false when the cycle is over: the log is back at its high
// watermark, the power is off, or no block is worth collecting — then the
// collector parks until gcRetry says the answer may have changed, set under
// the same hold of lg.mu as the search, so no such event can fall between.
// Called with lg.mu held.
func (c *collector) pick() (chipIdx, block, readers int, ok bool) {
	d, lg := c.d, c.lg
	lg.victimChip = noChip
	if lg.freeBlocks >= d.cfg.GCHighWater || d.crashed.Load() {
		return 0, 0, 0, false
	}
	chipIdx, block, ok = d.victim(lg)
	lg.gcStarved = !ok
	switch {
	case !ok:
		// A flusher out of blocks may share its other host stream's open
		// block now (nextPPN).
		lg.freeCv.Broadcast()
		return 0, 0, 0, false
	case lg.hostChip(chipIdx):
		d.ctr.gcVictimsHost.Inc()
		readers = 1
	default:
		d.ctr.gcVictimsOther.Inc()
		readers = readersPerChip
	}
	lg.victimChip = chipIdx
	return chipIdx, block, readers, true
}

// victim picks the block to collect among the sealed blocks whose collection
// frees anything. The paper's pick is the lowest combined score of valid
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
	// A block whose live payload would refill as many pages as its erase
	// frees is no victim: collecting it copies a block into a block, and on a
	// log that holds nothing else the loop would repeat until the GC stream
	// ran dry.
	gainful := int64(d.fc.PagesPerBlock-1) * int64(d.fc.PageSize)
	// candidate returns block b of chip ci's score and erase count, and
	// whether it may be collected at all.
	candidate := func(ci, b int, erases int64) (score int64, ok bool) {
		bm := &lg.chips[ci].blocks[b]
		if !bm.sealed || bm.retired || bm.validBytes > gainful {
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

// collectBlock scans one victim block with readers reads in flight (scan),
// relocates its live data, erases it, and returns it to the log's free list,
// waking the writers that wait for one. Called with no locks held; every
// index check and install takes namespace locks per record.
func (c *collector) collectBlock(chipIdx, block, readers int) {
	d, lg := c.d, c.lg
	ch, chip := lg.chipAddr(chipIdx)
	defer func() {
		// Keep the lists' storage, not what they point at: a parked collector
		// must not pin a victim's worth of page images.
		for r := range c.readers {
			rd := &c.readers[r]
			clear(rd.placed[:cap(rd.placed)]) // each page re-slices it: clear past len
			clear(rd.live)
			rd.live, rd.err = rd.live[:0], nil
		}
	}()
	live, ok := c.scan(ch, chip, block, readers)
	if !ok {
		return // the victim must not be erased
	}

	// Feasibility: relocating this victim must fit the GC stream's
	// remaining capacity (current block tail + free blocks). The victim is
	// already the least-live block, so infeasibility means the device is
	// genuinely over-committed: even reclaiming the emptiest block cannot
	// make forward progress. Fail loudly rather than losing data.
	needPages := gcPagesNeeded(d, live)
	lg.mu.Lock()
	capacity := lg.gcCapacityPages()
	lg.mu.Unlock()
	if needPages > capacity {
		panic(fmt.Sprintf("kamlssd: device over-committed: log %d GC needs %d pages, has %d — reduce the working set or add over-provisioning",
			lg.id, needPages, capacity))
	}

	if c.relocateRecords(live) != nil {
		return // power cut mid-relocation: the victim must not be erased
	}

	first := d.arr.BlockPPN(ch, chip, block, 0)
	if err := d.arr.EraseBlock(first); err != nil {
		if errors.Is(err, flash.ErrPowerCut) {
			d.noticePowerLoss()
			return
		}
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
	bm := &lg.chips[chipIdx].blocks[block]
	lg.learnHotLife(bm, erased)
	bm.sealed = false
	bm.validBytes = 0
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

// scan reads every page of a victim block and returns the live records on
// them, in page order. A read is a sense that holds the chip, then a transfer
// that holds the channel: with readers = readersPerChip one page senses while
// the one before it transfers, as recovery's scan reads, so the chip senses
// without a break. The collector asks for that only on a chip no flusher of
// its log programs; on one that a flusher does, the scan reads one page at a
// time, so a flusher's program waits behind at most one read. Reports false,
// noticing a power cut, when a read failed for good: erasing then could
// destroy live records the scan never saw, so the victim is abandoned and a
// later pass retries it.
func (c *collector) scan(ch, chip, block, readers int) ([]gcRecord, bool) {
	d := c.d
	for r := 1; r < readers; r++ {
		c.scanned.Add(1)
		d.eng.Go(c.scanName, func() {
			defer c.scanned.Done()
			c.readPages(&c.readers[r], ch, chip, block, r, readers)
		})
	}
	c.readPages(&c.readers[0], ch, chip, block, 0, readers)
	c.scanned.Wait()
	for _, rd := range c.readers[:readers] {
		if rd.err != nil {
			if errors.Is(rd.err, flash.ErrPowerCut) {
				d.noticePowerLoss()
			}
			return nil, false
		}
	}
	live := c.readers[0].live
	if readers > 1 {
		for _, rd := range c.readers[1:readers] {
			live = append(live, rd.live...)
		}
		// Each reader listed its own pages in order; location orders by page,
		// then chunk.
		slices.SortFunc(live, func(a, b gcRecord) int { return cmp.Compare(a.oldLoc, b.oldLoc) })
		c.readers[0].live = live
	}
	return live, true
}

// readPages is one reader of a victim scan: it reads pages first, first+n,
// ... of the block and lists the records still live on them, stopping at a
// power cut or a page unreadable after every retry (rd.err).
func (c *collector) readPages(rd *victimReader, ch, chip, block, first, n int) {
	d, lg := c.d, c.lg
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
		if err != nil {
			if errors.Is(err, flash.ErrPowerCut) || errors.Is(err, flash.ErrInjectedFailure) {
				rd.err = err
				return
			}
			continue // unwritten page
		}
		if !checkOOB(oob, data) {
			continue // torn or garbage page: carries nothing live
		}
		var perr error
		rd.placed, perr = record.AppendParsed(rd.placed[:0], data, oob, chunkSize)
		if perr != nil {
			panic(fmt.Sprintf("kamlssd: GC parse %d: %v", ppn, perr))
		}
		for _, pl := range rd.placed {
			loc := flashLoc(ppn, pl.StartChunk, pl.NumChunks)
			if d.recordLive(pl.Record, loc) {
				rd.live = append(rd.live, gcRecord{rec: pl.Record, oldLoc: loc})
				d.ctr.gcCopies.Inc()
				lg.gcCopiedBytes.Add(int64(pl.NumChunks * chunkSize))
			}
		}
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

// gcPagesNeeded estimates how many fresh pages relocating the victim's
// live records takes, packed.
func gcPagesNeeded(d *Device, live []gcRecord) int {
	chunksPerPage := d.fc.PageSize / chunkSize
	chunks := 0
	pages := 0
	for _, g := range live {
		c := g.rec.Chunks(chunkSize)
		if chunks+c > chunksPerPage {
			pages++
			chunks = 0
		}
		chunks += c
	}
	if chunks > 0 {
		pages++
	}
	return pages
}

// gcCapacityPages reports how many pages the GC stream can still program
// without another erase. Called with lg.mu held.
func (lg *logState) gcCapacityPages() int {
	pages := lg.freeBlocks * lg.d.fc.PagesPerBlock
	if gc := lg.active[streamGC]; gc != nil {
		pages += lg.d.fc.PagesPerBlock - gc.page
	}
	return pages
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

// relocateRecords packs live records into fresh pages on the log's GC
// stream and swings their chain nodes, re-validating each record at install
// time (it may have been superseded while GC was running).
func (c *collector) relocateRecords(live []gcRecord) error {
	d, lg, packer := c.d, c.lg, c.packer
	group := c.group[:0]
	defer func() {
		clear(group[:cap(group)]) // as in collectBlock: keep the storage only
		c.group = group
	}()
	flush := func() error {
		if packer.Empty() {
			return nil
		}
		data, bitmap := packer.Finish()
		ppn, perr := d.gcProgram(lg, data, d.buildOOB(bitmap, data))
		if perr != nil {
			return perr
		}
		// Hold the device read lock across the install loop so namespace
		// creation/deletion can't observe a half-swung page (same reason as
		// the flusher's install, log.go).
		d.mu.RLock()
		for _, g := range group {
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
		group = group[:0]
		return nil
	}
	for _, g := range live {
		if !packer.Fits(g.rec.EncodedSize()) {
			if err := flush(); err != nil {
				return err
			}
		}
		g.newChunk = packer.Add(g.rec)
		group = append(group, g)
	}
	return flush()
}
