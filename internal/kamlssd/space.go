package kamlssd

import (
	"fmt"
	"testing"

	"github.com/kaml-ssd/kaml/internal/flash"
	"github.com/kaml-ssd/kaml/internal/sim"
)

// A log's free-block thresholds: its collector wakes below gcLowFree erased
// blocks and collects up to gcHighFree; a host stream opens a block only
// above gcReserveBlocks (take).
const (
	gcLowFree       = 3
	gcHighFree      = 5
	gcReserveBlocks = 2
)

// gcWater gives the watermarks of the devices New and Recover build; tests
// replace it to keep the collectors parked, or collecting.
var gcWater = func() (low, high int) { return gcLowFree, gcHighFree }

// space is one log's space ledger (§IV-E): its chips' blocks and free
// lists, the erased-block count and its watermarks, the reserve, and a
// victim's page bounds. Every "how full" question of the firmware is a
// query on it, and only this file writes the free lists and count, the
// flags below, and a block's validBytes, maxChunks and noGain
// (TestStructuralRules). Guarded by the log's mu.
type space struct {
	fc    *flash.Config
	chips []*logChip
	// resume holds the partially-programmed blocks recovery found, in scan
	// order, each at its first unprogrammed page: openBlock hands them out
	// before any erased block. They are neither free nor sealed.
	resume     []appendPoint
	freeBlocks int // the blocks on the chips' free lists
	low, high  int // the collector's watermarks on freeBlocks (gcWater)
	// gcCovered: the victim being collected is covered (cover), until its
	// erase or the next pick. gcStarved: the log is below its low watermark
	// with no victim worth collecting — every sealed block is still being
	// programmed or installed, or is noGain — until gcRetry.
	gcCovered, gcStarved bool
	// The collector and the flusher meet on two conditions, each signalled
	// by the event itself. freeCv: a block was freed, a covered victim was
	// picked, or power was cut; the flusher out of erased blocks waits here
	// (hostPPN). gcCv: a block was opened below the low watermark, a starved
	// log may have a victim again, or the device is stopping; the collector
	// waits here.
	freeCv, gcCv *sim.Cond
	tally        []uint8 // checkSpace's scratch: a count per block of one chip
}

// addChip adds a chip of erased blocks, all free.
func (sp *space) addChip(global, blocks int) {
	lc := &logChip{global: global, blocks: make([]blockMeta, blocks)}
	for b := 0; b < blocks; b++ {
		lc.freeList = append(lc.freeList, b)
	}
	sp.chips = append(sp.chips, lc)
	sp.freeBlocks += blocks
}

// wantsGC reports whether the log's collector has work: the log is below
// its low watermark and not starved.
func (sp *space) wantsGC() bool { return sp.freeBlocks < sp.low && !sp.gcStarved }

// nextVictim ends the last victim's coverage and reports whether the
// collector picks another: the log is below its high watermark.
func (sp *space) nextVictim() bool {
	sp.gcCovered = false
	return sp.freeBlocks < sp.high
}

// setStarved records whether the collector's victim search came back empty.
func (sp *space) setStarved(starved bool) { sp.gcStarved = starved }

// gcRetry tells a starved collector to look again: something that can make
// a victim eligible or gainful just happened on this log.
func (sp *space) gcRetry() {
	if sp.gcStarved {
		sp.gcStarved = false
		sp.gcCv.Signal()
	}
}

// take says whether stream s, out of an open block, opens one (covered:
// the reserve's second) or else shares the other host stream's (nextPPN).
// The GC stream's room C is its free blocks' pages plus its open block's
// tail, and a victim's relocation programs at most relocationPages < P of
// it, P to a block. A host stream opens a block, when the log has none to
// resume, only above the reserve, so a take leaves C ≥ 2P; while the victim
// is covered, one block fewer: the take leaves C ≥ P + relocationPages, the
// collection takes only its tail and returns P, and the next victim starts
// with C ≥ 2P all the same. The second P absorbs one retirement or
// abandoned collection.
func (sp *space) take(s int) (open, covered bool) {
	switch {
	case s == streamGC || len(sp.resume) > 0 || sp.freeBlocks > gcReserveBlocks:
		return true, false
	case sp.gcCovered && sp.freeBlocks > gcReserveBlocks-1:
		return true, true
	}
	return false, false
}

// popFree pops chip ci's oldest free block, if it has one, and wakes the
// log's collector when that takes the log below its low watermark.
func (sp *space) popFree(ci int) (block int, ok bool) {
	lc := sp.chips[ci]
	if len(lc.freeList) == 0 {
		return 0, false
	}
	block, lc.freeList = lc.freeList[0], lc.freeList[1:]
	sp.freeBlocks--
	if sp.freeBlocks < sp.low {
		sp.gcCv.Signal()
	}
	return block, true
}

// pushFree puts block b of chip ci at the back of its chip's free list and
// wakes the flusher that waits for one.
func (sp *space) pushFree(ci, b int) {
	sp.chips[ci].freeList = append(sp.chips[ci].freeList, b)
	sp.freeBlocks++
	sp.freeCv.Broadcast()
}

// reclaim ends the life of victim block b of chip ci, whose erase ok or
// failed: an erased block is free again and returns what a covered take
// borrowed; one whose erase failed, or that ate a program in its last life
// (programPage), is retired for good. Reports whether it retired it.
func (sp *space) reclaim(ci, b int, ok bool) (retired bool) {
	bm := &sp.chips[ci].blocks[b]
	bm.sealed = false
	if ok {
		sp.gcCovered = false
		bm.validBytes, bm.maxChunks = 0, 0
	}
	if !ok || bm.progFailed > 0 {
		bm.retired, bm.progFailed = true, 0
		return true
	}
	sp.pushFree(ci, b)
	return false
}

// collectible reports whether block bm may be a victim: sealed, in service,
// not marked noGain, and with valid bytes that fill fewer pages than a
// block holds (frees, on the lower bound of the pages they pack into).
func (sp *space) collectible(bm *blockMeta) bool {
	pageSize := int64(sp.fc.PageSize)
	return bm.sealed && !bm.retired && !bm.noGain && sp.frees(int((bm.validBytes+pageSize-1)/pageSize))
}

// cover marks the victim bm covered when the pages relocating it can
// program (relocationPages) fit in gc, the GC stream's open block, and wakes
// the flusher: the collection takes no free block, so a host stream may
// take the reserve's second one (take).
func (sp *space) cover(bm *blockMeta, gc *appendPoint) {
	if gc != nil && sp.relocationPages(bm) <= sp.fc.PagesPerBlock-gc.page {
		sp.gcCovered = true
		sp.freeCv.Broadcast()
	}
}

// markNoGain marks bm, whose scan found bytes live in records that fill a
// block's pages. A version that died during the scan was counted live and
// its discount, which clears the mark, has come: then bm stays unmarked.
func (sp *space) markNoGain(bm *blockMeta, bytes int64) { bm.noGain = bm.validBytes >= bytes }

// gcPagesNeeded reports how many pages relocating the victim's live records
// programs — a next-fit count in scan order, the packing relocate does —
// and the bytes of chunks they hold. Needs no lock.
func (sp *space) gcPagesNeeded(live []gcRecord) (pages int, bytes int64) {
	chunksPerPage := sp.fc.PageSize / chunkSize
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
// program, whatever its scan finds live (no record becomes live on a sealed,
// fully programmed block): records of at most maxChunks chunks, validBytes
// in all, packed next-fit (gcPagesNeeded). A page is closed only by a record
// that does not fit on it, so with C chunks to a page, k pages of n chunks
// have k ≤ (n − 1) ÷ (C − maxChunks + 1) + 1; and any two pages in a row
// hold more than a page, so k < 2 × bytes ÷ PageSize + 1.
func (sp *space) relocationPages(bm *blockMeta) int {
	chunks := int(bm.validBytes / chunkSize)
	if chunks == 0 {
		return 0
	}
	perPage := sp.fc.PageSize / chunkSize
	nextFit := (chunks-1)/(perPage-bm.maxChunks+1) + 1
	pairwise := int(2*bm.validBytes/int64(sp.fc.PageSize)) + 1
	return min(nextFit, pairwise)
}

// frees reports whether a collection that programs pages pages of the GC
// stream frees anything: its erase returns a block's. Needs no lock.
func (sp *space) frees(pages int) bool { return pages < sp.fc.PagesPerBlock }

// creditValid adds a record's footprint to its block's valid bytes, and its
// length to the block's longest. Callers must hold no log mutex.
func (d *Device) creditValid(loc location) {
	lg, lc, b := d.blockOf(loc.ppn())
	lg.mu.Lock()
	bm := &lc.blocks[b]
	bm.validBytes += int64(loc.nchunks() * chunkSize)
	bm.maxChunks = max(bm.maxChunks, loc.nchunks())
	lg.mu.Unlock()
}

// discountValid removes a record's footprint from its block's counter,
// exactly (locations carry their chunk count), and clears the block's
// noGain mark. Callers must hold no log mutex.
func (d *Device) discountValid(loc location) {
	lg, lc, b := d.blockOf(loc.ppn())
	lg.mu.Lock()
	lc.blocks[b].validBytes -= int64(loc.nchunks() * chunkSize)
	lc.blocks[b].noGain = false
	lg.space.gcRetry() // the block may just have become worth collecting
	lg.mu.Unlock()
}

// rebuildChip is recovery's step 3 for chip ci of lg: a retired block stays
// out of service, an empty one is free, a full one sealed, and a partial one
// goes on the resume list at its first unprogrammed page — NAND programs a
// block in order from wherever it stopped, so it is appended to, not padded.
// Returns the pages programmed per block and their sum.
func (d *Device) rebuildChip(lg *logState, ci int) (programmed []int, pages int) {
	lc := lg.chips[ci]
	ch, chip := lg.chipAddr(ci)
	lg.freeBlocks -= len(lc.freeList)
	lc.freeList = lc.freeList[:0]
	programmed = make([]int, len(lc.blocks))
	for b := range lc.blocks {
		lc.blocks[b] = blockMeta{}
		first := d.arr.BlockPPN(ch, chip, b, 0)
		if d.nv.isRetired(first) {
			lc.blocks[b].retired = true
			continue
		}
		n := d.arr.ProgrammedPages(first)
		switch {
		case n == 0:
			lc.freeList = append(lc.freeList, b)
		case n < d.fc.PagesPerBlock:
			lg.resume = append(lg.resume, appendPoint{chip: ci, block: b, page: n})
		default:
			lc.blocks[b].sealed = true
		}
		programmed[b], pages = n, pages+n
	}
	lg.freeBlocks += len(lc.freeList)
	lg.checkSpace()
	return programmed, pages
}

// checkSpace holds the ledger to the geometry in a test binary, after every
// collection's erase and recovery rebuild: the free count is what the free
// lists hold, no free block is retired or sealed or holds anything, and
// every block is in one state — free, open (active), on the resume list,
// sealed or retired — with no negative bytes. It walks the log's blocks
// once, allocates only to panic, and names the log and the block. Called
// with lg.mu held.
func (lg *logState) checkSpace() {
	if !testing.Testing() {
		return
	}
	free := 0
	for ci, lc := range lg.chips {
		tally := lg.tally[:len(lc.blocks)]
		clear(tally)
		for _, b := range lc.freeList {
			if bm := &lc.blocks[b]; bm.retired || bm.sealed || bm.validBytes != 0 || bm.maxChunks != 0 || bm.noGain {
				panic(fmt.Sprintf("kamlssd: log %d chip %d block %d is free but %+v", lg.id, ci, b, *bm))
			}
			tally[b]++
		}
		free += len(lc.freeList)
		for _, ap := range lg.active {
			if ap != nil && ap.chip == ci {
				tally[ap.block]++
			}
		}
		for _, ap := range lg.resume {
			if ap.chip == ci {
				tally[ap.block]++
			}
		}
		for b := range lc.blocks {
			bm, want := &lc.blocks[b], uint8(1)
			if bm.sealed || bm.retired {
				want = 0
			}
			if tally[b] != want || bm.sealed && bm.retired || bm.validBytes < 0 {
				panic(fmt.Sprintf("kamlssd: log %d chip %d block %d is free, open or resumed %d times and %+v",
					lg.id, ci, b, tally[b], *bm))
			}
		}
	}
	if free != lg.freeBlocks {
		panic(fmt.Sprintf("kamlssd: log %d counts %d free blocks, its free lists hold %d", lg.id, lg.freeBlocks, free))
	}
}
