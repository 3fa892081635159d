package ftl

import (
	"fmt"
	"sort"
)

// gcLoop is the background garbage collector. When the free-block count
// falls below the low watermark it relocates the valid sectors of
// low-score victim blocks and erases them until the high watermark is
// restored (paper §IV-E, applied to the baseline's page-mapped layout).
func (d *Device) gcLoop() {
	defer d.stopped.Done()
	for {
		d.mu.Lock()
		// Keep collecting after Close until the flusher has drained: it may
		// be starved for free blocks (its alloc-retry loop sleeps on gcPoll
		// waiting for us), and exiting early would strand it forever.
		done := d.closed && d.flushDone
		free := d.alloc.freeBlockCount()
		needGC := free < d.gcLowWater
		d.mu.Unlock()
		d.freeBlocks.Set(int64(free))
		if done {
			return
		}
		if !needGC {
			d.eng.Sleep(gcPoll)
			continue
		}
		for {
			d.mu.Lock()
			if d.alloc.freeBlockCount() >= d.gcHighWater || (d.closed && d.flushDone) {
				d.mu.Unlock()
				break
			}
			chipIdx, block, ok := d.alloc.victim(d)
			d.mu.Unlock()
			if !ok {
				break // nothing sealed yet; wait for writes to seal blocks
			}
			start := d.eng.NowCheap()
			d.collectBlock(chipIdx, block)
			d.gcPause.ObserveDuration(d.eng.NowCheap() - start)
		}
		d.eng.Sleep(gcPoll)
	}
}

// liveSector is a still-valid sector found while scanning a GC victim.
type liveSector struct {
	lba  int
	loc  location
	data []byte
}

// collectBlock relocates every still-valid sector out of the block, then
// erases it. On an erase failure the block is retired (bad-block handling).
func (d *Device) collectBlock(chipIdx, block int) {
	ca := d.alloc.chips[chipIdx]
	var live []liveSector

	// Pass 1: read the block's pages and use the OOB reverse map to find
	// candidate sectors; validity is confirmed against the mapping table,
	// exactly as §IV-E describes for records.
	for page := 0; page < d.fc.PagesPerBlock; page++ {
		ppn := d.arr.BlockPPN(ca.channel, ca.chip, block, page)
		d.mu.Lock()
		bm := &ca.blocks[block]
		anyValid := false
		for s := 0; s < d.spp; s++ {
			if bm.valid[page*d.spp+s] {
				anyValid = true
			}
		}
		d.mu.Unlock()
		if !anyValid {
			continue
		}
		data, oob, err := d.arr.ReadPage(ppn)
		if err != nil {
			continue // unprogrammed tail pages of a retired active block
		}
		n := readOOBCount(oob)
		for s := 0; s < n && s < d.spp; s++ {
			lba := readOOBLBA(oob, s)
			loc := location(int64(ppn)*int64(d.spp) + int64(s))
			d.mu.Lock()
			valid := lba >= 0 && lba < len(d.mapTab) && d.mapTab[lba] == loc
			d.mu.Unlock()
			if valid {
				sector := append([]byte(nil), data[s*SectorSize:(s+1)*SectorSize]...)
				live = append(live, liveSector{lba: lba, loc: loc, data: sector})
			}
		}
	}

	// Pass 2: relocate live sectors in page-sized groups. Range locks are
	// taken (in stripe order, deduplicated) so host reads never observe a
	// mapping that points into the block being erased.
	for start := 0; start < len(live); start += d.spp {
		end := start + d.spp
		if end > len(live) {
			end = len(live)
		}
		group := live[start:end]
		stripes := map[int]bool{}
		for _, ls := range group {
			stripes[ls.lba>>rangeLockShift] = true
		}
		order := make([]int, 0, len(stripes))
		for s := range stripes {
			order = append(order, s)
		}
		sort.Ints(order)
		for _, s := range order {
			d.rangeLocks[s].Lock()
		}
		d.relocateGroup(group)
		for i := len(order) - 1; i >= 0; i-- {
			d.rangeLocks[order[i]].Unlock()
		}
	}

	// Pass 3: erase and reclaim (or retire on failure).
	erasePPN := d.arr.BlockPPN(ca.channel, ca.chip, block, 0)
	err := d.arr.EraseBlock(erasePPN)
	d.gcErased.Inc()
	d.mu.Lock()
	d.stats.GCErases++
	if err != nil {
		d.alloc.retire(chipIdx, block)
	} else {
		d.alloc.reclaim(chipIdx, block)
	}
	d.mu.Unlock()
}

// relocateGroup programs up to one page worth of sectors to a fresh
// location and swings the mapping table. Sectors whose mapping changed
// since pass 1 (overwritten by the host) are dropped as garbage.
func (d *Device) relocateGroup(group []liveSector) {
	var lbas []int
	var sectors [][]byte
	d.mu.Lock()
	for _, ls := range group {
		if d.mapTab[ls.lba] == ls.loc && !d.buffer.has(ls.lba) {
			lbas = append(lbas, ls.lba)
			sectors = append(sectors, ls.data)
		}
	}
	if len(lbas) == 0 {
		d.mu.Unlock()
		return
	}
	ppn, err := d.alloc.allocPage(true)
	d.mu.Unlock()
	if err != nil {
		panic(fmt.Sprintf("ftl: GC cannot allocate: %v", err))
	}

	page := make([]byte, d.fc.PageSize)
	oob := make([]byte, (d.spp+1)*8)
	writeOOBCount(oob, len(lbas))
	for i, s := range sectors {
		copy(page[i*SectorSize:], s)
		writeOOBLBA(oob, i, lbas[i])
	}
	if perr := d.arr.ProgramPage(ppn, page, oob); perr != nil {
		panic(fmt.Sprintf("ftl: GC program %d: %v", ppn, perr))
	}
	d.gcCopied.Add(int64(len(lbas)))
	d.mu.Lock()
	d.stats.GCCopies += int64(len(lbas))
	d.stats.Programs++
	for i, lba := range lbas {
		newLoc := location(int64(ppn)*int64(d.spp) + int64(i))
		d.alloc.invalidate(d.mapTab[lba])
		d.mapTab[lba] = newLoc
		d.alloc.markValid(newLoc, lba)
	}
	d.mu.Unlock()
}
