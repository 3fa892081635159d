package ftl

import (
	"encoding/binary"

	"github.com/kaml-ssd/kaml/internal/flash"
)

// allocator hands out flash pages for host writes and GC relocation, and
// tracks per-block validity so the garbage collector can pick victims.
// All methods are called with the device mutex held.
type allocator struct {
	arr *flash.Array
	fc  flash.Config
	spp int

	chips    []*chipAlloc
	nextChip int // round-robin write striping across chips
	free     int // total free blocks
}

type chipAlloc struct {
	channel, chip int
	freeBlocks    []int
	active        int // host-write block being programmed; -1 if none
	activePage    int // next page to program in active block
	gcActive      int // GC relocation block; separate stream so the two
	gcActivePage  int // single-actor writers never interleave programs
	blocks        []blockMeta
}

type blockMeta struct {
	validCount int
	sealed     bool   // fully programmed; GC candidate
	retired    bool   // failed erase; removed from service
	valid      []bool // one bit per sector slot
}

func newAllocator(arr *flash.Array, spp int) *allocator {
	fc := arr.Config()
	a := &allocator{arr: arr, fc: fc, spp: spp}
	for ch := 0; ch < fc.Channels; ch++ {
		for c := 0; c < fc.ChipsPerChannel; c++ {
			ca := &chipAlloc{channel: ch, chip: c, active: -1, gcActive: -1}
			ca.blocks = make([]blockMeta, fc.BlocksPerChip)
			for b := range ca.blocks {
				ca.blocks[b].valid = make([]bool, fc.PagesPerBlock*spp)
				ca.freeBlocks = append(ca.freeBlocks, b)
			}
			a.chips = append(a.chips, ca)
			a.free += fc.BlocksPerChip
		}
	}
	return a
}

// allocPage returns the next page to program, striping across chips.
// forGC selects the GC relocation stream, which uses separate active
// blocks so host-write and GC programs never interleave within a block.
// It returns ErrOutOfBlocks when every chip is out of erased blocks.
func (a *allocator) allocPage(forGC bool) (flash.PPN, error) {
	for tries := 0; tries < len(a.chips); tries++ {
		ca := a.chips[a.nextChip]
		a.nextChip = (a.nextChip + 1) % len(a.chips)
		active, page := &ca.active, &ca.activePage
		if forGC {
			active, page = &ca.gcActive, &ca.gcActivePage
		}
		if *active < 0 {
			b, ok := ca.popFree(a)
			if !ok {
				continue
			}
			*active, *page = b, 0
		}
		ppn := a.arr.BlockPPN(ca.channel, ca.chip, *active, *page)
		*page++
		if *page >= a.fc.PagesPerBlock {
			ca.blocks[*active].sealed = true
			*active = -1
		}
		return ppn, nil
	}
	return 0, ErrOutOfBlocks
}

// popFree takes a block from the chip's free list.
func (ca *chipAlloc) popFree(a *allocator) (int, bool) {
	for len(ca.freeBlocks) > 0 {
		b := ca.freeBlocks[0]
		ca.freeBlocks = ca.freeBlocks[1:]
		a.free--
		if ca.blocks[b].retired {
			continue
		}
		return b, true
	}
	return 0, false
}

func (a *allocator) meta(loc location) (*blockMeta, int) {
	ppn := flash.PPN(int64(loc) / int64(a.spp))
	slot := int(int64(loc) % int64(a.spp))
	addr := a.arr.Decode(ppn)
	ca := a.chips[addr.Channel*a.fc.ChipsPerChannel+addr.Chip]
	return &ca.blocks[addr.Block], addr.Page*a.spp + slot
}

// markValid records that loc now holds live data for an LBA.
func (a *allocator) markValid(loc location, lba int) {
	bm, idx := a.meta(loc)
	if !bm.valid[idx] {
		bm.valid[idx] = true
		bm.validCount++
	}
}

// invalidate records that loc no longer holds live data.
func (a *allocator) invalidate(loc location) {
	bm, idx := a.meta(loc)
	if bm.valid[idx] {
		bm.valid[idx] = false
		bm.validCount--
	}
}

// freeBlockCount returns the number of erased blocks available.
func (a *allocator) freeBlockCount() int { return a.free }

// victim selects the best GC candidate: a sealed block scoring lowest on
// valid data plus an erase-count penalty (wear leveling), per §IV-E.
// Blocks with unprogrammed pages or in-flight installs are skipped (their
// writer is still working on them). Returns the chip and block index, or
// ok=false if none qualifies.
func (a *allocator) victim(d *Device) (chipIdx, block int, ok bool) {
	best := int64(1) << 62
	for ci, ca := range a.chips {
		for b := range ca.blocks {
			bm := &ca.blocks[b]
			if !bm.sealed || bm.retired {
				continue
			}
			first := a.arr.BlockPPN(ca.channel, ca.chip, b, 0)
			if a.arr.ProgrammedPages(first) < a.fc.PagesPerBlock {
				continue
			}
			if d.pendingByBlock[d.blockKey(first)] > 0 {
				continue
			}
			erases := a.arr.EraseCount(first)
			score := int64(bm.validCount)*int64(SectorSize) + int64(erases)*int64(SectorSize)
			if score < best {
				best = score
				chipIdx, block, ok = ci, b, true
			}
		}
	}
	return chipIdx, block, ok
}

// reclaim returns a cleaned block to the free list.
func (a *allocator) reclaim(chipIdx, block int) {
	ca := a.chips[chipIdx]
	bm := &ca.blocks[block]
	bm.sealed = false
	bm.validCount = 0
	for i := range bm.valid {
		bm.valid[i] = false
	}
	ca.freeBlocks = append(ca.freeBlocks, block)
	a.free++
}

// retire removes a block from service after a failed erase.
func (a *allocator) retire(chipIdx, block int) {
	ca := a.chips[chipIdx]
	bm := &ca.blocks[block]
	bm.sealed = false
	bm.retired = true
	bm.validCount = 0
}

// OOB layout for the baseline: slot 0 holds the sector count, then one
// 8-byte LBA per sector slot.

func writeOOBCount(oob []byte, n int) {
	binary.LittleEndian.PutUint64(oob[0:8], uint64(n))
}

func writeOOBLBA(oob []byte, slot, lba int) {
	binary.LittleEndian.PutUint64(oob[(slot+1)*8:], uint64(lba))
}

func readOOBCount(oob []byte) int {
	return int(binary.LittleEndian.Uint64(oob[0:8]))
}

func readOOBLBA(oob []byte, slot int) int {
	return int(binary.LittleEndian.Uint64(oob[(slot+1)*8:]))
}
