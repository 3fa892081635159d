// Package ftl implements the conventional block firmware that KAML is
// compared against: a page-mapped flash translation layer exposing fixed
// 4 KB logical sectors over the simulated flash array.
//
// It reproduces the baseline behaviours the paper measures:
//
//   - Aligned 4 KB writes are acknowledged as soon as they land in the
//     controller's battery-backed write buffer (fast), and a background
//     flusher packs two sectors into each 8 KB flash page.
//   - Writes smaller than 4 KB trigger a read-modify-write: the firmware
//     must read the old sector from flash before merging (the latency and
//     bandwidth cliff in Figs. 5b/6b).
//   - Reads acquire an LBA-range lock so data cannot migrate mid-command,
//     charging controller CPU time (the reason Get can beat read, §V-B).
//   - A greedy garbage collector relocates valid sectors and erases blocks,
//     balancing erase counts (wear leveling).
//
// The firmware has no options. New derives the exposed LBA count and the
// GC watermarks from the flash geometry; everything else is a constant.
package ftl

import (
	"errors"
	"fmt"
	"time"

	"github.com/kaml-ssd/kaml/internal/flash"
	"github.com/kaml-ssd/kaml/internal/nvme"
	"github.com/kaml-ssd/kaml/internal/sim"
	"github.com/kaml-ssd/kaml/internal/telemetry"
)

// SectorSize is the logical block size exposed to the host.
const SectorSize = 4096

// Errors returned by the device.
var (
	ErrBadLBA      = errors.New("ftl: LBA out of range")
	ErrBadSize     = errors.New("ftl: bad request size")
	ErrUnmapped    = errors.New("ftl: read of unmapped LBA")
	ErrClosed      = errors.New("ftl: device closed")
	ErrOutOfBlocks = errors.New("ftl: no free blocks (device over-filled)")
)

// Firmware constants of the baseline (DESIGN.md §5).
const (
	writeBufferSectors = 256                    // NV-DRAM write buffer capacity
	flushPoll          = 20 * time.Microsecond  // flusher wake interval
	gcPoll             = 200 * time.Microsecond // GC wake interval
	rangeLockCost      = 36 * time.Microsecond  // firmware CPU per range-lock acquire
	rangeLockShift     = 4                      // lba >> shift selects the lock stripe: 16-sector ranges
)

// location packs a sector's physical position: ppn*sectorsPerPage + slot.
type location int64

const unmapped location = -1

// Device is the baseline block device.
type Device struct {
	fc   flash.Config
	arr  *flash.Array
	ctrl *nvme.Controller
	eng  *sim.Engine

	spp int // sectors per flash page

	// numLBAs is the exposed sector count: 80% of raw flash, leaving 20%
	// over-provisioning for GC, per common SSD practice. GC starts below
	// gcLowWater free blocks and collects up to gcHighWater.
	numLBAs                 int
	gcLowWater, gcHighWater int

	mu      *sim.Mutex // protects map, validity, allocator, buffer
	dataCv  *sim.Cond  // buffer has data / closed
	spaceCv *sim.Cond  // buffer has space

	mapTab []location
	buffer *writeBuffer
	alloc  *allocator

	rangeLocks []*sim.Mutex

	// Per-chip program pipelines: the flusher packs pages and hands them to
	// the owning chip's writer actor, which programs in FIFO order (NAND
	// requires in-order programs within a block) while different chips run
	// in parallel — matching real multi-channel firmware.
	chipQueues []*chipQueue
	inflight   int // pages packed but not yet installed
	// pendingByBlock counts dispatched-but-not-installed pages per flash
	// block so the GC never erases a block with programs or installs in
	// flight (the install swings mappings into the block).
	pendingByBlock map[int]int

	closed    bool
	flushDone bool           // flusher has drained and exited
	stopped   *sim.WaitGroup // background actors

	stats Stats

	// Telemetry. The baseline exposes its GC economics so the paper's
	// KAML-vs-block-SSD comparisons can be watched live next to the kamlssd
	// series. The GC's two counts are one cell each, which the registry
	// lists and Stats() reads.
	tel        *telemetry.Registry
	gcCopies   telemetry.Counter    // valid sectors relocated by GC
	gcErases   telemetry.Counter    // GC block erases
	gcPause    *telemetry.Histogram // one victim collection (virtual time)
	freeBlocks *telemetry.Gauge     // allocator free-block count
}

// pageJob is one packed page on its way to a chip.
type pageJob struct {
	ppn  flash.PPN
	data []byte
	oob  []byte
	lbas []int
	seqs []uint64
}

// chipQueue is a bounded FIFO of pageJobs served by one writer actor.
type chipQueue struct {
	jobs     []pageJob
	notFull  *sim.Cond
	notEmpty *sim.Cond
}

const chipQueueDepth = 2

// Stats counts host-visible and internal operations.
type Stats struct {
	Reads, Writes, PartialWrites int64
	RMWReads                     int64 // flash reads caused by sub-4KB writes
	GCCopies, GCErases           int64
	Programs                     int64
}

// New builds the device on the given array and transport and starts its
// background flusher and GC actors. Callers must Close the device before
// letting the simulation drain, or the engine will report the pollers as
// leaked actors.
func New(arr *flash.Array, ctrl *nvme.Controller) *Device {
	fc := arr.Config()
	if fc.PageSize%SectorSize != 0 {
		panic("ftl: page size not a multiple of the 4KB sector")
	}
	spp := fc.PageSize / SectorSize
	d := &Device{
		fc:          fc,
		arr:         arr,
		ctrl:        ctrl,
		eng:         arr.Engine(),
		spp:         spp,
		numLBAs:     fc.TotalPages() * spp * 8 / 10,
		gcLowWater:  fc.Chips() * 2,
		gcHighWater: fc.Chips() * 3,
	}
	d.mu = d.eng.NewMutex("ftl")
	d.dataCv = d.eng.NewCond(d.mu)
	d.spaceCv = d.eng.NewCond(d.mu)
	d.mapTab = make([]location, d.numLBAs)
	for i := range d.mapTab {
		d.mapTab[i] = unmapped
	}
	d.buffer = newWriteBuffer(writeBufferSectors)
	d.alloc = newAllocator(arr, d.spp)
	n := (d.numLBAs >> rangeLockShift) + 1
	d.rangeLocks = make([]*sim.Mutex, n)
	for i := range d.rangeLocks {
		d.rangeLocks[i] = d.eng.NewMutex(fmt.Sprintf("ftl-range%d", i))
	}
	d.tel = telemetry.NewRegistry()
	d.tel.Help("ftl_gc_copied_sectors_total", "Valid sectors relocated out of GC victim blocks.")
	d.tel.Help("ftl_gc_erases_total", "GC block erases.")
	d.tel.Help("ftl_gc_pause_seconds", "Duration of one GC victim collection (virtual time).")
	d.tel.Help("ftl_free_blocks", "Allocator free-block count.")
	d.tel.AdoptCounter(&d.gcCopies, "ftl_gc_copied_sectors_total")
	d.tel.AdoptCounter(&d.gcErases, "ftl_gc_erases_total")
	d.gcPause = d.tel.Histogram("ftl_gc_pause_seconds", telemetry.UnitSeconds)
	d.freeBlocks = d.tel.Gauge("ftl_free_blocks")
	d.pendingByBlock = make(map[int]int)
	d.chipQueues = make([]*chipQueue, fc.Chips())
	d.stopped = d.eng.NewWaitGroup()
	for i := range d.chipQueues {
		cq := &chipQueue{
			notFull:  d.eng.NewCond(d.mu),
			notEmpty: d.eng.NewCond(d.mu),
		}
		d.chipQueues[i] = cq
		i := i
		d.stopped.Add(1)
		d.eng.Go(fmt.Sprintf("ftl-chipwr%d", i), func() { d.chipWriterLoop(i) })
	}
	d.stopped.Add(2)
	d.eng.Go("ftl-flusher", d.flusherLoop)
	d.eng.Go("ftl-gc", d.gcLoop)
	return d
}

// Close stops the background actors after draining the write buffer.
func (d *Device) Close() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	d.dataCv.Broadcast()
	d.spaceCv.Broadcast()
	for _, cq := range d.chipQueues {
		cq.notEmpty.Broadcast()
		cq.notFull.Broadcast()
	}
	d.mu.Unlock()
	d.stopped.Wait()
}

// Stats returns a snapshot of the device counters.
func (d *Device) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.stats
	st.GCErases, st.GCCopies = d.gcErases.Value(), d.gcCopies.Value()
	return st
}

// Capacity returns the number of exposed 4 KB sectors.
func (d *Device) Capacity() int { return d.numLBAs }

func (d *Device) rangeLock(lba int) *sim.Mutex {
	return d.rangeLocks[lba>>rangeLockShift]
}

// ReadSector reads the 4 KB sector at lba into buf (len >= SectorSize).
func (d *Device) ReadSector(lba int, buf []byte) error {
	if lba < 0 || lba >= d.numLBAs {
		return fmt.Errorf("%w: %d", ErrBadLBA, lba)
	}
	if len(buf) < SectorSize {
		return fmt.Errorf("%w: buffer %d", ErrBadSize, len(buf))
	}
	var err error
	d.ctrl.Submit(func() {
		// The firmware locks the LBA range so GC cannot migrate the sector
		// mid-read; this charge is the overhead Get avoids.
		d.ctrl.Compute(rangeLockCost)
		rl := d.rangeLock(lba)
		rl.Lock()
		defer rl.Unlock()

		d.mu.Lock()
		d.stats.Reads++
		if data, ok := d.buffer.get(lba); ok {
			copy(buf, data)
			d.mu.Unlock()
			return
		}
		loc := d.mapTab[lba]
		d.mu.Unlock()
		if loc == unmapped {
			err = fmt.Errorf("%w: %d", ErrUnmapped, lba)
			return
		}
		ppn := flash.PPN(int64(loc) / int64(d.spp))
		slot := int(int64(loc) % int64(d.spp))
		data, rerr := d.arr.ReadRange(ppn, slot*SectorSize, SectorSize)
		if rerr != nil {
			err = rerr
			return
		}
		copy(buf, data)
	})
	return err
}

// WriteSector writes a full, aligned 4 KB sector. It returns once the data
// is in the NV-DRAM write buffer (fast path, no flash in the critical path
// unless the buffer is full).
func (d *Device) WriteSector(lba int, data []byte) error {
	if lba < 0 || lba >= d.numLBAs {
		return fmt.Errorf("%w: %d", ErrBadLBA, lba)
	}
	if len(data) != SectorSize {
		return fmt.Errorf("%w: %d", ErrBadSize, len(data))
	}
	var err error
	d.ctrl.Submit(func() {
		d.ctrl.Compute(rangeLockCost)
		rl := d.rangeLock(lba)
		rl.Lock()
		defer rl.Unlock()
		err = d.bufferSector(lba, data)
		d.mu.Lock()
		d.stats.Writes++
		d.mu.Unlock()
	})
	return err
}

// WritePartial writes len(data) < 4 KB at byte offset off within sector lba.
// The firmware performs a read-modify-write: it must fetch the current
// sector from flash before merging, so the command's latency includes a
// flash read (the baseline's small-write penalty).
func (d *Device) WritePartial(lba, off int, data []byte) error {
	if lba < 0 || lba >= d.numLBAs {
		return fmt.Errorf("%w: %d", ErrBadLBA, lba)
	}
	if off < 0 || len(data) == 0 || off+len(data) > SectorSize {
		return fmt.Errorf("%w: off=%d len=%d", ErrBadSize, off, len(data))
	}
	var err error
	d.ctrl.Submit(func() {
		d.ctrl.Compute(rangeLockCost)
		rl := d.rangeLock(lba)
		rl.Lock()
		defer rl.Unlock()

		sector := make([]byte, SectorSize)
		d.mu.Lock()
		d.stats.PartialWrites++
		old, buffered := d.buffer.get(lba)
		loc := d.mapTab[lba]
		d.mu.Unlock()
		switch {
		case buffered:
			copy(sector, old)
		case loc != unmapped:
			// Read-modify-write against flash.
			ppn := flash.PPN(int64(loc) / int64(d.spp))
			slot := int(int64(loc) % int64(d.spp))
			stored, rerr := d.arr.ReadRange(ppn, slot*SectorSize, SectorSize)
			if rerr != nil {
				err = rerr
				return
			}
			d.mu.Lock()
			d.stats.RMWReads++
			d.mu.Unlock()
			copy(sector, stored)
		}
		copy(sector[off:], data)
		err = d.bufferSector(lba, sector)
	})
	return err
}

// bufferSector inserts a sector into the NV-DRAM buffer, waiting for space.
func (d *Device) bufferSector(lba int, data []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for d.buffer.full() && !d.buffer.has(lba) {
		if d.closed {
			return ErrClosed
		}
		d.spaceCv.Wait()
	}
	if d.closed {
		return ErrClosed
	}
	d.buffer.put(lba, data)
	d.dataCv.Signal()
	return nil
}

// Flush is the device's fsync. Because the write buffer is battery-backed
// (the paper assumes capacitor- or battery-protected DRAM), data is
// power-safe the moment a write is acknowledged, so flush only needs a
// command round trip — this is what makes the baseline's fsync-heavy
// commit path viable at all (§V-A).
func (d *Device) Flush() {
	d.ctrl.Submit(func() {
		d.ctrl.Compute(rangeLockCost / 4) // flush command bookkeeping
	})
}

// Drain blocks until every buffered sector has been programmed to flash —
// stronger than Flush; used by tests and shutdown.
func (d *Device) Drain() {
	d.ctrl.Submit(func() {
		d.mu.Lock()
		for (d.buffer.pending() > 0 || d.inflight > 0) && !d.closed {
			d.spaceCv.Wait() // broadcast after each program install
		}
		d.mu.Unlock()
	})
}

// flusherLoop packs buffered sectors, two at a time, into flash pages.
func (d *Device) flusherLoop() {
	defer d.stopped.Done()
	for {
		d.mu.Lock()
		for d.buffer.len() == 0 && !d.closed {
			d.mu.Unlock()
			d.eng.Sleep(flushPoll)
			d.mu.Lock()
		}
		if d.buffer.len() == 0 && d.closed {
			d.flushDone = true
			d.mu.Unlock()
			return
		}
		lbas, sectors, seqs := d.buffer.take(d.spp)
		if len(lbas) == 0 {
			d.mu.Unlock()
			continue
		}
		// Allocate the page while holding d.mu, then hand the packed page
		// to the owning chip's writer (FIFO per chip keeps NAND program
		// order; chips run in parallel).
		ppn, err := d.alloc.allocPage(false)
		for err != nil {
			d.mu.Unlock()
			d.eng.Sleep(gcPoll) // wait for GC to reclaim blocks
			d.mu.Lock()
			ppn, err = d.alloc.allocPage(false)
		}
		page := make([]byte, d.fc.PageSize)
		oob := make([]byte, (d.spp+1)*8)
		writeOOBCount(oob, len(lbas))
		for i, s := range sectors {
			copy(page[i*SectorSize:], s)
			writeOOBLBA(oob, i, lbas[i])
		}
		d.inflight++
		d.pendingByBlock[d.blockKey(ppn)]++
		chip := d.chipOf(ppn)
		cq := d.chipQueues[chip]
		for len(cq.jobs) >= chipQueueDepth && !d.closed {
			cq.notFull.Wait()
		}
		cq.jobs = append(cq.jobs, pageJob{ppn: ppn, data: page, oob: oob, lbas: lbas, seqs: seqs})
		cq.notEmpty.Signal()
		d.mu.Unlock()
	}
}

// chipOf maps a PPN to its flat chip index.
func (d *Device) chipOf(ppn flash.PPN) int {
	addr := d.arr.Decode(ppn)
	return addr.Channel*d.fc.ChipsPerChannel + addr.Chip
}

// blockKey flattens a PPN's block coordinates.
func (d *Device) blockKey(ppn flash.PPN) int {
	return int(ppn) / d.fc.PagesPerBlock
}

// chipWriterLoop programs its chip's queued pages in order and installs
// the new mappings. The OOB stores the reverse map (lba per slot) for GC.
func (d *Device) chipWriterLoop(chip int) {
	defer d.stopped.Done()
	cq := d.chipQueues[chip]
	for {
		d.mu.Lock()
		for len(cq.jobs) == 0 {
			if d.closed && d.buffer.pending() == 0 {
				d.mu.Unlock()
				return
			}
			cq.notEmpty.Wait()
		}
		job := cq.jobs[0]
		cq.jobs = cq.jobs[1:]
		cq.notFull.Signal()
		d.mu.Unlock()

		if err := d.arr.ProgramPage(job.ppn, job.data, job.oob); err != nil {
			panic(fmt.Sprintf("ftl: program %d: %v", job.ppn, err))
		}

		d.mu.Lock()
		d.stats.Programs++
		for i, lba := range job.lbas {
			newLoc := location(int64(job.ppn)*int64(d.spp) + int64(i))
			if d.buffer.finish(lba, job.seqs[i]) {
				// The drained version is still newest: swing the mapping.
				old := d.mapTab[lba]
				if old != unmapped {
					d.alloc.invalidate(old)
				}
				d.mapTab[lba] = newLoc
				d.alloc.markValid(newLoc, lba)
			} else {
				// Host rewrote the sector mid-drain; this copy is garbage.
				d.alloc.markValid(newLoc, lba)
				d.alloc.invalidate(newLoc)
			}
		}
		d.inflight--
		bk := d.blockKey(job.ppn)
		d.pendingByBlock[bk]--
		if d.pendingByBlock[bk] == 0 {
			delete(d.pendingByBlock, bk)
		}
		d.spaceCv.Broadcast()
		if d.closed {
			// Wake sibling writers so they can observe the drained state.
			for _, q := range d.chipQueues {
				q.notEmpty.Broadcast()
			}
		}
		d.mu.Unlock()
	}
}
