package kamlssd

import (
	"errors"
	"fmt"
	"time"

	"github.com/kaml-ssd/kaml/internal/flash"
	"github.com/kaml-ssd/kaml/internal/record"
	"github.com/kaml-ssd/kaml/internal/sim"
	"github.com/kaml-ssd/kaml/internal/telemetry"
)

// logState is one append-only log: a subset of the array's chips, two NVRAM
// pages accumulating records (one per host stream, see below), a bounded
// queue of sealed pages awaiting program, exactly one flusher actor — so each
// log is a strictly sequential program stream, which is why the log count
// bounds the device's concurrent program operations (the effect behind
// Fig. 8) — and exactly one collector actor reclaiming its blocks (gc.go).
//
// A log appends to three streams, each with its own open block: two host
// streams, cold and hot, and the collector's GC stream. A record goes to the
// hot stream when its key was last rewritten within the lifetime of the
// log's last collected hot block (streamFor): such a record is likely to die
// before its block is collected, so a hot block dies nearly empty and the
// cold blocks are not made victims by the rewrites mixed into them.
//
// A record is durable at its batch's NVRAM commit marker, so an open page
// has no reason to leave NVRAM early: it is sealed when the next record does
// not fit, when it becomes exactly full, or when somebody asks for the log
// to be drained (Flush, Close) — never on a timer. A sealed page has no
// flash address yet: the flusher gives it one from its stream when it
// dequeues it, so only the flusher waits for an erased block. Nor does a
// writer wait for a full sealed queue while another log of its namespace has
// room: it leaves its full page to the flusher (sealWanted), which seals it
// as soon as a dequeue makes room, and the record moves on (appendRecord).
// The log therefore holds at most QueueDepthPerLog+3 pages of records in
// NVRAM: the two open pages, the sealed queue, and the page being programmed
// (or waiting for its block).
//
// Every field below mu is guarded by mu, the per-log lock of the device's
// hierarchy (see device.go): Puts routed to different logs, and each log's
// flusher, contend only here, never on a device-wide lock.
type logState struct {
	id int
	d  *Device

	mu    *sim.Mutex
	space // the free lists, the free count and the blocks' space (space.go)

	open        [numHostStreams]openPage
	pageSeq     uint64 // pages sealed so far: an open page's identity across a wait
	sealedQueue []sealedPage
	// inflight is the page the flusher is programming right now, held by
	// value; its data is nil while the flusher programs nothing.
	inflight sealedPage
	// spare holds emptied pending lists: the flusher returns a page's list
	// once the page is installed, and the next seal opens its page with it.
	spare  [][]pendingRec
	workCv *sim.Cond // on mu: sealed page queued / drain requested / device closed

	active   [numStreams]*appendPoint // each stream's open block (nil: none)
	nextChip int                      // rotate block allocation across the log's chips
	// victimChip is the chip (an index into chips) of the victim the log's
	// collector is collecting, noChip between victims (collector.pick).
	victimChip int
	// hotLife is the lifetime, in NVRAM seqs from its birth to its erase, of
	// the last hot block the collector reclaimed — or, until one has been
	// (hotLearned), of the last cold one. Zero on a new or recovered log: no
	// record goes hot before a block of the log has been collected.
	hotLife    uint64
	hotLearned bool

	// The log's counted events and wear spread, one cell each; the registry
	// lists them under a log="<id>" label (metrics.go).
	gcCopiedBytes    telemetry.Counter                // valid bytes relocated out of victims
	gcErases         telemetry.Counter                // victim erases (incl. failed-erase retirements)
	wearMin, wearMax telemetry.Gauge                  // erase-count spread, refreshed at each victim scan
	sealed           [numSealCauses]telemetry.Counter // pages that left the packer, by why
	hotPages         telemetry.Counter                // of those, pages of the hot stream
	rerouted         telemetry.Counter                // records sent on to their namespace's next log: the queue was full
}

// A log's append streams. The host streams index logState.open; all three
// index logState.active.
const (
	streamCold = iota // host records whose key was not rewritten lately
	streamHot         // host records whose key was (streamFor)
	streamGC          // the collector's relocations

	numHostStreams = streamGC
	numStreams     = streamGC + 1
)

// noChip is logState.victimChip while the collector collects nothing.
const noChip = -1

// openPage is one host stream's page filling in NVRAM.
type openPage struct {
	packer  *record.Packer
	pending []pendingRec // records in the packer
	// sealWanted marks a page that a writer left because the sealed queue was
	// full. Only a dequeue makes room, so the flusher seals the page right
	// after one; until then the queue stays full. leftAt is the log's pageSeq
	// when the page was left: of two left pages the flusher seals the one
	// left first, so a page refilled and left again after every dequeue
	// cannot hold the other back.
	sealWanted bool
	leftAt     uint64
}

// sealCause says why an open page left NVRAM's packer for the program queue.
type sealCause int

const (
	sealFull  sealCause = iota // the last record filled the page exactly
	sealNoFit                  // the next record did not fit
	sealDrain                  // Flush asked for the log to be drained
	sealClose                  // orderly shutdown
	numSealCauses
)

var sealCauseNames = [numSealCauses]string{"full", "nofit", "drain", "close"}

// waitCause names the other job of a log on the chip of a page its flusher
// programs: the time the program takes beyond its floor is counted under it
// (kaml_ssd_program_wait_seconds).
type waitCause int

const (
	waitVictim waitCause = iota // the victim the log's collector is collecting
	waitGC                      // the GC stream's open block
	waitOther                   // neither: the chip is the flusher's alone
	numWaitCauses
)

var waitCauseNames = [numWaitCauses]string{"victim", "gc", "other"}

// sharer is the cause a program of ppn, a page of this log, waits under.
// Called with lg.mu held.
func (lg *logState) sharer(ppn flash.PPN) waitCause {
	a := lg.d.arr.Decode(ppn)
	global := a.Channel*lg.d.fc.ChipsPerChannel + a.Chip
	if lg.victimChip != noChip && lg.chips[lg.victimChip].global == global {
		return waitVictim
	}
	if gc := lg.active[streamGC]; gc != nil && lg.chips[gc.chip].global == global {
		return waitGC
	}
	return waitOther
}

type logChip struct {
	global   int   // chip index in the array (channel*ChipsPerChannel+chip)
	freeList []int // erased blocks, oldest first
	blocks   []blockMeta
}

type blockMeta struct {
	sealed  bool
	retired bool
	// noGain marks a sealed block whose scanned live records fill a block's
	// pages, left unerased (collectBlock) until a version on it dies.
	noGain     bool
	stream     int // the stream that opened the block; recovered blocks count as cold
	validBytes int64
	// maxChunks is the largest record, in chunks, credited to the block in its
	// current life: no live record on it is longer (relocationPages).
	maxChunks  int
	progFailed int // program failures observed in this block's current life
	// born is the newest seq on the block's first page, set when a host
	// stream allocates it; zero for a block whose birth this log did not see.
	born uint64
}

type appendPoint struct {
	chip  int // index into logState.chips
	block int
	page  int
}

type pendingRec struct {
	ns    uint32
	key   uint64
	seq   uint64 // NVRAM sequence the index points at
	chunk int    // start chunk within the sealed page
	size  int    // encoded bytes
	// staged is the record's NVRAM staging time; feeds the flash-install
	// latency histogram. Zero when telemetry is off (and for recovery
	// replays, which must not pollute the distribution).
	staged time.Duration
}

// sealedPage is a page image on its way to flash. Its ppn is zero while it
// waits in the sealed queue: the flusher assigns one from the page's host
// stream when it dequeues it.
type sealedPage struct {
	ppn     flash.PPN
	stream  int
	data    []byte
	oob     []byte
	pending []pendingRec
}

func newLogState(d *Device, id int) *logState {
	lg := &logState{id: id, d: d, victimChip: noChip}
	for s := range lg.open {
		lg.open[s].packer = record.NewPacker(d.fc.PageSize, chunkSize)
	}
	lg.mu = d.eng.NewMutex(fmt.Sprintf("kaml-log%d", id))
	lg.workCv = d.eng.NewCond(lg.mu)
	low, high := gcWater()
	lg.space = space{fc: &d.fc, low: low, high: high, freeCv: d.eng.NewCond(lg.mu),
		gcCv: d.eng.NewCond(lg.mu), tally: make([]uint8, d.fc.BlocksPerChip)}
	return lg
}

func (lg *logState) chipAddr(chipIdx int) (channel, chip int) {
	g := lg.chips[chipIdx].global
	return g / lg.d.fc.ChipsPerChannel, g % lg.d.fc.ChipsPerChannel
}

// nextPPN allocates the next sequential page of stream s, opening a fresh
// block when needed. A host stream the reserve refuses a block (space.take)
// shares the other host stream's open block, if it has one, rather than
// wait: the block the collector needs next may be that one, whose pages
// queue behind the waiting page. Shares and covered takes are counted in
// kaml_ssd_reserve_takes_total. Called with lg.mu held.
func (lg *logState) nextPPN(s int) (flash.PPN, error) {
	ap := &lg.active[s]
	if *ap == nil {
		if open, covered := lg.space.take(s); !open {
			ap = &lg.active[numHostStreams-1-s] // the other host stream's
			if *ap == nil {
				return 0, fmt.Errorf("kamlssd: log %d out of free blocks", lg.id)
			}
			if lg.d.tel != nil {
				lg.d.ctr.reserveShared.Inc()
			}
		} else {
			if covered && lg.d.tel != nil {
				lg.d.ctr.reserveCovered.Inc()
			}
			cp, err := lg.openBlock(s)
			if err != nil {
				return 0, err
			}
			if cp.page == 0 {
				bm := &lg.chips[cp.chip].blocks[cp.block]
				bm.stream, bm.born = s, 0
			}
			*ap = cp
		}
	}
	p := *ap
	ch, chip := lg.chipAddr(p.chip)
	ppn := lg.d.arr.BlockPPN(ch, chip, p.block, p.page)
	p.page++
	if p.page >= lg.d.fc.PagesPerBlock {
		lg.chips[p.chip].blocks[p.block].sealed = true
		*ap = nil
	}
	return ppn, nil
}

// openBlock resumes the next block on the log's resume list or, once that is
// empty, pops a free block for stream s. A log has four jobs — the two host
// streams, the GC stream and the victim being collected — and each holds a
// chip for its programs, reads or erase, so on a log with more chips than
// streams the block comes from the first chip in rotation that holds no job
// s must keep apart from (busyChip), so the flusher does not program behind
// its own collector, nor the collector behind the flusher. When no chip with
// a free block qualifies, and on a log too small to keep its jobs apart, it
// takes the next chip in rotation that has one. Both the host and the GC
// stream take free blocks here (popFree) alone. Called with lg.mu held.
func (lg *logState) openBlock(s int) (*appendPoint, error) {
	if len(lg.resume) > 0 {
		ap := lg.resume[0]
		lg.resume = lg.resume[1:]
		return &ap, nil
	}
	n := len(lg.chips)
	if n > numStreams {
		for i := 0; i < n; i++ {
			ci := (lg.nextChip + i) % n
			if lg.busyChip(s, ci) {
				continue
			}
			if b, ok := lg.space.popFree(ci); ok {
				lg.nextChip = (ci + 1) % n
				return &appendPoint{chip: ci, block: b}, nil
			}
		}
	}
	for tries := 0; tries < n; tries++ {
		ci := lg.nextChip
		lg.nextChip = (ci + 1) % n
		if b, ok := lg.space.popFree(ci); ok {
			return &appendPoint{chip: ci, block: b}, nil
		}
	}
	return nil, fmt.Errorf("kamlssd: log %d out of free blocks", lg.id)
}

// busyChip reports whether chip ci holds a job of the log that stream s must
// not open a block beside: the victim the collector is collecting, and for a
// host stream the GC stream's open block, for the GC stream a host stream's.
// The two host streams share the flusher, which programs one page at a
// time, so they do not keep apart. Called with lg.mu held.
func (lg *logState) busyChip(s, ci int) bool {
	if ci == lg.victimChip {
		return true
	}
	if s == streamGC {
		return lg.hostChip(ci)
	}
	gc := lg.active[streamGC]
	return gc != nil && gc.chip == ci
}

// hostPPN is nextPPN for a host stream that waits, while the log is out of
// erased blocks, for the log's collector to return one — the paper's
// free-block watermark backpressure. Only the flusher calls it, for the page
// it has just dequeued, so a stall behind garbage collection holds up this
// log's programs, not a Put: the log's queue fills, and its writers move on
// to their namespaces' other logs (appendRecord). The stall is observed in
// kaml_ssd_free_block_wait_seconds. Nobody has to wake the collector from
// here: the reserve is below gcLowFree, so the pop that took the log there
// signalled gcCv, and a collector parked since is starved (gcRetry). Reports
// false on a power cut. Called with lg.mu held, which the wait releases.
func (lg *logState) hostPPN(stream int) (flash.PPN, bool) {
	ppn, err := lg.nextPPN(stream)
	if err == nil {
		return ppn, true
	}
	d := lg.d
	start := d.telNow()
	for err != nil {
		lg.freeCv.Wait()
		if d.crashed {
			return 0, false
		}
		ppn, err = lg.nextPPN(stream)
	}
	d.since(d.freeBlockWait, start)
	return ppn, true
}

// wakeAll makes every actor waiting on one of the log's conditions re-test
// its predicate against a device that is stopping (Close, power loss, the
// last flusher's exit).
func (lg *logState) wakeAll() {
	lg.mu.Lock()
	lg.workCv.Broadcast()
	lg.freeCv.Broadcast()
	lg.gcCv.Broadcast()
	lg.mu.Unlock()
}

// awaitRoom parks a writer that has met every log of its namespace full until
// a flusher makes room in any log, not only the last one it met: a room
// event after the seen-th, the count the writer read at the first full log
// of its round. Fails on a power cut. The wait is observed in
// kaml_ssd_log_full_wait_seconds. Called with no lock held.
func (d *Device) awaitRoom(seen uint64) error {
	start := d.telNow()
	d.room.await(seen, &d.crashed)
	d.since(d.logFullWait, start)
	if d.crashed {
		return ErrPowerLoss
	}
	return nil
}

// madeRoom is a room event: a flusher sealed a page that a writer left, so
// its log takes records again. It wakes the writers waiting for a log with
// room (awaitRoom). Called with lg.mu held; nvMu nests inside it.
func (d *Device) madeRoom() { d.room.raise() }

// hasRoom reports whether the sealed queue can take another page. Called with
// lg.mu held.
func (lg *logState) hasRoom() bool {
	return len(lg.sealedQueue) < lg.d.cfg.QueueDepthPerLog
}

// sealPacker moves stream s's open page — which the caller found non-empty —
// to the back of the sealed queue and counts the seal under its cause. It
// never waits: the page takes its flash address only when the flusher
// dequeues it, and the caller has checked that the queue has room (or is the
// flusher draining an empty queue). Called with lg.mu held.
func (lg *logState) sealPacker(s int, cause sealCause) {
	op := &lg.open[s]
	if op.packer.FreeChunks() == 0 {
		// Whoever seals a full page — its filler, a writer that met it full, or
		// the flusher that found it left full — it left because it was full.
		cause = sealFull
	}
	lg.sealed[cause].Inc()
	if s == streamHot {
		lg.hotPages.Inc()
	}
	lg.d.sealedChunks.Observe(int64(lg.d.fc.PageSize/chunkSize - op.packer.FreeChunks()))
	lg.pageSeq++
	op.sealWanted = false
	data, bitmap := op.packer.Finish()
	oob := buildOOB(bitmap, data)
	pend := op.pending
	op.pending = nil
	if n := len(lg.spare); n > 0 {
		op.pending = lg.spare[n-1]
		lg.spare = lg.spare[:n-1]
	}
	lg.sealedQueue = append(lg.sealedQueue, sealedPage{stream: s, data: data, oob: oob, pending: pend})
	lg.workCv.Signal() // wake an idle flusher
}

// sealOrLeave is a writer's seal: it seals stream s's open page if the queue
// has room and otherwise leaves it to the flusher, marked sealWanted.
// Reports whether it sealed. Called with lg.mu held.
func (lg *logState) sealOrLeave(s int, cause sealCause) bool {
	if lg.hasRoom() {
		lg.sealPacker(s, cause)
		return true
	}
	if op := &lg.open[s]; !op.sealWanted {
		op.sealWanted, op.leftAt = true, lg.pageSeq
	}
	return false
}

// openEmpty reports whether both open pages are empty. Called with lg.mu
// held.
func (lg *logState) openEmpty() bool {
	return lg.open[streamCold].packer.Empty() && lg.open[streamHot].packer.Empty()
}

// streamFor is the host stream of a record with NVRAM sequence seq whose
// key's previous version has sequence prev (zero for a new key): hot when
// the key was rewritten within the lifetime of the log's last collected hot
// block, because then this version too is likely to die before a block it
// shares with such records is collected. Called with lg.mu held.
func (lg *logState) streamFor(seq, prev uint64) int {
	if prev != 0 && seq-prev < lg.hotLife {
		return streamHot
	}
	return streamCold
}

// route returns the log ns is appending to right now and the cursor value
// that chose it. Called with ns.mu held (logIDs).
func (d *Device) route(ns *namespace) (*logState, uint64) {
	cur := ns.rr
	return d.logs[ns.logIDs[cur%uint64(len(ns.logIDs))]], cur
}

// appendRecord adds one NVRAM-staged record to an open page of lg, the log
// route picked for ns at cursor value cur: the page of the host stream the
// record's temperature picks on that log (streamFor, from prev, the seq of
// the version it supersedes). It is the tail of Put's phase 1b and of
// recovery's re-staging alike. The page is sealed when the record does not
// fit or fills it exactly, and every seal moves the namespace on to its next
// log — the cursor advances per page, not per record, so records pack, and
// while no queue is full a namespace's pages stay balanced across its logs to
// within one, whichever stream sealed them (an exact-fit seal counts: a
// cursor that moved only on "does not fit" would pin a namespace of
// page-dividing records to one log). The cursor moves before the seal. A
// log whose sealed queue is full keeps its page for its flusher to seal
// (sealOrLeave), and a record that did not fit follows the cursor to the
// namespace's next log, whose own temperature judges it again. Only a writer
// that has met every log of its namespace full in a row — the device is
// flash-bound — waits (awaitRoom), until any flusher makes room, and then
// follows the cursor again: the NVRAM backpressure that ties Put bandwidth
// to the logs' append bandwidth. Fails only on a power cut, with the record
// not routed. Called with no lock held.
func (d *Device) appendRecord(ns *namespace, lg *logState, cur uint64, rec record.Record, prev uint64, staged time.Duration) error {
	size := rec.EncodedSize()
	full := 0 // logs met in a row with a full queue
	var seen uint64
	lg.mu.Lock()
	s := lg.streamFor(rec.Seq, prev)
	for !lg.open[s].packer.Fits(size) {
		if ns.rr == cur {
			ns.rr++
		}
		if lg.sealOrLeave(s, sealNoFit) {
			continue
		}
		if full++; full == 1 {
			// Read under the first full log's lock: a room event on any log
			// from here on is one this writer waits for, not one it missed.
			seen = d.room.seen()
		}
		lg.mu.Unlock()
		ns.mu.RLock()
		every := full >= len(ns.logIDs)
		next, nextCur := d.route(ns)
		ns.mu.RUnlock()
		if every {
			if err := d.awaitRoom(seen); err != nil {
				return err // the record is staged but not routed; the caller aborts its batch
			}
			full = 0
			ns.mu.RLock()
			next, nextCur = d.route(ns)
			ns.mu.RUnlock()
		} else {
			lg.rerouted.Inc()
		}
		lg, cur = next, nextCur
		lg.mu.Lock()
		s = lg.streamFor(rec.Seq, prev)
	}
	op := &lg.open[s]
	chunk := op.packer.Add(rec)
	op.pending = append(op.pending, pendingRec{
		ns: rec.Namespace, key: rec.Key, seq: rec.Seq,
		chunk: chunk, size: size, staged: staged,
	})
	switch {
	case op.packer.FreeChunks() == 0:
		if ns.rr == cur {
			ns.rr++
		}
		lg.sealOrLeave(s, sealFull)
	case d.drainers > 0:
		lg.workCv.Signal() // a Flush is waiting for this record too
	}
	lg.mu.Unlock()
	return nil
}

// flusherLoop programs sealed pages in order and installs flash locations.
// A page takes its flash address from its stream when the flusher dequeues
// it (hostPPN): one flusher per log allocating in queue order keeps every
// block programmed in order, and a wait for an erased block stalls this
// log's programs, not a writer. The dequeue is also the one thing that makes
// room in the queue, so right after it the flusher seals a page a writer
// left full (sealWanted), the one left first if both were — if the queue has
// room then: a page whose program failed re-enters the queue beyond its
// depth. It seals a partially-filled
// open page only on request, into an empty queue, one page per dequeue: while
// a Flush is waiting (d.drainers) or at Close.
func (d *Device) flusherLoop(lg *logState) {
	defer func() {
		if d.flushersLive--; d.flushersLive == 0 {
			// The collectors outlive the flushers (gcStopped); the last one
			// out tells them there is nobody left to free blocks for.
			for _, l := range d.logs {
				l.wakeAll()
			}
		}
		d.stopped.Done()
	}()
	for {
		if d.crashed {
			return
		}
		lg.mu.Lock()
		// Idle: block until there is a sealed page to program, a drain request
		// for a non-empty open page, or shutdown. An open page by itself is not
		// work — its records are durable where they are.
		for len(lg.sealedQueue) == 0 && !d.closed &&
			(lg.openEmpty() || d.drainers == 0) {
			lg.workCv.WaitIdle()
		}
		if d.crashed {
			lg.mu.Unlock()
			return
		}
		if len(lg.sealedQueue) == 0 {
			if lg.openEmpty() {
				lg.mu.Unlock()
				return // closed and fully drained
			}
			cause := sealDrain
			if d.closed {
				cause = sealClose
			}
			s := streamCold
			if lg.open[s].packer.Empty() {
				s = streamHot
			}
			lg.sealPacker(s, cause)
		}
		// The queue closes up in place, so the next seal appends into the
		// same array instead of regrowing it.
		sp := lg.sealedQueue[0]
		n := copy(lg.sealedQueue, lg.sealedQueue[1:])
		lg.sealedQueue[n] = sealedPage{}
		lg.sealedQueue = lg.sealedQueue[:n]
		first := streamCold
		if lg.open[streamHot].leftAt < lg.open[streamCold].leftAt {
			first = streamHot // only a page that is sealWanted is sealed below
		}
		for _, s := range [numHostStreams]int{first, numHostStreams - 1 - first} {
			if lg.open[s].sealWanted && lg.hasRoom() {
				lg.sealPacker(s, sealNoFit)
				d.madeRoom()
			}
		}
		ppn, ok := lg.hostPPN(sp.stream)
		if !ok {
			lg.mu.Unlock()
			return // power cut: the records stay in NVRAM for recovery
		}
		if d.arr.Decode(ppn).Page == 0 {
			_, lc, b := d.blockOf(ppn)
			lc.blocks[b].born = newestSeq(sp.pending)
		}
		sp.ppn = ppn
		lg.inflight = sp
		var wait *telemetry.Histogram // nil while telemetry is off
		var start time.Duration
		if d.tel != nil {
			wait, start = d.programWait[lg.sharer(ppn)], d.eng.NowCheap()
		}
		lg.mu.Unlock()

		err := d.programPage(sp.ppn, sp.data, sp.oob)
		if wait != nil && err == nil {
			// What the program took beyond its page's transfer and
			// ProgramLatency: the chip or channel was busy with another job.
			floor := d.fc.ProgramLatency + d.fc.TransferTime(d.fc.PageSize+d.fc.OOBSize)
			wait.ObserveDuration(d.eng.NowCheap() - start - floor)
		}
		if errors.Is(err, flash.ErrPowerCut) {
			// The records are safe in NVRAM; recovery replays them. Exit
			// without installing anything.
			return
		}
		if err != nil {
			// The failed program consumed its page, so the image re-enters
			// the queue without an address and takes the log's next page when
			// dequeued again; its values are still in NVRAM and indexed there.
			lg.mu.Lock()
			lg.inflight = sealedPage{}
			sp.ppn = 0
			lg.sealedQueue = append(lg.sealedQueue, sp)
			lg.mu.Unlock()
			continue
		}

		// Hold the device read lock across the whole install so namespace
		// creation/snapshot (writers) observe either none or all of this
		// page's index swings — a snapshot taken mid-install could otherwise
		// clone an NVRAM location whose staging entry is about to be freed.
		d.mu.RLock()
		for _, pr := range sp.pending {
			d.installFlashLoc(pr, sp.ppn)
		}
		d.mu.RUnlock()
		if d.drainers > 0 {
			d.nvMu.Lock()
			d.wakeDrainedLocked()
			d.nvMu.Unlock()
		}
		lg.mu.Lock()
		lg.inflight = sealedPage{}
		lg.spare = append(lg.spare, sp.pending[:0])
		lg.space.gcRetry() // the page's block may just have become collectible
		lg.mu.Unlock()
	}
}

// newestSeq is the highest NVRAM sequence among a page's records: the
// birth of the block the page opens.
func newestSeq(pending []pendingRec) uint64 {
	var seq uint64
	for _, pr := range pending {
		seq = max(seq, pr.seq)
	}
	return seq
}

// installFlashLoc is phase 3 of Put for one record: swing the record's
// version-chain node from the NVRAM location to the flash location. Under
// MVCC even a superseded version gets its flash location installed — it
// stays readable at pinned timestamps until pruned — and its flash space
// is credited exactly once here (prune discounts it later). A version
// already pruned or aborted is absent from the chain: its flash copy is
// dead on arrival and never credited. Called with d.mu read-held and no
// namespace or log lock.
func (d *Device) installFlashLoc(pr pendingRec, ppn flash.PPN) {
	nchunks := (pr.size + chunkSize - 1) / chunkSize
	d.swing(pr.ns, pr.key, nvramLoc(pr.seq), flashLoc(ppn, pr.chunk, nchunks))
	// Release the NVRAM copy — unless its batch has not committed yet, in
	// which case the entry stays as an uncommitted marker so recovery knows
	// this flash record belongs to an unfinished batch.
	d.nvMu.Lock()
	d.nv.installed(pr.seq)
	d.ctr.nvramStaged.Set(int64(len(d.nv.values)))
	d.nvMu.Unlock()
	if pr.staged > 0 {
		d.flashInstall.ObserveDuration(d.eng.NowCheap() - pr.staged)
	}
}

// swing moves key's version at location from to location to and credits to's
// block: the one chain swing, for the flusher's install and GC's relocation.
// Reports false when no version is at from (pruned, aborted, or its family
// deleted): the copy at to is dead on arrival. Called with d.mu read-held.
func (d *Device) swing(ns uint32, key uint64, from, to location) bool {
	fam := d.families[ns]
	if fam == nil {
		return false
	}
	fam.root.mu.Lock()
	node := fam.chains.VersionAtLoc(key, uint64(from))
	if node != nil {
		node.SetLoc(uint64(to))
	}
	fam.root.mu.Unlock()
	if node == nil {
		return false
	}
	d.creditValid(to)
	return true
}

// blockOf maps a PPN to its owning log, chip, and block. Pure address
// arithmetic: log i holds the array's chips i, i+NumLogs, ... in order
// (buildLogs). Callers touching the returned blockMeta must hold that log's
// mutex.
func (d *Device) blockOf(ppn flash.PPN) (*logState, *logChip, int) {
	addr := d.arr.Decode(ppn)
	global := addr.Channel*d.fc.ChipsPerChannel + addr.Chip
	lg := d.logs[global%len(d.logs)]
	return lg, lg.chips[global/len(d.logs)], addr.Block
}
