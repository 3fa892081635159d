package kamlssd

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"github.com/kaml-ssd/kaml/internal/flash"
	"github.com/kaml-ssd/kaml/internal/nvme"
	"github.com/kaml-ssd/kaml/internal/record"
)

// Recover rebuilds a device after a power cut from the two artifacts that
// survive one: the flash array and the battery-backed NVRAM. Recover trusts
// nothing volatile — every mapping table, the log allocator, and the
// valid-byte accounting are reconstructed by scanning the logs, exactly as
// real firmware would after power loss (paper §IV-D: "the firmware recovers
// using the data in the non-volatile buffers" plus a log scan). It reads the
// array and writes nothing to it: no program, no erase.
//
// The protocol, in order:
//
//  1. Recreate every namespace from the NVRAM catalog: writable roots with
//     an empty mapping table, snapshots as table-less shells pinned at
//     their persisted cutoff.
//  2. Discard staged values of batches that never committed: their Puts
//     were not acknowledged, so the whole batch must vanish (atomicity).
//  3. Rebuild the allocator from the blocks' program counts: retired blocks
//     stay out of service, empty blocks become free, full blocks are sealed,
//     and a partially-programmed block goes on its log's resume list, to be
//     appended to from its first unprogrammed page.
//  4. Scan every programmed page, readersPerChip reader actors per chip, so
//     the scan runs at the array's floor. A reader skips pages failing the
//     OOB magic/CRC (torn or garbage) and those still unreadable after the
//     retries, and lists the records it finds; aborted sequences are ignored.
//  5. Join the readers' records and the committed NVRAM values into version
//     chains (join), restart the background actors, and re-stage the NVRAM
//     values the chains kept into packers for programming.
//
// Who owns what. Until step 5 starts the device's actors, the recovering
// actor owns everything — tables, allocator, NVRAM — and takes no lock, with
// one exception: while the readers of step 4 run it only waits for them. A
// reader writes nothing but its own pageReader; the NVRAM maps it consults
// (aborted sequences) are read-only until the join.
//
// The configuration and flash geometry must match the pre-crash device.
// Call from a simulation actor.
func Recover(arr *flash.Array, ctrl *nvme.Controller, cfg Config, nv *NVRAM) (*Device, error) {
	began := arr.Engine().NowCheap() // for kaml_recovery_seconds, observed once the registry exists
	d, recs, err := scanDevice(arr, ctrl, cfg, nv)
	if err != nil {
		return nil, err
	}

	// 5. Join the scan with the NVRAM into version chains, then actors first
	// (re-staging below seals the pages it fills, which needs running
	// flushers to drain the queue), then route the kept NVRAM values into
	// packers.
	replay, err := d.join(recs)
	if err != nil {
		return nil, err
	}
	d.startActors()
	d.recoveryTime.ObserveDuration(d.eng.NowCheap() - began)
	// Seed the index-population gauge from the rebuilt mapping tables (the
	// device's cells are fresh; incremental updates resume from here).
	for _, m := range nv.sortedCatalog() {
		if m.origin == 0 {
			d.ctr.indexEntries.Add(int64(d.families[m.id].chains.Keys()))
		}
	}
	if err := d.restageNVRAM(replay); err != nil {
		return nil, err
	}
	return d, nil
}

// scanDevice is steps 1 to 4 of Recover: a device with its namespaces and
// allocator rebuilt and no actor started, and the records its scan found.
func scanDevice(arr *flash.Array, ctrl *nvme.Controller, cfg Config, nv *NVRAM) (*Device, []scanRec, error) {
	arr.PowerOn()
	fc := arr.Config()
	if cfg.NumLogs <= 0 || cfg.NumLogs > fc.Chips() {
		return nil, nil, fmt.Errorf("kamlssd: recover with NumLogs %d, need 1..%d", cfg.NumLogs, fc.Chips())
	}
	d := newDevice(arr, ctrl, cfg, nv)

	// 1. Namespaces from the catalog (sorted for determinism; a root's ID
	// is always smaller than its snapshots', so families exist before their
	// shells).
	for _, m := range nv.sortedCatalog() {
		ns := d.newNamespace(m.id)
		ns.origin = m.origin
		ns.readonly = m.readonly
		ns.cutoff = m.cutoff
		ns.logIDs = d.firstLogs(m.numLogs)
		if m.origin == 0 {
			ns.fam = d.newFamily(ns, m.kind, m.capacity, true)
			d.families[m.id] = ns.fam
		} else {
			// Snapshot shell. Its origin may have been deleted pre-crash
			// (snapshots outlive their root): synthesize an orphan family to
			// carry the chains the shell still reads through.
			fam := d.families[m.origin]
			if fam == nil {
				root := d.newNamespace(m.origin)
				root.cutoff = noCutoff
				fam = d.newFamily(root, m.kind, m.capacity, false)
				d.families[m.origin] = fam
			}
			ns.fam = fam
		}
		d.namespaces[m.id] = ns
	}

	// 2. Uncommitted batches vanish whole.
	d.ctr.droppedUncommitted.Add(int64(nv.dropUncommitted()))

	// 3 + 4. Rebuild the allocator and scan the logs.
	recs, err := d.scanLogs()
	return d, recs, err
}

// scanRec is one record the scan found, or one committed NVRAM value. log
// and loc are its scan position: the readers' (log, chip, block, page,
// chunk), since a flash location orders by (chip, block, page, chunk), and
// an NVRAM value sorts after all flash.
type scanRec struct {
	ns       uint32
	log      uint32
	key, seq uint64
	loc      location
}

// nvramScanLog is the scan position's log for an NVRAM value: after every
// log on flash.
const nvramScanLog = ^uint32(0)

// scanOrder is (namespace, key, seq descending, scan position): a key's
// records newest first, and two copies of one sequence — a GC relocation's,
// or a flash copy and its NVRAM value — in the order one actor walking the
// array, and then the NVRAM, would meet them.
func scanOrder(a, b scanRec) int {
	switch {
	case a.ns != b.ns:
		return cmp.Compare(a.ns, b.ns)
	case a.key != b.key:
		return cmp.Compare(a.key, b.key)
	case a.seq != b.seq:
		return cmp.Compare(b.seq, a.seq)
	case a.log != b.log:
		return cmp.Compare(a.log, b.log)
	}
	return cmp.Compare(a.loc, b.loc)
}

// scanDigit is byte d of the radix key (namespace, key): 0-7 the key's, 8-11
// the namespace's.
func scanDigit(r *scanRec, d int) int {
	if d < 8 {
		return int(byte(r.key >> (8 * d)))
	}
	return int(byte(r.ns >> (8 * (d - 8))))
}

// sortScan puts recs, alike above radix byte d (11 for any list), in
// scanOrder in place: a radix sort, most significant byte first, that skips
// every byte a run of records shares and hands runs too short to be worth a
// pass — a key's own records among them — to a comparison sort, which on the
// whole scan cost the join twice as much.
func sortScan(recs []scanRec, d int) {
	for ; d >= 0 && len(recs) > 32; d-- {
		var count [256]int
		for i := range recs {
			count[scanDigit(&recs[i], d)]++
		}
		if count[scanDigit(&recs[0], d)] == len(recs) {
			continue
		}
		// Swap every record into its byte's bucket (American flag sort),
		// then sort each bucket by the bytes below.
		var next, end [256]int
		at := 0
		for v, n := range count {
			next[v], at = at, at+n
			end[v] = at
		}
		for v := range next {
			for next[v] < end[v] {
				b := scanDigit(&recs[next[v]], d)
				if b != v {
					recs[next[v]], recs[next[b]] = recs[next[b]], recs[next[v]]
				}
				next[b]++
			}
		}
		for v, n := range count {
			sortScan(recs[end[v]-n:end[v]], d-1)
		}
		return
	}
	slices.SortFunc(recs, scanOrder)
}

// readersPerChip is how many page reads a chip's scan keeps in flight. A
// read is a sense that holds the chip, then a transfer that holds the
// channel: one reader leaves the chip idle while its page crosses the
// channel, two keep whichever stage is slower busy, and a third would only
// queue behind them.
const readersPerChip = 2

// pageReader is one reader actor of step 4: it reads every readersPerChip-th
// programmed page of its chip, in (block, page) order, starting at page
// first of the chip's count. Only its actor touches it until it has exited.
type pageReader struct {
	log        uint32
	ch, chip   int
	programmed []int // pages programmed per block, shared read-only with the chip's other readers
	first      int
	pagesLeft  int             // pages of this reader's share not yet read
	placed     []record.Placed // the page being parsed, in place (scratch)
	recs       []scanRec       // surviving records, in (block, page, chunk) order
	err        error
}

// scanLogs is steps 3 and 4: it rebuilds every chip's share of the
// allocator and starts the chip's readers, all chips at once, and returns
// their records once every reader has exited.
//
// A reader that fails raises failed, which the others poll once per page,
// so a dead array is not read to the end; scanLogs returns only after every
// reader has exited, with the first error in scan order.
func (d *Device) scanLogs() ([]scanRec, error) {
	var readers []*pageReader
	failed := false
	exited := d.eng.NewWaitGroup()
	for _, lg := range d.logs {
		for ci, lc := range lg.chips {
			programmed, pages := d.rebuildChip(lg, ci)
			for r := 0; r < readersPerChip; r++ {
				rd := &pageReader{log: uint32(lg.id), programmed: programmed, first: r,
					pagesLeft: (pages + readersPerChip - 1 - r) / readersPerChip}
				rd.ch, rd.chip = lg.chipAddr(ci)
				readers = append(readers, rd)
				exited.Add(1)
				d.eng.Go(fmt.Sprintf("kaml-scan%d.%d", lc.global, r), func() {
					defer exited.Done()
					if rd.err = d.readPages(rd, &failed); rd.err != nil {
						failed = true
					}
				})
			}
		}
	}
	exited.Wait()
	n := 0
	for _, rd := range readers {
		if rd.err != nil {
			return nil, rd.err
		}
		n += len(rd.recs)
	}
	recs := make([]scanRec, 0, n+len(d.nv.values))
	for _, rd := range readers {
		recs = append(recs, rd.recs...)
	}
	return recs, nil
}

// readPages is a reader actor's loop; it returns early, with nothing, once
// another reader has failed.
func (d *Device) readPages(rd *pageReader, failed *bool) error {
	i := 0 // the chip's programmed pages, counted in scan order
	for b, n := range rd.programmed {
		for page := 0; page < n; page++ {
			mine := i%readersPerChip == rd.first
			i++
			if !mine {
				continue
			}
			if *failed {
				return nil
			}
			if err := d.scanPage(rd, d.arr.BlockPPN(rd.ch, rd.chip, b, page)); err != nil {
				return err
			}
			rd.pagesLeft--
		}
	}
	return nil
}

// scanPage reads one programmed page (readRecords) and lists every surviving
// record on it. A torn or persistently unreadable page is skipped: its records
// are served by an older copy or the NVRAM replay. A page that does not
// parse fails the recovery.
func (d *Device) scanPage(rd *pageReader, ppn flash.PPN) error {
	d.ctr.scannedPages.Inc()
	placed, torn, err := d.readRecords(ppn, rd.placed[:0])
	rd.placed = placed
	switch {
	case torn || errors.Is(err, flash.ErrInjectedFailure):
		d.ctr.tornPagesSkipped.Inc()
		return nil
	case err != nil:
		return fmt.Errorf("kamlssd: recovery scan: %w", err)
	}
	if rd.recs == nil && len(placed) > 0 {
		// Size the list once, from the first page holding records: a chip's
		// pages are packed alike, so this page's count times the pages still
		// to read is about what the reader will find (and at most a record
		// per chunk). append covers a chip that proves uneven.
		rd.recs = make([]scanRec, 0, len(placed)*rd.pagesLeft)
	}
	for _, pl := range placed {
		seq := pl.Record.Seq
		if seq == 0 || d.nv.isAborted(seq) {
			continue // padding record, rolled-back or uncommitted batch
		}
		rd.recs = append(rd.recs, scanRec{
			ns: pl.Record.Namespace, log: rd.log, key: pl.Record.Key, seq: seq,
			loc: flashLoc(ppn, pl.StartChunk, pl.NumChunks),
		})
	}
	return nil
}

// join is step 5 up to the actors: it appends the committed NVRAM values to
// the scan's records, sorts them once (scanOrder), and makes one pass per
// key. For each pin boundary of the key's family, newest first, the pass
// keeps the first record at or below it — so of two copies of a sequence
// the first in scan order, and an NVRAM value only when no flash copy of its
// sequence was found — and pushes the kept records onto the key's chain in
// ascending seq, crediting each flash one to its block. It finishes every
// NVRAM value it did not keep (superseded, durable on flash, or of a deleted
// family) and returns the kept ones, ascending, for re-staging.
func (d *Device) join(recs []scanRec) ([]uint64, error) {
	for seq, e := range d.nv.values {
		e.installed = false // any pre-cut install died with the DRAM index
		d.nv.values[seq] = e
		recs = append(recs, scanRec{ns: e.ns, log: nvramScanLog, key: e.key, seq: seq, loc: nvramLoc(seq)})
	}
	sortScan(recs, 11)
	bounds := d.pinBounds()
	var replay []uint64
	var keep []scanRec // the key's kept records, newest first
	for lo, hi := 0, 0; lo < len(recs); lo = hi {
		bs := bounds[recs[lo].ns] // none: the family is gone, and every record is garbage
		b := len(bs) - 1          // the highest boundary no record has met yet
		keep = keep[:0]
		for hi = lo; hi < len(recs) && recs[hi].ns == recs[lo].ns && recs[hi].key == recs[lo].key; hi++ {
			r := recs[hi]
			if b >= 0 && r.seq <= bs[b] {
				keep = append(keep, r)
			} else if !r.loc.isFlash() {
				d.nv.finish(r.seq)
			}
			for b >= 0 && r.seq <= bs[b] {
				b--
			}
		}
		if len(keep) == 0 {
			continue
		}
		chains := d.families[recs[lo].ns].chains
		for j := len(keep) - 1; j >= 0; j-- {
			r := keep[j]
			node, err := chains.Push(r.key, r.seq, uint64(r.loc))
			if err != nil {
				return nil, fmt.Errorf("kamlssd: recovery chain ns %d key %d: %w", r.ns, r.key, err)
			}
			chains.Commit(node)
			if r.loc.isFlash() {
				d.creditValid(r.loc)
				d.ctr.recoveredRecords.Inc()
			} else {
				replay = append(replay, r.seq)
			}
		}
	}
	slices.Sort(replay)
	return replay, nil
}

// pinBounds returns each family's pin boundaries, ascending and distinct:
// its snapshots' cutoffs, and noCutoff while the root is alive (the head).
func (d *Device) pinBounds() map[uint32][]uint64 {
	bounds := make(map[uint32][]uint64, len(d.families))
	for rootID, fam := range d.families {
		if fam.rootLive {
			bounds[rootID] = append(bounds[rootID], noCutoff)
		}
	}
	for _, ns := range d.namespaces {
		if ns.origin != 0 {
			bounds[ns.origin] = append(bounds[ns.origin], ns.cutoff)
		}
	}
	for id, bs := range bounds {
		slices.Sort(bs)
		bounds[id] = slices.Compact(bs)
	}
	return bounds
}

// restageNVRAM routes the surviving NVRAM-resident values — already
// pushed into the version chains by the join — into packers,
// through the same appendRecord as Put: they pack into full pages and stay
// in NVRAM until their page fills or the device is drained. Runs with the
// actors live, so it follows the normal lock hierarchy.
func (d *Device) restageNVRAM(replay []uint64) error {
	for _, seq := range replay {
		d.nvMu.Lock()
		e, ok := d.nv.values[seq]
		d.nvMu.Unlock()
		if !ok {
			continue
		}
		fam := d.families[e.ns]
		if fam == nil {
			continue
		}
		// Route through the root when it is alive, else any surviving shell
		// (shells copy the root's log assignment at creation).
		var route *namespace
		d.mu.RLock()
		if fam.rootLive {
			route = d.namespaces[e.ns]
		} else {
			for _, ns := range d.namespacesSorted() {
				if ns.fam == fam {
					route = ns
					break
				}
			}
		}
		d.mu.RUnlock()
		if route == nil {
			d.nvMu.Lock()
			d.nv.finish(seq)
			d.nvMu.Unlock()
			continue
		}
		route.mu.RLock()
		lg, cur := d.route(route)
		route.mu.RUnlock()
		// staged == 0: a replay must not pollute the install-latency histogram.
		// prev == 0: a replay goes cold, as every recovered block counts.
		rec := record.Record{Namespace: e.ns, Key: e.key, Seq: seq, Value: e.val}
		if err := d.appendRecord(route, lg, cur, rec, 0, 0); err != nil {
			return err
		}
		d.ctr.replayedValues.Inc()
	}
	return nil
}
