package kamlssd

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"github.com/kaml-ssd/kaml/internal/flash"
	"github.com/kaml-ssd/kaml/internal/nvme"
	"github.com/kaml-ssd/kaml/internal/record"
)

// Recover rebuilds a device after a power cut from the two artifacts that
// survive one: the flash array and the battery-backed NVRAM. Recover trusts
// nothing volatile — every mapping table, the log allocator, and the
// valid-byte accounting are reconstructed by scanning the logs, exactly as
// real firmware would after power loss (paper §IV-D: "the firmware recovers
// using the data in the non-volatile buffers" plus a log scan).
//
// The protocol, in order:
//
//  1. Recreate every namespace from the NVRAM catalog: writable roots with
//     an empty mapping table, snapshots as table-less shells pinned at
//     their persisted cutoff. (Swapped-out tables are
//     recovered unswapped; their stale flash pages fail the liveness check
//     and become garbage.)
//  2. Discard staged values of batches that never committed: their Puts
//     were not acknowledged, so the whole batch must vanish (atomicity).
//  3. Scan every programmed page of every block, one scanner actor per
//     chip — the chip is the unit the array serializes on, so the scan runs
//     at the array's bandwidth: the busiest channel's transfers, or the
//     busiest chip's senses and padding programs, whichever is longer. A
//     scanner reads its chip's pages, skips those failing the OOB
//     magic/CRC (torn or garbage) and those still unreadable after the
//     retries, and lists the records it finds; aborted sequences are
//     ignored.
//  4. Rebuild the allocator, in the same pass: retired blocks stay out of
//     service, empty blocks become free, partially-programmed blocks are
//     padded and sealed so GC can reclaim the waste — each scanner for its
//     own chip. The recovering actor then joins the scanners' lists in
//     scan order (log, chip, block, page, chunk), newest-sequence-wins per
//     pin boundary: for each family the interesting timestamps are its
//     snapshot cutoffs plus "now" (the root's head), and the join keeps,
//     per key, the newest record at or below each boundary.
//  5. Merge the surviving committed NVRAM values into the candidate set
//     (a staged value beats an older flash copy at the same boundary),
//     rebuild each family's version chains oldest-first from the selected
//     candidates, and restore valid-byte accounting per retained version.
//     Then restart the
//     background actors and re-stage the still-NVRAM-resident values into
//     packers for programming.
//
// Who owns what. Until step 5 starts the device's actors, the recovering
// actor owns everything — tables, allocator, NVRAM — and takes no lock, with
// one exception: while the scanners of steps 3-4 run it only waits for them.
// A scanner writes nothing but its own chipScan and its own chip's logChip
// (free list, block states); the NVRAM maps it consults (bad blocks, aborted
// sequences) are read-only until the join, and the counter cells it bumps
// are atomics. Everything shared that the scan feeds — the candidate set,
// the logs' free-block counts, the bad-block table — is written at the
// join, by the recovering actor, after every scanner has exited.
//
// The configuration and flash geometry must match the pre-crash device.
// Call from a simulation actor.
func Recover(arr *flash.Array, ctrl *nvme.Controller, cfg Config, nv *NVRAM) (*Device, error) {
	arr.PowerOn()
	fc := arr.Config()
	if cfg.NumLogs <= 0 || cfg.NumLogs > fc.Chips() {
		return nil, fmt.Errorf("kamlssd: recover with NumLogs %d, need 1..%d", cfg.NumLogs, fc.Chips())
	}
	d := &Device{
		cfg:        cfg,
		fc:         fc,
		arr:        arr,
		ctrl:       ctrl,
		eng:        arr.Engine(),
		namespaces: make(map[uint32]*namespace),
		families:   make(map[uint32]*family),
		pins:       make(map[uint64]int),
		nv:         nv,
	}
	d.initLocks()
	d.buildLogs()
	began := d.eng.NowCheap() // for kaml_recovery_seconds, observed once the registry exists

	// 1. Namespaces from the catalog (sorted for determinism; a root's ID
	// is always smaller than its snapshots', so families exist before their
	// shells).
	for _, m := range nv.sortedCatalog() {
		nLogs := m.numLogs
		if nLogs <= 0 || nLogs > len(d.logs) {
			nLogs = len(d.logs)
		}
		ns := d.newNamespace(m.id)
		ns.origin = m.origin
		ns.readonly = m.readonly
		ns.cutoff = m.cutoff
		for i := 0; i < nLogs; i++ {
			ns.logIDs = append(ns.logIDs, i)
		}
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

	// 3 + 4. Scan the logs and rebuild the allocator.
	cr := newChainRebuild(d)
	if err := d.scanLogs(cr); err != nil {
		return nil, err
	}

	// 5a. Merge committed NVRAM values into the candidate set; a value
	// superseded at every boundary — or already durable on flash — is
	// released immediately.
	seqs := nv.pendingSeqs()
	var replay []uint64
	for _, seq := range seqs {
		e := nv.values[seq]
		e.installed = false // any pre-cut install died with the DRAM index
		nv.values[seq] = e
		if cr.offer(e.ns, e.key, seq, uint64(nvramLoc(seq))) {
			replay = append(replay, seq)
		} else {
			nv.finish(seq)
		}
	}

	// 5b. Build the version chains oldest-first from the selected
	// candidates and restore per-block valid-byte accounting (one credit per
	// retained flash version).
	if err := cr.build(d); err != nil {
		return nil, err
	}

	// 5c. Actors first (re-staging below seals the pages it fills, which
	// needs running flushers to drain the queue), then route the surviving
	// NVRAM values into packers.
	d.startActors()
	d.recoveryTime.ObserveDuration(d.eng.NowCheap() - began)
	// Seed the index-population gauge from the rebuilt mapping tables (the
	// device's cells are fresh; incremental updates resume from here).
	for _, m := range nv.sortedCatalog() {
		if m.origin == 0 {
			d.ctr.indexEntries.Add(int64(d.families[m.id].chains.Load().Keys()))
		}
	}
	if err := d.restageNVRAM(replay); err != nil {
		return nil, err
	}
	return d, nil
}

// verCand is one candidate version seen during the recovery scan.
type verCand struct{ seq, loc uint64 }

// chainRebuild accumulates, per family root and key, the newest record
// at-or-below each pin boundary. A family's boundaries are its snapshots'
// cutoffs, ascending, plus noCutoff while the root is alive (the head).
type chainRebuild struct {
	bounds map[uint32][]uint64
	best   map[uint32]map[uint64][]verCand
}

func newChainRebuild(d *Device) *chainRebuild {
	cr := &chainRebuild{
		bounds: make(map[uint32][]uint64, len(d.families)),
		best:   make(map[uint32]map[uint64][]verCand, len(d.families)),
	}
	for rootID, fam := range d.families {
		var bs []uint64
		for _, ns := range d.namespaces {
			if ns.fam == fam && ns.origin != 0 {
				bs = append(bs, ns.cutoff)
			}
		}
		if fam.rootLive {
			bs = append(bs, noCutoff)
		}
		sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
		dd := bs[:0]
		for i, b := range bs {
			if i == 0 || b != bs[i-1] {
				dd = append(dd, b)
			}
		}
		cr.bounds[rootID] = dd
		cr.best[rootID] = make(map[uint64][]verCand)
	}
	return cr
}

// offer records (seq, loc) as a candidate for every boundary it improves.
// Returns false when the version is invisible at — or superseded at — every
// boundary (i.e. it will not be retained).
func (cr *chainRebuild) offer(rootID uint32, key, seq, loc uint64) bool {
	bs, ok := cr.bounds[rootID]
	if !ok || len(bs) == 0 {
		return false // family fully deleted: every record is garbage
	}
	cands := cr.best[rootID][key]
	if cands == nil {
		cands = make([]verCand, len(bs))
		cr.best[rootID][key] = cands
	}
	improved := false
	for i, b := range bs {
		if seq <= b && seq > cands[i].seq {
			cands[i] = verCand{seq: seq, loc: loc}
			improved = true
		}
	}
	return improved
}

// build pushes the selected candidates into each family's chains in
// ascending seq order, credits the flash footprint of every retained
// version, and counts recovered flash records.
func (cr *chainRebuild) build(d *Device) error {
	roots := make([]uint32, 0, len(cr.best))
	for id := range cr.best {
		roots = append(roots, id)
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i] < roots[j] })
	for _, rootID := range roots {
		chains := d.families[rootID].chains.Load()
		perKey := cr.best[rootID]
		keys := make([]uint64, 0, len(perKey))
		for k := range perKey {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, key := range keys {
			cands := perKey[key]
			// Distinct versions, ascending (the same version is typically the
			// best at several adjacent boundaries).
			vs := make([]verCand, 0, len(cands))
			for _, c := range cands {
				if c.seq != 0 {
					vs = append(vs, c)
				}
			}
			sort.Slice(vs, func(i, j int) bool { return vs[i].seq < vs[j].seq })
			for i, c := range vs {
				if i > 0 && c.seq == vs[i-1].seq {
					continue
				}
				node, err := chains.Push(key, c.seq, c.loc)
				if err != nil {
					return fmt.Errorf("kamlssd: recovery chain ns %d key %d: %w", rootID, key, err)
				}
				chains.Commit(node)
				if loc := location(c.loc); loc.isFlash() {
					d.creditValid(loc)
					d.ctr.recoveredRecords.Inc()
				}
			}
		}
	}
	return nil
}

// scanRec is one record a scanner found: what chainRebuild.offer takes.
type scanRec struct {
	ns       uint32
	key, seq uint64
	loc      location
}

// chipScan is one scanner's chip and what it found there. Only its scanner
// touches it until the scanner has exited.
type chipScan struct {
	lg        *logState
	lc        *logChip
	ch, chip  int
	pagesLeft int             // programmed pages not yet read
	placed    []record.Placed // the page being parsed, in place (scratch)
	recs      []scanRec       // surviving records, in (block, page, chunk) order
	wornOut   []flash.PPN     // blocks padding found worn out, for the bad-block table
	pad       padPage         // shared by every scanner
	err       error
}

// padPage is the empty record page (bitmap 0, so no records) recovery pads
// partial blocks with. Flash keeps what it programs and never changes it, so
// one image serves every padding program of every scanner.
type padPage struct{ data, oob []byte }

// scanLogs is steps 3 and 4: one scanner actor per chip reads the chip's
// programmed pages and rebuilds the chip's share of the allocator, all chips
// at once; then the caller's actor joins what they found, in scan order.
//
// The order matters. offer keeps the first copy of a sequence it is shown,
// and two copies exist whenever the cut fell between a GC relocation's
// program and its victim's erase; merging in arrival order would pick a
// schedule-dependent copy and credit a schedule-dependent block. Joined in
// (log, chip, block, page, chunk) order, the offers are those of one actor
// walking the array — the same chains, locations, valid bytes and free lists
// whichever scanner ran when.
//
// A scanner that fails raises failed, which the others poll once per page,
// so a dead array is not read to the end; scanLogs returns only after every
// scanner has exited, with the first error in scan order.
func (d *Device) scanLogs(cr *chainRebuild) error {
	var scans []*chipScan
	var failed atomic.Bool
	exited := d.eng.NewWaitGroup()
	pad := padPage{data: make([]byte, d.fc.PageSize)}
	pad.oob = d.buildOOB(nil, pageTypeRecord, pad.data)
	for _, lg := range d.logs {
		lg.freeBlocks = 0 // recounted at the join
		for ci, lc := range lg.chips {
			sc := &chipScan{lg: lg, lc: lc, pad: pad}
			sc.ch, sc.chip = lg.chipAddr(ci)
			scans = append(scans, sc)
			exited.Add(1)
			d.eng.Go(fmt.Sprintf("kaml-scan%d", lc.global), func() {
				defer exited.Done()
				if sc.err = d.scanChip(sc, &failed); sc.err != nil {
					failed.Store(true)
				}
			})
		}
	}
	exited.Wait()
	for _, sc := range scans {
		if sc.err != nil {
			return sc.err
		}
	}
	for _, sc := range scans {
		sc.lg.freeBlocks += len(sc.lc.free)
		for _, first := range sc.wornOut {
			d.nv.retireBlock(first)
		}
		for _, r := range sc.recs {
			cr.offer(r.ns, r.key, r.seq, uint64(r.loc))
		}
		sc.recs, sc.placed = nil, nil // the candidate set is all that outlives the join
	}
	return nil
}

// scanChip walks one chip's blocks: a retired block stays out of service, an
// empty one goes on the free list, and any other has its programmed prefix
// read, is padded if partial, and is sealed. Runs on the chip's scanner;
// returns early, with nothing, once another scanner has failed.
func (d *Device) scanChip(sc *chipScan, failed *atomic.Bool) error {
	lc := sc.lc
	lc.free = lc.free[:0]
	programmed := make([]int, len(lc.blocks))
	for b := range lc.blocks {
		lc.blocks[b] = blockMeta{}
		first := d.arr.BlockPPN(sc.ch, sc.chip, b, 0)
		if d.nv.isRetired(first) {
			lc.blocks[b].retired = true
			continue
		}
		programmed[b] = d.arr.ProgrammedPages(first)
		if programmed[b] == 0 {
			lc.free = append(lc.free, b)
		}
		sc.pagesLeft += programmed[b]
	}
	for b, n := range programmed {
		if n == 0 {
			continue
		}
		for page := 0; page < n; page++ {
			if failed.Load() {
				return nil
			}
			if err := d.scanPage(sc, d.arr.BlockPPN(sc.ch, sc.chip, b, page)); err != nil {
				return err
			}
			sc.pagesLeft--
		}
		if n < d.fc.PagesPerBlock {
			if err := d.padBlock(sc, b); err != nil {
				return err
			}
		}
		if !lc.blocks[b].retired {
			lc.blocks[b].sealed = true
		}
	}
	return nil
}

// scanPage reads one programmed page and lists every surviving record on it.
func (d *Device) scanPage(sc *chipScan, ppn flash.PPN) error {
	d.ctr.scannedPages.Inc()
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
		if errors.Is(err, flash.ErrInjectedFailure) {
			// A persistently unreadable page: skip it. Any record whose
			// newest copy sat there is served by an older copy or the
			// NVRAM replay (committed data is in NVRAM until installed).
			d.ctr.tornPagesSkipped.Inc()
			return nil
		}
		return fmt.Errorf("kamlssd: recovery scan ppn %d: %w", ppn, err)
	}
	ptype, ok := checkOOB(oob, data)
	if !ok {
		d.ctr.tornPagesSkipped.Inc()
		return nil
	}
	if ptype != pageTypeRecord {
		return nil // stale swapped-index page; dead after recovery
	}
	placed, perr := record.AppendParsed(sc.placed[:0], data, oob, d.cfg.ChunkSize)
	sc.placed = placed
	if perr != nil {
		return fmt.Errorf("kamlssd: recovery parse ppn %d: %w", ppn, perr)
	}
	if sc.recs == nil && len(placed) > 0 {
		// Size the list once, from the first page holding records: a chip's
		// pages are packed alike, so this page's count times the pages still
		// to read is about what the chip holds (and at most a record per
		// chunk). append covers a chip that proves uneven.
		sc.recs = make([]scanRec, 0, len(placed)*sc.pagesLeft)
	}
	for _, pl := range placed {
		seq := pl.Record.Seq
		if seq == 0 || d.nv.isAborted(seq) {
			continue // padding record, rolled-back or uncommitted batch
		}
		sc.recs = append(sc.recs, scanRec{
			ns: pl.Record.Namespace, key: pl.Record.Key, seq: seq,
			loc: flashLoc(ppn, pl.StartChunk, pl.NumChunks),
		})
	}
	return nil
}

// padBlock fills a partially-programmed block with empty record pages
// (sc.pad) so the block can be sealed and later reclaimed. Programs consumed
// by injected failures still advance the block; a worn-out block is retired
// instead.
func (d *Device) padBlock(sc *chipScan, b int) error {
	first := d.arr.BlockPPN(sc.ch, sc.chip, b, 0)
	for {
		n := d.arr.ProgrammedPages(first)
		if n >= d.fc.PagesPerBlock {
			return nil
		}
		err := d.programPage(d.arr.BlockPPN(sc.ch, sc.chip, b, n), sc.pad.data, sc.pad.oob)
		switch {
		case err == nil:
		case errors.Is(err, flash.ErrInjectedFailure):
			d.ctr.programRetries.Inc()
		case errors.Is(err, flash.ErrWornOut):
			sc.lc.blocks[b].retired = true
			sc.wornOut = append(sc.wornOut, first)
			d.ctr.blocksRetired.Inc()
			return nil
		default:
			return fmt.Errorf("kamlssd: recovery pad block: %w", err)
		}
		d.ctr.paddedPages.Inc() // programmed or failed, the page is spent
	}
}

// restageNVRAM routes the surviving NVRAM-resident values — already
// selected into the version chains by the recovery merge — into packers,
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
		rec := record.Record{Namespace: e.ns, Key: e.key, Seq: seq, Value: e.val}
		if err := d.appendRecord(route, lg, cur, rec, 0); err != nil {
			return err
		}
		d.ctr.replayedValues.Inc()
	}
	return nil
}
