package kamlssd

import (
	"errors"
	"fmt"
	"sort"

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
//  3. Scan every programmed page of every block, newest-sequence-wins per
//     pin boundary: for each family the interesting timestamps are its
//     snapshot cutoffs plus "now" (the root's head), and the scan keeps,
//     per key, the newest record at or below each boundary. Pages failing
//     the OOB magic/CRC (torn or garbage) are skipped; aborted sequences
//     are ignored.
//  4. Rebuild the allocator: retired blocks stay out of service, empty
//     blocks become free, partially-programmed blocks are padded and
//     sealed so GC can reclaim the waste.
//  5. Merge the surviving committed NVRAM values into the candidate set
//     (a staged value beats an older flash copy at the same boundary),
//     rebuild each family's version chains oldest-first from the selected
//     candidates, and restore valid-byte accounting per retained version.
//     Then restart the
//     background actors and re-stage the still-NVRAM-resident values into
//     packers for programming.
//
// The configuration and flash geometry must match the pre-crash device.
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

	// 1. Namespaces from the catalog (sorted for determinism; a root's ID
	// is always smaller than its snapshots', so families exist before their
	// shells). The scan (steps 1-4) is single-threaded — no actor runs
	// until step 5 — so the tables, allocator, and stats need no locking.
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
	for _, lg := range d.logs {
		lg.freeBlocks = 0
		for ci := range lg.chips {
			lc := lg.chips[ci]
			ch, chip := lg.chipAddr(ci)
			lc.free = lc.free[:0]
			for b := range lc.blocks {
				lc.blocks[b] = blockMeta{}
				first := arr.BlockPPN(ch, chip, b, 0)
				if nv.isRetired(first) {
					lc.blocks[b].retired = true
					continue
				}
				n := arr.ProgrammedPages(first)
				if n == 0 {
					lc.free = append(lc.free, b)
					lg.freeBlocks++
					continue
				}
				if err := d.scanBlock(lg, cr, ch, chip, b, n); err != nil {
					return nil, err
				}
				if n < fc.PagesPerBlock {
					if err := d.padBlock(lc, ch, chip, b); err != nil {
						return nil, err
					}
				}
				if !lc.blocks[b].retired {
					lc.blocks[b].sealed = true
				}
			}
		}
	}

	// 5a. Merge committed NVRAM values into the candidate set; a value
	// superseded at every boundary — or already durable on flash — is
	// released immediately.
	seqs := nv.pendingSeqs()
	var replay []uint64
	for _, seq := range seqs {
		e := nv.values[seq]
		e.installed = false // any pre-cut install died with the DRAM index
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

// scanBlock reads the programmed prefix of one block and offers every
// surviving record to the chain rebuild.
func (d *Device) scanBlock(lg *logState, cr *chainRebuild, ch, chip, b, n int) error {
	for page := 0; page < n; page++ {
		ppn := d.arr.BlockPPN(ch, chip, b, page)
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
				continue
			}
			return fmt.Errorf("kamlssd: recovery scan ppn %d: %w", ppn, err)
		}
		ptype, ok := checkOOB(oob, data)
		if !ok {
			d.ctr.tornPagesSkipped.Inc()
			continue
		}
		if ptype != pageTypeRecord {
			continue // stale swapped-index page; dead after recovery
		}
		placed, perr := record.Parse(data, oob, d.cfg.ChunkSize)
		if perr != nil {
			return fmt.Errorf("kamlssd: recovery parse ppn %d: %w", ppn, perr)
		}
		for _, pl := range placed {
			seq := pl.Record.Seq
			if seq == 0 || d.nv.isAborted(seq) {
				continue // padding record, rolled-back or uncommitted batch
			}
			loc := flashLoc(ppn, pl.StartChunk, pl.NumChunks)
			cr.offer(pl.Record.Namespace, pl.Record.Key, seq, uint64(loc))
		}
	}
	return nil
}

// padBlock fills a partially-programmed block with empty record pages
// (bitmap 0 => no records; seq never matches) so the block can be sealed
// and later reclaimed. Programs consumed by injected failures still
// advance the block; a worn-out block is retired instead.
func (d *Device) padBlock(lc *logChip, ch, chip, b int) error {
	data := make([]byte, d.fc.PageSize)
	oob := d.buildOOB(nil, pageTypeRecord, data)
	first := d.arr.BlockPPN(ch, chip, b, 0)
	for {
		n := d.arr.ProgrammedPages(first)
		if n >= d.fc.PagesPerBlock {
			return nil
		}
		err := d.programPage(d.arr.BlockPPN(ch, chip, b, n), data, oob)
		switch {
		case err == nil:
		case errors.Is(err, flash.ErrInjectedFailure):
			d.ctr.programRetries.Inc()
		case errors.Is(err, flash.ErrWornOut):
			lc.blocks[b].retired = true
			d.nv.retireBlock(first)
			d.ctr.blocksRetired.Inc()
			return nil
		default:
			return fmt.Errorf("kamlssd: recovery pad block: %w", err)
		}
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
		e := d.nv.values[seq]
		d.nvMu.Unlock()
		if e == nil {
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
