package kamlssd

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"github.com/kaml-ssd/kaml/internal/flash"
	"github.com/kaml-ssd/kaml/internal/hashindex"
	"github.com/kaml-ssd/kaml/internal/record"
)

// This file is the device's MVCC surface and its one read routine. The
// commit-timestamp oracle is the NVRAM sequence counter: every record of a
// Put batch is stamped with a seq from the contiguous range the batch
// reserved at begin, and the batch's NVRAM commit marker is what makes those
// timestamps "committed". Each family's mapping table (hashindex
// VersionChains) keeps, per key, the chain of every retained (commitTS,
// location) pair. A root Get, a snapshot Get, a GetAt time-travel read and
// an SI transaction read all resolve the same way — walk the key's chain to
// the newest committed version at-or-before a timestamp — with no lock and
// no clone; only the timestamp differs (noCutoff for a root Get).

// CommitTS returns the device's current commit timestamp (the NVRAM
// sequence counter). Timestamps below it may still belong to in-flight
// batches; use PinCurrent for a timestamp that is guaranteed settled.
func (d *Device) CommitTS() uint64 {
	d.nvMu.Lock()
	ts := d.nv.nvSeq
	d.nvMu.Unlock()
	return ts
}

// PinCurrent pins and returns the newest settled commit timestamp: every
// version at or below it belongs to a batch that has already committed or
// aborted, so a reader at this timestamp can never be split by — or stall
// behind — an in-flight batch. This is the begin-timestamp source for SI
// transactions. The caller must release the pin with ReleasePin; while
// pinned, version pruning keeps every version visible at the timestamp.
//
// The pin is registered under the same hold of nvMu that reads the settled
// timestamp, and every pruner reads its pin set and the settled timestamp
// under one hold too (pinsAppend). A pruner therefore either sees this pin
// or read a settled timestamp no newer than the one returned here — and it
// keeps everything visible at or after that floor. That is the pin-floor
// invariant: no interleaving lets a prune take the version a transaction
// that begins during it will read.
func (d *Device) PinCurrent() uint64 {
	d.nvMu.Lock()
	ts := d.nv.settledSeq()
	d.pinTS(ts)
	d.nvMu.Unlock()
	return ts
}

// pinTS registers a transient pin at ts (refcounted).
func (d *Device) pinTS(ts uint64) { d.pins[ts]++ }

// ReleasePin drops one reference to a transient pin taken by PinCurrent
// (or internally by a read at a timestamp, execGet). Once a timestamp has
// no pin and no snapshot cutoff, the versions only it could see become
// prunable.
func (d *Device) ReleasePin(ts uint64) {
	if n := d.pins[ts]; n <= 1 {
		delete(d.pins, ts)
	} else {
		d.pins[ts] = n - 1
	}
}

// pinsAppend gathers into pins (overwritten from the start, so steady-state
// callers avoid the per-pass allocation) every pinned timestamp — snapshot
// cutoffs and transient pins, ascending and deduplicated — and returns the
// settled floor read together with them: a transaction that begins after
// this call pins a timestamp >= floor, so the pruner keeps what floor and
// every later timestamp sees as well (hashindex PruneBelow). The list is
// global rather than per-family: a foreign family's pin at worst retains a
// few extra versions until the next prune. Caller holds d.mu (read or
// write).
func (d *Device) pinsAppend(pins []uint64) ([]uint64, uint64) {
	pins = pins[:0]
	for _, ns := range d.namespaces {
		if ns.readonly && ns.cutoff != noCutoff {
			pins = append(pins, ns.cutoff)
		}
	}
	// One hold of nvMu covers the floor and the transient pins; PinCurrent
	// registers under the same lock (see there).
	d.nvMu.Lock()
	floor := d.nv.settledSeq()
	for ts := range d.pins {
		pins = append(pins, ts)
	}
	d.nvMu.Unlock()
	slices.Sort(pins)
	return slices.Compact(pins), floor
}

// snapshotPins is pinsAppend for callers not holding d.mu: it gathers into
// buf (a Put passes a stack buffer, so its pins cost no allocation).
func (d *Device) snapshotPins(buf []uint64) ([]uint64, uint64) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.pinsAppend(buf)
}

// versionDead releases the flash space of a pruned version. NVRAM-resident
// versions have nothing to release (flash space is credited only at
// install, and a dead chain node makes the install a no-op).
func (d *Device) versionDead(_ uint64, loc uint64) {
	if l := location(loc); l.isFlash() {
		d.discountValid(l)
	}
}

// pruneFamily runs one prune pass over fam's chains. Chain heads are
// protected only while the family root is alive, and a deleted root has no
// floor either: nobody can begin a read of it, and its snapshots read at
// their cutoffs, which are pins.
func (d *Device) pruneFamily(fam *family, pins []uint64, floor uint64, keepHead bool) {
	if !keepHead {
		floor = hashindex.NoFloor
	}
	fam.root.mu.Lock()
	n := fam.chains.PruneAll(pins, floor, keepHead, d.versionDead, d.chainLenObs)
	fam.root.mu.Unlock()
	d.ctr.versionsPruned.Add(int64(n))
}

// pruneFamilies runs one prune pass over every family. A collector calls it
// at each wake-up, on scratch it owns, so a pass that finds nothing to prune
// allocates nothing. Collectors woken together each run one; family by
// family they serialize on the root's lock, and the first one through leaves
// the others an empty dirty set.
func (c *collector) pruneFamilies() {
	d := c.d
	d.mu.RLock()
	fams := c.fams[:0]
	keep := c.keep[:0]
	for _, f := range d.families {
		fams = append(fams, f)
	}
	// Deterministic prune order: map iteration would randomize the
	// lock/discount schedule across runs.
	slices.SortFunc(fams, func(a, b *family) int { return cmp.Compare(a.root.id, b.root.id) })
	for _, f := range fams {
		keep = append(keep, f.rootLive)
	}
	pins, floor := d.pinsAppend(c.pins)
	d.mu.RUnlock()
	for i, f := range fams {
		d.pruneFamily(f, pins, floor, keep[i])
	}
	c.fams, c.keep, c.pins = fams, keep, pins
}

// GetAt serves the newest version of key whose commit timestamp is <= ts —
// KAML's time-travel read (Table I extension). It is GetVersion at ts, one
// OpGet command like a Get, charged like one. The read acquires no lock
// and never conflicts with writers: the chain walk is lock-free and the
// timestamp is transiently pinned for the duration so pruning cannot pull
// the resolved version out from under the flash read. Exactness is
// guaranteed for timestamps that are durably pinned (a snapshot's cutoff,
// an SI transaction's begin timestamp); for arbitrary historical
// timestamps the answer is the oldest *retained* version at-or-before ts.
// A ts of 0 is a timestamp like any other: it sees nothing.
func (d *Device) GetAt(nsID uint32, key uint64, ts uint64) ([]byte, error) {
	v, _, err := d.GetVersion(nsID, key, ts)
	return v, err
}

// LatestCommittedSeq returns the commit timestamp of the key's newest
// committed version, or 0 when the key has none. Lock-free. This is the
// first-committer-wins validation probe for SI transactions: a writer that
// began at ts aborts if the key's latest committed timestamp moved past ts.
func (d *Device) LatestCommittedSeq(nsID uint32, key uint64) (uint64, error) {
	ns, lerr := d.lookupNS(nsID)
	if lerr != nil {
		return 0, lerr
	}
	if v := ns.fam.chains.LatestCommitted(key); v != nil {
		return v.Seq, nil
	}
	return 0, nil
}

// VersionStats reports the shape of the namespace family's version chains:
// distinct keys, total retained versions, and the longest chain.
func (d *Device) VersionStats(nsID uint32) (keys, versions, maxChain int, err error) {
	ns, lerr := d.lookupNS(nsID)
	if lerr != nil {
		return 0, 0, 0, lerr
	}
	ns.fam.chains.Range(func(_ uint64, head *hashindex.Version) bool {
		l := 0
		for v := head; v != nil; v = v.Prev() {
			l++
		}
		keys++
		versions += l
		maxChain = max(maxChain, l)
		return true
	})
	return keys, versions, maxChain, nil
}

// nvFetch copies a staged value out of NVRAM under the NVRAM lock (the
// buffer goes back on the NVRAM's free list at release). A staged
// value whose batch has no commit marker yet is NOT served — that would be
// a dirty read (the batch may still abort). The reader waits for the batch
// to end (awaitBatchEnd): execPut writes the marker or rolls the chain back
// and raises batchEnd. hit is false when the location no longer names a
// staged value (installed to flash, or rolled back).
func (d *Device) nvFetch(loc location) (v []byte, hit bool, err error) {
	for {
		if !d.nv.hasStaged() {
			// Lock-free miss: nothing is staged anywhere, so probing the map
			// under nvMu could only miss too (the flusher already installed
			// every value this location could name).
			return nil, false, nil
		}
		seen := d.batchEnd.seen()
		d.nvMu.Lock()
		v, committed, ok := d.nv.valueState(loc.seq())
		if ok && committed {
			v = append([]byte(nil), v...)
		}
		d.nvMu.Unlock()
		if !ok {
			return nil, false, nil
		}
		if committed {
			return v, true, nil
		}
		if err := d.awaitBatchEnd(seen); err != nil {
			return nil, false, err
		}
	}
}

// awaitBatchEnd parks a read or a snapshot that met a half-staged Put batch
// until a batch ends after the seen-th end, the count it read before it
// looked at the batch. execPut ends every batch it begins, by its commit or
// its rollback, so the wait is bounded. Fails on a power cut.
func (d *Device) awaitBatchEnd(seen uint64) error {
	if d.crashed.Load() || !d.arr.Powered() {
		d.noticePowerLoss()
		return ErrPowerLoss
	}
	d.batchEnd.await(seen, &d.crashed)
	return nil
}

// versionRead is one read in flight: which key, in whose view, as of when.
type versionRead struct {
	d      *Device
	ns     *namespace
	key    uint64
	ts     uint64
	pinned bool // explicit timestamp (snapshot, GetAt, SI): charge chain hops
	// charged is set once the first resolution has been billed;
	// re-resolutions after a concurrent install or GC move retrace hot
	// cache lines and are free.
	charged bool
	// chain is the key's anchor in the family's table, kept from the first
	// resolution so that later ones — every read re-validates after its
	// flash read — skip the directory probe. It is trusted only while the
	// anchor still has a head.
	chain hashindex.Chain
}

// resolve returns the location of the newest committed version of the key
// at-or-before the read's timestamp. A pending version at-or-before it is
// waited out — execPut pushes versions record by record before the batch's
// single commit point, so the chain can briefly name a value that is not
// yet, and might never be, committed; serving it would be a dirty read. The
// wait ends at the batch's end (awaitBatchEnd): execPut stamps the version
// committed or pops it, then raises batchEnd.
func (r *versionRead) resolve() (location, error) {
	d := r.d
	for {
		seen := d.batchEnd.seen()
		head := r.chain.Head() // nil before the first lookup
		probes := 0
		if head == nil {
			r.chain, probes = r.ns.fam.chains.Lookup(r.key)
			head = r.chain.Head()
		}
		loc, hops, rerr := head.AtOrBefore(r.ts)
		if !r.charged {
			// A root Get pays for the directory probe sequence (the Fig. 5a
			// load-factor curve); a read at an explicit timestamp pays for
			// the chain nodes it visited.
			r.charged = true
			n := probes
			if r.pinned {
				n = hops
			}
			d.ctr.indexProbes.Add(int64(n))
			d.ctrl.ComputeProbes(n)
		}
		switch {
		case rerr == nil:
			return location(loc), nil
		case errors.Is(rerr, hashindex.ErrNotFound):
			if r.pinned {
				return 0, fmt.Errorf("%w: ns %d key %d @%d", ErrKeyNotFound, r.ns.id, r.key, r.ts)
			}
			return 0, fmt.Errorf("%w: ns %d key %d", ErrKeyNotFound, r.ns.id, r.key)
		}
		// ErrPendingVersion: wait for the commit stamp or the rollback.
		if err := d.awaitBatchEnd(seen); err != nil {
			return 0, err
		}
	}
}

// readVersion is the firmware's one read routine: it resolves key in ns's
// family as of commit timestamp ts and fetches the value from NVRAM or
// flash, returning it with its commit seq (the NVRAM location's, or the
// on-flash record header's). A root Get passes ts = noCutoff; snapshot
// Gets, GetAt and SI transaction reads pass their pinned timestamp (pinned,
// which selects the charging rule and counts the read in PinnedReads). The
// flash read is optimistic: it happens without any firmware lock, so GC may
// relocate the record (and erase or rewrite the block) mid-read; the chain
// is re-resolved afterwards and the read retried on movement — the
// firmware equivalent of the baseline's LBA-range locks, without their
// per-command cost (§V-B).
func (d *Device) readVersion(ns *namespace, key, ts uint64, pinned bool) ([]byte, uint64, error) {
	if pinned {
		d.ctr.pinnedReads.Inc()
	}
	r := versionRead{d: d, ns: ns, key: key, ts: ts, pinned: pinned}
	loc, err := r.resolve()
	if err != nil {
		return nil, 0, err
	}
	readRetries := 0
	for attempt := 0; ; attempt++ {
		if !loc.isFlash() {
			// Logically committed but still in NVRAM; serve from the buffer.
			v, hit, verr := d.nvFetch(loc)
			if verr != nil {
				return nil, 0, verr
			}
			if hit {
				d.ctr.nvramHits.Inc()
				return v, loc.seq(), nil
			}
			// Installed to flash between the chain walk and now; the chain
			// node's location was swung, so re-resolve.
			if loc, err = r.resolve(); err != nil {
				return nil, 0, err
			}
			continue
		}
		// Only the record's own chunks cross the channel (the ECC sectors
		// that hold them); the rest of the page stays in the chip.
		data, rerr := d.arr.ReadRange(loc.ppn(), loc.chunk()*chunkSize, loc.nchunks()*chunkSize)
		if rerr != nil {
			// Either the block was erased under us (GC), power was cut, or
			// the medium returned a transient read error (fault injection).
			// A transient error retries the same location a few times; a
			// relocation re-resolves through the chain.
			if errors.Is(rerr, flash.ErrPowerCut) {
				d.noticePowerLoss()
				return nil, 0, ErrPowerLoss
			}
			if errors.Is(rerr, flash.ErrInjectedFailure) && readRetries < maxReadRetries {
				readRetries++
				d.ctr.readRetries.Inc()
				continue
			}
			cur, err := r.resolve()
			if err != nil {
				return nil, 0, err
			}
			if cur == loc || attempt > 16 {
				return nil, 0, rerr
			}
			loc = cur
			continue
		}
		cur, err := r.resolve()
		if err != nil {
			return nil, 0, err
		}
		if cur != loc {
			loc = cur
			continue
		}
		rec, derr := record.Unmarshal(data)
		if derr != nil {
			return nil, 0, derr
		}
		// Records are written under the family root, so that is the ID the
		// on-flash header carries, whichever member is reading.
		if root := ns.fam.root.id; rec.Namespace != root || rec.Key != key {
			return nil, 0, fmt.Errorf("kamlssd: mapping table corruption: ns %d key %d @%d resolved to ns %d key %d",
				root, key, ts, rec.Namespace, rec.Key)
		}
		return rec.Value, rec.Seq, nil
	}
}
