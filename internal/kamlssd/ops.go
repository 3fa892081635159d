package kamlssd

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"github.com/kaml-ssd/kaml/internal/cmdq"
	"github.com/kaml-ssd/kaml/internal/hashindex"
	"github.com/kaml-ssd/kaml/internal/record"
)

// maxReadRetries bounds how many times Get re-issues a flash read that
// failed with an injected (transient) medium error before giving up.
const maxReadRetries = 4

// undoEntry remembers one staged version of a batch: commit stamps it,
// rollback pops it off its key's chain.
type undoEntry struct {
	ns   *namespace
	key  uint64
	node *hashindex.Version
}

// PutRecord is one element of an atomic Put batch (Table I: Put takes
// parallel arrays of namespace IDs, keys, values, and lengths). It is the
// pipeline's record type under the firmware's name: a batch is never
// converted on its way down.
type PutRecord = cmdq.Record

// Latest is the timestamp of a read that wants the newest committed
// version (GetVersion): above every commit seq, as a live namespace's
// cutoff is.
const Latest = noCutoff

// Get retrieves the value stored under (nsID, key). The value is served
// from NVRAM if the record's latest version has not reached flash yet,
// otherwise from flash, reading only the record's chunks (paper §III,
// Table I).
func (d *Device) Get(nsID uint32, key uint64) ([]byte, error) {
	v, _, err := d.GetVersion(nsID, key, Latest)
	return v, err
}

// GetVersion reads the newest version of (nsID, key) committed at or before
// ts — Latest for the newest of all, as Get reads — and returns it with its
// commit seq, which the completion carries (cmdq.Result.Seq). A read at any
// other timestamp is GetAt's time-travel read.
//
// The read executes on the calling actor through the pipeline's direct path
// (cmdq.RunDirect), as one OpGet command whatever its timestamp: the command
// counts against queue depth, honors backpressure and shutdown like a write,
// and pays the submission and completion transfers, but has no handoff and
// no future to park on, so the flash access is the only blocking step of a
// read. Reads reach queue depth through concurrent callers.
func (d *Device) GetVersion(nsID uint32, key, ts uint64) ([]byte, uint64, error) {
	d.ctrl.Submission()
	res := d.pipe.RunDirect(&cmdq.Command{Op: cmdq.OpGet, Namespace: nsID, Key: key, TS: ts})
	return res.Value, res.Seq, res.Err
}

// execGet is the firmware's Get handler; it runs on the caller. A root
// namespace read at Latest resolves its newest committed version, a
// snapshot shell the newest at or below its pinned cutoff, and a read at
// an explicit timestamp the newest at or below the earlier of the two,
// pinned for the read's duration so pruning cannot take the version it
// resolves from under the flash read — the same routine every way
// (readVersion, mvcc.go), and no firmware lock on the way (§V-D).
func (d *Device) execGet(nsID uint32, key, ts uint64) ([]byte, uint64, error) {
	if d.closed.Load() {
		return nil, 0, d.closedErr()
	}
	ns, lerr := d.lookupNS(nsID)
	if lerr != nil {
		return nil, 0, lerr
	}
	d.ctr.gets.Inc()
	if ts == Latest {
		return d.readVersion(ns, key, ns.cutoff, ns.origin != 0)
	}
	ts = min(ts, ns.cutoff) // a snapshot shell clamps to its pinned view
	d.pinTS(ts)
	v, seq, err := d.readVersion(ns, key, ts, true)
	d.ReleasePin(ts)
	return v, seq, err
}

// Put atomically inserts or updates a batch of records (Table I). The call
// returns once the batch is logically committed: every value is in
// battery-backed NVRAM and every index entry points at it. Flash programs
// and the final index swing happen in the background (§IV-D phases 2–3).
//
// Per-key atomicity comes from the key-lock table; the namespace lock is
// held per record (never across queue-space waits), so Puts to different
// namespaces — or to the same namespace routed to different logs — only
// serialize on the log they land on. The batch contract and the rule about
// not mutating the values are SubmitPut's.
func (d *Device) Put(batch []PutRecord) error {
	return d.SubmitPut(batch).Wait().Err
}

// execPut is the firmware's atomic-batch handler. It runs on a coalescer
// actor, for a group commit carrying one or more merged Put commands
// (merged == how many; the records of one merged command are contiguous,
// and the coalescer's cut keeps a merged batch free of duplicate keys), or
// for one command re-executed alone after its group commit failed (merged
// == 0). Its bookkeeping — key order, namespaces, undo list, prune pins —
// lives in stack buffers sized for a batch within the coalescer's cap, so
// what a Put allocates is what outlives it: the version nodes and the pages
// it fills. It returns the newest seq of the range the batch reserved, which
// the completion of every command it carried names (cmdq.Result.Seq): no
// settled timestamp falls inside a batch's range, so a snapshot sees that
// seq exactly when it sees each of the batch's records.
func (d *Device) execPut(batch []PutRecord, merged int) (uint64, error) {
	// Phase 1a: lock every touched index entry, in sorted order. The sort
	// puts a repeated key next to itself, so the duplicate scan that guards
	// the key locks against self-deadlock costs one pass over it.
	var keyBuf [stackBatch]nskey
	keys, err := lockOrder(batch, keyBuf[:0])
	if err != nil {
		return 0, err
	}

	if d.closed.Load() {
		return 0, d.closedErr()
	}
	// Resolve and validate every namespace up front, and mark one
	// in-flight batch per namespace so snapshot creation waits out
	// half-staged batches (see SnapshotNamespace). The slots come from the
	// sorted keys, so they ascend by ID and a record finds its namespace by
	// binary search; they are filled in batch order.
	var nsBuf [stackBatch]nsSlot
	nss := nsBuf[:0]
	for i, k := range keys {
		if i == 0 || k.ns != keys[i-1].ns {
			nss = append(nss, nsSlot{id: k.ns})
		}
	}
	defer func() {
		for _, s := range nss {
			if s.ns != nil {
				s.ns.pendingBatches.Add(-1)
			}
		}
		// The batch's end for a snapshot waiting on its namespaces, and for
		// a read of a version it popped if it aborted.
		d.batchEnd.raise()
	}()
	for _, r := range batch {
		slot := &nss[nsIndex(nss, r.Namespace)]
		if slot.ns != nil {
			continue
		}
		ns, lerr := d.lookupNS(r.Namespace)
		if lerr != nil {
			return 0, lerr
		}
		if ns.readonly {
			return 0, fmt.Errorf("%w: %d", ErrReadOnly, r.Namespace)
		}
		// Mark the batch in flight under ns.mu: snapshot creation, which
		// write-locks it, then either sees the mark or takes its cutoff
		// before this batch reserves a sequence.
		ns.mu.RLock()
		ns.pendingBatches.Add(1)
		ns.mu.RUnlock()
		slot.ns = ns
	}
	d.keyLks.lockAll(keys)

	// Phase 1b: stage every record in NVRAM under an open batch, push a
	// pending version naming the NVRAM copy onto each key's chain, and
	// route the records to logs. The batch is logically committed only
	// when its NVRAM commit marker is written after the loop — a power
	// cut at ANY earlier point leaves the batch uncommitted and recovery
	// discards it whole, which is what makes multi-record Put atomic. The
	// pushed nodes are remembered so a mid-batch failure (mapping table
	// full, power cut) pops them again.
	// Reserving the batch's whole seq range here — before any staging —
	// keeps commit timestamps batch-contiguous: a snapshot or SI pin taken
	// at the current seq can never split the batch (see NVRAM.beginBatch).
	d.nvMu.Lock()
	batchID, seqCur := d.nv.beginBatch(len(batch))
	d.nvMu.Unlock()
	totalProbes := 0
	newKeys := 0
	var undoBuf [stackBatch]undoEntry
	undo := undoBuf[:0]
	abort := func(aerr error) error {
		d.rollbackStaged(undo)
		d.nvMu.Lock()
		d.nv.abortBatch(batchID)
		d.ctr.nvramStaged.Set(int64(len(d.nv.values)))
		d.wakeDrainedLocked() // the dropped values may be the last a Flush awaits
		d.nvMu.Unlock()
		d.keyLks.unlockAll(keys)
		return aerr
	}
	for _, r := range batch {
		// appendRecord below may release the log mutex while blocked on
		// queue space; a power cut can land in that window. Acknowledging
		// this batch after the cut would break crash consistency, so
		// re-check before every record and again before the commit
		// marker.
		if d.crashed.Load() || !d.arr.Powered() {
			d.noticePowerLoss()
			return 0, abort(ErrPowerLoss)
		}
		ns := nss[nsIndex(nss, r.Namespace)].ns

		seq := seqCur
		seqCur++
		d.nvMu.Lock()
		d.nv.stage(seq, r.Namespace, r.Key, r.Value, batchID)
		d.ctr.nvramStaged.Set(int64(len(d.nv.values)))
		d.nvMu.Unlock()
		stagedAt := d.telNow()

		// One push does the directory lookup (or insert) and publishes the
		// NVRAM location, in a single probe sequence. The superseded version
		// stays alive in the chain — its flash space is released at prune
		// time, not here.
		ns.mu.Lock()
		node, probes, isNew, perr := ns.fam.chains.PushProbed(r.Key, seq, uint64(nvramLoc(seq)))
		if perr != nil {
			ns.mu.Unlock()
			// Atomicity demands all-or-nothing: pop every version this batch
			// already pushed. A full table is the one expected cause (key
			// locks serialize per-key pushes and seqs are monotone).
			if errors.Is(perr, hashindex.ErrFull) {
				perr = fmt.Errorf("%w: ns %d", ErrIndexFull, r.Namespace)
			}
			return 0, abort(perr)
		}
		lg, cur := d.route(ns)
		ns.mu.Unlock()
		var prev uint64 // the superseded version's seq: the record's temperature
		if p := node.Prev(); p != nil {
			prev = p.Seq
		}

		totalProbes += probes
		if isNew {
			newKeys++
		}
		undo = append(undo, undoEntry{ns: ns, key: r.Key, node: node})

		rec := record.Record{Namespace: r.Namespace, Key: r.Key, Seq: seq, Value: r.Value}
		if aerr := d.appendRecord(ns, lg, cur, rec, prev, stagedAt); aerr != nil {
			return 0, abort(aerr)
		}
		d.ctr.bytesWritten.Add(int64(len(r.Value)))
	}
	if d.crashed.Load() || !d.arr.Powered() {
		d.noticePowerLoss()
		return 0, abort(ErrPowerLoss)
	}
	// Commit point: one atomic NVRAM write. From here the batch
	// survives any crash; the host is acknowledged after this.
	d.nvMu.Lock()
	d.nv.commitBatch(batchID)
	d.nvMu.Unlock()
	// Stamp every staged version committed (plain state stores — the
	// key locks are still held, so no competing mutation can interleave),
	// then prune each touched chain: versions superseded by this batch die
	// now unless a snapshot, a transaction pin or the settled floor still
	// sees them.
	for _, u := range undo {
		u.ns.fam.chains.Commit(u.node)
	}
	d.batchEnd.raise() // a read waiting on a version of the batch takes it now
	var pinBuf [8]uint64
	pins, floor := d.snapshotPins(pinBuf[:0])
	pruned := 0
	for _, u := range undo {
		u.ns.mu.Lock()
		pruned += u.ns.fam.chains.PruneBelow(u.key, pins, floor, true, d.versionDead)
		u.ns.mu.Unlock()
	}
	d.ctr.versionsPruned.Add(int64(pruned))
	// A group commit acknowledges every merged Put command at once; Puts
	// counts logical commands, not commits (CoalescerBatches counts those).
	d.ctr.puts.Add(int64(max(merged, 1)))
	d.ctr.putRecords.Add(int64(len(batch)))
	d.ctr.indexProbes.Add(int64(totalProbes))
	d.ctr.indexEntries.Add(int64(newKeys))
	d.keyLks.unlockAll(keys)
	// Put's index lookups run on the controller's lookup engine and
	// overlap with the NVRAM DMA, so the charged CPU work is the fixed
	// dispatch cost plus entry allocation for fresh keys (the cost that
	// makes Insert slower than Update in Figs. 5c/6c).
	d.ctrl.Compute(d.ctrl.Config().FirmwareFixedCost +
		time.Duration(newKeys)*d.ctrl.Config().InsertCost)
	return seqCur - 1, nil
}

// nsSlot is one namespace a Put batch names: its ID, and the namespace once
// execPut has resolved and marked it.
type nsSlot struct {
	id uint32
	ns *namespace
}

// nsIndex returns the index of id in nss, which ascends by ID and holds it.
func nsIndex(nss []nsSlot, id uint32) int {
	i, _ := slices.BinarySearchFunc(nss, id, func(s nsSlot, id uint32) int {
		return cmp.Compare(s.id, id)
	})
	return i
}

// rollbackStaged undoes phase-1b staging for the already-staged prefix of
// a batch whose later record failed (mapping table full, power cut): each
// staged version is popped off its chain, which re-exposes the version it
// superseded — or, for a key the batch introduced, frees the key's table
// slot. A reader parked mid-read skips aborted nodes and re-resolves. Records
// already routed to a packer become garbage automatically because the
// flusher finds no chain node to install, and the caller's abortBatch marks
// their sequences so recovery never resurrects flash copies. The superseded
// version was never discounted (that happens at prune time), so there is
// nothing to credit back. The batch's key locks are still held, so no
// concurrent Put can interleave.
func (d *Device) rollbackStaged(undo []undoEntry) {
	for _, u := range undo {
		u.ns.mu.Lock()
		u.ns.fam.chains.Abort(u.key, u.node)
		u.ns.mu.Unlock()
	}
}

// Flush drains the device: it returns once every record staged in NVRAM —
// in particular every Put acknowledged before the call — has been programmed
// to flash and its index entry points there. It is the one way, short of
// Close, to make a partially-filled page leave NVRAM: while a Flush waits,
// every flusher seals its log's open page as soon as it holds a record.
// KAML's durability does not depend on it (NVRAM is battery-backed); callers
// use it to settle the flash layout — after a preload, before measuring
// reads from flash. Returns early on a power cut.
func (d *Device) Flush() {
	d.drainers.Add(1)
	for _, lg := range d.logs {
		lg.mu.Lock()
		lg.workCv.Signal()
		lg.mu.Unlock()
	}
	d.nvMu.Lock()
	for d.nv.unflushed() > 0 && !d.crashed.Load() {
		d.drainCv.Wait()
	}
	d.nvMu.Unlock()
	d.drainers.Add(-1)
}

// wakeDrainedLocked wakes the Flush callers once nothing staged still awaits
// its flash copy. Whoever releases staged values while d.drainers is
// non-zero calls it: the flusher after installing a page, a Put batch that
// aborts. Called with nvMu held.
func (d *Device) wakeDrainedLocked() {
	if d.drainers.Load() > 0 && d.nv.unflushed() == 0 {
		d.drainCv.Broadcast()
	}
}

// NamespaceKeys returns every key the namespace holds, in ascending order:
// the keys of the family's mapping table with a version inside the
// namespace's view (everything for a root, the pinned cutoff for a
// snapshot). It is the shard-migration hook: a migrator snapshots a
// namespace, enumerates the snapshot's frozen key set with this call, and
// streams each record to the destination device with Get+Put while new
// writes keep flowing to the origin (internal/cluster). Controller time is
// charged proportional to the keys returned.
func (d *Device) NamespaceKeys(nsID uint32) ([]uint64, error) {
	if d.closed.Load() {
		return nil, d.closedErr()
	}
	ns, lerr := d.lookupNS(nsID)
	if lerr != nil {
		return nil, lerr
	}
	var keys []uint64
	d.ctrl.Submit(func() {
		ns.fam.chains.Range(func(key uint64, head *hashindex.Version) bool {
			if _, _, gerr := head.AtOrBefore(ns.cutoff); !errors.Is(gerr, hashindex.ErrNotFound) {
				keys = append(keys, key)
			}
			return true
		})
		d.ctrl.ComputeProbes(len(keys) / 64)
	})
	// The directory ranges in slot order; sort so migration copy order — and
	// with it the virtual-time schedule — never depends on hash layout.
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys, nil
}
