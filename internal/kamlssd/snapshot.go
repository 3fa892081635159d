package kamlssd

import (
	"errors"
	"fmt"

	"github.com/kaml-ssd/kaml/internal/cmdq"
)

// ErrReadOnly reports a Put against a snapshot namespace.
var ErrReadOnly = errors.New("kamlssd: namespace is a read-only snapshot")

// This file implements namespace snapshots, the paper's §I observation that
// a key-value FTL "makes it possible to exploit the layer of indirection to
// provide additional services like snapshots". Because flash pages are
// immutable and every retained version of a key stays reachable through the
// family's version chains (mvcc.go), a snapshot is nothing more than a
// PINNED COMMIT TIMESTAMP: the snapshot namespace is a table-less shell
// whose reads resolve "newest version at-or-before my cutoff" against the
// origin's chains, updates to the origin diverge naturally (they push newer
// versions), and pruning/GC keep a version alive while any snapshot's
// cutoff — or transaction pin — still sees it.

// SnapshotNamespace creates a read-only, point-in-time snapshot of the
// namespace and returns its ID. The snapshot observes every Put
// acknowledged before the call; it costs one catalog entry — no index
// copy, no flash I/O.
//
// Creation waits out in-flight Put batches touching the source so the
// pinned cutoff is settled: every version at or below it has its commit
// decision (and commit stamp) already in place. The wait ends at a batch's
// end, when execPut releases the source (awaitBatchEnd). Like Get, the
// command runs on the caller through the pipeline's direct path.
func (d *Device) SnapshotNamespace(nsID uint32) (uint32, error) {
	d.ctrl.Submission()
	res := d.pipe.RunDirect(&cmdq.Command{Op: cmdq.OpSnapshot, Namespace: nsID})
	return res.Namespace, res.Err
}

// execSnapshot is the firmware's snapshot handler; it runs on the caller.
func (d *Device) execSnapshot(nsID uint32) (uint32, error) {
	if d.closed {
		return 0, d.closedErr()
	}
	if _, lerr := d.lookupNS(nsID); lerr != nil {
		return 0, lerr
	}
	d.ctrl.ComputeProbes(0) // pinning a timestamp copies nothing

	var snapID uint32
	for {
		seen := d.batchEnd.seen()
		d.mu.Lock()
		src, ok := d.namespaces[nsID]
		if !ok {
			d.mu.Unlock()
			return 0, fmt.Errorf("%w: %d", ErrNoNamespace, nsID)
		}
		if src.pendingBatches > 0 {
			// A Put batch has staged some but possibly not all of its
			// records. Wait for its end — execPut raises batchEnd as it
			// releases the namespace, committed or aborted — without
			// holding the device lock, since draining the batch may need
			// the flusher (which installs under d.mu.RLock).
			d.mu.Unlock()
			if err := d.awaitBatchEnd(seen); err != nil {
				return 0, err
			}
			continue
		}
		src.mu.Lock()
		if src.pendingBatches > 0 {
			// A batch slipped in between the check above and the lock;
			// with src.mu now held it can stage nothing further, but it
			// may already have staged a prefix — retry.
			src.mu.Unlock()
			d.mu.Unlock()
			if err := d.awaitBatchEnd(seen); err != nil {
				return 0, err
			}
			continue
		}

		d.nvMu.Lock()
		snapID = d.nv.nextNSID
		d.nv.nextNSID++
		// The snapshot's view is "every sequence assigned so far" — or the
		// source's own cutoff when snapshotting a snapshot. Recovery
		// rebuilds the view from the raw flash scan as "newest record with
		// seq <= cutoff", so the cutoff is persisted in the NVRAM catalog.
		cut := src.cutoff
		if cut == noCutoff {
			cut = d.nv.nvSeq
		}
		var kind IndexKind
		var capacity int
		if m := d.nv.catalog[nsID]; m != nil {
			kind, capacity = m.kind, m.capacity
		}
		d.nvMu.Unlock()

		snap := d.newNamespace(snapID)
		snap.logIDs = append([]int(nil), src.logIDs...)
		snap.origin = familyRoot(src)
		snap.readonly = true
		snap.cutoff = cut
		snap.fam = src.fam // shell reads resolve through the family chains
		d.namespaces[snapID] = snap
		d.nvMu.Lock()
		d.nv.putNS(nsMeta{
			id: snapID, kind: kind, capacity: capacity,
			numLogs: len(snap.logIDs), origin: snap.origin, readonly: true, cutoff: cut,
		})
		d.nvMu.Unlock()
		src.mu.Unlock()
		d.mu.Unlock()
		return snapID, nil
	}
}

// familyRoot returns the namespace ID whose records the namespace
// references (records carry the root's ID in their headers).
func familyRoot(ns *namespace) uint32 {
	if ns.origin != 0 {
		return ns.origin
	}
	return ns.id
}
