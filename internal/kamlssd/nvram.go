package kamlssd

import (
	"sort"

	"github.com/kaml-ssd/kaml/internal/flash"
)

// NVRAM models the device's battery-backed memory region (paper §III-C,
// §IV-D: "the staging buffers are non-volatile"). Everything in it survives
// a power cut; everything outside it (the per-namespace mapping tables, the
// log allocator, the sealed-page queues) is plain DRAM and is rebuilt by
// Recover from a flash scan plus this structure.
//
// It holds four things:
//
//   - staged values: every Put value lives here from the moment it is
//     staged until its flash copy is installed in the index;
//   - batch commit markers: a Put batch is COMMITTED exactly when its
//     marker is written, which happens after every record is staged and
//     before the host is acknowledged. Recovery replays committed batches
//     and discards uncommitted ones — that single rule is what makes
//     multi-record Put atomic across any cut point;
//   - the namespace catalog: which namespaces exist, their index shape,
//     and (for snapshots) the sequence cutoff that defines their view;
//   - the bad-block table: blocks retired after program/erase failures.
//
// All access happens under the owning Device's nvMu (the innermost lock of
// the hierarchy — see device.go); NVRAM has no lock of its own because the
// structure must survive device teardown and be handed to Recover. The
// commit marker is modeled as a single atomic NVRAM write (an 8-byte flag),
// the standard assumption for battery-backed commit records.
//
// Like the paper's fixed staging area, the region recycles its storage in
// place: entries and batch records are held by value in their maps, a
// batch's members are the seq range beginBatch reserved for it (no list of
// its own), and staged value buffers come from a free list the NVRAM owns.
// A value is copied in once at stage time and its buffer goes back on the
// list when the entry is released (installed, aborted, dropped or
// finished), so a steady-state Put allocates nothing here. Readers must
// copy out under nvMu — valueState returns the buffer itself.
type NVRAM struct {
	nextNSID  uint32
	nvSeq     uint64
	nextBatch uint64

	values  map[uint64]nvEntry // staged values by sequence
	batches map[uint64]nvBatch
	free    [][]byte // released staging buffers, reused by stage
	// open holds the first reserved seq of every batch that has neither
	// committed nor aborted, by batch ID: what settledSeq needs, without
	// walking the committed batches that still wait for flash.
	open map[uint64]uint64
	// aborted remembers sequences whose records must be ignored if ever
	// seen on flash: rolled-back batches and values dropped as uncommitted
	// during recovery. Entries are rare (index-full rollbacks and cut
	// mid-Put) and tiny, so they are kept for the device's lifetime.
	aborted map[uint64]struct{}

	catalog   map[uint32]*nsMeta
	badBlocks map[flash.PPN]struct{} // first-page PPN of retired blocks
}

// nvEntry is one staged value.
type nvEntry struct {
	ns        uint32
	key       uint64
	val       []byte
	batch     uint64
	installed bool // flash copy installed before the batch committed
}

// nvBatch tracks one Put batch's commit state. Its members are the staged
// values among the n seqs from first on: nobody else stages in that range.
type nvBatch struct {
	committed bool
	first     uint64 // first seq of the range reserved at beginBatch
	n         uint64 // seqs reserved
	remaining int    // staged values not yet durable on flash
}

// nsMeta is the catalog entry for one namespace.
type nsMeta struct {
	id       uint32
	kind     IndexKind
	capacity int
	numLogs  int
	origin   uint32
	readonly bool
	cutoff   uint64 // noCutoff for writable namespaces
}

// noCutoff marks a namespace that sees every sequence (i.e., not a
// point-in-time snapshot).
const noCutoff = ^uint64(0)

// NewNVRAM returns an empty battery-backed region for a fresh device.
func NewNVRAM() *NVRAM {
	return &NVRAM{
		nextNSID:  1,
		values:    make(map[uint64]nvEntry),
		batches:   make(map[uint64]nvBatch),
		open:      make(map[uint64]uint64),
		aborted:   make(map[uint64]struct{}),
		catalog:   make(map[uint32]*nsMeta),
		badBlocks: make(map[flash.PPN]struct{}),
	}
}

// beginBatch opens a new uncommitted batch and reserves n contiguous
// commit timestamps for it, returning the batch ID and the first reserved
// seq. Reserving the whole range up front — before any record is staged —
// means a snapshot pin taken at the current nvSeq can never split a batch:
// either every record of the batch is ≤ the pin (and the pinned reader
// waits for the batch's commit/abort decision) or none is. The range is
// also the batch's membership: its values are the ones staged inside it.
func (nv *NVRAM) beginBatch(n int) (batch, firstSeq uint64) {
	nv.nextBatch++
	firstSeq = nv.nvSeq + 1
	nv.batches[nv.nextBatch] = nvBatch{first: firstSeq, n: uint64(n)}
	nv.open[nv.nextBatch] = firstSeq
	nv.nvSeq += uint64(n)
	return nv.nextBatch, firstSeq
}

// settledSeq returns the newest commit timestamp with no in-flight batch
// at or below it: every seq <= settledSeq belongs to a batch that already
// committed or aborted (or is an unused reservation gap). SI begin
// timestamps come from here so a transaction's snapshot can never be
// fractured by a batch that was mid-stage at begin. Every Put reads it (its
// prune pins), so it walks only the open batches — a handful, one per Put in
// flight — not every committed batch still waiting for its flash installs.
func (nv *NVRAM) settledSeq() uint64 {
	ts := nv.nvSeq
	for _, first := range nv.open {
		ts = min(ts, first-1)
	}
	return ts
}

// stage stores the value under a sequence number reserved by beginBatch.
// Reserved seqs never staged (a batch aborted mid-stage) are harmless gaps
// in the timestamp space.
func (nv *NVRAM) stage(seq uint64, ns uint32, key uint64, val []byte, batch uint64) {
	nv.values[seq] = nvEntry{ns: ns, key: key, val: nv.copyIn(val), batch: batch}
	b := nv.batches[batch]
	b.remaining++
	nv.batches[batch] = b
}

// copyIn returns a staging buffer holding a copy of val, recycled from the
// free list when one is there. A recycled buffer too small for val is
// dropped for one of val's size, so the buffers grow to the largest value
// the workload stages and then stop allocating.
func (nv *NVRAM) copyIn(val []byte) []byte {
	var buf []byte
	if n := len(nv.free); n > 0 {
		buf = nv.free[n-1]
		nv.free = nv.free[:n-1]
	}
	if cap(buf) < len(val) {
		buf = make([]byte, 0, len(val))
	}
	return append(buf[:0], val...)
}

// release deletes seq's entry e and puts its buffer on the free list; the
// caller accounts for it in e's batch.
func (nv *NVRAM) release(seq uint64, e nvEntry) {
	delete(nv.values, seq)
	nv.free = append(nv.free, e.val[:0])
}

// storeBatch writes batch record b back under id, or retires it once none
// of its values still waits for flash.
func (nv *NVRAM) storeBatch(id uint64, b nvBatch) {
	if b.remaining == 0 {
		delete(nv.batches, id)
	} else {
		nv.batches[id] = b
	}
}

// commitBatch is the batch's commit point. Values whose flash copies were
// installed while the batch was still open become fully durable now.
func (nv *NVRAM) commitBatch(batch uint64) {
	b, ok := nv.batches[batch]
	if !ok {
		return
	}
	b.committed = true
	delete(nv.open, batch)
	for seq := b.first; seq < b.first+b.n; seq++ {
		if e, ok := nv.values[seq]; ok && e.installed {
			nv.release(seq, e)
			b.remaining--
		}
	}
	nv.storeBatch(batch, b)
}

// abortBatch rolls back an uncommitted batch: its values are dropped and
// their sequences remembered as aborted so copies that already reached
// flash are never resurrected by recovery. An uncommitted batch keeps every
// value it staged until it commits or aborts (an install leaves a marker),
// so the staged seqs of its range are exactly the ones present; the rest
// were never staged, and nothing of theirs can be on flash. Returns how many
// values it dropped.
func (nv *NVRAM) abortBatch(batch uint64) (dropped int) {
	b, ok := nv.batches[batch]
	if !ok {
		return 0
	}
	for seq := b.first; seq < b.first+b.n; seq++ {
		if e, ok := nv.values[seq]; ok {
			nv.release(seq, e)
			nv.aborted[seq] = struct{}{}
			dropped++
		}
	}
	delete(nv.batches, batch)
	delete(nv.open, batch)
	return dropped
}

// installed records that seq's flash copy is now pointed at by the index.
// Committed values are released; uncommitted ones are kept as markers so
// recovery knows their flash copies belong to an unfinished batch.
func (nv *NVRAM) installed(seq uint64) {
	e, ok := nv.values[seq]
	if !ok {
		return
	}
	b, open := nv.batches[e.batch]
	if open && !b.committed {
		e.installed = true
		nv.values[seq] = e
		return
	}
	nv.release(seq, e)
	if open {
		b.remaining--
		nv.storeBatch(e.batch, b)
	}
}

// valueState returns the staged bytes for seq together with whether the
// owning batch has committed. A value whose batch record is already retired
// (every member durable) counts as committed — only values staged between
// phase 1b and the commit marker report committed == false.
func (nv *NVRAM) valueState(seq uint64) (val []byte, committed bool, ok bool) {
	e, found := nv.values[seq]
	if !found {
		return nil, false, false
	}
	b, open := nv.batches[e.batch]
	return e.val, !open || b.committed, true
}

// unflushed counts staged values whose flash copy is not yet installed —
// the work Flush waits for.
func (nv *NVRAM) unflushed() int {
	n := 0
	for _, e := range nv.values {
		if !e.installed {
			n++
		}
	}
	return n
}

// isAborted reports whether a sequence belongs to a rolled-back batch.
func (nv *NVRAM) isAborted(seq uint64) bool {
	_, ok := nv.aborted[seq]
	return ok
}

// dropUncommitted discards every value belonging to a batch that never
// committed (recovery's first step: a cut mid-Put means the host was never
// acknowledged, so the batch must vanish atomically). Returns how many
// values were dropped.
func (nv *NVRAM) dropUncommitted() (dropped int) {
	for id, b := range nv.batches {
		if !b.committed {
			dropped += nv.abortBatch(id)
		}
	}
	return dropped
}

// finish releases a staged value that recovery found to be already durable
// (its sequence, or a newer one, is on flash for every interested
// namespace).
func (nv *NVRAM) finish(seq uint64) {
	e, ok := nv.values[seq]
	if !ok {
		return
	}
	nv.release(seq, e)
	if b, open := nv.batches[e.batch]; open {
		b.remaining--
		nv.storeBatch(e.batch, b)
	}
}

// hasStaged reports, without taking nvMu, whether any value is staged.
// False is definitive — the values map is empty, so any valueState probe
// would miss, which is the hot case of a read-mostly workload (all values
// flushed to flash); readers use this to skip nvMu entirely. A true result
// says nothing about a particular sequence and callers must still probe
// under nvMu.
func (nv *NVRAM) hasStaged() bool { return len(nv.values) != 0 }

// putNS records (or updates) a namespace catalog entry.
func (nv *NVRAM) putNS(m nsMeta) {
	cp := m
	nv.catalog[m.id] = &cp
}

// deleteNS removes a namespace from the catalog.
func (nv *NVRAM) deleteNS(id uint32) { delete(nv.catalog, id) }

// sortedCatalog returns catalog entries ordered by namespace ID so
// recovery is deterministic.
func (nv *NVRAM) sortedCatalog() []*nsMeta {
	out := make([]*nsMeta, 0, len(nv.catalog))
	for _, m := range nv.catalog {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// retireBlock records a bad block (identified by its first page's PPN).
func (nv *NVRAM) retireBlock(first flash.PPN) { nv.badBlocks[first] = struct{}{} }

// isRetired reports whether the block starting at first is retired.
func (nv *NVRAM) isRetired(first flash.PPN) bool {
	_, ok := nv.badBlocks[first]
	return ok
}
