package hashindex

import (
	"errors"
	"fmt"
	"slices"
)

// This file is the version-aware mapping table, in the style of
// "Multi-version Indexing in Flash-based Key-Value Stores". An out-of-place
// flash log already retains old record versions physically; a single-version
// index merely forgets them. VersionChains remembers: each key maps, through
// one Directory, to a small singly-linked chain of (commitTS, location)
// nodes, newest first. The head is the key's current location; snapshot and
// time-travel reads resolve "the value as of timestamp T" by walking on from
// it, without cloning tables.
//
// Ownership contract. The chains are plain memory with one owner: the
// firmware's engine runs one actor at a time, so no read overlaps a
// mutation, and nothing here is atomic. Mutations (Push, Commit, Abort,
// Prune) are ordered by the caller (the firmware holds the family root's
// ns.mu); reads (Head, AtOrBefore, LatestCommitted, VersionAtLoc, Range)
// take no lock of the caller's. A read that parks between two steps (the
// firmware's optimistic read holds a node across its flash read) may
// resume after mutations, so:
//
//   - unlinked (pruned or aborted) nodes keep their prev pointers, so a
//     reader holding one walks a slightly stale chain, and the firmware's
//     read re-resolves if the location it fetched was reclaimed meanwhile;
//   - a kept Chain checks that its cell still belongs to its key (cells
//     are recycled).
//
// Nodes are reclaimed by Go's GC once the last reader drops them.

// Directory is the key → chain-cell map under a VersionChains, with the
// same single owner. probes counts the entries scanned, which the
// firmware charges as controller time. A fixed-capacity implementation
// reports ErrFull from LoadOrStore.
type Directory interface {
	Get(key uint64) (val uint64, probes int, err error)
	// LoadOrStore returns key's value when present, and stores val otherwise.
	LoadOrStore(key, val uint64) (actual uint64, probes int, loaded bool, err error)
	Delete(key uint64) (probes int, err error)
	Range(fn func(key, val uint64) bool)
	Len() int
	// Capacity is the number of entry slots the structure occupies.
	Capacity() int
}

// VersionState is the lifecycle of one chain node.
type VersionState uint32

// Version lifecycle states.
const (
	// VersionPending: staged in NVRAM, commit marker not yet written. A
	// snapshot read at ts >= Seq cannot decide visibility until the batch
	// commits or aborts; AtOrBefore reports it so the caller can wait.
	VersionPending VersionState = iota
	// VersionCommitted: the batch's NVRAM commit marker is written; the
	// version is durable and visible to any timestamp >= Seq.
	VersionCommitted
	// VersionAborted: the batch rolled back; the node is skipped by readers
	// and unlinked by the writer.
	VersionAborted
)

// Version is one node of a per-key chain. Seq is the commit timestamp (the
// device's NVRAM sequence — see the commit-TS oracle in internal/kamlssd);
// it is immutable after Push. loc is the packed physical location and moves
// as the record migrates (NVRAM → flash install, GC relocation).
type Version struct {
	Seq   uint64
	loc   uint64
	state VersionState
	prev  *Version
}

// Loc returns the node's current packed location.
func (v *Version) Loc() uint64 { return v.loc }

// SetLoc sets a new physical location (flash install, GC relocation).
func (v *Version) SetLoc(loc uint64) { v.loc = loc }

// State returns the node's lifecycle state.
func (v *Version) State() VersionState { return v.state }

// Prev returns the next-older node, or nil at the chain's tail.
func (v *Version) Prev() *Version { return v.prev }

// Per-entry DRAM cost constants. VersionChains.MemoryBytes is built from
// these instead of magic numbers so the index reports an honest footprint.
const (
	// ConcurrentEntryBytes is one ConcurrentTable slot: key and value, and
	// the state field padded to a word (8+8+8).
	ConcurrentEntryBytes = 24
	// VersionNodeBytes is one chain node: seq + loc + state (padded) + prev.
	VersionNodeBytes = 32
	// chainCellBytes is one arena cell: the head pointer, the owning key and
	// the storage of the cell's first node.
	chainCellBytes = 16 + VersionNodeBytes
)

// cellChunk is the number of cells per arena chunk. The arena grows a chunk
// at a time and never moves a cell, so a reader may hold a cell across a
// park.
const cellChunk = 256

// chainCell anchors one key's chain. Cells are recycled when a chain empties
// (an aborted first write), so a reader that found the cell through a stale
// directory entry could be looking at another key's chain; key lets it tell.
//
// first is the storage of the first version ever pushed onto the cell. A key
// written once — every key of a read-mostly store — then resolves slot →
// cell and finds its node on the cell's own cache lines, and costs no heap
// object. It is written once in the cell's lifetime and never reused (a
// recycled cell takes its nodes from the heap), so a reader may hold it as
// long as it likes, the same as any unlinked node.
type chainCell struct {
	head  *Version
	key   uint64
	first Version
}

// headFor returns the cell's chain head if the cell (still) belongs to key,
// else nil: the reader's half of the recycling protocol.
func (c *chainCell) headFor(key uint64) *Version {
	if c.key != key {
		return nil // recycled after key's only version aborted
	}
	return c.head
}

// VersionChains maps keys to version chains. The zero value is not usable;
// call NewVersionChains or NewVersionChainsOver.
type VersionChains struct {
	dir    Directory // key -> cell number
	chunks []*[cellChunk]chainCell
	cells  uint64   // arena high-water mark: cell numbers handed out so far
	free   []uint64 // recycled cell numbers
	nodes  int
	inline int // linked nodes living in their cell (chainCell.first)

	// dirty tracks keys whose chains hold more than one node, i.e. the only
	// chains a prune pass could possibly shorten. The GC's per-cycle
	// PruneAll visits just these instead of ranging over every key — under
	// a steady single-version workload the pass is a no-op, not an O(keys)
	// scan. Like cells and free it is maintained by the mutation paths;
	// readers never touch it.
	dirty map[uint64]struct{}
}

// NewVersionChains returns an empty chain set over an auto-growing
// ConcurrentTable sized for capacity keys.
func NewVersionChains(capacity int) *VersionChains {
	if capacity < 8 {
		capacity = 8
	}
	return NewVersionChainsOver(NewConcurrent(capacity, true))
}

// NewVersionChainsOver returns an empty chain set whose key directory is
// dir, which must be empty. The directory's capacity is the mapping table's:
// a fixed-capacity dir makes Push of a new key fail with ErrFull.
func NewVersionChainsOver(dir Directory) *VersionChains {
	return &VersionChains{dir: dir, dirty: make(map[uint64]struct{})}
}

// noteDepth refreshes key's dirty-set membership from its chain depth.
func (vc *VersionChains) noteDepth(key uint64, c *chainCell) {
	if h := c.head; h != nil && h.prev != nil {
		vc.dirty[key] = struct{}{}
	} else {
		delete(vc.dirty, key)
	}
}

// cellAt returns arena cell ci, or nil when ci is out of range.
func (vc *VersionChains) cellAt(ci uint64) *chainCell {
	if ci/cellChunk >= uint64(len(vc.chunks)) {
		return nil
	}
	return &vc.chunks[ci/cellChunk][ci%cellChunk]
}

// spareCell returns the number of a cell no key owns — a recycled one, else
// the next of the arena (grown when full), which is fresh: its first-node
// storage is unused — without taking it.
func (vc *VersionChains) spareCell() (ci uint64, fresh bool) {
	if n := len(vc.free); n > 0 {
		return vc.free[n-1], false
	}
	if vc.cells == uint64(len(vc.chunks))*cellChunk {
		vc.chunks = append(vc.chunks, new([cellChunk]chainCell))
	}
	return vc.cells, true
}

// takeSpare consumes the cell spareCell returned.
func (vc *VersionChains) takeSpare() {
	if n := len(vc.free); n > 0 {
		vc.free = vc.free[:n-1]
	} else {
		vc.cells++
	}
}

// find returns key's cell and its number, or a nil cell.
func (vc *VersionChains) find(key uint64) (c *chainCell, ci uint64, probes int) {
	ci, probes, err := vc.dir.Get(key)
	if err != nil {
		return nil, 0, probes
	}
	return vc.cellAt(ci), ci, probes
}

// Chain is a key's resolved chain anchor. Lookup pays the directory probe
// sequence once; Head on the result costs none, so a reader that resolves
// the same key again (the firmware's optimistic read re-validates after its
// flash read) keeps the Chain instead of probing a second time.
type Chain struct {
	c   *chainCell
	key uint64
}

// Lookup resolves key's chain anchor, with the directory probes it cost.
func (vc *VersionChains) Lookup(key uint64) (Chain, int) {
	c, _, probes := vc.find(key)
	return Chain{c: c, key: key}, probes
}

// Head returns the chain's newest node (any state), or nil. From a Chain
// fresh out of Lookup nil means the key has no version. From a kept one it
// can also mean the anchor was recycled since — the key's only version
// aborted — and the key may have been inserted again under another anchor:
// look it up again before reporting it absent. A non-nil head is always the
// key's own.
func (ch Chain) Head() *Version {
	if ch.c == nil {
		return nil
	}
	return ch.c.headFor(ch.key)
}

// dropIfEmpty frees key's directory entry and recycles its cell once the
// chain holds no node, so an aborted first write gives its slot back to a
// fixed-capacity directory.
func (vc *VersionChains) dropIfEmpty(key uint64, c *chainCell, ci uint64) {
	if c.head != nil {
		return
	}
	if _, err := vc.dir.Delete(key); err == nil {
		vc.free = append(vc.free, ci)
	}
	delete(vc.dirty, key)
}

// unlinked accounts for node n having left c's chain.
func (vc *VersionChains) unlinked(c *chainCell, n *Version) {
	vc.nodes--
	if n == &c.first {
		vc.inline--
	}
}

// Push links a new pending version (seq, loc) at the head of key's chain
// and returns the node. seq must exceed every seq already in the chain
// (per-key writes are serialized by the firmware's key locks, and seqs are
// drawn from a monotone oracle, so this holds by construction).
func (vc *VersionChains) Push(key, seq, loc uint64) (*Version, error) {
	v, _, _, err := vc.PushProbed(key, seq, loc)
	return v, err
}

// PushProbed is Push that also reports the directory entries the push
// scanned — one probe sequence, for a new key and an update alike — and
// whether the key is new, i.e. had no linked version before this push. A
// full fixed-capacity directory fails a new key with ErrFull and leaves the
// chains untouched.
func (vc *VersionChains) PushProbed(key, seq, loc uint64) (v *Version, probes int, isNew bool, err error) {
	// A resident key keeps its cell; only a new key takes the spare one.
	ci, fresh := vc.spareCell()
	c := vc.cellAt(ci)
	actual, probes, loaded, err := vc.dir.LoadOrStore(key, ci)
	if err != nil {
		return nil, probes, false, fmt.Errorf("hashindex: version directory: %w", err)
	}
	switch {
	case loaded:
		c = vc.cellAt(actual)
		v = new(Version)
	case fresh:
		vc.takeSpare()
		c.key = key
		v = &c.first
		vc.inline++
	default:
		vc.takeSpare()
		c.key = key
		v = new(Version)
	}
	v.Seq = seq
	v.loc = loc
	h := c.head
	if h != nil {
		if h.Seq >= seq {
			return nil, probes, false, fmt.Errorf("hashindex: version seq %d not newer than head %d for key %d", seq, h.Seq, key)
		}
		v.prev = h
	}
	c.head = v
	vc.nodes++
	vc.noteDepth(key, c)
	return v, probes, h == nil, nil
}

// Commit marks v visible. Called after the owning batch's NVRAM commit
// marker is written.
func (vc *VersionChains) Commit(v *Version) { v.state = VersionCommitted }

// Abort marks v dead and unlinks it from key's chain. Rollback pops in
// reverse staging order, so v is normally the head, but the walk handles
// interior nodes too. Aborting a key's only version removes the key
// (directory entry and cell).
func (vc *VersionChains) Abort(key uint64, v *Version) {
	v.state = VersionAborted
	c, ci, _ := vc.find(key)
	if c == nil {
		return
	}
	// v keeps its own prev pointer for readers that hold it.
	if c.head == v {
		c.head = v.prev
		vc.unlinked(c, v)
	} else {
		for n := c.head; n != nil; n = n.prev {
			if n.prev == v {
				n.prev = v.prev
				vc.unlinked(c, v)
				break
			}
		}
	}
	vc.noteDepth(key, c)
	vc.dropIfEmpty(key, c, ci)
}

// Head returns the newest node of key's chain (any state), or nil.
func (vc *VersionChains) Head(key uint64) *Version {
	ch, _ := vc.Lookup(key)
	return ch.Head()
}

// ErrPendingVersion is returned by AtOrBefore when visibility at the
// requested timestamp depends on a batch whose commit marker is not yet
// written. The caller waits for the batch to settle and retries.
var ErrPendingVersion = errors.New("hashindex: version pending commit")

// AtOrBefore resolves a chain as of timestamp ts, starting at its head v
// (nil is the empty chain): the newest committed version with Seq <= ts.
// hops counts the chain nodes visited. Returns ErrNotFound when
// no version <= ts exists, or ErrPendingVersion when an undecided version
// <= ts blocks the answer.
func (v *Version) AtOrBefore(ts uint64) (loc uint64, hops int, err error) {
	for n := v; n != nil; n = n.prev {
		hops++
		if n.Seq > ts {
			continue
		}
		switch n.state {
		case VersionCommitted:
			return n.loc, hops, nil
		case VersionPending:
			return 0, hops, ErrPendingVersion
		default: // aborted: a reader holding an unlinked node; skip
		}
	}
	return 0, hops, ErrNotFound
}

// LatestCommitted returns the newest committed version of key, or nil.
// Used for first-committer-wins validation.
func (vc *VersionChains) LatestCommitted(key uint64) *Version {
	for n := vc.Head(key); n != nil; n = n.prev {
		if n.state == VersionCommitted {
			return n
		}
	}
	return nil
}

// VersionAtLoc returns the chain node currently pointing at loc, or nil.
// GC uses it for liveness ("is this flash record referenced by any live
// version?") and relocation.
func (vc *VersionChains) VersionAtLoc(key, loc uint64) *Version {
	for n := vc.Head(key); n != nil; n = n.prev {
		if n.loc == loc && n.state != VersionAborted {
			return n
		}
	}
	return nil
}

// ChainLen returns the number of linked nodes in key's chain.
func (vc *VersionChains) ChainLen(key uint64) int {
	n := 0
	for v := vc.Head(key); v != nil; v = v.prev {
		n++
	}
	return n
}

// Keys returns the number of keys with at least one linked version.
func (vc *VersionChains) Keys() int { return vc.dir.Len() }

// Nodes returns the number of linked version nodes across all chains.
func (vc *VersionChains) Nodes() int { return vc.nodes }

// LoadFactor returns keys / directory capacity.
func (vc *VersionChains) LoadFactor() float64 {
	return float64(vc.dir.Len()) / float64(vc.dir.Capacity())
}

// MemoryBytes estimates the DRAM footprint: the key directory, the cell
// arena, and every linked node outside it, each priced by its per-entry
// constant.
func (vc *VersionChains) MemoryBytes() int {
	return vc.dir.Capacity()*ConcurrentEntryBytes +
		len(vc.chunks)*cellChunk*chainCellBytes +
		(vc.nodes-vc.inline)*VersionNodeBytes
}

// Range calls fn with each key and its current chain head until fn returns
// false. fn must not mutate the chains.
func (vc *VersionChains) Range(fn func(key uint64, head *Version) bool) {
	vc.dir.Range(func(key, ci uint64) bool {
		return fn(key, vc.cellAt(ci).head)
	})
}

// NoFloor is the settled floor of a prune that has none: nobody can begin a
// read of these chains any more, so only pins keep versions.
const NoFloor = ^uint64(0)

// Prune is PruneBelow without a settled floor.
func (vc *VersionChains) Prune(key uint64, pins []uint64, keepNewest bool, onDead func(seq, loc uint64)) int {
	return vc.PruneBelow(key, pins, NoFloor, keepNewest, onDead)
}

// PruneBelow unlinks every committed version of key that is invisible to
// all of pins (ascending commit timestamps) and to every timestamp from
// floor up. A version v is visible at timestamp p iff v.Seq <= p and no
// newer committed version has Seq <= p. floor is the newest timestamp with
// no undecided batch at or below it: a reader may yet pin any timestamp >=
// floor, so the version floor itself sees stays, and so does every version
// newer than floor — each is what some such timestamp resolves to. With
// keepNewest set (the normal case for a live, writable namespace) the newest
// committed version is additionally kept, because every future timestamp
// resolves to it; without it (the namespace was deleted and only pinned
// snapshots still reference the chain) even the newest version dies unless
// a pin sees it. Pending nodes are never touched. onDead is called once per
// unlinked node with its (seq, loc) so the firmware can release the flash
// space. Returns the number of versions reclaimed.
func (vc *VersionChains) PruneBelow(key uint64, pins []uint64, floor uint64, keepNewest bool, onDead func(seq, loc uint64)) int {
	c, ci, _ := vc.find(key)
	if c == nil {
		return 0
	}
	pi := len(pins) - 1
	pruned := 0
	var keep *Version             // last kept node, the unlink anchor
	seenNewest := false           // newest committed node handled
	floorSeen := floor == NoFloor // the version floor sees is handled (or there is no floor)
	n := c.head
	for n != nil {
		next := n.prev
		switch {
		case n.state != VersionCommitted:
			keep = n // pending: leave alone
		default:
			visible := n.Seq > floor
			if !floorSeen && !visible {
				visible, floorSeen = true, true // newest committed at or below floor
			}
			for pi >= 0 && pins[pi] >= n.Seq {
				visible = true // pins in [n.Seq, nextNewerCommitted.Seq)
				pi--
			}
			if visible || (!seenNewest && keepNewest) {
				keep = n
			} else {
				if keep == nil {
					c.head = next
				} else {
					keep.prev = next
				}
				vc.unlinked(c, n)
				pruned++
				if onDead != nil {
					onDead(n.Seq, n.loc)
				}
			}
			seenNewest = true
		}
		n = next
	}
	vc.noteDepth(key, c)
	vc.dropIfEmpty(key, c, ci)
	return pruned
}

// PruneAll prunes chains against pins and floor; see PruneBelow. Returns
// total versions reclaimed. onChain, when non-nil, observes each visited
// chain's length after pruning (the chain-length telemetry histogram).
//
// With keepNewest set (a live namespace) only dirty chains — those holding
// more than one node — can shed anything, so the pass walks a sorted
// snapshot of the dirty set and is a no-op when every chain is shallow.
// The sort keeps the onDead schedule deterministic: map iteration would
// randomize the lock/discount order across otherwise identical runs.
// Without keepNewest (the namespace was deleted and only pinned snapshots
// keep it alive) even single-node chains can die, so the pass ranges over
// every key.
func (vc *VersionChains) PruneAll(pins []uint64, floor uint64, keepNewest bool, onDead func(seq, loc uint64), onChain func(length int)) int {
	if keepNewest && len(vc.dirty) == 0 {
		return 0 // the idle pass must not allocate: it runs every GC cycle
	}
	total := 0
	for _, k := range vc.pruneCandidates(keepNewest) {
		total += vc.PruneBelow(k, pins, floor, keepNewest, onDead)
		if onChain != nil {
			onChain(vc.ChainLen(k))
		}
	}
	return total
}

// pruneCandidates lists the keys a PruneAll pass visits: the dirty set,
// sorted, when chain heads are kept, else every key (collected before the
// pass, which deletes the directory entries of chains it empties).
func (vc *VersionChains) pruneCandidates(keepNewest bool) []uint64 {
	if keepNewest {
		keys := make([]uint64, 0, len(vc.dirty))
		for k := range vc.dirty {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		return keys
	}
	keys := make([]uint64, 0, vc.Keys())
	vc.Range(func(key uint64, _ *Version) bool {
		keys = append(keys, key)
		return true
	})
	return keys
}
