package hashindex

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
)

func mustPush(t *testing.T, vc *VersionChains, key, seq, loc uint64) *Version {
	t.Helper()
	v, err := vc.Push(key, seq, loc)
	if err != nil {
		t.Fatalf("Push(%d,%d,%d): %v", key, seq, loc, err)
	}
	return v
}

func TestVersionChainBasics(t *testing.T) {
	vc := NewVersionChains(8)
	if _, _, err := vc.Head(1).AtOrBefore(100); !errors.Is(err, ErrNotFound) {
		t.Fatalf("empty chain: want ErrNotFound, got %v", err)
	}
	v1 := mustPush(t, vc, 1, 10, 1000)
	// Pending blocks visibility at ts >= seq...
	if _, _, err := vc.Head(1).AtOrBefore(10); !errors.Is(err, ErrPendingVersion) {
		t.Fatalf("pending head: want ErrPendingVersion, got %v", err)
	}
	// ...but not below it.
	if _, _, err := vc.Head(1).AtOrBefore(9); !errors.Is(err, ErrNotFound) {
		t.Fatalf("below pending: want ErrNotFound, got %v", err)
	}
	vc.Commit(v1)
	loc, _, err := vc.Head(1).AtOrBefore(10)
	if err != nil || loc != 1000 {
		t.Fatalf("committed read: got (%d, %v)", loc, err)
	}

	v2 := mustPush(t, vc, 1, 20, 2000)
	vc.Commit(v2)
	v3 := mustPush(t, vc, 1, 30, 3000)
	vc.Commit(v3)
	for _, tc := range []struct {
		ts, want uint64
	}{{10, 1000}, {15, 1000}, {20, 2000}, {29, 2000}, {30, 3000}, {99, 3000}} {
		loc, _, err := vc.Head(1).AtOrBefore(tc.ts)
		if err != nil || loc != tc.want {
			t.Fatalf("AtOrBefore(ts=%d): got (%d, %v), want %d", tc.ts, loc, err, tc.want)
		}
	}
	if lc := vc.LatestCommitted(1); lc == nil || lc.Seq != 30 {
		t.Fatalf("LatestCommitted: %+v", lc)
	}
	if vc.ChainLen(1) != 3 || vc.nodes != 3 || vc.Keys() != 1 {
		t.Fatalf("stats: len=%d nodes=%d keys=%d", vc.ChainLen(1), vc.nodes, vc.Keys())
	}
	if got := vc.VersionAtLoc(1, 2000); got != v2 {
		t.Fatalf("VersionAtLoc(2000) = %v", got)
	}
	v2.SetLoc(2222)
	if got := vc.VersionAtLoc(1, 2222); got != v2 {
		t.Fatal("VersionAtLoc after SetLoc miss")
	}
}

func TestVersionAbortUnlinks(t *testing.T) {
	vc := NewVersionChains(8)
	v1 := mustPush(t, vc, 7, 5, 500)
	vc.Commit(v1)
	v2 := mustPush(t, vc, 7, 6, 600)
	vc.Abort(7, v2)
	loc, _, err := vc.Head(7).AtOrBefore(100)
	if err != nil || loc != 500 {
		t.Fatalf("after abort: got (%d, %v), want 500", loc, err)
	}
	if vc.ChainLen(7) != 1 {
		t.Fatalf("chain len after abort: %d", vc.ChainLen(7))
	}
	// Aborting the only node leaves an empty chain, reads miss.
	vc2 := NewVersionChains(8)
	only := mustPush(t, vc2, 9, 1, 100)
	vc2.Abort(9, only)
	if _, _, err := vc2.Head(9).AtOrBefore(50); !errors.Is(err, ErrNotFound) {
		t.Fatalf("empty-after-abort: want ErrNotFound, got %v", err)
	}
}

// An aborted first write frees the key's directory slot and recycles its
// cell; a reader still holding the cell from before the abort must not take
// the next owner's chain for its own.
func TestAbortOfNewKeyFreesSlotAndCell(t *testing.T) {
	dir := NewConcurrent(8, false)
	vc := NewVersionChainsOver(dir)
	v, _, isNew, err := vc.PushProbed(1, 10, 100)
	if err != nil || !isNew {
		t.Fatalf("first push: isNew %v, %v", isNew, err)
	}
	stale, ci, _ := vc.find(1) // a reader resolved key 1 just before the abort
	kept, _ := vc.Lookup(1)    // and kept the anchor to re-validate against
	if kept.Head() != v {
		t.Fatal("Lookup did not find the pushed version")
	}
	vc.Abort(1, v)
	if kept.Head() != nil {
		t.Fatal("the kept anchor still has a head after the abort")
	}
	if dir.Len() != 0 || vc.Keys() != 0 {
		t.Fatalf("after abort: %d directory entries, want 0", dir.Len())
	}
	// The key is new again, and the next new key takes the recycled cell.
	w, _, isNew, err := vc.PushProbed(2, 11, 200)
	if err != nil || !isNew {
		t.Fatalf("second push: isNew %v, %v", isNew, err)
	}
	vc.Commit(w)
	if c, ci2, _ := vc.find(2); c != stale || ci2 != ci {
		t.Fatalf("key 2 got cell %d, want the recycled cell %d", ci2, ci)
	}
	if h := stale.headFor(1); h != nil {
		t.Fatalf("stale reader of key 1 was handed key 2's version %+v", h)
	}
	if stale.headFor(2) != w {
		t.Fatal("the cell's new owner cannot read it")
	}
	if kept.Head() != nil {
		t.Fatal("key 1's kept anchor leads to key 2's chain")
	}
	if missing, _ := vc.Lookup(1); missing.Head() != nil {
		t.Fatal("Lookup of an absent key has a head")
	}
}

// The first node ever pushed onto a cell lives in the cell: a once-written
// key costs no heap node. The storage is never reused — not by the key's
// later versions, not by a recycled cell's next owner — so a reader may keep
// a pointer to it for as long as to any other unlinked node.
func TestFirstNodeLivesInItsCell(t *testing.T) {
	vc := NewVersionChains(8)
	empty := vc.MemoryBytes()
	v1 := mustPush(t, vc, 1, 10, 100)
	vc.Commit(v1)
	c, _, _ := vc.find(1)
	if v1 != &c.first {
		t.Fatal("a fresh cell's first node was allocated outside it")
	}
	if got := vc.MemoryBytes() - empty; got != cellChunk*chainCellBytes {
		t.Fatalf("a once-written key grew the footprint by %d B, want one arena chunk (%d)", got, cellChunk*chainCellBytes)
	}
	v2 := mustPush(t, vc, 1, 20, 200)
	vc.Commit(v2)
	if v2 == &c.first || vc.Prune(1, nil, true, nil) != 1 {
		t.Fatal("the overwrite did not supersede the in-cell node")
	}
	if v1.Seq != 10 || v1.Loc() != 100 || v1.Prev() != nil {
		t.Fatalf("the unlinked in-cell node changed under its reader: %+v", v1)
	}
	if got := vc.MemoryBytes() - empty; got != cellChunk*chainCellBytes+VersionNodeBytes {
		t.Fatalf("footprint after the overwrite: +%d B, want the chunk and one heap node", got)
	}
	// A recycled cell: key 2's first write aborts, key 3 takes the cell over.
	v := mustPush(t, vc, 2, 30, 300)
	c2, _, _ := vc.find(2)
	vc.Abort(2, v)
	w := mustPush(t, vc, 3, 31, 310)
	if c3, _, _ := vc.find(3); c3 != c2 || w == &c2.first {
		t.Fatal("the recycled cell's new owner reused its first-node storage")
	}
	if v.Seq != 30 || v.state != VersionAborted {
		t.Fatalf("the aborted in-cell node changed under its reader: %+v", v)
	}
}

func TestPruneKeepsPinVisibleVersions(t *testing.T) {
	vc := NewVersionChains(8)
	locs := []uint64{100, 200, 300, 400, 500}
	for i, loc := range locs {
		v := mustPush(t, vc, 1, uint64(i+1)*10, loc) // seqs 10..50
		vc.Commit(v)
	}
	var dead []uint64
	// Pins at 25 and 40: visible set is {seq 20 (at pin 25), seq 40 (at
	// pin 40), seq 50 (head)}; 10 and 30 are dead.
	n := vc.Prune(1, []uint64{25, 40}, true, func(_, loc uint64) { dead = append(dead, loc) })
	if n != 2 || len(dead) != 2 {
		t.Fatalf("pruned %d (%v), want 2", n, dead)
	}
	for _, d := range dead {
		if d != 100 && d != 300 {
			t.Fatalf("wrong dead loc %d", d)
		}
	}
	// Pin-visible reads still exact.
	for _, tc := range []struct {
		ts, want uint64
	}{{25, 200}, {40, 400}, {99, 500}} {
		loc, _, err := vc.Head(1).AtOrBefore(tc.ts)
		if err != nil || loc != tc.want {
			t.Fatalf("after prune AtOrBefore(%d): (%d, %v), want %d", tc.ts, loc, err, tc.want)
		}
	}
	// No pins: everything but the newest committed version dies.
	n = vc.Prune(1, nil, true, nil)
	if n != 2 || vc.ChainLen(1) != 1 {
		t.Fatalf("final prune: pruned %d, len %d", n, vc.ChainLen(1))
	}
	loc, _, err := vc.Head(1).AtOrBefore(99)
	if err != nil || loc != 500 {
		t.Fatalf("head after full prune: (%d, %v)", loc, err)
	}
	// Orphaned family (root deleted): without keepNewest even the head dies
	// when no pin sees it.
	n = vc.Prune(1, nil, false, nil)
	if n != 1 || vc.ChainLen(1) != 0 {
		t.Fatalf("orphan prune: pruned %d, len %d", n, vc.ChainLen(1))
	}
}

func TestPruneNeverTouchesPending(t *testing.T) {
	vc := NewVersionChains(8)
	v1 := mustPush(t, vc, 3, 10, 100)
	vc.Commit(v1)
	v2 := mustPush(t, vc, 3, 20, 200)
	vc.Commit(v2)
	mustPush(t, vc, 3, 30, 300) // pending
	if n := vc.Prune(3, nil, true, nil); n != 1 {
		t.Fatalf("pruned %d, want 1 (only seq 10)", n)
	}
	if vc.ChainLen(3) != 2 {
		t.Fatalf("chain len %d, want 2 (pending + newest committed)", vc.ChainLen(3))
	}
}

// TestConcurrentSnapshotReads interleaves snapshot readers pinned at ts 1
// with pushes, commits and prunes, the way the firmware's snapshot read
// meets its writers: a reader takes a key's head, parks on its flash read
// while the writers go on, and resumes from the node it holds. Each reader
// keeps the head it took for a few writer steps; after every step the kept
// head and a fresh Head must both resolve ts 1 to the seed version, however
// much was pushed over it or pruned around it.
func TestConcurrentSnapshotReads(t *testing.T) {
	vc := NewVersionChains(64)
	const keys = 16
	for k := uint64(0); k < keys; k++ {
		vc.Commit(mustPush(t, vc, k, 1, k+1))
	}
	type reader struct {
		key   uint64
		head  *Version
		steps int // writer steps the kept head has lived through
		keep  int
	}
	readers := make([]reader, 4)
	rng := rand.New(rand.NewSource(1))
	seq := uint64(1)
	for i := 0; i < 4000; i++ {
		for r := range readers {
			rd := &readers[r]
			if rd.steps == rd.keep {
				rd.key, rd.steps, rd.keep = uint64(rng.Intn(keys)), 0, 1+rng.Intn(32)
				rd.head = vc.Head(rd.key)
			}
			if loc, _, err := rd.head.AtOrBefore(1); err != nil || loc != rd.key+1 {
				t.Fatalf("step %d: reader %d kept key %d's head across %d writes: (%d, %v)", i, r, rd.key, rd.steps, loc, err)
			}
			rd.steps++
		}
		seq++
		k := uint64(rng.Intn(keys))
		vc.Commit(mustPush(t, vc, k, seq, seq*10))
		if i%8 == 0 {
			vc.Prune(k, []uint64{1}, true, nil)
		}
		for k := uint64(0); k < keys; k++ {
			if loc, _, err := vc.Head(k).AtOrBefore(1); err != nil || loc != k+1 {
				t.Fatalf("step %d: pinned read of key %d: (%d, %v)", i, k, loc, err)
			}
		}
	}
}

func TestPruneAllVisitsOnlyDeepChains(t *testing.T) {
	vc := NewVersionChains(32)
	// 16 shallow chains (one committed version each) and one deep chain.
	for key := uint64(1); key <= 16; key++ {
		vc.Commit(mustPush(t, vc, key, key, key*100))
	}
	for s := uint64(20); s <= 22; s++ {
		vc.Commit(mustPush(t, vc, 99, s, s*100))
	}
	visited := 0
	n := vc.PruneAll(nil, NoFloor, true, nil, func(int) { visited++ })
	if visited != 1 {
		t.Fatalf("visited %d chains, want just the deep one", visited)
	}
	if n != 2 || vc.ChainLen(99) != 1 {
		t.Fatalf("pruned %d (len %d), want 2 pruned, 1 kept", n, vc.ChainLen(99))
	}
	// Once every chain is shallow the pass is a no-op.
	visited = 0
	if n := vc.PruneAll(nil, NoFloor, true, nil, func(int) { visited++ }); n != 0 || visited != 0 {
		t.Fatalf("idle pass: pruned %d, visited %d, want 0/0", n, visited)
	}
	// An aborted head shrinks the chain back to shallow too.
	v := mustPush(t, vc, 5, 50, 5000)
	vc.Abort(5, v)
	if n := vc.PruneAll(nil, NoFloor, true, nil, nil); n != 0 {
		t.Fatalf("after abort: pruned %d, want 0", n)
	}
	// A pin-retained chain stays on the dirty list until the pin drops.
	vc.Commit(mustPush(t, vc, 7, 70, 7000))
	if n := vc.PruneAll([]uint64{7}, NoFloor, true, nil, nil); n != 0 || vc.ChainLen(7) != 2 {
		t.Fatalf("pinned prune: pruned %d, len %d, want 0/2", n, vc.ChainLen(7))
	}
	if n := vc.PruneAll(nil, NoFloor, true, nil, nil); n != 1 || vc.ChainLen(7) != 1 {
		t.Fatalf("unpinned prune: pruned %d, len %d, want 1/1", n, vc.ChainLen(7))
	}
	// Deleted-root pruning (keepNewest=false) still ranges every chain and
	// reclaims shallow ones.
	if n := vc.PruneAll(nil, NoFloor, false, nil, nil); n != 17 || vc.nodes != 0 {
		t.Fatalf("orphan prune: pruned %d, %d nodes left", n, vc.nodes)
	}
}

// PruneBelow never touches a version newer than the settled floor: a reader
// may yet pin any timestamp at or above the floor, and each of those
// versions is what some such timestamp resolves to.
func TestPruneBelowKeepsVersionsAboveFloor(t *testing.T) {
	vc := NewVersionChains(8)
	for _, seq := range []uint64{5, 10, 20} {
		vc.Commit(mustPush(t, vc, 1, seq, seq*100))
	}
	// Floor 7: seq 5 is what 7 sees, seq 10 is what a later pin in [10, 20)
	// would see, seq 20 is the head.
	if n := vc.PruneBelow(1, nil, 7, true, nil); n != 0 || vc.ChainLen(1) != 3 {
		t.Fatalf("floor 7: pruned %d, len %d, want 0/3", n, vc.ChainLen(1))
	}
	// Once the floor passes 10 only the version it sees and the head remain.
	if n := vc.PruneBelow(1, nil, 12, true, nil); n != 1 || vc.ChainLen(1) != 2 {
		t.Fatalf("floor 12: pruned %d, len %d, want 1/2", n, vc.ChainLen(1))
	}
	if loc, _, err := vc.Head(1).AtOrBefore(12); err != nil || loc != 1000 {
		t.Fatalf("read at 12: (%d, %v), want 1000", loc, err)
	}
}

// modelVersion is one retained version in the reference model.
type modelVersion struct{ seq, loc uint64 }

// TestVersionChainsModel drives random batches (push, then commit or abort
// the lot), location swings and prunes against a fixed-capacity directory and checks every step against a reference map —
// including that an aborted first write gives its directory slot back and
// that a batch overflowing the directory rolls back completely. After every
// step a few random keys are read at random timestamps: each read must give
// what the model's versions give, and a location carries its key in the
// high bits, so a read handed another key's version (cells are recycled)
// says so.
func TestVersionChainsModel(t *testing.T) {
	const (
		capacity = 48
		keySpace = 80 // more keys than slots, so batches do overflow
		steps    = 6000
	)
	vc := NewVersionChainsOver(NewConcurrent(capacity, false))
	model := map[uint64][]modelVersion{} // key -> committed versions, oldest first
	locOf := func(key, n uint64) uint64 { return key<<32 | n }
	rng := rand.New(rand.NewSource(11))
	var seq uint64

	check := func(step int, what string) {
		t.Helper()
		for r := 0; r < 4; r++ {
			key, ts := uint64(rng.Intn(keySpace)), uint64(rng.Int63n(int64(seq)+2))
			loc, _, err := vc.Head(key).AtOrBefore(ts)
			if err == nil && loc>>32 != key {
				t.Fatalf("step %d (%s): reader of key %d was handed location %#x", step, what, key, loc)
			}
			want, wantErr := uint64(0), ErrNotFound
			for _, v := range model[key] {
				if v.seq <= ts {
					want, wantErr = v.loc, nil
				}
			}
			if loc != want || !errors.Is(err, wantErr) {
				t.Fatalf("step %d (%s): key %d at %d: (%#x, %v), model has (%#x, %v)", step, what, key, ts, loc, err, want, wantErr)
			}
		}
		if vc.Keys() != len(model) {
			t.Fatalf("step %d (%s): %d directory entries, model has %d keys", step, what, vc.Keys(), len(model))
		}
		nodes, inline := 0, 0
		for key, want := range model {
			nodes += len(want)
			c, _, _ := vc.find(key)
			n := vc.Head(key)
			for i := len(want) - 1; i >= 0; i-- {
				if n == nil || n.Seq != want[i].seq || n.Loc() != want[i].loc || n.state != VersionCommitted {
					t.Fatalf("step %d (%s): key %d version %d: got %+v, want %+v", step, what, key, i, n, want[i])
				}
				if n == &c.first {
					inline++
				}
				n = n.Prev()
			}
			if n != nil {
				t.Fatalf("step %d (%s): key %d chain longer than the model's %d", step, what, key, len(want))
			}
		}
		if vc.nodes != nodes {
			t.Fatalf("step %d (%s): nodes = %d, model has %d", step, what, vc.nodes, nodes)
		}
		if got := vc.inline; got != inline {
			t.Fatalf("step %d (%s): %d nodes accounted as living in their cell, %d do", step, what, got, inline)
		}
	}

	overflows := 0
	for step := 0; step < steps; step++ {
		switch op := rng.Intn(9); {
		case op < 6: // a batch of 1..4 distinct keys
			type staged struct {
				key uint64
				v   *Version
			}
			var batch []staged
			full := false
			for _, k := range rng.Perm(keySpace)[:1+rng.Intn(4)] {
				key := uint64(k)
				seq++
				v, probes, isNew, err := vc.PushProbed(key, seq, locOf(key, seq))
				if err != nil {
					// Only a new key can overflow (its stripe, or the table).
					if !errors.Is(err, ErrFull) || len(model[key]) != 0 {
						t.Fatalf("step %d: push key %d: %v (model has %d versions of it)", step, key, err, len(model[key]))
					}
					full = true
					overflows++
					break
				}
				if probes < 1 || isNew != (len(model[key]) == 0) {
					t.Fatalf("step %d: push key %d: probes %d, isNew %v, model has %d versions", step, key, probes, isNew, len(model[key]))
				}
				batch = append(batch, staged{key, v})
			}
			if full || rng.Intn(5) == 0 {
				for i := len(batch) - 1; i >= 0; i-- {
					vc.Abort(batch[i].key, batch[i].v)
				}
				check(step, "abort")
				continue
			}
			for _, s := range batch {
				vc.Commit(s.v)
				model[s.key] = append(model[s.key], modelVersion{s.v.Seq, s.v.Loc()})
			}
			check(step, "commit")
		case op < 7: // swing one version's location (flash install, GC move)
			for key, vs := range model {
				i := rng.Intn(len(vs))
				seq++
				vc.VersionAtLoc(key, vs[i].loc).SetLoc(locOf(key, seq))
				vs[i].loc = locOf(key, seq)
				break
			}
			check(step, "set-loc")
		default: // prune every key against random pins and a random floor
			pins := make([]uint64, rng.Intn(3))
			for i := range pins {
				pins[i] = uint64(rng.Int63n(int64(seq) + 2))
			}
			slices.Sort(pins)
			floor := uint64(rng.Int63n(int64(seq) + 2))
			if rng.Intn(3) == 0 {
				floor = NoFloor
			}
			for key, vs := range model {
				var kept []modelVersion
				for i, v := range vs {
					newest := i == len(vs)-1
					next := NoFloor // seq of the next newer version
					if !newest {
						next = vs[i+1].seq
					}
					keep := newest || v.seq > floor
					if floor != NoFloor { // a real floor is itself a pin
						keep = keep || (v.seq <= floor && floor < next)
					}
					for _, p := range pins {
						keep = keep || (v.seq <= p && p < next)
					}
					if keep {
						kept = append(kept, v)
					}
				}
				if got := vc.PruneBelow(key, pins, floor, true, nil); got != len(vs)-len(kept) {
					t.Fatalf("step %d: prune key %d pins %v floor %d: pruned %d, model %d", step, key, pins, floor, got, len(vs)-len(kept))
				}
				model[key] = kept
			}
			check(step, "prune")
		}
	}
	if overflows == 0 {
		t.Fatal("no batch ever overflowed the directory; the rollback path went untested")
	}
}
