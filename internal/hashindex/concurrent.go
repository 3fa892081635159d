package hashindex

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ConcurrentTable is an open-addressing, linear-probe, tombstone-deletion
// hash table whose Get acquires no lock at all.
//
// Ordered probing. Every cluster (run of non-empty slots) is kept sorted
// by (home slot, key) — Robin Hood hashing, or ordered linear probing
// (Amble & Knuth). An insert walks from its key's home to the first slot
// that does not sort before the key, reuses it in place if it holds a
// tombstone, and otherwise shifts the run from there up to the next empty
// slot or tombstone right by one. The occupied slots are the ones plain
// linear probing would fill, so the sum of displacements — the mean probe
// count of a hit — is unchanged; only its spread shrinks, and a lookup
// stops at the first occupant that sorts after its key, so a miss costs
// about what a hit costs. Without tombstones the layout is a function of
// the key set alone, whatever the insertion order.
//
// Layout. The key space is split across a fixed number of stripes by the
// top bits of the mixed hash; each stripe is an independent sub-table whose
// probe sequences never cross stripe boundaries. A stripe's slots carry a
// per-slot sequence counter (seqlock): writers bump the counter to odd,
// update key/val/state, and bump it back to even, all under the stripe's
// writer mutex; readers snapshot the counter, read the slot, and accept the
// read only if the counter is still the same even value — otherwise they
// re-read. A torn (half-written) key/val pair is therefore unobservable.
//
// A shift copies slots right to left, one seqlocked write each, so between
// two writes the run holds one key twice and every instant's array is a
// sorted layout of all the keys. A reader scans left to right and meets the
// writer at most once: it sees old slots before the crossing and shifted
// slots after it, finds a moving key at its old slot or the next one, and
// never meets a false empty slot or an occupant that falsely sorts after
// its key.
//
// Growth. AutoGrow rehashes one stripe at a time under its writer lock into
// a freshly allocated slot array published through an atomic pointer — the
// array pointer is the stripe's epoch. Readers re-validate the pointer at
// every decision point and restart on the new array if a swap raced their
// probe; the retired array is immutable from the moment growth begins, so
// in-flight readers see a consistent frozen snapshot until they notice the
// swap. Retirement is garbage collection: the old epoch's array is freed
// when the last racing reader drops its reference.
//
// Writer critical sections are pure memory operations — they never block on
// channels, I/O, or simulation primitives — so readers spinning on an odd
// sequence (or a swapped epoch) wait O(slot write), not O(scheduling).
type ConcurrentTable struct {
	autoGrow bool
	// capHint is the requested logical capacity. Stripe arrays round up
	// (power-of-two per stripe, minimum 8 slots), so without this budget a
	// "NewConcurrent(8)" table would silently hold 64 entries; fixed-capacity
	// tables instead report ErrFull once Len() reaches capHint. AutoGrow
	// tables ignore it.
	capHint   int
	retryHook func(int64) // observer of seqlock re-reads + epoch restarts; set via OnRetry before sharing
	stripes   [numStripes]cstripe
}

// numStripes fixes the stripe count. Eight keeps tiny tables (the firmware
// creates one table per namespace, some with ExpectedKeys in the tens)
// from ballooning, while still bounding a grow's copy work and giving
// writers on different stripes independent locks.
const numStripes = 8

// stripeShift selects a stripe by the hash's top bits, leaving the low
// bits — which index slots — uncorrelated with stripe choice.
const stripeShift = 64 - 3 // log2(numStripes)

type cstripe struct {
	mu     sync.Mutex             // writer lock: Put/Upsert/Delete/grow
	arr    atomic.Pointer[cslots] // current epoch's slot array
	used   atomic.Int64           // live entries (lock-free Len/LoadFactor)
	ghosts int                    // tombstones; guarded by mu
}

// cslots is one epoch of a stripe's storage.
type cslots struct {
	slot []cslot
	mask uint64
}

// cslot is one seqlock-protected slot. All fields are atomics because
// readers race writers by design; the seq protocol is what makes the
// (key, val, state) triple consistent, the atomics are what make the race
// well-defined (and keep the race detector quiet about it).
type cslot struct {
	seq   atomic.Uint64 // even = stable, odd = write in progress
	key   atomic.Uint64
	val   atomic.Uint64
	state atomic.Uint32
}

// NewConcurrent returns a concurrent table with room for at least capacity
// entries spread across the stripes, each stripe rounded up to a power of
// two (minimum 8 slots).
func NewConcurrent(capacity int, autoGrow bool) *ConcurrentTable {
	per := (capacity + numStripes - 1) / numStripes
	n := 8
	for n < per {
		n <<= 1
	}
	if capacity < 1 {
		capacity = 1
	}
	t := &ConcurrentTable{autoGrow: autoGrow, capHint: capacity}
	for i := range t.stripes {
		t.stripes[i].arr.Store(newCSlots(n))
	}
	return t
}

// insertFull reports whether a fixed-capacity table has exhausted its
// logical budget (new-key inserts only; updates of resident keys always
// succeed). Called under a stripe mutex; concurrent inserts in other
// stripes can overshoot by at most numStripes-1 entries, which the
// firmware never hits (mutations there are serialized by ns.mu).
func (t *ConcurrentTable) insertFull() bool {
	return !t.autoGrow && t.Len() >= t.capHint
}

func newCSlots(n int) *cslots {
	return &cslots{slot: make([]cslot, n), mask: uint64(n - 1)}
}

// Capacity returns the total number of slots across all stripes.
func (t *ConcurrentTable) Capacity() int {
	n := 0
	for i := range t.stripes {
		n += len(t.stripes[i].arr.Load().slot)
	}
	return n
}

// Len returns the number of live entries.
func (t *ConcurrentTable) Len() int {
	n := int64(0)
	for i := range t.stripes {
		n += t.stripes[i].used.Load()
	}
	return int(n)
}

// OnRetry installs an observer called once per read retry — a seqlock
// re-read or an epoch restart, the measure of read/write collision on the
// table (the firmware feeds its stats counter and telemetry through it).
// Must be set before the table is shared with readers; the retry path is
// rare by design, so the indirect call costs nothing on the common path.
func (t *ConcurrentTable) OnRetry(fn func(int64)) { t.retryHook = fn }

// Get looks up key without acquiring any lock. probes counts slots scanned
// (the firmware charges controller time per probe).
func (t *ConcurrentTable) Get(key uint64) (val uint64, probes int, err error) {
	h := hash(key)
	s := &t.stripes[h>>stripeShift]
	for {
		arr := s.arr.Load()
		v, p, found, ok := getProbe(arr, h, key)
		// A stripe grow may have swapped the array mid-probe; everything
		// read came from the frozen old epoch, so restart on the new one.
		if !ok || s.arr.Load() != arr {
			if t.retryHook != nil {
				t.retryHook(1)
			}
			runtime.Gosched()
			continue
		}
		if !found {
			return 0, p, ErrNotFound
		}
		return v, p, nil
	}
}

// getProbe runs one lock-free probe sequence over a single epoch's array.
// ok=false reports a seqlock collision that exhausted the slot-retry
// budget (writer active on the probed slot); the caller restarts.
func getProbe(arr *cslots, h, key uint64) (val uint64, probes int, found, ok bool) {
	i := h & arr.mask
	n := len(arr.slot)
	for p := 1; p <= n; p++ {
		sl := &arr.slot[i]
		var st uint32
		var k, v uint64
		for tries := 0; ; tries++ {
			s1 := sl.seq.Load()
			if s1&1 == 0 {
				st = sl.state.Load()
				k = sl.key.Load()
				v = sl.val.Load()
				if sl.seq.Load() == s1 {
					break // consistent snapshot of this slot
				}
			}
			if tries >= 64 {
				return 0, p, false, false
			}
			runtime.Gosched() // writer mid-update; let it finish
		}
		if st == slotEmpty {
			return 0, p, false, true
		}
		if st == slotUsed && k == key {
			return v, p, true, true
		}
		if !sortsBefore(arr, i, k, key, uint64(p-1)) {
			return 0, p, false, true // key would sit before this occupant
		}
		i = (i + 1) & arr.mask
	}
	return 0, n, false, true
}

// writeSlot publishes (key, val, state) into sl under the seqlock
// protocol. Caller holds the stripe's writer mutex.
func writeSlot(sl *cslot, key, val uint64, st uint32) {
	seq := sl.seq.Load()
	sl.seq.Store(seq + 1) // odd: readers hold off
	sl.key.Store(key)
	sl.val.Store(val)
	sl.state.Store(st)
	sl.seq.Store(seq + 2) // even again: readers may proceed
}

// Put inserts or updates key. probes counts slots scanned; existed reports
// whether the key was already present.
func (t *ConcurrentTable) Put(key, val uint64) (probes int, existed bool, err error) {
	_, probes, existed, err = t.upsert(key, val, true)
	return
}

// Upsert inserts or updates key in a single probe sequence and returns the
// previous value when the key already existed.
func (t *ConcurrentTable) Upsert(key, val uint64) (old uint64, probes int, existed bool, err error) {
	return t.upsert(key, val, true)
}

// LoadOrStore returns key's value when it is present (loaded == true) and
// stores val otherwise, in a single probe sequence. It is the insert the
// version-chain directory needs: a resident key's entry is never rewritten,
// so the push of a new version costs one probe sequence whether or not the
// key is new.
func (t *ConcurrentTable) LoadOrStore(key, val uint64) (actual uint64, probes int, loaded bool, err error) {
	actual, probes, loaded, err = t.upsert(key, val, false)
	if err == nil && !loaded {
		actual = val
	}
	return
}

// upsert is the one insert/update probe sequence behind Put, Upsert and
// LoadOrStore. A resident key is rewritten only when overwrite is set; its
// current value is returned either way.
func (t *ConcurrentTable) upsert(key, val uint64, overwrite bool) (old uint64, probes int, existed bool, err error) {
	h := hash(key)
	s := &t.stripes[h>>stripeShift]
	s.mu.Lock()
	defer s.mu.Unlock()
	arr := s.arr.Load()
	switch used, n := int(s.used.Load()), len(arr.slot); {
	case t.autoGrow && used+s.ghosts >= n*3/4:
		arr = s.grow(n * 2)
	case used+s.ghosts == n && !t.insertFull():
		// No empty slot is left, and an insert's shift needs one. A
		// fixed-capacity table's keys can hash unevenly enough to fill one
		// stripe before the table holds capHint entries (a 40-key table is
		// 5 keys per 8-slot stripe on average). That is imbalance, not
		// exhaustion: the budget is capHint, so give the stripe room. A
		// stripe filled by tombstones is rebuilt at its size without them.
		if used == n {
			n *= 2
		}
		arr = s.grow(n)
	}
	i, probes, found := seek(arr, h, key)
	if found {
		sl := &arr.slot[i]
		old = sl.val.Load()
		if overwrite {
			writeSlot(sl, key, val, slotUsed)
		}
		return old, probes, true, nil
	}
	// A stripe still without an empty slot here was not grown because the
	// budget was spent; place would have nowhere to shift the run.
	if t.insertFull() || int(s.used.Load())+s.ghosts == len(arr.slot) {
		return 0, probes, false, ErrFull
	}
	if place(arr, i, key, val) {
		s.ghosts--
	}
	s.used.Add(1)
	return 0, probes, false, nil
}

// seek walks key's probe sequence under the stripe's writer lock. It
// returns the slot holding key (found), or else the slot where ordered
// probing places it: the first empty slot or occupant that does not sort
// before key. probes counts the slots scanned.
func seek(arr *cslots, h, key uint64) (i uint64, probes int, found bool) {
	i = h & arr.mask
	n := len(arr.slot)
	for p := 1; p <= n; p++ {
		sl := &arr.slot[i]
		st := sl.state.Load()
		if st == slotEmpty {
			return i, p, false
		}
		k := sl.key.Load()
		if st == slotUsed && k == key {
			return i, p, true
		}
		if !sortsBefore(arr, i, k, key, uint64(p-1)) {
			return i, p, false
		}
		i = (i + 1) & arr.mask
	}
	return i, n, false
}

// sortsBefore reports whether occupant k of slot i comes before key in its
// cluster's (home, key) order, key's probe having reached i at distance d.
// An occupant nearer its own home than d has a later home; once the probe
// meets one, key is not in the cluster.
func sortsBefore(arr *cslots, i, k, key, d uint64) bool {
	kd := (i - hash(k)) & arr.mask
	return kd > d || (kd == d && k < key)
}

// place writes key into slot i, its place in the cluster's order, and
// reports whether that consumed a tombstone. A tombstone at i is reused in
// place; otherwise the run from i up to the next empty slot or tombstone
// moves right by one slot. The copies go right to left, so a racing reader
// finds every key (see ConcurrentTable). The caller holds the stripe's
// writer lock and guarantees an empty slot.
func place(arr *cslots, i, key, val uint64) (ghost bool) {
	j := i
	for arr.slot[j].state.Load() == slotUsed {
		j = (j + 1) & arr.mask
	}
	ghost = arr.slot[j].state.Load() == slotTombstone
	for ; j != i; j = (j - 1) & arr.mask {
		src := &arr.slot[(j-1)&arr.mask]
		writeSlot(&arr.slot[j], src.key.Load(), src.val.Load(), slotUsed)
	}
	writeSlot(&arr.slot[i], key, val, slotUsed)
	return ghost
}

// Delete removes key. probes counts slots scanned.
func (t *ConcurrentTable) Delete(key uint64) (probes int, err error) {
	h := hash(key)
	s := &t.stripes[h>>stripeShift]
	s.mu.Lock()
	defer s.mu.Unlock()
	arr := s.arr.Load()
	i, probes, found := seek(arr, h, key)
	if !found {
		return probes, ErrNotFound
	}
	sl := &arr.slot[i]
	writeSlot(sl, key, sl.val.Load(), slotTombstone)
	s.used.Add(-1)
	s.ghosts++
	return probes, nil
}

// grow rehashes the stripe into a fresh array of newCap slots (tombstones
// dropped) and publishes it as the new epoch. Caller holds s.mu; the old
// array is never written again, so racing readers finish on a frozen
// snapshot and restart when they notice the pointer changed.
func (s *cstripe) grow(newCap int) *cslots {
	old := s.arr.Load()
	n := 8
	for n < newCap {
		n <<= 1
	}
	na := newCSlots(n)
	for idx := range old.slot {
		sl := &old.slot[idx]
		if sl.state.Load() != slotUsed {
			continue
		}
		// The same ordered insert as upsert's; no reader sees na before
		// it is published, so its seqlock writes race nobody.
		k := sl.key.Load()
		i, _, _ := seek(na, hash(k), k)
		place(na, i, k, sl.val.Load())
	}
	s.ghosts = 0
	s.arr.Store(na)
	return na
}

// Range calls fn for every live entry until fn returns false. Each slot is
// read under its seqlock, so no torn pair is ever surfaced, but the scan
// as a whole is not an atomic snapshot: entries mutated mid-scan may be
// seen in either state. The firmware Ranges with writers quiesced or
// excluded by ns.mu (key enumeration, orphan-family pruning).
func (t *ConcurrentTable) Range(fn func(key, val uint64) bool) {
	for si := range t.stripes {
		arr := t.stripes[si].arr.Load()
		for i := range arr.slot {
			sl := &arr.slot[i]
			for {
				s1 := sl.seq.Load()
				if s1&1 != 0 {
					runtime.Gosched()
					continue
				}
				st := sl.state.Load()
				k := sl.key.Load()
				v := sl.val.Load()
				if sl.seq.Load() != s1 {
					continue
				}
				if st == slotUsed && !fn(k, v) {
					return
				}
				break
			}
		}
	}
}
