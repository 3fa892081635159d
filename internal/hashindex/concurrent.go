package hashindex

// ConcurrentTable is an open-addressing, linear-probe, tombstone-deletion
// hash table.
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
// probe sequences never cross stripe boundaries, and AutoGrow rehashes one
// stripe at a time, which bounds a grow's copy work.
//
// One owner. The table is plain memory with no lock and no atomic: the
// firmware's engine runs one actor at a time, and the running actor owns
// every table, so a read never overlaps a write.
type ConcurrentTable struct {
	autoGrow bool
	// capHint is the requested logical capacity. Stripe arrays round up
	// (power-of-two per stripe, minimum 8 slots), so without this budget a
	// "NewConcurrent(8)" table would silently hold 64 entries; fixed-capacity
	// tables instead report ErrFull once Len() reaches capHint. AutoGrow
	// tables ignore it.
	capHint int
	stripes [numStripes]cstripe
}

// numStripes fixes the stripe count. Eight keeps tiny tables (the firmware
// creates one table per namespace, some with ExpectedKeys in the tens)
// from ballooning, while still bounding a grow's copy work.
const numStripes = 8

// stripeShift selects a stripe by the hash's top bits, leaving the low
// bits — which index slots — uncorrelated with stripe choice.
const stripeShift = 64 - 3 // log2(numStripes)

type cstripe struct {
	slot   []cslot
	mask   uint64
	used   int // live entries
	ghosts int // tombstones
}

// cslot is one slot: two words and a state padded to a third.
type cslot struct {
	key, val uint64
	state    uint32
}

// NewConcurrent returns a table with room for at least capacity entries
// spread across the stripes, each stripe rounded up to a power of two
// (minimum 8 slots).
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
		t.stripes[i].resize(n)
	}
	return t
}

// insertFull reports whether a fixed-capacity table has exhausted its
// logical budget (new-key inserts only; updates of resident keys always
// succeed).
func (t *ConcurrentTable) insertFull() bool {
	return !t.autoGrow && t.Len() >= t.capHint
}

// Capacity returns the total number of slots across all stripes.
func (t *ConcurrentTable) Capacity() int {
	n := 0
	for i := range t.stripes {
		n += len(t.stripes[i].slot)
	}
	return n
}

// Len returns the number of live entries.
func (t *ConcurrentTable) Len() int {
	n := 0
	for i := range t.stripes {
		n += t.stripes[i].used
	}
	return n
}

// Get looks up key. probes counts slots scanned (the firmware charges
// controller time per probe).
func (t *ConcurrentTable) Get(key uint64) (val uint64, probes int, err error) {
	h := hash(key)
	s := &t.stripes[h>>stripeShift]
	i, probes, found := s.seek(h, key)
	if !found {
		return 0, probes, ErrNotFound
	}
	return s.slot[i].val, probes, nil
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
	switch n := len(s.slot); {
	case t.autoGrow && s.used+s.ghosts >= n*3/4:
		s.grow(n * 2)
	case s.used+s.ghosts == n && !t.insertFull():
		// No empty slot is left, and an insert's shift needs one. A
		// fixed-capacity table's keys can hash unevenly enough to fill one
		// stripe before the table holds capHint entries (a 40-key table is
		// 5 keys per 8-slot stripe on average). That is imbalance, not
		// exhaustion: the budget is capHint, so give the stripe room. A
		// stripe filled by tombstones is rebuilt at its size without them.
		if s.used == n {
			n *= 2
		}
		s.grow(n)
	}
	i, probes, found := s.seek(h, key)
	if found {
		sl := &s.slot[i]
		old = sl.val
		if overwrite {
			sl.val = val
		}
		return old, probes, true, nil
	}
	// A stripe still without an empty slot here was not grown because the
	// budget was spent; place would have nowhere to shift the run.
	if t.insertFull() || s.used+s.ghosts == len(s.slot) {
		return 0, probes, false, ErrFull
	}
	if s.place(i, key, val) {
		s.ghosts--
	}
	s.used++
	return 0, probes, false, nil
}

// seek walks key's probe sequence. It returns the slot holding key (found),
// or else the slot where ordered probing places it: the first empty slot or
// occupant that does not sort before key. probes counts the slots scanned.
func (s *cstripe) seek(h, key uint64) (i uint64, probes int, found bool) {
	i = h & s.mask
	n := len(s.slot)
	for p := 1; p <= n; p++ {
		sl := &s.slot[i]
		if sl.state == slotEmpty {
			return i, p, false
		}
		if sl.state == slotUsed && sl.key == key {
			return i, p, true
		}
		if !s.sortsBefore(i, sl.key, key, uint64(p-1)) {
			return i, p, false
		}
		i = (i + 1) & s.mask
	}
	return i, n, false
}

// sortsBefore reports whether occupant k of slot i comes before key in its
// cluster's (home, key) order, key's probe having reached i at distance d.
// An occupant nearer its own home than d has a later home; once the probe
// meets one, key is not in the cluster.
func (s *cstripe) sortsBefore(i, k, key, d uint64) bool {
	kd := (i - hash(k)) & s.mask
	return kd > d || (kd == d && k < key)
}

// place writes key into slot i, its place in the cluster's order, and
// reports whether that consumed a tombstone. A tombstone at i is reused in
// place; otherwise the run from i up to the next empty slot or tombstone
// moves right by one slot. The caller guarantees an empty slot.
func (s *cstripe) place(i, key, val uint64) (ghost bool) {
	j := i
	for s.slot[j].state == slotUsed {
		j = (j + 1) & s.mask
	}
	ghost = s.slot[j].state == slotTombstone
	for ; j != i; j = (j - 1) & s.mask {
		s.slot[j] = s.slot[(j-1)&s.mask]
	}
	s.slot[i] = cslot{key: key, val: val, state: slotUsed}
	return ghost
}

// Delete removes key. probes counts slots scanned.
func (t *ConcurrentTable) Delete(key uint64) (probes int, err error) {
	h := hash(key)
	s := &t.stripes[h>>stripeShift]
	i, probes, found := s.seek(h, key)
	if !found {
		return probes, ErrNotFound
	}
	s.slot[i].state = slotTombstone
	s.used--
	s.ghosts++
	return probes, nil
}

// resize gives the stripe an empty array of n slots, n a power of two.
func (s *cstripe) resize(n int) {
	s.slot, s.mask = make([]cslot, n), uint64(n-1)
}

// grow rehashes the stripe into a fresh array of at least newCap slots,
// dropping its tombstones.
func (s *cstripe) grow(newCap int) {
	old := s.slot
	n := 8
	for n < newCap {
		n <<= 1
	}
	s.resize(n)
	s.ghosts = 0
	for _, sl := range old {
		if sl.state == slotUsed {
			i, _, _ := s.seek(hash(sl.key), sl.key)
			s.place(i, sl.key, sl.val)
		}
	}
}

// Range calls fn for every live entry until fn returns false. fn must not
// mutate the table.
func (t *ConcurrentTable) Range(fn func(key, val uint64) bool) {
	for si := range t.stripes {
		for _, sl := range t.stripes[si].slot {
			if sl.state == slotUsed && !fn(sl.key, sl.val) {
				return
			}
		}
	}
}
