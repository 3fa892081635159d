// Package hashindex implements the mapping tables KAML keeps in on-SSD DRAM
// (paper §IV-C): open-addressing hash tables from 64-bit application keys to
// packed physical locations, and the per-key version chains built over them.
//
// The tables deliberately expose how many entries each operation scanned
// ("probes"): the firmware charges controller CPU time per probed entry,
// which is what makes Get bandwidth degrade as the table's load factor grows
// (paper Fig. 5a). Capacity is fixed at construction unless AutoGrow is set,
// mirroring the paper's fixed 1024 MB table experiments.
//
// ConcurrentTable is the form the firmware mounts: striped sub-tables with
// per-slot sequence counters (seqlock), giving lock-free Gets that race
// mutations safely. VersionChains (versions.go) is the namespace's one
// mapping table: a Directory — a ConcurrentTable by default — from key to
// the key's chain of retained versions, newest first. Table is the plain
// single-threaded form of the same probe sequence; it remains as the
// reference the seqlock table is tested against.
package hashindex

import "errors"

// ErrFull is returned by Put when the table has no free slot.
var ErrFull = errors.New("hashindex: table full")

// ErrNotFound is returned when a key has no entry.
var ErrNotFound = errors.New("hashindex: key not found")

const (
	slotEmpty = iota
	slotUsed
	slotTombstone
)

// Table is a fixed-capacity open-addressing hash table with linear probing
// and tombstone deletion. It is not safe for concurrent use; the firmware's
// live tables are ConcurrentTable.
type Table struct {
	keys     []uint64
	vals     []uint64
	state    []uint8
	mask     uint64
	used     int // live entries
	ghosts   int // tombstones
	AutoGrow bool
}

// New returns a table with capacity for at least capacity entries,
// rounded up to a power of two.
func New(capacity int) *Table {
	n := 8
	for n < capacity {
		n <<= 1
	}
	return &Table{
		keys:  make([]uint64, n),
		vals:  make([]uint64, n),
		state: make([]uint8, n),
		mask:  uint64(n - 1),
	}
}

// Capacity returns the number of slots.
func (t *Table) Capacity() int { return len(t.keys) }

// Len returns the number of live entries.
func (t *Table) Len() int { return t.used }

// LoadFactor returns live entries / capacity.
func (t *Table) LoadFactor() float64 { return float64(t.used) / float64(len(t.keys)) }

// hash mixes a 64-bit key (splitmix64 finalizer).
func hash(k uint64) uint64 {
	k ^= k >> 30
	k *= 0xbf58476d1ce4e5b9
	k ^= k >> 27
	k *= 0x94d049bb133111eb
	k ^= k >> 31
	return k
}

// Get looks up key. probes is the number of slots scanned.
func (t *Table) Get(key uint64) (val uint64, probes int, err error) {
	i := hash(key) & t.mask
	for p := 1; p <= len(t.keys); p++ {
		switch t.state[i] {
		case slotEmpty:
			return 0, p, ErrNotFound
		case slotUsed:
			if t.keys[i] == key {
				return t.vals[i], p, nil
			}
		}
		i = (i + 1) & t.mask
	}
	return 0, len(t.keys), ErrNotFound
}

// Put inserts or updates key. probes is the number of slots scanned;
// existed reports whether the key was already present.
func (t *Table) Put(key, val uint64) (probes int, existed bool, err error) {
	_, probes, existed, err = t.Upsert(key, val)
	return
}

// Upsert inserts or updates key in a single probe sequence and returns the
// previous value when the key already existed.
func (t *Table) Upsert(key, val uint64) (old uint64, probes int, existed bool, err error) {
	if t.AutoGrow && t.used+t.ghosts >= len(t.keys)*3/4 {
		t.rehash(len(t.keys) * 2)
	}
	i := hash(key) & t.mask
	firstFree := -1
	for p := 1; p <= len(t.keys); p++ {
		switch t.state[i] {
		case slotEmpty:
			if firstFree >= 0 {
				i = uint64(firstFree)
				t.ghosts--
			}
			t.keys[i] = key
			t.vals[i] = val
			t.state[i] = slotUsed
			t.used++
			return 0, p, false, nil
		case slotTombstone:
			if firstFree < 0 {
				firstFree = int(i)
			}
		case slotUsed:
			if t.keys[i] == key {
				old = t.vals[i]
				t.vals[i] = val
				return old, p, true, nil
			}
		}
		i = (i + 1) & t.mask
	}
	if firstFree >= 0 {
		t.keys[firstFree] = key
		t.vals[firstFree] = val
		t.state[firstFree] = slotUsed
		t.ghosts--
		t.used++
		return 0, len(t.keys), false, nil
	}
	return 0, len(t.keys), false, ErrFull
}

// Delete removes key. probes is the number of slots scanned.
func (t *Table) Delete(key uint64) (probes int, err error) {
	i := hash(key) & t.mask
	for p := 1; p <= len(t.keys); p++ {
		switch t.state[i] {
		case slotEmpty:
			return p, ErrNotFound
		case slotUsed:
			if t.keys[i] == key {
				t.state[i] = slotTombstone
				t.used--
				t.ghosts++
				return p, nil
			}
		}
		i = (i + 1) & t.mask
	}
	return len(t.keys), ErrNotFound
}

// Range calls fn for every live entry until fn returns false.
func (t *Table) Range(fn func(key, val uint64) bool) {
	for i, st := range t.state {
		if st == slotUsed {
			if !fn(t.keys[i], t.vals[i]) {
				return
			}
		}
	}
}

// rehash rebuilds the table with newCap slots, dropping tombstones.
func (t *Table) rehash(newCap int) {
	old := *t
	n := 8
	for n < newCap {
		n <<= 1
	}
	t.keys = make([]uint64, n)
	t.vals = make([]uint64, n)
	t.state = make([]uint8, n)
	t.mask = uint64(n - 1)
	t.used = 0
	t.ghosts = 0
	for i, st := range old.state {
		if st == slotUsed {
			_, _, err := t.Put(old.keys[i], old.vals[i])
			if err != nil {
				panic("hashindex: rehash overflow")
			}
		}
	}
}

// Compact rebuilds the table at its current capacity to drop tombstones.
func (t *Table) Compact() { t.rehash(len(t.keys)) }
