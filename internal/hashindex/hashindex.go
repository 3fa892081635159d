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
// ConcurrentTable is the hash table: striped sub-tables with per-slot
// sequence counters (seqlock), giving lock-free Gets that race mutations
// safely, and ordered (Robin Hood) linear probing, which keeps plain linear
// probing's slots and mean probe count but cuts its probe tail.
// VersionChains (versions.go) is the namespace's one mapping table: a
// Directory — a ConcurrentTable by default — from key to the key's chain of
// retained versions, newest first.
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

// hash mixes a 64-bit key (splitmix64 finalizer).
func hash(k uint64) uint64 {
	k ^= k >> 30
	k *= 0xbf58476d1ce4e5b9
	k ^= k >> 27
	k *= 0x94d049bb133111eb
	k ^= k >> 31
	return k
}
