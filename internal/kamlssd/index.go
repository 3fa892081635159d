package kamlssd

import (
	"sync"

	"github.com/kaml-ssd/kaml/internal/btree"
	"github.com/kaml-ssd/kaml/internal/hashindex"
)

// IndexKind selects a namespace's mapping-table data structure. The paper
// (§IV-C) notes KAML "could ... even use different data structures (e.g.,
// a tree instead of the hash tables KAML uses) to store the mapping
// tables"; both are provided.
type IndexKind uint8

// Index kinds.
const (
	// IndexHash is the paper's default: a fixed-capacity open-addressing
	// hash table whose probe cost grows with load factor (Fig. 5a).
	IndexHash IndexKind = iota
	// IndexTree is a B+tree: no load-factor cliff and ordered keys, at the
	// price of O(log n) DRAM accesses per lookup.
	IndexTree
)

// String names the kind for diagnostics.
func (k IndexKind) String() string {
	if k == IndexTree {
		return "tree"
	}
	return "hash"
}

// newDirectory builds the empty key directory under a family's version
// chains. The hash kind is the seqlock table at the namespace's
// capacity, so ErrIndexFull and the load-factor probe curve come from it;
// its read retries feed the device's counters.
func (d *Device) newDirectory(kind IndexKind, capacity int) hashindex.Directory {
	if kind == IndexTree {
		return &treeDir{t: btree.New()}
	}
	t := hashindex.NewConcurrent(capacity, d.cfg.AutoGrowIndex)
	t.OnRetry(d.ctr.indexReadRetries.Add)
	return t
}

// treeDir adapts btree.Tree to hashindex.Directory. Probe counts are the
// tree depth (each level is one DRAM node access). The tree itself is not
// safe for concurrent use, so the adapter carries a plain RWMutex — pure
// memory operations under it, the counterpart of the hash table's stripe
// locks and, like them, a leaf of the lock hierarchy (device.go) — which is
// what lets chain readers treat both kinds alike.
type treeDir struct {
	mu sync.RWMutex
	t  *btree.Tree
}

func (td *treeDir) Get(key uint64) (uint64, int, error) {
	td.mu.RLock()
	defer td.mu.RUnlock()
	v, err := td.t.Get(key)
	if err != nil {
		return 0, td.t.Depth(), hashindex.ErrNotFound
	}
	return v, td.t.Depth(), nil
}

func (td *treeDir) LoadOrStore(key, val uint64) (uint64, int, bool, error) {
	td.mu.Lock()
	defer td.mu.Unlock()
	if cur, err := td.t.Get(key); err == nil {
		return cur, td.t.Depth(), true, nil
	}
	td.t.Put(key, val)
	return val, td.t.Depth(), false, nil
}

func (td *treeDir) Delete(key uint64) (int, error) {
	td.mu.Lock()
	defer td.mu.Unlock()
	if err := td.t.Delete(key); err != nil {
		return td.t.Depth(), hashindex.ErrNotFound
	}
	return td.t.Depth(), nil
}

// Range visits the entries in key order under the read lock: fn must not
// call back into the directory or block on a simulation primitive.
func (td *treeDir) Range(fn func(key, val uint64) bool) {
	td.mu.RLock()
	defer td.mu.RUnlock()
	td.t.Ascend(fn)
}

func (td *treeDir) Len() int {
	td.mu.RLock()
	defer td.mu.RUnlock()
	return td.t.Len()
}

// Capacity is the entry count: a tree occupies what it holds.
func (td *treeDir) Capacity() int { return td.Len() }
