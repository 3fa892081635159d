package kamlssd

import (
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
// chains. The hash kind is the ordered hash table at the namespace's
// capacity, so ErrIndexFull and the load-factor probe curve come from it.
func (d *Device) newDirectory(kind IndexKind, capacity int) hashindex.Directory {
	if kind == IndexTree {
		return &treeDir{t: btree.New()}
	}
	return hashindex.NewConcurrent(capacity, d.cfg.AutoGrowIndex)
}

// treeDir adapts btree.Tree to hashindex.Directory. Probe counts are the
// tree depth (each level is one DRAM node access). Like the hash table, the
// tree has one owner, the running actor (device.go, "The read contract").
type treeDir struct {
	t *btree.Tree
}

func (td *treeDir) Get(key uint64) (uint64, int, error) {
	v, err := td.t.Get(key)
	if err != nil {
		return 0, td.t.Depth(), hashindex.ErrNotFound
	}
	return v, td.t.Depth(), nil
}

func (td *treeDir) LoadOrStore(key, val uint64) (uint64, int, bool, error) {
	if cur, err := td.t.Get(key); err == nil {
		return cur, td.t.Depth(), true, nil
	}
	td.t.Put(key, val)
	return val, td.t.Depth(), false, nil
}

func (td *treeDir) Delete(key uint64) (int, error) {
	if err := td.t.Delete(key); err != nil {
		return td.t.Depth(), hashindex.ErrNotFound
	}
	return td.t.Depth(), nil
}

// Range visits the entries in key order: fn must not mutate the directory.
func (td *treeDir) Range(fn func(key, val uint64) bool) { td.t.Ascend(fn) }

func (td *treeDir) Len() int { return td.t.Len() }

// Capacity is the entry count: a tree occupies what it holds.
func (td *treeDir) Capacity() int { return td.Len() }
