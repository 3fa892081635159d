// Package btree implements the in-memory B+tree the Shore-MT baseline uses
// as its table index (record ID -> RID). Shore-MT keeps hot index nodes in
// its buffer pool; here the tree lives in host memory, matching the paper's
// configuration where the entire working set's index fits in the buffer
// pool, so the baseline is not penalized by index I/O.
//
// Keys are uint64 and values are 64-bit RIDs. The tree supports insert,
// point lookup, delete, in-order iteration, and range scans.
package btree

import (
	"errors"
	"fmt"
	"sort"
)

// ErrNotFound is returned when a key is absent.
var ErrNotFound = errors.New("btree: key not found")

// degree is the maximum number of keys per node; chosen so nodes are a few
// cache lines, which keeps the tree shallow for benchmark-sized tables.
const degree = 64

// Tree is a B+tree. Not safe for concurrent use; the storage engine
// serializes index access per table (as Shore-MT does with latches).
type Tree struct {
	root *node
	size int
}

type node struct {
	leaf     bool
	keys     []uint64
	vals     []uint64 // leaf only, parallel to keys
	children []*node  // interior only, len(keys)+1
	next     *node    // leaf chain for range scans
}

// New returns an empty tree.
func New() *Tree {
	return &Tree{root: &node{leaf: true}}
}

// Len returns the number of stored keys.
func (t *Tree) Len() int { return t.size }

// Get returns the value for key.
func (t *Tree) Get(key uint64) (uint64, error) {
	n := t.root
	for !n.leaf {
		n = n.children[childIndex(n.keys, key)]
	}
	i := sort.Search(len(n.keys), func(i int) bool { return n.keys[i] >= key })
	if i < len(n.keys) && n.keys[i] == key {
		return n.vals[i], nil
	}
	return 0, fmt.Errorf("%w: %d", ErrNotFound, key)
}

// childIndex returns which child of an interior node covers key.
// Interior node invariant: child[i] holds keys < keys[i]; child[len] holds
// keys >= keys[len-1].
func childIndex(keys []uint64, key uint64) int {
	return sort.Search(len(keys), func(i int) bool { return key < keys[i] })
}

// Put inserts or updates key. It reports whether the key already existed.
func (t *Tree) Put(key, val uint64) bool {
	if full(t.root) {
		old := t.root
		t.root = &node{children: []*node{old}}
		t.splitChild(t.root, 0)
	}
	existed := t.insertNonFull(t.root, key, val)
	if !existed {
		t.size++
	}
	return existed
}

func full(n *node) bool { return len(n.keys) >= degree }

// splitChild splits the full child i of parent, promoting a separator key.
func (t *Tree) splitChild(parent *node, i int) {
	child := parent.children[i]
	mid := len(child.keys) / 2
	var sep uint64
	right := &node{leaf: child.leaf}
	if child.leaf {
		// Leaf split: right gets keys[mid:], separator is right's first key
		// (it stays in the leaf — B+tree semantics).
		right.keys = append(right.keys, child.keys[mid:]...)
		right.vals = append(right.vals, child.vals[mid:]...)
		child.keys = child.keys[:mid]
		child.vals = child.vals[:mid]
		right.next = child.next
		child.next = right
		sep = right.keys[0]
	} else {
		// Interior split: separator moves up and out of both halves.
		sep = child.keys[mid]
		right.keys = append(right.keys, child.keys[mid+1:]...)
		right.children = append(right.children, child.children[mid+1:]...)
		child.keys = child.keys[:mid]
		child.children = child.children[:mid+1]
	}
	parent.keys = append(parent.keys, 0)
	copy(parent.keys[i+1:], parent.keys[i:])
	parent.keys[i] = sep
	parent.children = append(parent.children, nil)
	copy(parent.children[i+2:], parent.children[i+1:])
	parent.children[i+1] = right
}

func (t *Tree) insertNonFull(n *node, key, val uint64) bool {
	for !n.leaf {
		i := childIndex(n.keys, key)
		if full(n.children[i]) {
			t.splitChild(n, i)
			// After the split the key may belong in the new right child.
			if key >= n.keys[i] {
				i++
			}
		}
		n = n.children[i]
	}
	i := sort.Search(len(n.keys), func(i int) bool { return n.keys[i] >= key })
	if i < len(n.keys) && n.keys[i] == key {
		n.vals[i] = val
		return true
	}
	n.keys = append(n.keys, 0)
	copy(n.keys[i+1:], n.keys[i:])
	n.keys[i] = key
	n.vals = append(n.vals, 0)
	copy(n.vals[i+1:], n.vals[i:])
	n.vals[i] = val
	return false
}

// Delete removes key. Underflowed leaves are tolerated (no rebalancing);
// deletes are rare in the paper's workloads and lazy deletion keeps lookup
// invariants intact.
func (t *Tree) Delete(key uint64) error {
	n := t.root
	for !n.leaf {
		n = n.children[childIndex(n.keys, key)]
	}
	i := sort.Search(len(n.keys), func(i int) bool { return n.keys[i] >= key })
	if i >= len(n.keys) || n.keys[i] != key {
		return fmt.Errorf("%w: %d", ErrNotFound, key)
	}
	n.keys = append(n.keys[:i], n.keys[i+1:]...)
	n.vals = append(n.vals[:i], n.vals[i+1:]...)
	t.size--
	return nil
}

// Ascend calls fn for every (key, value) in order until fn returns false.
func (t *Tree) Ascend(fn func(key, val uint64) bool) {
	n := t.root
	for !n.leaf {
		n = n.children[0]
	}
	for n != nil {
		for i := range n.keys {
			if !fn(n.keys[i], n.vals[i]) {
				return
			}
		}
		n = n.next
	}
}

// Depth returns the tree height (one DRAM node access per level).
func (t *Tree) Depth() int {
	d := 1
	for n := t.root; !n.leaf; n = n.children[0] {
		d++
	}
	return d
}

// check validates structural invariants; it returns an error describing
// the first violation (test helper).
func (t *Tree) check() error {
	var prev *uint64
	count := 0
	var walk func(n *node, lo, hi *uint64, depth int, leafDepth *int) error
	walk = func(n *node, lo, hi *uint64, depth int, leafDepth *int) error {
		for i := 1; i < len(n.keys); i++ {
			if n.keys[i-1] >= n.keys[i] {
				return fmt.Errorf("unsorted keys at depth %d", depth)
			}
		}
		for _, k := range n.keys {
			if lo != nil && k < *lo {
				return fmt.Errorf("key %d below bound %d", k, *lo)
			}
			if hi != nil && k >= *hi && !n.leaf {
				return fmt.Errorf("interior key %d above bound %d", k, *hi)
			}
		}
		if n.leaf {
			if *leafDepth == 0 {
				*leafDepth = depth
			} else if *leafDepth != depth {
				return fmt.Errorf("leaves at depths %d and %d", *leafDepth, depth)
			}
			for i := range n.keys {
				if prev != nil && *prev >= n.keys[i] {
					return fmt.Errorf("leaf chain out of order at %d", n.keys[i])
				}
				k := n.keys[i]
				prev = &k
				count++
			}
			return nil
		}
		if len(n.children) != len(n.keys)+1 {
			return fmt.Errorf("interior with %d keys, %d children", len(n.keys), len(n.children))
		}
		for i, c := range n.children {
			var clo, chi *uint64
			if i > 0 {
				clo = &n.keys[i-1]
			} else {
				clo = lo
			}
			if i < len(n.keys) {
				chi = &n.keys[i]
			} else {
				chi = hi
			}
			if err := walk(c, clo, chi, depth+1, leafDepth); err != nil {
				return err
			}
		}
		return nil
	}
	leafDepth := 0
	if err := walk(t.root, nil, nil, 1, &leafDepth); err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("size %d but %d keys reachable", t.size, count)
	}
	return nil
}
