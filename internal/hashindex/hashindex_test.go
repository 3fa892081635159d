package hashindex

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// checkOrder fails t unless every stripe of ct is an ordered linear-probe
// layout: the first occupant of a cluster sits at its home, and each
// occupant after it has a later home than its left neighbour, or the same
// home and a larger key. Tombstones keep their key and count as occupants.
func checkOrder(t *testing.T, ct *ConcurrentTable) {
	t.Helper()
	for si := range ct.stripes {
		arr := ct.stripes[si].arr.Load()
		for i := range arr.slot {
			a, b := &arr.slot[i], &arr.slot[(uint64(i)+1)&arr.mask]
			if b.state.Load() == slotEmpty {
				continue
			}
			j := (uint64(i) + 1) & arr.mask
			kb := b.key.Load()
			db := (j - hash(kb)) & arr.mask
			if a.state.Load() == slotEmpty {
				if db != 0 {
					t.Fatalf("stripe %d slot %d: key %d opens a cluster %d slots from home", si, j, kb, db)
				}
				continue
			}
			ka := a.key.Load()
			da := (uint64(i) - hash(ka)) & arr.mask
			if db > da+1 || (db == da+1 && kb < ka) {
				t.Fatalf("stripe %d slots %d,%d: key %d (distance %d) after key %d (distance %d) breaks the order",
					si, i, j, kb, db, ka, da)
			}
		}
	}
}

func TestPutGetDelete(t *testing.T) {
	tb := NewConcurrent(64, false)
	if _, _, err := tb.Get(1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get empty: %v", err)
	}
	if _, existed, err := tb.Put(1, 100); err != nil || existed {
		t.Fatalf("put: %v existed=%v", err, existed)
	}
	v, _, err := tb.Get(1)
	if err != nil || v != 100 {
		t.Fatalf("get: %v %d", err, v)
	}
	if _, existed, _ := tb.Put(1, 200); !existed {
		t.Fatal("update not detected")
	}
	v, _, _ = tb.Get(1)
	if v != 200 {
		t.Fatalf("after update: %d", v)
	}
	if _, err := tb.Delete(1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tb.Get(1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get after delete: %v", err)
	}
	if _, err := tb.Delete(1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v", err)
	}
}

// TestFillToCapacity fills a fixed table to its budget — every stripe of
// NewConcurrent(64) is one 8-slot ring, so some stripes fill and grow — and
// reads every key back.
func TestFillToCapacity(t *testing.T) {
	const budget = 64
	tb := NewConcurrent(budget, false)
	for i := 0; i < budget; i++ {
		if _, _, err := tb.Put(uint64(i), uint64(i)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if _, _, err := tb.Put(budget, 0); !errors.Is(err, ErrFull) {
		t.Fatalf("overfull put: %v", err)
	}
	for i := 0; i < budget; i++ {
		v, _, err := tb.Get(uint64(i))
		if err != nil || v != uint64(i) {
			t.Fatalf("get %d: %v %d", i, err, v)
		}
	}
	if tb.Len() != budget {
		t.Fatalf("len=%d", tb.Len())
	}
	checkOrder(t, tb)
}

func TestTombstoneReuse(t *testing.T) {
	const budget = 64
	tb := NewConcurrent(budget, false)
	for i := 0; i < budget; i++ {
		tb.Put(uint64(i), uint64(i))
	}
	tb.Delete(3)
	if _, _, err := tb.Put(999, 999); err != nil {
		t.Fatalf("put into tombstone: %v", err)
	}
	v, _, err := tb.Get(999)
	if err != nil || v != 999 {
		t.Fatalf("get 999: %v", err)
	}
	// Keys that probed past the tombstone are still reachable.
	for i := 0; i < budget; i++ {
		if i == 3 {
			continue
		}
		if _, _, err := tb.Get(uint64(i)); err != nil {
			t.Fatalf("get %d after tombstone churn: %v", i, err)
		}
	}
	checkOrder(t, tb)
}

// TestTombstonesCostNoCapacity keeps a fixed table at its budget while
// keys come and go — the firmware's case of a first write that aborted and
// gave its slot back — and requires every insert to succeed and the order
// to hold throughout: a shift stops at a tombstone, and one at the
// insertion point is reused in place.
func TestTombstonesCostNoCapacity(t *testing.T) {
	for _, budget := range []int{64, 100, 1000} {
		tb := NewConcurrent(budget, false)
		live := make([]uint64, 0, budget)
		for i := 0; i < budget; i++ {
			if _, _, err := tb.Put(uint64(i), uint64(i)); err != nil {
				t.Fatalf("budget %d: fill key %d: %v", budget, i, err)
			}
			live = append(live, uint64(i))
		}
		rng := rand.New(rand.NewSource(int64(budget)))
		next := uint64(budget)
		for round := 0; round < 4*budget; round++ {
			at := rng.Intn(len(live))
			if _, err := tb.Delete(live[at]); err != nil {
				t.Fatalf("budget %d round %d: delete %d: %v", budget, round, live[at], err)
			}
			if _, _, err := tb.Put(next, next); err != nil {
				t.Fatalf("budget %d round %d: insert after delete: %v", budget, round, err)
			}
			live[at] = next
			next++
			checkOrder(t, tb)
		}
		if _, _, err := tb.Put(next, next); !errors.Is(err, ErrFull) {
			t.Fatalf("budget %d: key %d accepted (err=%v), want ErrFull", budget, budget+1, err)
		}
		for _, k := range live {
			if v, _, err := tb.Get(k); err != nil || v != k {
				t.Fatalf("budget %d: get %d: %d %v", budget, k, v, err)
			}
		}
	}
}

func TestProbesGrowWithLoad(t *testing.T) {
	avg := func(load float64) float64 {
		tb := NewConcurrent(1<<12, false)
		n := int(load * float64(tb.Capacity()))
		rng := rand.New(rand.NewSource(42))
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = rng.Uint64()
			tb.Put(keys[i], 1)
		}
		total := 0
		for _, k := range keys {
			_, p, err := tb.Get(k)
			if err != nil {
				t.Fatal(err)
			}
			total += p
		}
		return float64(total) / float64(n)
	}
	lo, hi := avg(0.1), avg(0.9)
	if hi <= lo*1.5 {
		t.Fatalf("probe cost did not grow with load: %.2f -> %.2f", lo, hi)
	}
}

func TestAutoGrow(t *testing.T) {
	tb := NewConcurrent(8, true)
	for i := 0; i < 1000; i++ {
		if _, _, err := tb.Put(uint64(i), uint64(i*2)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if tb.Len() != 1000 {
		t.Fatalf("len=%d", tb.Len())
	}
	for i := 0; i < 1000; i++ {
		v, _, err := tb.Get(uint64(i))
		if err != nil || v != uint64(i*2) {
			t.Fatalf("get %d: %v %d", i, err, v)
		}
	}
	checkOrder(t, tb)
}

// TestGrowDropsTombstones rebuilds every stripe of a table with tombstones
// at its own size: the tombstones are gone, the live keys stay, and the
// rebuilt stripes are ordered.
func TestGrowDropsTombstones(t *testing.T) {
	tb := NewConcurrent(64, false)
	for i := 0; i < 48; i++ {
		tb.Put(uint64(i), uint64(i))
	}
	for i := 0; i < 24; i++ {
		tb.Delete(uint64(i))
	}
	for si := range tb.stripes {
		s := &tb.stripes[si]
		s.mu.Lock()
		s.grow(len(s.arr.Load().slot))
		s.mu.Unlock()
		if s.ghosts != 0 {
			t.Fatalf("stripe %d: ghosts=%d after grow", si, s.ghosts)
		}
	}
	for si := range tb.stripes {
		for i := range tb.stripes[si].arr.Load().slot {
			if tb.stripes[si].arr.Load().slot[i].state.Load() == slotTombstone {
				t.Fatalf("stripe %d slot %d: tombstone survived the grow", si, i)
			}
		}
	}
	for i := 24; i < 48; i++ {
		if _, _, err := tb.Get(uint64(i)); err != nil {
			t.Fatalf("lost key %d in grow", i)
		}
	}
	if tb.Len() != 24 {
		t.Fatalf("len=%d", tb.Len())
	}
	checkOrder(t, tb)
}

func TestRangeVisitsAll(t *testing.T) {
	tb := NewConcurrent(64, false)
	for i := 0; i < 40; i++ {
		tb.Put(uint64(i), uint64(i))
	}
	seen := map[uint64]bool{}
	tb.Range(func(k, v uint64) bool {
		seen[k] = true
		return true
	})
	if len(seen) != 40 {
		t.Fatalf("visited %d", len(seen))
	}
	// Early termination.
	n := 0
	tb.Range(func(k, v uint64) bool { n++; return n < 5 })
	if n != 5 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestQuickModelCheck(t *testing.T) {
	// Property: the table behaves exactly like a map under random
	// put/get/delete sequences, including near and at capacity, and its
	// clusters stay ordered.
	type op struct {
		Kind uint8
		Key  uint16
		Val  uint64
	}
	const budget = 64
	f := func(ops []op) bool {
		tb := NewConcurrent(budget, false)
		model := map[uint64]uint64{}
		for _, o := range ops {
			k := uint64(o.Key % 96) // key space larger than live capacity
			switch o.Kind % 3 {
			case 0: // put
				_, existed, err := tb.Put(k, o.Val)
				if err != nil {
					if len(model) < budget {
						return false // spurious full
					}
					continue
				}
				if _, inModel := model[k]; existed != inModel {
					return false
				}
				model[k] = o.Val
			case 1: // get
				v, _, err := tb.Get(k)
				mv, ok := model[k]
				if ok != (err == nil) {
					return false
				}
				if ok && v != mv {
					return false
				}
			case 2: // delete
				_, err := tb.Delete(k)
				_, ok := model[k]
				if ok != (err == nil) {
					return false
				}
				delete(model, k)
			}
		}
		checkOrder(t, tb)
		return tb.Len() == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestOrderedLayoutIsTheKeySetsAlone inserts one key set in two orders and
// requires identical slot arrays: without tombstones the ordered layout is
// a function of the key set, which is what lets recovery's sorted rebuild
// give back the table a device had before a power cut.
func TestOrderedLayoutIsTheKeySetsAlone(t *testing.T) {
	const n = 3000 // load 0.73 of 4096 slots: long clusters
	keys := make([]uint64, n)
	rng := rand.New(rand.NewSource(5))
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	build := func(order []uint64) *ConcurrentTable {
		tb := NewConcurrent(4096, false)
		for _, k := range order {
			if _, _, err := tb.Put(k, ^k); err != nil {
				t.Fatalf("put %d: %v", k, err)
			}
		}
		checkOrder(t, tb)
		return tb
	}
	sorted := slices.Clone(keys)
	slices.Sort(sorted)
	a, b := build(keys), build(sorted)
	for si := range a.stripes {
		sa, sb := a.stripes[si].arr.Load().slot, b.stripes[si].arr.Load().slot
		if len(sa) != len(sb) {
			t.Fatalf("stripe %d: %d vs %d slots", si, len(sa), len(sb))
		}
		for i := range sa {
			if sa[i].state.Load() != sb[i].state.Load() || sa[i].key.Load() != sb[i].key.Load() {
				t.Fatalf("stripe %d slot %d: key %d vs %d", si, i, sa[i].key.Load(), sb[i].key.Load())
			}
		}
	}
}

// TestOrderedKeepsMeanCutsTail fills get-flash's table shape — 200 000 keys
// in 524 288 slots, load 0.38 — and measures every key's Get. The mean is
// plain linear probing's (the same slots are occupied), the tail is not:
// linear probing in insertion order gives p99 5 and max 17 here.
func TestOrderedKeepsMeanCutsTail(t *testing.T) {
	const keys = 200_000
	tb := NewConcurrent(266_666, false)
	for k := uint64(0); k < keys; k++ {
		if _, _, err := tb.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}
	probes := make([]int, keys)
	total := 0
	for k := uint64(0); k < keys; k++ {
		_, p, err := tb.Get(k)
		if err != nil {
			t.Fatalf("get %d: %v", k, err)
		}
		probes[k] = p
		total += p
	}
	slices.Sort(probes)
	mean := float64(total) / keys
	p99, max := probes[keys*99/100], probes[keys-1]
	t.Logf("%d slots: mean %.4f, p99 %d, max %d", tb.Capacity(), mean, p99, max)
	if mean < 1.30 || mean > 1.32 || p99 > 3 || max > 9 {
		t.Fatalf("mean %.4f (want [1.30, 1.32]), p99 %d (want <= 3), max %d (want <= 9)", mean, p99, max)
	}
	// A miss stops at the first occupant that sorts after it, so it costs
	// no more than a hit's tail.
	missTotal := 0
	for k := uint64(keys); k < 2*keys; k++ {
		_, p, err := tb.Get(k)
		if !errors.Is(err, ErrNotFound) {
			t.Fatalf("get absent %d: %v", k, err)
		}
		missTotal += p
	}
	if miss := float64(missTotal) / keys; miss > 2*mean {
		t.Fatalf("miss mean %.4f probes, hit mean %.4f", miss, mean)
	}
}
