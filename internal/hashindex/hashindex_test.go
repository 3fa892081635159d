package hashindex

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPutGetDelete(t *testing.T) {
	tb := New(64)
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

func TestFillToCapacity(t *testing.T) {
	tb := New(8) // rounds to 8 slots
	cap := tb.Capacity()
	for i := 0; i < cap; i++ {
		if _, _, err := tb.Put(uint64(i), uint64(i)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if _, _, err := tb.Put(uint64(cap), 0); !errors.Is(err, ErrFull) {
		t.Fatalf("overfull put: %v", err)
	}
	// All entries still retrievable at load factor 1.0.
	for i := 0; i < cap; i++ {
		v, _, err := tb.Get(uint64(i))
		if err != nil || v != uint64(i) {
			t.Fatalf("get %d: %v %d", i, err, v)
		}
	}
	if tb.LoadFactor() != 1.0 {
		t.Fatalf("load=%f", tb.LoadFactor())
	}
}

func TestTombstoneReuse(t *testing.T) {
	tb := New(8)
	cap := tb.Capacity()
	for i := 0; i < cap; i++ {
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
	for i := 0; i < cap; i++ {
		if i == 3 {
			continue
		}
		if _, _, err := tb.Get(uint64(i)); err != nil {
			t.Fatalf("get %d after tombstone churn: %v", i, err)
		}
	}
}

func TestProbesGrowWithLoad(t *testing.T) {
	avg := func(load float64) float64 {
		tb := New(1 << 12)
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
	tb := New(8)
	tb.AutoGrow = true
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
}

func TestCompactDropsTombstones(t *testing.T) {
	tb := New(64)
	for i := 0; i < 48; i++ {
		tb.Put(uint64(i), uint64(i))
	}
	for i := 0; i < 24; i++ {
		tb.Delete(uint64(i))
	}
	tb.Compact()
	if tb.ghosts != 0 {
		t.Fatalf("ghosts=%d after compact", tb.ghosts)
	}
	for i := 24; i < 48; i++ {
		if _, _, err := tb.Get(uint64(i)); err != nil {
			t.Fatalf("lost key %d in compact", i)
		}
	}
	if tb.Len() != 24 {
		t.Fatalf("len=%d", tb.Len())
	}
}

func TestRangeVisitsAll(t *testing.T) {
	tb := New(64)
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
	// put/get/delete sequences, including near and at capacity.
	type op struct {
		Kind uint8
		Key  uint16
		Val  uint64
	}
	f := func(ops []op) bool {
		tb := New(64)
		model := map[uint64]uint64{}
		for _, o := range ops {
			k := uint64(o.Key % 96) // key space larger than live capacity
			switch o.Kind % 3 {
			case 0: // put
				_, existed, err := tb.Put(k, o.Val)
				if err != nil {
					if len(model) < tb.Capacity() {
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
		if tb.Len() != len(model) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
