package btree

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmptyTree(t *testing.T) {
	tr := New()
	if tr.Len() != 0 {
		t.Fatal("empty tree has keys")
	}
	if _, err := tr.Get(1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err=%v", err)
	}
	if err := tr.Delete(1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("delete: %v", err)
	}
}

func TestPutGetUpdate(t *testing.T) {
	tr := New()
	if existed := tr.Put(5, 50); existed {
		t.Fatal("fresh key existed")
	}
	if v, err := tr.Get(5); err != nil || v != 50 {
		t.Fatalf("get: %d %v", v, err)
	}
	if existed := tr.Put(5, 99); !existed {
		t.Fatal("update not detected")
	}
	if v, _ := tr.Get(5); v != 99 {
		t.Fatalf("after update: %d", v)
	}
	if tr.Len() != 1 {
		t.Fatalf("len=%d", tr.Len())
	}
}

func TestManyKeysSequential(t *testing.T) {
	tr := New()
	const n = 10000
	for i := uint64(0); i < n; i++ {
		tr.Put(i, i*2)
	}
	if err := tr.check(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != n {
		t.Fatalf("len=%d", tr.Len())
	}
	for i := uint64(0); i < n; i++ {
		v, err := tr.Get(i)
		if err != nil || v != i*2 {
			t.Fatalf("get %d: %d %v", i, v, err)
		}
	}
	if tr.Depth() < 3 {
		t.Fatalf("tree suspiciously shallow: depth=%d", tr.Depth())
	}
}

func TestManyKeysRandom(t *testing.T) {
	tr := New()
	rng := rand.New(rand.NewSource(11))
	model := map[uint64]uint64{}
	for i := 0; i < 20000; i++ {
		k := rng.Uint64() % 50000
		v := rng.Uint64()
		tr.Put(k, v)
		model[k] = v
	}
	if err := tr.check(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != len(model) {
		t.Fatalf("len=%d model=%d", tr.Len(), len(model))
	}
	for k, v := range model {
		got, err := tr.Get(k)
		if err != nil || got != v {
			t.Fatalf("get %d: %d %v", k, got, err)
		}
	}
}

func TestDelete(t *testing.T) {
	tr := New()
	for i := uint64(0); i < 1000; i++ {
		tr.Put(i, i)
	}
	for i := uint64(0); i < 1000; i += 2 {
		if err := tr.Delete(i); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != 500 {
		t.Fatalf("len=%d", tr.Len())
	}
	for i := uint64(0); i < 1000; i++ {
		_, err := tr.Get(i)
		if i%2 == 0 && !errors.Is(err, ErrNotFound) {
			t.Fatalf("deleted key %d present: %v", i, err)
		}
		if i%2 == 1 && err != nil {
			t.Fatalf("kept key %d missing: %v", i, err)
		}
	}
	if err := tr.check(); err != nil {
		t.Fatal(err)
	}
}

func TestAscendInOrder(t *testing.T) {
	tr := New()
	keys := []uint64{42, 7, 100, 3, 55, 999, 1}
	for _, k := range keys {
		tr.Put(k, k)
	}
	var got []uint64
	tr.Ascend(func(k, v uint64) bool {
		got = append(got, k)
		return true
	})
	sorted := append([]uint64(nil), keys...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	if len(got) != len(sorted) {
		t.Fatalf("got %d keys", len(got))
	}
	for i := range got {
		if got[i] != sorted[i] {
			t.Fatalf("order %v", got)
		}
	}
}

func TestAscendEarlyStop(t *testing.T) {
	tr := New()
	for i := uint64(0); i < 100; i++ {
		tr.Put(i, i)
	}
	n := 0
	tr.Ascend(func(k, v uint64) bool { n++; return n < 10 })
	if n != 10 {
		t.Fatalf("visited %d", n)
	}
}

func TestQuickModelEquivalence(t *testing.T) {
	type op struct {
		Kind uint8
		Key  uint16
		Val  uint64
	}
	f := func(ops []op) bool {
		tr := New()
		model := map[uint64]uint64{}
		for _, o := range ops {
			k := uint64(o.Key)
			switch o.Kind % 3 {
			case 0:
				_, inModel := model[k]
				if tr.Put(k, o.Val) != inModel {
					return false
				}
				model[k] = o.Val
			case 1:
				v, err := tr.Get(k)
				mv, ok := model[k]
				if ok != (err == nil) || (ok && v != mv) {
					return false
				}
			case 2:
				err := tr.Delete(k)
				_, ok := model[k]
				if ok != (err == nil) {
					return false
				}
				delete(model, k)
			}
		}
		return tr.Len() == len(model) && tr.check() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickInvariantsAfterBulkInsert(t *testing.T) {
	f := func(keys []uint64) bool {
		tr := New()
		for i, k := range keys {
			tr.Put(k, uint64(i))
		}
		return tr.check() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
