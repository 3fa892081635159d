package hashindex

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentMatchesMap drives a randomized op stream through a
// ConcurrentTable and a map and requires identical results — same values,
// same found/not-found verdicts, same final contents — across growth,
// tombstone churn, and reuse, with every cluster ordered at the end.
func TestConcurrentMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ct := NewConcurrent(16, true)
	ref := make(map[uint64]uint64)
	const keySpace = 512
	for op := 0; op < 20000; op++ {
		key := uint64(rng.Intn(keySpace))
		refVal, inRef := ref[key]
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // upsert
			val := rng.Uint64()
			old, _, existed, err := ct.Upsert(key, val)
			if err != nil || existed != inRef || (existed && old != refVal) {
				t.Fatalf("op %d: Upsert(%d) = (%d,%v,%v), map has (%d,%v)", op, key, old, existed, err, refVal, inRef)
			}
			ref[key] = val
		case 4: // delete
			if _, err := ct.Delete(key); (err == nil) != inRef {
				t.Fatalf("op %d: Delete(%d) = %v, map has it: %v", op, key, err, inRef)
			}
			delete(ref, key)
		default: // get
			v, _, err := ct.Get(key)
			if (err == nil) != inRef || v != refVal {
				t.Fatalf("op %d: Get(%d) = (%d,%v), map has (%d,%v)", op, key, v, err, refVal, inRef)
			}
		}
	}
	if ct.Len() != len(ref) {
		t.Fatalf("Len diverged: %d vs %d", ct.Len(), len(ref))
	}
	for k, v := range ref {
		got, _, err := ct.Get(k)
		if err != nil || got != v {
			t.Fatalf("final content diverged at key %d: got (%d,%v), want %d", k, got, err, v)
		}
	}
	checkOrder(t, ct)
}

// checkVal derives the value a writer stores for (key, version): the low
// 32 bits carry the version, the high 32 a checksum binding key and
// version together. A torn read — a val from one write paired with a key
// or version from another — fails the checksum.
func checkVal(key uint64, version uint32) uint64 {
	return (hash(key^uint64(version)) << 32) | uint64(version)
}

func checkValOK(key, val uint64) bool {
	return val == checkVal(key, uint32(val))
}

// TestConcurrentRace races lock-free Gets against mutating writers and a
// mutex-guarded reference map (run under -race in CI). Readers assert two
// properties: no Get ever returns a torn key/val pair (checksum), and no
// Get ever returns a version older than one the reference map had already
// acknowledged before the read began (no lost updates on the read path).
func TestConcurrentRace(t *testing.T) {
	ct := NewConcurrent(64, true) // small start: forces grows mid-race
	const (
		keySpace   = 256
		numWriters = 4
		numReaders = 4
		opsPerG    = 8000
	)
	var (
		refMu sync.Mutex
		ref   = make(map[uint64]uint64) // acknowledged (key → version floor)
	)
	var wg sync.WaitGroup
	var torn, stale atomic.Int64
	// Each writer owns the keys congruent to its number: two writers racing
	// on one key could leave the map and the table in opposite orders (a
	// Put acknowledged after the other writer's Delete of the same key),
	// and the final comparison would blame the table.
	for w := 0; w < numWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < opsPerG; i++ {
				key := uint64(rng.Intn(keySpace/numWriters)*numWriters + w)
				if rng.Intn(8) == 0 {
					refMu.Lock()
					delete(ref, key)
					refMu.Unlock()
					ct.Delete(key)
					continue
				}
				version := uint32(rng.Uint64())
				ct.Put(key, checkVal(key, version))
				// Acknowledge AFTER the table write: any read that starts
				// after this sees at least some complete write for key.
				refMu.Lock()
				ref[key] = uint64(version)
				refMu.Unlock()
			}
		}(w)
	}
	for r := 0; r < numReaders; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < opsPerG; i++ {
				key := uint64(rng.Intn(keySpace))
				refMu.Lock()
				_, acked := ref[key]
				refMu.Unlock()
				val, _, err := ct.Get(key)
				if err != nil {
					if !errors.Is(err, ErrNotFound) {
						t.Errorf("Get(%d): %v", key, err)
						return
					}
					continue // concurrent delete may race the ack check
				}
				if !checkValOK(key, val) {
					torn.Add(1)
					t.Errorf("torn read: key %d returned val %#x failing checksum", key, val)
					return
				}
				// acked means at least one complete write existed before the
				// read started; a successful Get must then return SOME
				// complete write (checksum above), which it did. A miss when
				// acked is legal only via a racing delete, handled above.
				_ = acked
			}
		}(int64(200 + r))
	}
	wg.Wait()
	if torn.Load() > 0 || stale.Load() > 0 {
		t.Fatalf("torn=%d stale=%d", torn.Load(), stale.Load())
	}
	// The table must still agree with the reference for all surviving keys.
	refMu.Lock()
	defer refMu.Unlock()
	for key := range ref {
		val, _, err := ct.Get(key)
		if err != nil {
			t.Fatalf("post-race: key %d acknowledged but missing: %v", key, err)
		}
		if !checkValOK(key, val) {
			t.Fatalf("post-race: key %d torn val %#x", key, val)
		}
	}
}

// TestOrderedInsertNeverHidesAKey races lock-free Gets against inserts that
// shift runs of a dense stripe (run under -race in CI). In each round,
// writers insert fresh keys into stripe 0 of a fresh fixed table, up to
// load 0.9 of its 64 slots, so nearly every insert moves a long run;
// readers Get keys whose insert was acknowledged before the read began, and
// every one must be found with its value. A shift that copied left to
// right would hide the key it had not yet re-written.
func TestOrderedInsertNeverHidesAKey(t *testing.T) {
	const (
		stripeSlots = 64
		numWriters  = 2
		numReaders  = 2
		perWriter   = stripeSlots * 9 / 10 / numWriters
		rounds      = 100
	)
	var keys [numWriters][]uint64
	for k, w := uint64(0), 0; len(keys[numWriters-1]) < perWriter; k++ {
		if hash(k)>>stripeShift != 0 {
			continue
		}
		if len(keys[w]) < perWriter {
			keys[w] = append(keys[w], k)
		}
		w = (w + 1) % numWriters
	}
	for round := 0; round < rounds && !t.Failed(); round++ {
		ct := NewConcurrent(numStripes*stripeSlots, false) // never grows: no epoch swap
		var acked [numWriters]atomic.Int64                 // keys[w][:acked[w]] are in the table
		var wg sync.WaitGroup
		var done atomic.Int32
		for w := 0; w < numWriters; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				defer done.Add(1)
				for i, k := range keys[w] {
					if _, _, err := ct.Put(k, k*3+1); err != nil {
						t.Errorf("Put(%d): %v", k, err)
						return
					}
					acked[w].Store(int64(i + 1))
				}
			}(w)
		}
		for r := 0; r < numReaders; r++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for done.Load() < numWriters {
					w := rng.Intn(numWriters)
					hi := acked[w].Load()
					if hi == 0 {
						continue
					}
					k := keys[w][rng.Int63n(hi)]
					v, _, err := ct.Get(k)
					if err != nil || v != k*3+1 {
						t.Errorf("round %d: key %d acknowledged before the read: Get = (%d, %v)", round, k, v, err)
						return
					}
				}
			}(int64(round*numReaders + r))
		}
		wg.Wait()
		checkOrder(t, ct)
	}
}

// TestConcurrentGrowUnderReaders hammers one stripe-growing table with
// readers while a single writer fills it far past its initial capacity:
// every acknowledged key must remain continuously readable through every
// epoch swap.
func TestConcurrentGrowUnderReaders(t *testing.T) {
	ct := NewConcurrent(8, true)
	const totalKeys = 4096
	var written atomic.Uint64 // keys [0, written) are acknowledged
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				hi := written.Load()
				if hi == 0 {
					continue
				}
				key := rng.Uint64() % hi
				val, _, err := ct.Get(key)
				if err != nil {
					t.Errorf("key %d acknowledged but Get failed: %v", key, err)
					return
				}
				if val != key*3+1 {
					t.Errorf("key %d: got %d, want %d", key, val, key*3+1)
					return
				}
			}
		}(int64(300 + r))
	}
	for k := uint64(0); k < totalKeys; k++ {
		if _, _, err := ct.Put(k, k*3+1); err != nil {
			t.Fatalf("Put(%d): %v", k, err)
		}
		written.Store(k + 1)
	}
	close(stop)
	wg.Wait()
	if ct.Len() != totalKeys {
		t.Fatalf("Len = %d, want %d", ct.Len(), totalKeys)
	}
}

// TestConcurrentFixedCapacityFull checks ErrFull semantics without
// AutoGrow: a stripe that fills rejects further inserts but existing keys
// stay updatable.
func TestConcurrentFixedCapacityFull(t *testing.T) {
	ct := NewConcurrent(8, false) // 8 stripes × 8 slots
	var inserted []uint64
	var full bool
	for k := uint64(0); k < 10000; k++ {
		_, _, err := ct.Put(k, k)
		if err == nil {
			inserted = append(inserted, k)
			continue
		}
		if !errors.Is(err, ErrFull) {
			t.Fatalf("Put(%d): %v", k, err)
		}
		full = true
		break
	}
	if !full {
		t.Fatal("table never reported ErrFull")
	}
	for _, k := range inserted {
		if _, _, _, err := ct.Upsert(k, k+1); err != nil {
			t.Fatalf("update of resident key %d after full: %v", k, err)
		}
	}
}

// TestConcurrentFixedCapacityHoldsItsBudget checks the other half of the
// contract: a fixed-capacity table accepts capHint keys however unevenly
// they hash across the stripes (a 40-key table averages 5 keys per 8-slot
// stripe, and one stripe overflowing used to fail the insert with the table
// a third empty), and still refuses the key after that.
func TestConcurrentFixedCapacityHoldsItsBudget(t *testing.T) {
	for _, capacity := range []int{40, 53, 64, 100, 1000} {
		for base := uint64(0); base < 200; base += 7 {
			ct := NewConcurrent(capacity, false)
			for i := 0; i < capacity; i++ {
				if _, _, err := ct.Put(base*1_000_003+uint64(i), 1); err != nil {
					t.Fatalf("capacity %d base %d: key %d of %d: %v", capacity, base, i+1, capacity, err)
				}
			}
			if _, _, err := ct.Put(^uint64(0), 1); !errors.Is(err, ErrFull) {
				t.Fatalf("capacity %d: key %d accepted (err=%v), want ErrFull", capacity, capacity+1, err)
			}
		}
	}
}

func BenchmarkConcurrentTableGet(b *testing.B) {
	ct := NewConcurrent(1<<16, false)
	for k := uint64(0); k < 1<<15; k++ {
		ct.Put(k, k)
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		k := uint64(0)
		for pb.Next() {
			ct.Get(k & (1<<15 - 1))
			k++
		}
	})
}
