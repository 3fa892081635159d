package hashindex

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"github.com/kaml-ssd/kaml/internal/sim"
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
// version together, so a value read under the wrong key fails it.
func checkVal(key uint64, version uint32) uint64 {
	return (hash(key^uint64(version)) << 32) | uint64(version)
}

func checkValOK(key, val uint64) bool {
	return val == checkVal(key, uint32(val))
}

// TestConcurrentRace interleaves writer and reader actors on one simulated
// engine, the way the firmware's commands share a mapping table: each actor
// sleeps a few random microseconds between its operations, so the running
// actor owns the table and the others' operations fall between its own.
// Writers own disjoint keys and put checksummed values or delete; readers
// check every Get against the acknowledged reference exactly (a hit carries
// the key's current value, a miss is a key the reference lacks). The table
// starts small, so it grows while the actors run, and each seed draws
// another interleaving.
func TestConcurrentRace(t *testing.T) {
	const (
		keySpace    = 256
		numWriters  = 4
		numReaders  = 4
		opsPerActor = 2000
	)
	for _, seed := range []int64{1, 2, 3} {
		e := sim.NewEngine()
		e.Serialize(seed)
		ct := NewConcurrent(64, true)
		ref := make(map[uint64]uint64) // acknowledged key → value
		pause := func(rng *rand.Rand) { e.Sleep(time.Duration(1+rng.Intn(4)) * time.Microsecond) }
		for w := 0; w < numWriters; w++ {
			e.Go("writer", func() {
				rng := rand.New(rand.NewSource(seed*100 + int64(w)))
				for i := 0; i < opsPerActor; i++ {
					pause(rng)
					key := uint64(rng.Intn(keySpace/numWriters)*numWriters + w)
					if rng.Intn(8) == 0 {
						_, err := ct.Delete(key)
						if _, acked := ref[key]; (err == nil) != acked {
							t.Errorf("seed %d: Delete(%d) = %v, reference has it: %v", seed, key, err, acked)
							return
						}
						delete(ref, key)
						continue
					}
					val := checkVal(key, uint32(rng.Uint64()))
					if _, _, err := ct.Put(key, val); err != nil {
						t.Errorf("seed %d: Put(%d): %v", seed, key, err)
						return
					}
					ref[key] = val
				}
			})
		}
		for r := 0; r < numReaders; r++ {
			e.Go("reader", func() {
				rng := rand.New(rand.NewSource(seed*100 + 50 + int64(r)))
				for i := 0; i < opsPerActor; i++ {
					pause(rng)
					key := uint64(rng.Intn(keySpace))
					want, acked := ref[key]
					val, _, err := ct.Get(key)
					switch {
					case acked && (err != nil || val != want || !checkValOK(key, val)):
						t.Errorf("seed %d: Get(%d) = (%#x, %v), acknowledged %#x", seed, key, val, err, want)
						return
					case !acked && !errors.Is(err, ErrNotFound):
						t.Errorf("seed %d: Get(%d) = (%#x, %v) of a key the reference lacks", seed, key, val, err)
						return
					}
				}
			})
		}
		e.Wait()
		if ct.Len() != len(ref) {
			t.Fatalf("seed %d: Len = %d, reference has %d keys", seed, ct.Len(), len(ref))
		}
		if ct.Capacity() <= NewConcurrent(64, true).Capacity() {
			t.Fatalf("seed %d: the table never grew; growth between the actors' operations went untested", seed)
		}
		checkOrder(t, ct)
	}
}

// TestOrderedInsertNeverHidesAKey fills stripe 0 of a fixed table to load
// 0.9 of its 64 slots, so nearly every insert shifts a long run right, and
// after every insert reads back every key inserted before it: each must be
// found with its value, and every cluster must stay ordered. A shift that
// dropped or overwrote a slot of its run would hide a key. Each round
// inserts the keys in another order.
func TestOrderedInsertNeverHidesAKey(t *testing.T) {
	const (
		stripeSlots = 64
		rounds      = 20
	)
	var keys []uint64
	for k := uint64(0); len(keys) < stripeSlots*9/10; k++ {
		if hash(k)>>stripeShift == 0 {
			keys = append(keys, k)
		}
	}
	for round := 0; round < rounds; round++ {
		rng := rand.New(rand.NewSource(int64(round)))
		rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		ct := NewConcurrent(numStripes*stripeSlots, false) // never grows
		for i, k := range keys {
			if _, _, err := ct.Put(k, k*3+1); err != nil {
				t.Fatalf("round %d: Put(%d): %v", round, k, err)
			}
			for _, prev := range keys[:i+1] {
				if v, _, err := ct.Get(prev); err != nil || v != prev*3+1 {
					t.Fatalf("round %d: key %d inserted before key %d: Get = (%d, %v)", round, prev, k, v, err)
				}
			}
			checkOrder(t, ct)
		}
		if got := len(ct.stripes[0].slot); got != stripeSlots {
			t.Fatalf("round %d: stripe 0 has %d slots, want %d", round, got, stripeSlots)
		}
	}
}

// TestConcurrentGrowUnderReaders fills a growing table from 8 slots a
// stripe far past that, reading between the writes as the firmware's
// readers do: after every insert that grew a stripe, every key written so
// far is read back, and after every other insert a few random ones are,
// so no growth may lose or misplace a key.
func TestConcurrentGrowUnderReaders(t *testing.T) {
	ct := NewConcurrent(8, true)
	const totalKeys = 4096
	rng := rand.New(rand.NewSource(300))
	read := func(key uint64) {
		t.Helper()
		val, _, err := ct.Get(key)
		if err != nil || val != key*3+1 {
			t.Fatalf("key %d written before: Get = (%d, %v), want %d", key, val, err, key*3+1)
		}
	}
	grows := 0
	for k := uint64(0); k < totalKeys; k++ {
		before := ct.Capacity()
		if _, _, err := ct.Put(k, k*3+1); err != nil {
			t.Fatalf("Put(%d): %v", k, err)
		}
		if ct.Capacity() != before {
			grows++
			for key := uint64(0); key <= k; key++ {
				read(key)
			}
			continue
		}
		for r := 0; r < 3; r++ {
			read(rng.Uint64() % (k + 1))
		}
	}
	if ct.Len() != totalKeys {
		t.Fatalf("Len = %d, want %d", ct.Len(), totalKeys)
	}
	if grows < numStripes {
		t.Fatalf("%d growths, want every stripe to grow at least once", grows)
	}
	checkOrder(t, ct)
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
	for k := uint64(0); k < uint64(b.N); k++ {
		ct.Get(k & (1<<15 - 1))
	}
}
