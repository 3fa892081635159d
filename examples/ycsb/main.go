// YCSB example: run the paper's NoSQL workload mixes (Table III) against
// the KAML caching layer and print per-workload throughput — a miniature
// of Fig. 10 using only the public API.
//
//	go run ./examples/ycsb
package main

import (
	"fmt"
	"log"
	"math/rand"

	kaml "github.com/kaml-ssd/kaml"
)

const (
	records   = 2_000
	valueSize = 1024 // the paper's YCSB record size
	workers   = 8
	opsPerW   = 300
)

// mix is one YCSB workload's operation ratios (paper Table III).
type mix struct {
	name                      string
	read, update, insert, rmw float64
}

var mixes = []mix{
	{"a", 0.5, 0.5, 0, 0},
	{"b", 0.95, 0.05, 0, 0},
	{"c", 1, 0, 0, 0},
	{"d", 0.95, 0, 0.05, 0},
	{"f", 0.5, 0, 0, 0.5},
}

func main() {
	for _, m := range mixes {
		opsPerSec, hit := runWorkload(m)
		fmt.Printf("workload %s: %8.0f ops/s  (cache hit ratio %.2f)\n", m.name, opsPerSec, hit)
	}
}

func runWorkload(m mix) (opsPerSec, hitRatio float64) {
	dev, err := kaml.Open(kaml.SmallOptions())
	if err != nil {
		log.Fatal(err)
	}
	// Cache sized below the data set so Gets reach the device (§V-E).
	cache := dev.NewCache(kaml.CacheOptions{CapacityBytes: records * valueSize * 2 / 5})

	dev.Go(func() {
		defer dev.Close()
		tbl, err := cache.CreateTable("ycsb", records*2)
		if err != nil {
			log.Fatal(err)
		}
		// Load phase.
		for base := 0; base < records; base += 50 {
			tx := cache.Begin()
			for k := base; k < base+50 && k < records; k++ {
				tx.Insert(tbl, uint64(k), value(uint64(k)))
			}
			if err := tx.Commit(); err != nil {
				log.Fatal(err)
			}
			tx.Free()
		}

		start := dev.Now()
		wg := dev.NewWaitGroup()
		inserted := uint64(records) // the workers are actors: one runs at a time
		for w := 0; w < workers; w++ {
			w := w
			wg.Add(1)
			dev.Go(func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(w)))
				for i := 0; i < opsPerW; i++ {
					runOp(cache, tbl, m, rng, &inserted)
				}
			})
		}
		wg.Wait()
		elapsed := dev.Now() - start
		opsPerSec = float64(workers*opsPerW) / elapsed.Seconds()
		hitRatio = cache.HitRatio()
	})
	dev.Wait()
	return opsPerSec, hitRatio
}

// runOp draws one operation from the mix and retries wait-die aborts.
func runOp(cache *kaml.Cache, tbl kaml.Namespace, m mix, rng *rand.Rand, inserted *uint64) {
	r := rng.Float64()
	key := zipfish(rng)
	for {
		var err error
		tx := cache.Begin()
		switch {
		case r < m.read:
			_, err = tx.Read(tbl, key)
		case r < m.read+m.update:
			err = tx.Update(tbl, key, value(key))
		case r < m.read+m.update+m.insert:
			*inserted++
			k := *inserted
			err = tx.Insert(tbl, k, value(k))
		default: // read-modify-write
			if _, err = tx.Read(tbl, key); err == nil {
				err = tx.Update(tbl, key, value(key))
			}
		}
		if err == nil {
			err = tx.Commit()
		}
		tx.Free()
		if err == nil || !kaml.IsRetryable(err) {
			return
		}
	}
}

// zipfish is a cheap skewed key chooser (hot head, long tail).
func zipfish(rng *rand.Rand) uint64 {
	r := rng.Float64()
	switch {
	case r < 0.5: // 50% of traffic on 5% of keys
		return uint64(rng.Intn(records / 20))
	case r < 0.8:
		return uint64(rng.Intn(records / 4))
	default:
		return uint64(rng.Intn(records))
	}
}

func value(key uint64) []byte {
	v := make([]byte, valueSize)
	for i := range v {
		v[i] = byte(key + uint64(i))
	}
	return v
}
