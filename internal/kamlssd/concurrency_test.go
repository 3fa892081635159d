package kamlssd

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/kaml-ssd/kaml/internal/flash"
	"github.com/kaml-ssd/kaml/internal/nvme"
	"github.com/kaml-ssd/kaml/internal/sim"
)

// Stress for the decomposed lock hierarchy: many namespaces with a private
// writer each, readers racing the writers, snapshots cut mid-stream, and
// the small test geometry keeping the garbage collector busy throughout.
// The sim engine wakes every actor due at the same virtual instant on its
// own goroutine, so under -race this exercises namespace-, log-, and
// NVRAM-lock interleavings that the single-actor tests never hit.
func TestConcurrentStress(t *testing.T) {
	const (
		numNS   = 6
		keys    = 96
		rounds  = 16
		readers = 2
	)
	r := newRig(testFlashConfig(), nil)
	r.e.Go("stress-main", func() {
		defer r.dev.Close()
		nsIDs := make([]uint32, numNS)
		for i := range nsIDs {
			id, err := r.dev.CreateNamespace(NamespaceAttrs{})
			if err != nil {
				t.Errorf("create ns: %v", err)
				return
			}
			nsIDs[i] = id
		}
		wg := r.e.NewWaitGroup()

		// One writer per namespace: rounds of batched overwrites, so the
		// final value of every key is known and GC has garbage to collect.
		for i, ns := range nsIDs {
			i, ns := i, ns
			wg.Add(1)
			r.e.Go(fmt.Sprintf("writer-%d", i), func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(i)))
				for round := 0; round < rounds; round++ {
					for base := uint64(0); base < keys; base += 4 {
						batch := make([]PutRecord, 0, 4)
						for k := base; k < base+4 && k < keys; k++ {
							sz := 256 + rng.Intn(700)
							batch = append(batch, PutRecord{
								Namespace: ns, Key: k,
								Value: stressVal(ns, k, round, sz),
							})
						}
						if err := r.dev.Put(batch); err != nil {
							t.Errorf("ns %d round %d put: %v", ns, round, err)
							return
						}
					}
				}
			})
		}

		// Readers race the writers; a hit must be a complete value from
		// some round (never a torn mix), a miss is fine early on.
		for i, ns := range nsIDs {
			for rd := 0; rd < readers; rd++ {
				i, ns, rd := i, ns, rd
				wg.Add(1)
				r.e.Go(fmt.Sprintf("reader-%d-%d", i, rd), func() {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(i*10 + rd)))
					for n := 0; n < rounds*keys/2; n++ {
						k := uint64(rng.Intn(keys))
						got, err := r.dev.Get(ns, k)
						if err != nil {
							if errors.Is(err, ErrKeyNotFound) {
								continue
							}
							t.Errorf("ns %d get %d: %v", ns, k, err)
							return
						}
						if !stressValOK(got, ns, k, rounds) {
							t.Errorf("ns %d key %d: torn value %x", ns, k, got[:16])
							return
						}
					}
				})
			}
		}

		// Snapshotters cut point-in-time copies mid-stream and verify the
		// clone serves complete values.
		for i, ns := range nsIDs[:2] {
			i, ns := i, ns
			wg.Add(1)
			r.e.Go(fmt.Sprintf("snapper-%d", i), func() {
				defer wg.Done()
				for n := 0; n < 3; n++ {
					r.e.Sleep(time.Duration(50*(n+1)) * time.Microsecond)
					snap, err := r.dev.SnapshotNamespace(ns)
					if err != nil {
						t.Errorf("snapshot ns %d: %v", ns, err)
						return
					}
					for k := uint64(0); k < keys; k += 7 {
						got, err := r.dev.Get(snap, k)
						if errors.Is(err, ErrKeyNotFound) {
							continue
						}
						if err != nil {
							t.Errorf("snap %d get %d: %v", snap, k, err)
							return
						}
						if !stressValOK(got, ns, k, rounds) {
							t.Errorf("snap %d key %d: torn value", snap, k)
							return
						}
					}
				}
			})
		}

		wg.Wait()
		if t.Failed() {
			return
		}
		// Quiescent check: every key holds its final round's value.
		r.dev.Flush()
		for _, ns := range nsIDs {
			for k := uint64(0); k < keys; k++ {
				got, err := r.dev.Get(ns, k)
				if err != nil {
					t.Errorf("final ns %d key %d: %v", ns, k, err)
					return
				}
				if !stressValRound(got, ns, k, rounds-1) {
					t.Errorf("final ns %d key %d: not last round's value", ns, k)
					return
				}
			}
		}
		st := r.dev.Stats()
		if st.GCErases == 0 {
			t.Error("stress never triggered GC; geometry too roomy to be a stress test")
		}
	})
	r.e.Wait()
}

// stressVal encodes (ns, key, round) in the first bytes and fills the rest
// from them so a torn read is detectable.
func stressVal(ns uint32, key uint64, round, size int) []byte {
	if size < 16 {
		size = 16
	}
	v := make([]byte, size)
	v[0] = byte(ns)
	v[1] = byte(key)
	v[2] = byte(round)
	for i := 3; i < size; i++ {
		v[i] = byte(int(v[0]) + int(v[1]) + int(v[2]) + i)
	}
	return v
}

func stressValRound(v []byte, ns uint32, key uint64, round int) bool {
	if len(v) < 16 || v[0] != byte(ns) || v[1] != byte(key) || v[2] != byte(round) {
		return false
	}
	for i := 3; i < len(v); i++ {
		if v[i] != byte(int(v[0])+int(v[1])+int(v[2])+i) {
			return false
		}
	}
	return true
}

func stressValOK(v []byte, ns uint32, key uint64, rounds int) bool {
	for round := 0; round < rounds; round++ {
		if stressValRound(v, ns, key, round) {
			return true
		}
	}
	return false
}

// BenchmarkConcurrentGets measures wall-clock scaling of read-only traffic
// spread across namespaces — the workload the per-namespace read locks
// exist for. Each worker count runs the same total number of Gets; before
// the lock decomposition every Get serialized on one device mutex.
// Telemetry is on (the default); compare against
// BenchmarkConcurrentGetsTelemetryOff for the instrumentation overhead,
// which must stay under 5%.
func BenchmarkConcurrentGets(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchConcurrentGets(b, workers, false)
		})
	}
}

// BenchmarkConcurrentGetsTelemetryOff is the same workload with the
// metrics registry disabled (nil instruments, timestamp reads skipped) —
// the baseline for the telemetry overhead budget.
func BenchmarkConcurrentGetsTelemetryOff(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchConcurrentGets(b, workers, true)
		})
	}
}

func benchConcurrentGets(b *testing.B, workers int, disableTelemetry bool) {
	const keys = 256
	e := sim.NewEngine()
	arr := flash.New(e, testFlashConfig())
	ctrl := nvme.New(e, nvme.DefaultConfig())
	cfg := DefaultConfig(testFlashConfig())
	cfg.NumLogs = 4
	cfg.DisableTelemetry = disableTelemetry
	dev := New(arr, ctrl, cfg)
	nsIDs := make([]uint32, workers)
	total := b.N * 512
	var wall time.Duration
	e.Go("bench-main", func() {
		defer dev.Close()
		for i := range nsIDs {
			ns, err := dev.CreateNamespace(NamespaceAttrs{})
			if err != nil {
				b.Errorf("create: %v", err)
				return
			}
			nsIDs[i] = ns
			for k := uint64(0); k < keys; k++ {
				if err := dev.Put(one(ns, k, val(k, 256))); err != nil {
					b.Errorf("put: %v", err)
					return
				}
			}
		}
		dev.Flush()

		start := time.Now()
		wg := e.NewWaitGroup()
		for w := 0; w < workers; w++ {
			w := w
			wg.Add(1)
			e.Go(fmt.Sprintf("bench-reader-%d", w), func() {
				defer wg.Done()
				ns := nsIDs[w]
				n := total / workers
				for i := 0; i < n; i++ {
					got, err := dev.Get(ns, uint64(i)%keys)
					if err != nil {
						b.Errorf("get: %v", err)
						return
					}
					if !bytes.Equal(got, val(uint64(i)%keys, 256)) {
						b.Error("value mismatch")
						return
					}
				}
			})
		}
		wg.Wait()
		wall = time.Since(start)
	})
	e.Wait()
	if b.Failed() {
		return
	}
	b.ReportMetric(float64(total)/wall.Seconds(), "gets/s")
}
