package kamlssd

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/kaml-ssd/kaml/internal/flash"
	"github.com/kaml-ssd/kaml/internal/record"
)

// putRoofline is the most Put payload NumLogs logs can deliver: each log's
// flusher programs one page at a time, so a log moves one page of records
// per program plus its transfer, and a page holds as many whole records as
// fit in its chunks.
func putRoofline(fc flash.Config, logs, valueSize int) (bytesPerSec float64) {
	perPage := fc.PageSize / chunkSize / record.Record{Value: make([]byte, valueSize)}.Chunks(chunkSize)
	page := fc.ProgramLatency + fc.TransferTime(fc.PageSize+fc.OOBSize)
	return float64(logs*perPage*valueSize) / page.Seconds()
}

// Fig 8's load: 64 writers of 512 B single-record Puts over the benchmark's
// geometry (64 chips, 16 blocks of 32 pages). With one sequential flusher per
// log, delivered bandwidth is bounded by the logs' program roofline, and it
// must reach it: a flusher that waits behind its own collector's erases, or
// writers that sleep while a log has room, or a coalescer that sleeps
// through each completion's transfer, leave programs unissued. At 16 logs
// the writers are the surplus; at 64 every chip is a log of its own.
func TestPutsReachTheProgramRoofline(t *testing.T) {
	const (
		writers   = 64
		valueSize = 512
		keys      = 1000
		warm      = 5 * time.Millisecond
		window    = 50 * time.Millisecond
	)
	fc := flash.DefaultConfig()
	fc.BlocksPerChip, fc.PagesPerBlock = 16, 32
	for _, logs := range []int{16, 64} {
		t.Run(fmt.Sprintf("%d logs", logs), func(t *testing.T) {
			r := newSerialRig(1, fc, func(c *Config) { c.NumLogs = logs })
			var ops int64
			r.e.Go("test", func() {
				d := r.dev
				defer d.Close()
				ns, _ := d.CreateNamespace(NamespaceAttrs{IndexCapacity: 4 * keys})
				v := make([]byte, valueSize)
				for k := uint64(0); k < keys; k++ {
					if err := d.Put(one(ns, k, v)); err != nil {
						t.Errorf("preload: %v", err)
						return
					}
				}
				d.Flush()
				start := r.e.Now()
				from, until := start+warm, start+warm+window
				wg := r.e.NewWaitGroup()
				for w := 0; w < writers; w++ {
					wg.Add(1)
					r.e.Go(fmt.Sprintf("writer-%d", w), func() {
						defer wg.Done()
						rng := rand.New(rand.NewSource(int64(w)))
						for r.e.Now() < until {
							if err := d.Put(one(ns, uint64(rng.Intn(keys)), v)); err != nil {
								t.Errorf("writer %d: %v", w, err)
								return
							}
							if now := r.e.Now(); now > from && now <= until {
								ops++
							}
						}
					})
				}
				wg.Wait()
			})
			r.e.Wait()
			got := float64(ops*valueSize) / window.Seconds()
			bound := putRoofline(fc, logs, valueSize)
			t.Logf("%d logs deliver %.1f MB/s, %.1f %% of the program roofline's %.1f MB/s",
				logs, got/1e6, 100*got/bound, bound/1e6)
			if got < 0.93*bound || got > 1.02*bound {
				t.Errorf("%d logs deliver %.1f MB/s, want within 0.93-1.02 of the program roofline %.1f MB/s",
					logs, got/1e6, bound/1e6)
			}
		})
	}
}
