package experiments

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"github.com/kaml-ssd/kaml/internal/storage"
)

// SISweep compares the cache layer's two isolation levels — SS2PL
// (Cache.Begin, serializable, S-locks on reads) and snapshot isolation
// (Cache.BeginSI, lock-free snapshot reads, first-committer-wins writes) —
// under the workloads where they differ:
//
//   - Hot-key read-modify-write: N workers all increment keys drawn from a
//     hot set. Both levels must serialize the writes; the interesting
//     series is the abort rate (wait-die deaths vs validation failures)
//     and the committed-transaction rate as contention rises.
//   - Reader coexistence: RMW writers plus full-table scanning readers.
//     SS2PL scans S-lock every record and fight the writers; SI scans run
//     against a pinned snapshot and cost the writers nothing.
func SISweep(s Scale) []*Table {
	return []*Table{siRMWTable(s), siReaderTable(s)}
}

const (
	siWorkers   = 8
	siTotalKeys = 64
	siScanKeys  = 16 // one scan pass covers the hot set plus a cold tail
	siValueSize = 256
)

func siWindows(s Scale) (warm, window time.Duration) {
	warm = time.Duration(float64(5*time.Millisecond) * float64(s))
	window = time.Duration(float64(80*time.Millisecond) * float64(s))
	if warm < 1*time.Millisecond {
		warm = 1 * time.Millisecond
	}
	if window < 10*time.Millisecond {
		window = 10 * time.Millisecond
	}
	return warm, window
}

// siCounters are one measurement window's outcomes, counted only while the
// window is open.
type siCounters struct {
	commits int64
	aborts  int64
	scans   int64
}

// siBench runs writers (and optionally readers) against a fresh KAML cache
// rig and returns the window's counters. Writers are measure's workers
// 0..writers-1 and run hot-key RMW transactions; the readers follow them and
// scan the whole table in one transaction per pass. One measured op is one
// committed transaction: its aborted attempts are retried inside the op and
// counted while the window is open.
func siBench(s Scale, si bool, hotKeys, writers, readers int) *siCounters {
	warm, window := siWindows(s)
	rig := newOLTPRig(engineKAML, oltpFlash(), int64(siTotalKeys*siValueSize*2), 1, 1, 0)
	ctr := &siCounters{}
	rig.eng.Go("main", func() {
		defer rig.closeFn()
		c := rig.kaml
		tbl, err := c.CreateTable("t", storage.TableHint{ExpectedRows: siTotalKeys})
		if err != nil {
			return
		}
		seed := c.Begin()
		for k := uint64(0); k < siTotalKeys; k++ {
			if err := seed.Insert(tbl, k, siVal(k, 0)); err != nil {
				return
			}
		}
		if err := seed.Commit(); err != nil {
			return
		}
		seed.Free()

		begin := func() storage.Tx {
			if si {
				return c.BeginSI()
			}
			return c.Begin()
		}
		gens := make([]uint64, writers)
		measure(rig.eng, writers+readers, warm, window, func(w int, rng *rand.Rand, open func() bool) bool {
			for {
				tx := begin()
				var err error
				if w < writers {
					gens[w]++
					err = siRMW(tx, tbl, uint64(rng.Intn(hotKeys)), gens[w])
				} else {
					err = siScan(tx, tbl)
				}
				tx.Free()
				if errors.Is(err, storage.ErrAborted) {
					if open() {
						ctr.aborts++
					}
					continue
				}
				if err == nil && open() {
					if w < writers {
						ctr.commits++
					} else {
						ctr.scans++
					}
				}
				return err == nil
			}
		})
	})
	rig.eng.Wait()
	return ctr
}

func siVal(key, gen uint64) []byte {
	v := make([]byte, siValueSize)
	v[0], v[1] = byte(key), byte(gen)
	return v
}

// siRMW is one read-modify-write transaction: read the hot key, write it
// back, commit. Any abort (wait-die under SS2PL, held lock or validation
// failure under SI) surfaces as storage.ErrAborted.
func siRMW(tx storage.Tx, tbl uint32, k, gen uint64) error {
	if _, err := tx.Read(tbl, k); err != nil && !errors.Is(err, storage.ErrNotFound) {
		if !errors.Is(err, storage.ErrAborted) {
			tx.Abort()
		}
		return err
	}
	if err := tx.Update(tbl, k, siVal(k, gen)); err != nil {
		return err
	}
	return tx.Commit()
}

// siScan reads the first siScanKeys records (the hot set plus a cold
// tail) in one transaction — under SS2PL that S-locks each record until
// commit; under SI it touches no locks. SI reads take a value from the DRAM
// record cache when it is their snapshot's version, so a snapshot scan pays
// a device read only for the keys rewritten since its snapshot — the honest
// cost of time-travel reads.
func siScan(tx storage.Tx, tbl uint32) error {
	for k := uint64(0); k < siScanKeys; k++ {
		if _, err := tx.Read(tbl, k); err != nil && !errors.Is(err, storage.ErrNotFound) {
			if !errors.Is(err, storage.ErrAborted) {
				tx.Abort()
			}
			return err
		}
	}
	return tx.Commit()
}

func siRMWTable(s Scale) *Table {
	_, window := siWindows(s)
	t := &Table{
		ID:    "sisweep",
		Title: fmt.Sprintf("hot-key RMW: SS2PL vs snapshot isolation (%d writers)", siWorkers),
		Header: []string{"hot_keys", "ss2pl_txn_s", "ss2pl_abort_rate",
			"si_txn_s", "si_abort_rate"},
	}
	hotSets := []int{1, 2, 4, 16, 64}
	type cell struct{ ss, si *siCounters }
	cells := make([]cell, len(hotSets))
	runCells(len(hotSets)*2, func(i int) {
		hi, si := i/2, i%2 == 1
		ctr := siBench(s, si, hotSets[hi], siWorkers, 0)
		if si {
			cells[hi].si = ctr
		} else {
			cells[hi].ss = ctr
		}
	})
	rate := func(c *siCounters) string {
		total := c.commits + c.aborts
		if total == 0 {
			return "0.000"
		}
		return fmt.Sprintf("%.3f", float64(c.aborts)/float64(total))
	}
	for hi, hot := range hotSets {
		c := cells[hi]
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", hot),
			fmt.Sprintf("%.0f", float64(c.ss.commits)/window.Seconds()),
			rate(c.ss),
			fmt.Sprintf("%.0f", float64(c.si.commits)/window.Seconds()),
			rate(c.si),
		})
	}
	t.Notes = append(t.Notes,
		"RMW = read hot key, write it back, commit; aborts are wait-die deaths (SS2PL) or first-committer-wins validation failures (SI)",
		"write-write conflicts abort under both levels: SI removes read conflicts only, so hot-key RMW abort rates stay comparable",
		"SI snapshot reads hit the DRAM record cache when it holds their snapshot's version; a key rewritten since the snapshot costs a device read, so SI's rate trails SS2PL's a little once locks stop dominating")
	return t
}

func siReaderTable(s Scale) *Table {
	_, window := siWindows(s)
	t := &Table{
		ID:     "sisweep-readers",
		Title:  fmt.Sprintf("RMW writers + full-table scan readers (%d writers, 2 readers, hot=4)", siWorkers),
		Header: []string{"mode", "writer_txn_s", "scans_s", "abort_rate"},
		Notes:  nil,
	}
	var cells [2]*siCounters
	runCells(2, func(i int) {
		cells[i] = siBench(s, i == 1, 4, siWorkers, 2)
	})
	for i, mode := range []string{"ss2pl", "si"} {
		c := cells[i]
		total := c.commits + c.scans + c.aborts
		rate := 0.0
		if total > 0 {
			rate = float64(c.aborts) / float64(total)
		}
		t.Rows = append(t.Rows, []string{mode,
			fmt.Sprintf("%.0f", float64(c.commits)/window.Seconds()),
			fmt.Sprintf("%.0f", float64(c.scans)/window.Seconds()),
			fmt.Sprintf("%.3f", rate),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("SS2PL scans S-lock %d records until commit, so scans and writers abort each other (wait-die)", siScanKeys),
		"SI scans read a pinned snapshot: no locks, no aborts from read traffic — compare writer_txn_s against the hot=4 row above",
		"an SI scan reads from the DRAM cache every key not rewritten since its snapshot, and pays a device read for each hot key that was")
	return t
}
