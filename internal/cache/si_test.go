package cache

import (
	"errors"
	"testing"
	"time"

	"github.com/kaml-ssd/kaml/internal/kamlssd"
	"github.com/kaml-ssd/kaml/internal/sim"
	"github.com/kaml-ssd/kaml/internal/storage"
)

func TestSIReadsPinnedSnapshot(t *testing.T) {
	withCache(t, 1<<20, 1, func(e *sim.Engine, c *Cache) {
		tbl, err := c.CreateTable("t", storage.TableHint{ExpectedRows: 100})
		if err != nil {
			t.Fatal(err)
		}
		seed := c.Begin()
		if err := seed.Insert(tbl, 1, []byte("v1")); err != nil {
			t.Fatal(err)
		}
		if err := seed.Commit(); err != nil {
			t.Fatal(err)
		}
		seed.Free()

		// Pin a snapshot, then overwrite through a later transaction.
		si := c.BeginSI()
		w := c.Begin()
		if err := w.Update(tbl, 1, []byte("v2")); err != nil {
			t.Fatal(err)
		}
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
		w.Free()

		// The SI transaction still sees its snapshot, repeatedly.
		for i := 0; i < 3; i++ {
			v, rerr := si.Read(tbl, 1)
			if rerr != nil || string(v) != "v1" {
				t.Fatalf("si read %d: %q %v, want v1", i, v, rerr)
			}
		}
		if err := si.Commit(); err != nil {
			t.Fatalf("read-only SI commit: %v", err)
		}
		si.Free()

		// A fresh snapshot sees the overwrite.
		si2 := c.BeginSI()
		v, rerr := si2.Read(tbl, 1)
		if rerr != nil || string(v) != "v2" {
			t.Fatalf("fresh si read: %q %v, want v2", v, rerr)
		}
		si2.Free()
	})
}

// A long-running SI reader and a stream of writers to the same key never
// conflict: the reader takes no locks, blocks nobody, and both sides
// commit (the ISSUE's read-write non-interference acceptance).
func TestSIReaderAndWriterBothSucceed(t *testing.T) {
	withCache(t, 1<<20, 1, func(e *sim.Engine, c *Cache) {
		tbl, err := c.CreateTable("t", storage.TableHint{ExpectedRows: 100})
		if err != nil {
			t.Fatal(err)
		}
		seed := c.Begin()
		for k := uint64(0); k < 8; k++ {
			if err := seed.Insert(tbl, k, []byte{byte('a' + k)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := seed.Commit(); err != nil {
			t.Fatal(err)
		}
		seed.Free()

		si := c.BeginSI()
		wg := e.NewWaitGroup()
		wg.Add(1)
		e.Go("writer", func() {
			defer wg.Done()
			for round := 0; round < 5; round++ {
				w := c.Begin()
				for k := uint64(0); k < 8; k++ {
					if err := w.Update(tbl, k, []byte{byte('A' + k), byte(round)}); err != nil {
						t.Errorf("writer round %d: %v", round, err)
						w.Abort()
						w.Free()
						return
					}
				}
				if err := w.Commit(); err != nil {
					t.Errorf("writer commit %d: %v", round, err)
				}
				w.Free()
			}
		})
		// Interleave snapshot reads with the writer's commits. Every read
		// must return the pre-writer value — and must never block or abort.
		for pass := 0; pass < 10; pass++ {
			for k := uint64(0); k < 8; k++ {
				v, rerr := si.Read(tbl, k)
				if rerr != nil {
					t.Fatalf("si read pass %d key %d: %v", pass, k, rerr)
				}
				if len(v) != 1 || v[0] != byte('a'+k) {
					t.Fatalf("si read pass %d key %d: got %v, want pre-writer value", pass, k, v)
				}
			}
			e.Sleep(DefaultHostOpCost)
		}
		wg.Wait()
		if err := si.Commit(); err != nil {
			t.Fatalf("si commit: %v", err)
		}
		si.Free()
	})
}

func TestSIFirstCommitterWins(t *testing.T) {
	withCache(t, 1<<20, 1, func(_ *sim.Engine, c *Cache) { lostUpdateAttempt(t, c) })
}

// TestOneCellPerEvent checks that the events with both a Stats() field and a
// registry series are one cell each: the three SI events, and the wait-die
// kills, which Stats() reads from the lock manager's backoff cell. After the
// lost-update schedule and one kill the two names read the same non-zero
// value, and Stats() still counts over a device with telemetry disabled.
// (The firmware's and the pipeline's such events have the same test in
// internal/kamlssd, the lock manager's in internal/lockmgr.)
func TestOneCellPerEvent(t *testing.T) {
	for _, disabled := range []bool{false, true} {
		e, c := newCacheOver(1<<20, 1, func(cfg *kamlssd.Config) { cfg.DisableTelemetry = disabled })
		e.Go("test", func() {
			defer c.Close()
			lostUpdateAttempt(t, c)
			dieOnce(t, c)
			st, reg := c.Stats(), c.dev.Telemetry()
			if (reg == nil) != disabled {
				t.Fatalf("Telemetry() = %v with DisableTelemetry=%v", reg, disabled)
			}
			for _, ev := range []struct {
				name          string
				stats, series int64
			}{
				{"SICommits", st.SICommits, reg.Counter("kaml_si_commits_total").Value()},
				{"SIAborts", st.SIAborts, reg.Counter("kaml_si_aborts_total").Value()},
				{"SIValidationFails", st.SIValidationFails, reg.Counter("kaml_si_validation_failures_total").Value()},
				{"Dies", st.Dies, reg.Counter("kaml_lockmgr_backoffs_total").Value()},
			} {
				if ev.stats == 0 {
					t.Errorf("DisableTelemetry=%v: Stats().%s = 0", disabled, ev.name)
				}
				if !disabled && ev.series != ev.stats {
					t.Errorf("%s: Stats() says %d, its registry series %d", ev.name, ev.stats, ev.series)
				}
			}
		})
		e.Wait()
	}
}

// dieOnce has a younger SS2PL writer meet an older one's X-lock: it dies
// (wait-die).
func dieOnce(t *testing.T, c *Cache) {
	tbl, err := c.CreateTable("die", storage.TableHint{ExpectedRows: 10})
	if err != nil {
		t.Fatal(err)
	}
	older, younger := c.Begin(), c.Begin()
	if err := older.Insert(tbl, 1, []byte("older")); err != nil {
		t.Fatal(err)
	}
	if err := younger.Insert(tbl, 1, []byte("younger")); !errors.Is(err, storage.ErrAborted) {
		t.Fatalf("younger writer against a held X-lock: %v, want ErrAborted", err)
	}
	younger.Free()
	if err := older.Commit(); err != nil {
		t.Fatal(err)
	}
	older.Free()
}

// lostUpdateAttempt runs the classic lost-update schedule — two SI
// transactions increment one counter from the same snapshot — and checks
// first-committer-wins stops the second. It leaves at least one SI commit,
// abort and validation failure counted.
func lostUpdateAttempt(t *testing.T, c *Cache) {
	tbl, err := c.CreateTable("t", storage.TableHint{ExpectedRows: 100})
	if err != nil {
		t.Fatal(err)
	}
	seed := c.Begin()
	if err := seed.Insert(tbl, 7, []byte{0}); err != nil {
		t.Fatal(err)
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}
	seed.Free()

	// Classic lost-update attempt: both read the counter under the same
	// snapshot, both try to increment. The second writer must abort.
	t1 := c.BeginSI()
	t2 := c.BeginSI()
	v1, _ := t1.Read(tbl, 7)
	v2, _ := t2.Read(tbl, 7)
	if v1[0] != 0 || v2[0] != 0 {
		t.Fatalf("setup reads: %v %v", v1, v2)
	}
	if err := t1.Update(tbl, 7, []byte{v1[0] + 1}); err != nil {
		t.Fatalf("t1 update: %v", err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatalf("t1 commit: %v", err)
	}
	t1.Free()
	err = t2.Update(tbl, 7, []byte{v2[0] + 1})
	if !errors.Is(err, storage.ErrAborted) {
		t.Fatalf("t2 update after t1 commit: err=%v, want ErrAborted", err)
	}
	t2.Free()

	// The committed value reflects exactly one increment.
	chk := c.BeginSI()
	v, rerr := chk.Read(tbl, 7)
	if rerr != nil || v[0] != 1 {
		t.Fatalf("final value: %v %v, want [1]", v, rerr)
	}
	chk.Free()

	st := c.Stats()
	if st.SIValidationFails < 1 {
		t.Fatalf("SIValidationFails = %d, want >= 1", st.SIValidationFails)
	}
	if st.SICommits < 1 || st.SIAborts < 1 {
		t.Fatalf("SICommits=%d SIAborts=%d, want both >= 1", st.SICommits, st.SIAborts)
	}
}

// With validation disabled (the model checker's defect-injection hook) the
// same schedule silently loses t1's increment — proving the hook arms a
// real lost update for the SI checker to catch.
func TestSIDisabledValidationLosesUpdate(t *testing.T) {
	withCache(t, 1<<20, 1, func(e *sim.Engine, c *Cache) {
		c.DisableSIValidation()
		tbl, err := c.CreateTable("t", storage.TableHint{ExpectedRows: 100})
		if err != nil {
			t.Fatal(err)
		}
		seed := c.Begin()
		if err := seed.Insert(tbl, 7, []byte{0}); err != nil {
			t.Fatal(err)
		}
		if err := seed.Commit(); err != nil {
			t.Fatal(err)
		}
		seed.Free()

		t1 := c.BeginSI()
		t2 := c.BeginSI()
		v1, _ := t1.Read(tbl, 7)
		v2, _ := t2.Read(tbl, 7)
		if err := t1.Update(tbl, 7, []byte{v1[0] + 1}); err != nil {
			t.Fatal(err)
		}
		if err := t1.Commit(); err != nil {
			t.Fatal(err)
		}
		t1.Free()
		if err := t2.Update(tbl, 7, []byte{v2[0] + 1}); err != nil {
			t.Fatalf("unvalidated update: %v", err)
		}
		if err := t2.Commit(); err != nil {
			t.Fatalf("unvalidated commit: %v", err)
		}
		t2.Free()

		chk := c.BeginSI()
		v, rerr := chk.Read(tbl, 7)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if v[0] != 1 {
			t.Fatalf("value = %d; the lost update should leave 1 (two increments collapsed)", v[0])
		}
		chk.Free()
	})
}

// SI and SS2PL transactions share one lock manager: an SI writer conflicts
// with an SS2PL X-lock on the same record and resolves per wait-die.
func TestSIWriterInteroperatesWithSS2PL(t *testing.T) {
	withCache(t, 1<<20, 1, func(e *sim.Engine, c *Cache) {
		tbl, err := c.CreateTable("t", storage.TableHint{ExpectedRows: 100})
		if err != nil {
			t.Fatal(err)
		}
		seed := c.Begin()
		if err := seed.Insert(tbl, 3, []byte("x")); err != nil {
			t.Fatal(err)
		}
		if err := seed.Commit(); err != nil {
			t.Fatal(err)
		}
		seed.Free()

		older := c.Begin() // smaller ts: wait-die winner
		si := c.BeginSI()  // younger
		if err := older.Update(tbl, 3, []byte("ss2pl")); err != nil {
			t.Fatal(err)
		}
		// Younger SI writer hits the held X-lock and dies.
		err = si.Update(tbl, 3, []byte("si"))
		if !errors.Is(err, storage.ErrAborted) {
			t.Fatalf("si update against held lock: %v, want ErrAborted", err)
		}
		si.Free()
		if err := older.Commit(); err != nil {
			t.Fatal(err)
		}
		older.Free()
	})
}

// newTable creates the one table the SI read tests write.
func newTable(t *testing.T, c *Cache) uint32 {
	t.Helper()
	tbl, err := c.CreateTable("t", storage.TableHint{ExpectedRows: 100})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// commitValue writes key = v through an SS2PL transaction.
func commitValue(t *testing.T, c *Cache, tbl uint32, key uint64, v string) {
	t.Helper()
	tx := c.Begin()
	if err := tx.Update(tbl, key, []byte(v)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx.Free()
}

// An SI read of a cached value committed at or before its snapshot is a
// DRAM probe: the host's per-operation cost and no device Get.
func TestSIReadOfACachedVersionSkipsTheDevice(t *testing.T) {
	withCache(t, 1<<20, 1, func(e *sim.Engine, c *Cache) {
		tbl := newTable(t, c)
		commitValue(t, c, tbl, 1, "v1")
		si := c.BeginSI()
		defer si.Free()
		gets, st := c.dev.Stats().Gets, c.Stats()
		start := e.Now()
		v, err := si.Read(tbl, 1)
		if took := e.Now() - start; err != nil || string(v) != "v1" || took != DefaultHostOpCost {
			t.Fatalf("SI read = %q, %v in %v; want v1 in %v", v, err, took, DefaultHostOpCost)
		}
		if n := c.dev.Stats().Gets - gets; n != 0 {
			t.Fatalf("SI read of a cached version issued %d device Gets, want 0", n)
		}
		if after := c.Stats(); after.Hits != st.Hits+1 || after.Misses != st.Misses {
			t.Fatalf("hits %d -> %d, misses %d -> %d; want one hit", st.Hits, after.Hits, st.Misses, after.Misses)
		}
	})
}

// A snapshot older than the cached version cannot use it: the read goes to
// the device and returns the version the snapshot sees.
func TestSIReadOlderThanTheCachedVersionReadsTheDevice(t *testing.T) {
	withCache(t, 1<<20, 1, func(e *sim.Engine, c *Cache) {
		tbl := newTable(t, c)
		commitValue(t, c, tbl, 1, "v1")
		si := c.BeginSI()
		defer si.Free()
		commitValue(t, c, tbl, 1, "v2") // cached, with a seq above si's snapshot
		gets, st := c.dev.Stats().Gets, c.Stats()
		v, err := si.Read(tbl, 1)
		if err != nil || string(v) != "v1" {
			t.Fatalf("SI read = %q, %v; want the snapshot's v1", v, err)
		}
		if n := c.dev.Stats().Gets - gets; n != 1 {
			t.Fatalf("SI read of a newer cached version issued %d device Gets, want 1", n)
		}
		if after := c.Stats(); after.Misses != st.Misses+1 || after.Hits != st.Hits {
			t.Fatalf("hits %d -> %d, misses %d -> %d; want one miss", st.Hits, after.Hits, st.Misses, after.Misses)
		}
	})
}

// A writer's group commit is visible to a snapshot taken before its
// completion reaches the host, while the cache still holds the old value. A
// commit therefore strips the cached entry's seq before its Put: an SI
// transaction that begins inside that window must read the new value from
// the device, not the old one from the cache.
func TestSIReadInsideAWritersCompletionSeesTheCommit(t *testing.T) {
	withCache(t, 1<<20, 1, func(e *sim.Engine, c *Cache) {
		tbl := newTable(t, c)
		commitValue(t, c, tbl, 1, "v1")
		old, err := c.dev.LatestCommittedSeq(tbl, 1)
		if err != nil {
			t.Fatal(err)
		}
		var doneAt time.Duration
		wg := e.NewWaitGroup()
		wg.Add(1)
		e.Go("writer", func() {
			defer wg.Done()
			commitValue(t, c, tbl, 1, "v2")
			doneAt = e.Now()
		})
		// Poll until the writer's group commit lands on the device.
		for {
			seq, err := c.dev.LatestCommittedSeq(tbl, 1)
			if err != nil {
				t.Fatal(err)
			}
			if seq > old {
				break
			}
			e.Sleep(time.Microsecond)
		}
		si := c.BeginSI()
		defer si.Free()
		begun := e.Now()
		v, err := si.Read(tbl, 1)
		if err != nil || string(v) != "v2" {
			t.Fatalf("SI read = %q, %v; want v2, committed before the snapshot", v, err)
		}
		wg.Wait()
		// The read's cache probe runs a host op after the begin; the
		// writer must still have been waiting for its completion then.
		if doneAt <= begun+DefaultHostOpCost {
			t.Fatalf("writer's commit returned at %v, before the read's probe at %v: the window was missed",
				doneAt, begun+DefaultHostOpCost)
		}
	})
}
