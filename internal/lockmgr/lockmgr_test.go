package lockmgr

import (
	"errors"
	"testing"
	"time"

	"github.com/kaml-ssd/kaml/internal/sim"
)

func TestSharedLocksCoexist(t *testing.T) {
	e := sim.NewEngine()
	m := New(e, 1)
	e.Go("test", func() {
		t1, t2 := m.NewTxn(1), m.NewTxn(2)
		if err := m.Acquire(t1, 0, 5, Shared); err != nil {
			t.Error(err)
		}
		if err := m.Acquire(t2, 0, 5, Shared); err != nil {
			t.Error(err)
		}
		m.ReleaseAll(t1)
		m.ReleaseAll(t2)
	})
	e.Wait()
}

func TestExclusiveConflictYoungerDies(t *testing.T) {
	e := sim.NewEngine()
	m := New(e, 1)
	e.Go("test", func() {
		older, younger := m.NewTxn(1), m.NewTxn(2)
		if err := m.Acquire(older, 0, 5, Exclusive); err != nil {
			t.Error(err)
		}
		if err := m.Acquire(younger, 0, 5, Exclusive); !errors.Is(err, ErrDie) {
			t.Errorf("younger should die, got %v", err)
		}
		if err := m.Acquire(younger, 0, 5, Shared); !errors.Is(err, ErrDie) {
			t.Errorf("younger shared vs X should die, got %v", err)
		}
		m.ReleaseAll(older)
	})
	e.Wait()
}

func TestOlderWaitsForYounger(t *testing.T) {
	e := sim.NewEngine()
	m := New(e, 1)
	var acquired time.Duration
	e.Go("test", func() {
		younger := m.NewTxn(10)
		if err := m.Acquire(younger, 0, 5, Exclusive); err != nil {
			t.Error(err)
		}
		e.Go("older", func() {
			older := m.NewTxn(1)
			if err := m.Acquire(older, 0, 5, Exclusive); err != nil {
				t.Error(err)
			}
			acquired = e.Now()
			m.ReleaseAll(older)
		})
		e.Sleep(5 * time.Millisecond)
		m.ReleaseAll(younger)
	})
	e.Wait()
	if acquired < 5*time.Millisecond {
		t.Fatalf("older acquired at %v, before younger released", acquired)
	}
}

func TestUpgradeSoleHolder(t *testing.T) {
	e := sim.NewEngine()
	m := New(e, 1)
	e.Go("test", func() {
		t1 := m.NewTxn(1)
		if err := m.Acquire(t1, 0, 5, Shared); err != nil {
			t.Error(err)
		}
		if err := m.Acquire(t1, 0, 5, Exclusive); err != nil {
			t.Errorf("sole-holder upgrade: %v", err)
		}
		// After upgrade, another reader conflicts.
		t2 := m.NewTxn(2)
		if err := m.Acquire(t2, 0, 5, Shared); !errors.Is(err, ErrDie) {
			t.Errorf("reader vs upgraded X: %v", err)
		}
		m.ReleaseAll(t1)
	})
	e.Wait()
}

func TestUpgradeConflictYoungerDies(t *testing.T) {
	e := sim.NewEngine()
	m := New(e, 1)
	e.Go("test", func() {
		older, younger := m.NewTxn(1), m.NewTxn(2)
		m.Acquire(older, 0, 5, Shared)
		m.Acquire(younger, 0, 5, Shared)
		// Younger tries to upgrade while older still holds S: dies.
		if err := m.Acquire(younger, 0, 5, Exclusive); !errors.Is(err, ErrDie) {
			t.Errorf("younger upgrade: %v", err)
		}
		m.ReleaseAll(older)
		m.ReleaseAll(younger)
	})
	e.Wait()
}

func TestGranularityGroupsKeys(t *testing.T) {
	e := sim.NewEngine()
	m := New(e, 16)
	e.Go("test", func() {
		older, younger := m.NewTxn(1), m.NewTxn(2)
		// Keys 0 and 15 share a lock unit at granularity 16.
		if err := m.Acquire(older, 0, 0, Exclusive); err != nil {
			t.Error(err)
		}
		if err := m.Acquire(younger, 0, 15, Exclusive); !errors.Is(err, ErrDie) {
			t.Errorf("same unit should conflict: %v", err)
		}
		// Key 16 is a different unit: no conflict.
		if err := m.Acquire(younger, 0, 16, Exclusive); err != nil {
			t.Errorf("different unit: %v", err)
		}
		// Different table, same unit number: no conflict.
		if err := m.Acquire(younger, 1, 0, Exclusive); err != nil {
			t.Errorf("different table: %v", err)
		}
		m.ReleaseAll(older)
		m.ReleaseAll(younger)
	})
	e.Wait()
}

func TestReleaseWakesWaiters(t *testing.T) {
	e := sim.NewEngine()
	m := New(e, 1)
	done := 0
	e.Go("test", func() {
		holder := m.NewTxn(100) // young holder
		m.Acquire(holder, 0, 1, Exclusive)
		wg := e.NewWaitGroup()
		for i := 0; i < 3; i++ {
			i := i
			wg.Add(1)
			e.Go("older", func() {
				defer wg.Done()
				tx := m.NewTxn(uint64(i + 1)) // older than holder: waits
				if err := m.Acquire(tx, 0, 1, Shared); err != nil {
					t.Errorf("older reader: %v", err)
					return
				}
				done++
				m.ReleaseAll(tx)
			})
		}
		e.Sleep(time.Millisecond)
		m.ReleaseAll(holder)
		wg.Wait()
	})
	e.Wait()
	if done != 3 {
		t.Fatalf("done=%d", done)
	}
}

func TestReacquireAfterReleaseAll(t *testing.T) {
	e := sim.NewEngine()
	m := New(e, 1)
	e.Go("test", func() {
		t1 := m.NewTxn(1)
		m.Acquire(t1, 0, 1, Exclusive)
		m.ReleaseAll(t1)
		if t1.Held() != 0 {
			t.Errorf("held=%d after release", t1.Held())
		}
		// Reuse of the same txn handle (wait-die retry pattern).
		if err := m.Acquire(t1, 0, 1, Exclusive); err != nil {
			t.Error(err)
		}
		m.ReleaseAll(t1)
	})
	e.Wait()
}

// A warm manager recycles what it empties: an SS2PL cycle — a transaction
// locking fresh lock units, upgrading one, then releasing everything —
// allocates nothing, because ReleaseAll clears the held set in place and a
// released lock record waits on the free list for the next fresh lock.
func TestWarmAcquireReleaseDoesNotAllocate(t *testing.T) {
	e := sim.NewEngine()
	m := New(e, 1)
	var got float64
	e.Go("test", func() {
		tx := m.NewTxn(1)
		var key uint64
		cycle := func() {
			for i := uint64(0); i < 4; i++ {
				if err := m.Acquire(tx, 0, key+i, Shared); err != nil {
					t.Error(err)
				}
			}
			if err := m.Acquire(tx, 0, key, Exclusive); err != nil {
				t.Error(err)
			}
			m.ReleaseAll(tx)
			key = (key + 4) % 64 // the next cycle's units are not this one's
		}
		for i := 0; i < 32; i++ {
			cycle()
		}
		got = testing.AllocsPerRun(100, cycle)
	})
	e.Wait()
	if got != 0 {
		t.Fatalf("a warm Acquire + ReleaseAll cycle allocates %.2f times, want 0", got)
	}
}

func TestStatsCount(t *testing.T) {
	e := sim.NewEngine()
	m := New(e, 1)
	e.Go("test", func() {
		older, younger := m.NewTxn(1), m.NewTxn(2)
		m.Acquire(older, 0, 1, Exclusive)
		m.Acquire(younger, 0, 1, Exclusive) // dies
		m.ReleaseAll(older)
	})
	e.Wait()
	acq, _, dies := m.Stats()
	if acq != 2 || dies != 1 {
		t.Fatalf("acq=%d dies=%d", acq, dies)
	}
}
