// Package lockmgr is the host-side lock manager shared by the KAML caching
// layer and the Shore-MT baseline (§V-A: both use the same lock manager).
//
// It implements strong strict two-phase locking (SS2PL): transactions
// acquire shared or exclusive locks as they touch records and hold them
// until commit or abort. Deadlock is avoided with the wait-die scheme —
// an older transaction (smaller timestamp) waits for a younger holder, a
// younger requester dies (ErrDie) and must be retried by the application.
//
// The locking granularity is configurable: RecordsPerLock = 1 gives the
// record-level locks KAML argues for; larger values emulate coarse locks
// (16 records per lock in Fig. 9, or a whole page for Shore-MT's
// page-level mode). Lock IDs are (table, key/RecordsPerLock).
package lockmgr

import (
	"errors"
	"fmt"
	"time"

	"github.com/kaml-ssd/kaml/internal/sim"
	"github.com/kaml-ssd/kaml/internal/telemetry"
)

// ErrDie reports a wait-die abort: the requester is younger than a
// conflicting holder and must abort and retry.
var ErrDie = errors.New("lockmgr: wait-die abort")

// DieBackoff is the yield a killed transaction must take AFTER releasing
// its locks and before retrying (models abort bookkeeping, prevents retry
// busy-loops from starving the virtual clock, and gives blocked older
// transactions a lock-free window to make progress). Engines sleep this in
// their die paths; sleeping before release would let a stream of retrying
// lock holders starve an older waiter forever.
const DieBackoff = 5 * time.Microsecond

// Backoff parks the calling actor for the wait-die retry backoff.
func (m *Manager) Backoff() {
	m.mu.Lock()
	c := m.cBackoffs
	m.mu.Unlock()
	if c != nil {
		c.Inc()
	}
	m.eng.Sleep(DieBackoff)
}

// Mode is a lock mode.
type Mode int

// Lock modes.
const (
	Shared Mode = iota
	Exclusive
)

func (m Mode) String() string {
	if m == Exclusive {
		return "X"
	}
	return "S"
}

// LockID names one lockable unit.
type LockID struct {
	Table uint32
	Unit  uint64
}

// Manager is the lock table. It recycles what it empties: a released lock
// record goes on a free list with its maps emptied, and ReleaseAll clears a
// transaction's held set in place, so a warm manager's Acquire and
// ReleaseAll allocate nothing.
type Manager struct {
	eng            *sim.Engine
	mu             *sim.Mutex
	cv             *sim.Cond
	recordsPerLock uint64
	locks          map[LockID]*lockState
	free           []*lockState // released lock records, both maps empty

	acquires, waits, dies int64

	// Telemetry instruments, nil until Instrument is called (scrape-free
	// workloads pay nothing). Guarded by m.mu.
	cAcquires, cWaits, cDies, cBackoffs *telemetry.Counter
}

// Instrument registers the lock manager's counters in r and starts
// exporting: kaml_lockmgr_acquires_total, kaml_lockmgr_waits_total,
// kaml_lockmgr_dies_total (wait-die kills), and
// kaml_lockmgr_backoffs_total (post-die retry backoffs). Counts accumulated
// before the call are exported retroactively. A nil registry is a no-op.
func (m *Manager) Instrument(r *telemetry.Registry) {
	if r == nil {
		return
	}
	r.Help("kaml_lockmgr_acquires_total", "Lock acquisitions requested (includes re-acquires and upgrades).")
	r.Help("kaml_lockmgr_waits_total", "Acquire passes that parked waiting for a conflicting holder.")
	r.Help("kaml_lockmgr_dies_total", "Wait-die aborts: younger requesters killed by an older holder.")
	r.Help("kaml_lockmgr_backoffs_total", "Retry backoffs taken by killed transactions before re-running.")
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cAcquires = r.Counter("kaml_lockmgr_acquires_total")
	m.cWaits = r.Counter("kaml_lockmgr_waits_total")
	m.cDies = r.Counter("kaml_lockmgr_dies_total")
	m.cBackoffs = r.Counter("kaml_lockmgr_backoffs_total")
	m.cAcquires.Add(m.acquires)
	m.cWaits.Add(m.waits)
	m.cDies.Add(m.dies)
}

type lockState struct {
	// holders maps transaction timestamp -> mode. Multiple Shared holders
	// may coexist; an Exclusive holder is alone.
	holders map[uint64]Mode
	// waiting maps the timestamps of transactions parked in Acquire to the
	// mode they want. Waiting Exclusive requests participate in conflict
	// detection: without this, a stream of young Shared acquirers can be
	// admitted over an older parked upgrader forever (S-over-X starvation,
	// the livelock wait-die alone does not prevent).
	waiting map[uint64]Mode
}

// New returns a manager on engine e with the given locking granularity
// (records covered by one lock; minimum 1).
func New(e *sim.Engine, recordsPerLock int) *Manager {
	if recordsPerLock < 1 {
		recordsPerLock = 1
	}
	m := &Manager{
		eng:            e,
		recordsPerLock: uint64(recordsPerLock),
		locks:          make(map[LockID]*lockState),
	}
	m.mu = e.NewMutex("lockmgr")
	m.cv = e.NewCond(m.mu)
	return m
}

// RecordsPerLock returns the configured granularity.
func (m *Manager) RecordsPerLock() int { return int(m.recordsPerLock) }

// id maps a record to its lock unit.
func (m *Manager) id(table uint32, key uint64) LockID {
	return LockID{Table: table, Unit: key / m.recordsPerLock}
}

// Txn is the lock manager's view of one transaction. TS is its wait-die
// priority (smaller = older = higher priority); on retry after ErrDie the
// application should reuse the same Txn so the timestamp ages.
type Txn struct {
	TS   uint64
	held map[LockID]Mode
}

// NewTxn returns a transaction handle with the given timestamp.
func (m *Manager) NewTxn(ts uint64) *Txn {
	return &Txn{TS: ts, held: make(map[LockID]Mode)}
}

// starvationLimit is how long (virtual time) one Acquire may wait before
// the manager reports a livelock with a lock-table dump. A healthy
// workload resolves conflicts in micro- to milliseconds of virtual time.
const starvationLimit = 2 * time.Second

// Acquire takes the lock covering (table, key) in the given mode, blocking
// per wait-die. It returns ErrDie if the transaction must abort. Upgrades
// from Shared to Exclusive are supported.
func (m *Manager) Acquire(t *Txn, table uint32, key uint64, mode Mode) error {
	id := m.id(table, key)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.acquires++
	if m.cAcquires != nil {
		m.cAcquires.Inc()
	}

	if have, ok := t.held[id]; ok {
		if have == Exclusive || mode == Shared {
			return nil // already strong enough
		}
		// Shared -> Exclusive upgrade handled by the conflict loop below.
	}

	start := m.eng.NowCheap()
	registered := false
	defer func() {
		if registered {
			if ls := m.locks[id]; ls != nil {
				delete(ls.waiting, t.TS)
				m.cleanupLocked(id, ls)
			}
		}
	}()
	for {
		if m.eng.NowCheap()-start > starvationLimit {
			state := ""
			if ls := m.locks[id]; ls != nil {
				for ts, hm := range ls.holders {
					state += fmt.Sprintf(" held:ts=%d/%s", ts, hm)
				}
				for ts, wm := range ls.waiting {
					state += fmt.Sprintf(" wait:ts=%d/%s", ts, wm)
				}
			}
			panic(fmt.Sprintf("lockmgr: ts %d starved %v waiting for %v/%s;%s",
				t.TS, m.eng.Now()-start, id, mode, state))
		}
		ls := m.locks[id]
		if ls == nil {
			ls = m.newLockStateLocked()
			m.locks[id] = ls
		}
		conflict := false
		mustDie := false
		for ts, hm := range ls.holders {
			if ts == t.TS {
				continue // our own (upgrade)
			}
			if mode == Exclusive || hm == Exclusive {
				conflict = true
				if t.TS > ts {
					mustDie = true // younger requester dies
				}
			}
		}
		// Older parked Exclusive requests also block (and kill) us, so an
		// upgrader cannot be starved by freshly admitted Shared holders.
		for ts, wm := range ls.waiting {
			if ts == t.TS || wm != Exclusive {
				continue
			}
			if ts < t.TS {
				conflict = true
				mustDie = true
			}
		}
		if !conflict {
			ls.holders[t.TS] = maxMode(ls.holders[t.TS], mode, t.held[id])
			t.held[id] = ls.holders[t.TS]
			return nil
		}
		if mustDie {
			m.dies++
			if m.cDies != nil {
				m.cDies.Inc()
			}
			return fmt.Errorf("%w: ts %d on %v/%s", ErrDie, t.TS, id, mode)
		}
		m.waits++
		if m.cWaits != nil {
			m.cWaits.Inc()
		}
		if !registered {
			ls.waiting[t.TS] = mode
			registered = true
		}
		m.cv.Wait()
	}
}

// cleanupLocked drops the lock record once neither holders nor waiters
// remain, onto the free list. Nobody keeps a record across a wait — Acquire
// looks its lock up again after every wake-up — so a freed record is
// unreachable. Caller holds m.mu.
func (m *Manager) cleanupLocked(id LockID, ls *lockState) {
	if len(ls.holders) == 0 && len(ls.waiting) == 0 {
		delete(m.locks, id)
		m.free = append(m.free, ls)
	}
}

// newLockStateLocked returns an empty lock record, recycled when the free
// list has one. Caller holds m.mu.
func (m *Manager) newLockStateLocked() *lockState {
	if n := len(m.free); n > 0 {
		ls := m.free[n-1]
		m.free = m.free[:n-1]
		return ls
	}
	return &lockState{holders: make(map[uint64]Mode), waiting: make(map[uint64]Mode)}
}

func maxMode(ms ...Mode) Mode {
	out := Shared
	for _, m := range ms {
		if m == Exclusive {
			out = Exclusive
		}
	}
	return out
}

// ReleaseAll drops every lock the transaction holds (commit or abort under
// SS2PL releases everything at once).
func (m *Manager) ReleaseAll(t *Txn) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for id := range t.held {
		ls := m.locks[id]
		if ls != nil {
			delete(ls.holders, t.TS)
			m.cleanupLocked(id, ls)
		}
	}
	clear(t.held)
	m.cv.Broadcast()
}

// Held reports the modes currently held (diagnostics).
func (t *Txn) Held() int { return len(t.held) }

// Stats reports cumulative acquire/wait/die counts.
func (m *Manager) Stats() (acquires, waits, dies int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.acquires, m.waits, m.dies
}
