package sim

import (
	"strings"
	"sync/atomic"
	"time"
)

// waitQueue is the FIFO of actors parked on one primitive, linked through
// their tokens (parkToken.next). A parked actor waits on one primitive at a
// time, so a token is in at most one queue, and a park allocates no queue
// storage, however deep the queue grows.
type waitQueue struct {
	head, tail *parkToken
}

func (q *waitQueue) empty() bool { return q.head == nil }

func (q *waitQueue) push(tok *parkToken) {
	if q.tail == nil {
		q.head = tok
	} else {
		q.tail.next = tok
	}
	q.tail = tok
}

// pop removes the oldest waiter. The queue must not be empty.
func (q *waitQueue) pop() *parkToken {
	tok := q.head
	q.head, tok.next = tok.next, nil
	if q.head == nil {
		q.tail = nil
	}
	return tok
}

// wakeAllLocked wakes every waiter, oldest first, and returns how many.
func (q *waitQueue) wakeAllLocked(e *Engine) int {
	n := 0
	for ; !q.empty(); n++ {
		e.wake(q.pop())
	}
	return n
}

// Mutex is a FIFO mutual-exclusion lock for actors. FIFO ordering keeps the
// simulation deterministic and models a fair hardware arbiter (flash channel,
// controller bus). The zero value is not usable; create with NewMutex.
type Mutex struct {
	e       *Engine
	locked  bool
	why     string // park reason, "mutex:<name>"
	waiters waitQueue
}

// NewMutex returns an unlocked mutex owned by engine e.
func (e *Engine) NewMutex(name string) *Mutex {
	return &Mutex{e: e, why: "mutex:" + name}
}

func (m *Mutex) name() string { return strings.TrimPrefix(m.why, "mutex:") }

// Lock blocks the calling actor until the mutex is available.
func (m *Mutex) Lock() {
	if !m.locked {
		m.locked = true
		return
	}
	tok := m.e.token()
	m.waiters.push(tok)
	m.e.parkLocked(tok, m.why)
}

// Unlock releases the mutex, handing it directly to the oldest waiter.
func (m *Mutex) Unlock() {
	if !m.locked {
		panic("sim: unlock of unlocked Mutex " + m.name())
	}
	if !m.waiters.empty() {
		m.e.wake(m.waiters.pop()) // lock stays held, ownership transfers
	} else {
		m.locked = false
	}
}

// Use acquires the mutex, holds it for d of virtual time, and releases it.
// It models a resource (flash chip, bus) that serves requests serially.
func (m *Mutex) Use(d time.Duration) {
	m.Lock()
	m.e.Sleep(d)
	m.Unlock()
}

// Cond is a condition variable tied to a Mutex, with FIFO wakeup.
type Cond struct {
	L       *Mutex
	why     string // park reason, "cond:<mutex name>"
	waiters waitQueue
}

// NewCond returns a condition variable whose Wait releases and reacquires l.
func (e *Engine) NewCond(l *Mutex) *Cond { return &Cond{L: l, why: "cond:" + l.name()} }

// Wait atomically releases c.L, parks the actor until Signal/Broadcast,
// then reacquires c.L before returning.
func (c *Cond) Wait() { c.wait(false) }

// WaitIdle is Wait for a service actor with nothing to do: it waits for
// work, not for progress it has been promised. A simulation whose parked
// actors are all in idle waits is idle, not deadlocked (see the package
// comment) — so use it only where "nobody ever signals" is a legitimate
// outcome.
func (c *Cond) WaitIdle() { c.wait(true) }

func (c *Cond) wait(idle bool) {
	e := c.L.e
	tok := e.token()
	c.waiters.push(tok)
	c.L.Unlock()
	if idle {
		tok.idle = true
		e.idleParked++
	}
	e.parkLocked(tok, c.why)
	c.L.Lock()
}

// Signal wakes the oldest waiter, if any. Caller should hold c.L.
func (c *Cond) Signal() {
	if !c.waiters.empty() {
		c.L.e.wake(c.waiters.pop())
	}
}

// Broadcast wakes every waiter. Caller should hold c.L.
func (c *Cond) Broadcast() { c.waiters.wakeAllLocked(c.L.e) }

// Semaphore is a counting semaphore with FIFO handoff. It models pools of
// identical servers such as controller CPU cores or DMA engines.
type Semaphore struct {
	e       *Engine
	why     string // park reason, "sem:<name>"
	avail   int
	waiters waitQueue
}

// NewSemaphore returns a semaphore with n initial permits.
func (e *Engine) NewSemaphore(name string, n int) *Semaphore {
	if n < 0 {
		panic("sim: negative semaphore size")
	}
	return &Semaphore{e: e, why: "sem:" + name, avail: n}
}

// Acquire takes one permit, blocking if none are available.
func (s *Semaphore) Acquire() {
	if s.avail > 0 {
		s.avail--
		return
	}
	tok := s.e.token()
	s.waiters.push(tok)
	s.e.parkLocked(tok, s.why)
}

// Release returns one permit, handing it directly to the oldest waiter.
func (s *Semaphore) Release() {
	if !s.waiters.empty() {
		s.e.wake(s.waiters.pop()) // permit transfers to waiter
	} else {
		s.avail++
	}
}

// Use acquires a permit, holds it for d of virtual time, and releases it.
func (s *Semaphore) Use(d time.Duration) {
	s.Acquire()
	s.e.Sleep(d)
	s.Release()
}

// RWMutex is a writer-preferring readers-writer lock for actors.
type RWMutex struct {
	e            *Engine
	rwhy, wwhy   string // park reasons, "rwmutex-r:<name>" and "rwmutex-w:<name>"
	readers      int
	writer       bool
	readWaiters  waitQueue
	writeWaiters waitQueue
}

// NewRWMutex returns an unlocked RWMutex owned by engine e.
func (e *Engine) NewRWMutex(name string) *RWMutex {
	return &RWMutex{e: e, rwhy: "rwmutex-r:" + name, wwhy: "rwmutex-w:" + name}
}

func (m *RWMutex) name() string { return strings.TrimPrefix(m.rwhy, "rwmutex-r:") }

// RLock acquires a shared lock.
func (m *RWMutex) RLock() {
	if !m.writer && m.writeWaiters.empty() {
		m.readers++
		return
	}
	tok := m.e.token()
	m.readWaiters.push(tok)
	m.e.parkLocked(tok, m.rwhy)
}

// RUnlock releases a shared lock.
func (m *RWMutex) RUnlock() {
	m.readers--
	if m.readers < 0 {
		panic("sim: RUnlock without RLock on " + m.name())
	}
	if m.readers == 0 {
		m.promoteLocked()
	}
}

// Lock acquires the exclusive lock.
func (m *RWMutex) Lock() {
	if !m.writer && m.readers == 0 {
		m.writer = true
		return
	}
	tok := m.e.token()
	m.writeWaiters.push(tok)
	m.e.parkLocked(tok, m.wwhy)
}

// Unlock releases the exclusive lock.
func (m *RWMutex) Unlock() {
	if !m.writer {
		panic("sim: Unlock of unlocked RWMutex " + m.name())
	}
	m.writer = false
	m.promoteLocked()
}

// promoteLocked hands the lock to the next writer, or failing that to all
// queued readers. The lock is free.
func (m *RWMutex) promoteLocked() {
	e := m.e
	if !m.writeWaiters.empty() {
		m.writer = true
		e.wake(m.writeWaiters.pop())
		return
	}
	m.readers += m.readWaiters.wakeAllLocked(e)
}

// WaitGroup lets an actor wait for a set of actors to finish, on virtual time.
type WaitGroup struct {
	e       *Engine
	n       int
	waiters waitQueue
}

// NewWaitGroup returns an empty wait group.
func (e *Engine) NewWaitGroup() *WaitGroup { return &WaitGroup{e: e} }

// Add adds delta to the counter.
func (w *WaitGroup) Add(delta int) {
	w.n += delta
	if w.n < 0 {
		panic("sim: negative WaitGroup counter")
	}
	if w.n == 0 {
		w.waiters.wakeAllLocked(w.e)
	}
}

// Done decrements the counter by one.
func (w *WaitGroup) Done() { w.Add(-1) }

// Wait parks the calling actor until the counter reaches zero.
func (w *WaitGroup) Wait() {
	if w.n == 0 {
		return
	}
	tok := w.e.token()
	w.waiters.push(tok)
	w.e.parkLocked(tok, "waitgroup")
}

// Latch is a one-shot event: Wait parks the calling actor until the latch
// opens, and every Wait after that returns at once. It is what a completion
// future needs and nothing more — no mutex to hold, no predicate to re-test —
// so it lives inside the structure it guards: the zero value is a closed
// latch, and neither opening it nor a Wait that parks on it allocates.
//
// A latch opens now (Open) or at a later instant of the virtual clock
// (OpenAt): then IsOpen stays false until that instant, and every waiter —
// parked before the call or arriving after it — sleeps on the engine's timer
// heap until it. A completion that the device has decided but the host sees
// only after a transfer is such an event: its opener goes on with its work
// instead of sleeping through the transfer.
//
// Opening is lock-free when nobody waits. The two atomics close the race
// between them: a waiter marks the latch waited on, on the owner's path,
// before it tests open; OpenAt stores the instant and then open before it
// tests waited. Whichever store comes first in the (sequentially
// consistent) order, either the waiter sees the latch open, with its
// instant, and does not queue, or OpenAt sees the mark and takes the engine
// lock. With the hub up, OpenAt posts the opening, and the owner applies it
// no sooner than the waiter's park, after the waiter is queued.
type Latch struct {
	open   atomic.Bool
	at     atomic.Int64 // the instant the latch opens; stored before open
	waited atomic.Bool
	// The actors parked before the latch was opened, the engine owner's.
	waiters waitQueue
}

// IsOpen reports whether the latch is open at e's current instant.
func (l *Latch) IsOpen(e *Engine) bool {
	return l.open.Load() && time.Duration(l.at.Load()) <= e.NowCheap()
}

// Wait parks the calling actor until the latch is open.
func (l *Latch) Wait(e *Engine) {
	if l.IsOpen(e) {
		return
	}
	e.takeIn()
	l.waited.Store(true)
	// One look at open: a latch that opens after it must find this waiter
	// queued, not on a timer of its own.
	open := l.open.Load()
	at := time.Duration(l.at.Load())
	if open && at <= e.now {
		return
	}
	tok := e.token()
	if open {
		l.wakeAtLocked(e, tok, at)
	} else {
		l.waiters.push(tok)
	}
	e.parkLocked(tok, "latch")
}

// Open opens the latch now and wakes every actor parked on it, oldest first.
// Idempotent; callable from inside or outside the simulation.
func (l *Latch) Open(e *Engine) { l.OpenAt(e, 0) }

// OpenAt opens the latch at virtual instant at — now, if at has passed. The
// actors parked on it wake at that instant, oldest first, each on a timer
// of its own. A latch opens once: call OpenAt (or Open, any number of
// times) on it, not both. Callable from inside or outside the simulation.
func (l *Latch) OpenAt(e *Engine, at time.Duration) {
	l.at.Store(int64(at))
	l.open.Store(true)
	if !l.waited.Load() {
		return
	}
	e.mu.Lock()
	if e.hubUp {
		e.postLocked(post{latch: l, at: at})
	} else {
		l.releaseLocked(e, at)
	}
	e.mu.Unlock()
}

// releaseLocked wakes the actors parked on l at instant at, oldest first,
// and lets the engine pick what runs next if no actor runs: an opening
// from outside with every actor parked.
func (l *Latch) releaseLocked(e *Engine, at time.Duration) {
	for !l.waiters.empty() {
		l.wakeAtLocked(e, l.waiters.pop(), at)
	}
	if e.runnable == 0 {
		e.unblockLocked()
	}
}

// wakeAtLocked wakes a parked (or parking) waiter at instant at: now if it
// has passed, otherwise on a timer in the engine's heap.
func (l *Latch) wakeAtLocked(e *Engine, tok *parkToken, at time.Duration) {
	if at <= e.now {
		e.wakeLocked(tok)
		return
	}
	e.seq++
	e.timers.push(timer{when: at, seq: e.seq, tok: tok})
}
