package sim

import (
	"sync/atomic"
	"time"
)

// waitQueue is the FIFO of actors parked on one primitive. It keeps its
// storage across parks — a pop advances head instead of re-slicing the
// array away, and a push compacts before it would grow — so a primitive
// that parks allocates nothing once its queue has reached its usual depth.
type waitQueue struct {
	toks []*parkToken
	head int
}

func (q *waitQueue) len() int { return len(q.toks) - q.head }

func (q *waitQueue) push(tok *parkToken) {
	if q.head > 0 && len(q.toks) == cap(q.toks) {
		n := copy(q.toks, q.toks[q.head:])
		clear(q.toks[n:])
		q.toks, q.head = q.toks[:n], 0
	}
	q.toks = append(q.toks, tok)
}

// pop removes the oldest waiter. The queue must not be empty.
func (q *waitQueue) pop() *parkToken {
	tok := q.toks[q.head]
	q.toks[q.head] = nil
	q.head++
	if q.head == len(q.toks) {
		q.toks, q.head = q.toks[:0], 0
	}
	return tok
}

// wakeAllLocked wakes every waiter, oldest first. Caller holds e.mu.
func (q *waitQueue) wakeAllLocked(e *Engine) {
	for q.len() > 0 {
		e.wakeLocked(q.pop())
	}
}

// Mutex is a FIFO mutual-exclusion lock for actors. FIFO ordering keeps the
// simulation deterministic and models a fair hardware arbiter (flash channel,
// controller bus). The zero value is not usable; create with NewMutex.
type Mutex struct {
	e       *Engine
	locked  bool
	name    string
	why     string // park reason, "mutex:<name>"
	waiters waitQueue
}

// NewMutex returns an unlocked mutex owned by engine e.
func (e *Engine) NewMutex(name string) *Mutex {
	return &Mutex{e: e, name: name, why: "mutex:" + name}
}

// Lock blocks the calling actor until the mutex is available.
func (m *Mutex) Lock() {
	e := m.e
	e.mu.Lock()
	if !m.locked {
		m.locked = true
		e.mu.Unlock()
		return
	}
	tok := newParkToken()
	m.waiters.push(tok)
	e.blockLocked(tok, m.why)
	e.mu.Unlock()
	tok.park()
}

// Unlock releases the mutex, handing it directly to the oldest waiter.
func (m *Mutex) Unlock() {
	e := m.e
	e.mu.Lock()
	if !m.locked {
		e.mu.Unlock()
		panic("sim: unlock of unlocked Mutex " + m.name)
	}
	m.unlockLocked()
	e.mu.Unlock()
}

// unlockLocked releases a held mutex: ownership transfers to the oldest
// waiter if there is one. Caller holds e.mu.
func (m *Mutex) unlockLocked() {
	if m.waiters.len() > 0 {
		m.e.wakeLocked(m.waiters.pop()) // lock stays held, ownership transfers
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
func (e *Engine) NewCond(l *Mutex) *Cond { return &Cond{L: l, why: "cond:" + l.name} }

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
	tok := newParkToken()
	e.mu.Lock()
	c.waiters.push(tok)
	c.L.unlockLocked()
	if idle {
		tok.idle = true
		e.idleParked++
	}
	e.blockLocked(tok, c.why)
	e.mu.Unlock()
	tok.park()
	c.L.Lock()
}

// Signal wakes the oldest waiter, if any. Caller should hold c.L.
func (c *Cond) Signal() {
	e := c.L.e
	e.mu.Lock()
	if c.waiters.len() > 0 {
		e.wakeLocked(c.waiters.pop())
	}
	e.mu.Unlock()
}

// Broadcast wakes every waiter. Caller should hold c.L.
func (c *Cond) Broadcast() {
	e := c.L.e
	e.mu.Lock()
	c.waiters.wakeAllLocked(e)
	e.mu.Unlock()
}

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
	e := s.e
	e.mu.Lock()
	if s.avail > 0 {
		s.avail--
		e.mu.Unlock()
		return
	}
	tok := newParkToken()
	s.waiters.push(tok)
	e.blockLocked(tok, s.why)
	e.mu.Unlock()
	tok.park()
}

// Release returns one permit, handing it directly to the oldest waiter.
func (s *Semaphore) Release() {
	e := s.e
	e.mu.Lock()
	if s.waiters.len() > 0 {
		e.wakeLocked(s.waiters.pop()) // permit transfers to waiter
	} else {
		s.avail++
	}
	e.mu.Unlock()
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
	name         string
	rwhy, wwhy   string // park reasons, "rwmutex-r:<name>" and "rwmutex-w:<name>"
	readers      int
	writer       bool
	readWaiters  waitQueue
	writeWaiters waitQueue
}

// NewRWMutex returns an unlocked RWMutex owned by engine e.
func (e *Engine) NewRWMutex(name string) *RWMutex {
	return &RWMutex{e: e, name: name, rwhy: "rwmutex-r:" + name, wwhy: "rwmutex-w:" + name}
}

// RLock acquires a shared lock.
func (m *RWMutex) RLock() {
	e := m.e
	e.mu.Lock()
	if !m.writer && m.writeWaiters.len() == 0 {
		m.readers++
		e.mu.Unlock()
		return
	}
	tok := newParkToken()
	m.readWaiters.push(tok)
	e.blockLocked(tok, m.rwhy)
	e.mu.Unlock()
	tok.park()
}

// RUnlock releases a shared lock.
func (m *RWMutex) RUnlock() {
	e := m.e
	e.mu.Lock()
	m.readers--
	if m.readers < 0 {
		e.mu.Unlock()
		panic("sim: RUnlock without RLock on " + m.name)
	}
	if m.readers == 0 {
		m.promoteLocked()
	}
	e.mu.Unlock()
}

// Lock acquires the exclusive lock.
func (m *RWMutex) Lock() {
	e := m.e
	e.mu.Lock()
	if !m.writer && m.readers == 0 {
		m.writer = true
		e.mu.Unlock()
		return
	}
	tok := newParkToken()
	m.writeWaiters.push(tok)
	e.blockLocked(tok, m.wwhy)
	e.mu.Unlock()
	tok.park()
}

// Unlock releases the exclusive lock.
func (m *RWMutex) Unlock() {
	e := m.e
	e.mu.Lock()
	if !m.writer {
		e.mu.Unlock()
		panic("sim: Unlock of unlocked RWMutex " + m.name)
	}
	m.writer = false
	m.promoteLocked()
	e.mu.Unlock()
}

// promoteLocked hands the lock to the next writer, or failing that to all
// queued readers. Caller holds e.mu and the lock is free.
func (m *RWMutex) promoteLocked() {
	e := m.e
	if m.writeWaiters.len() > 0 {
		m.writer = true
		e.wakeLocked(m.writeWaiters.pop())
		return
	}
	m.readers += m.readWaiters.len()
	m.readWaiters.wakeAllLocked(e)
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
	e := w.e
	e.mu.Lock()
	w.n += delta
	if w.n < 0 {
		e.mu.Unlock()
		panic("sim: negative WaitGroup counter")
	}
	if w.n == 0 {
		w.waiters.wakeAllLocked(e)
	}
	e.mu.Unlock()
}

// Done decrements the counter by one.
func (w *WaitGroup) Done() { w.Add(-1) }

// Wait parks the calling actor until the counter reaches zero.
func (w *WaitGroup) Wait() {
	e := w.e
	e.mu.Lock()
	if w.n == 0 {
		e.mu.Unlock()
		return
	}
	tok := newParkToken()
	w.waiters.push(tok)
	e.blockLocked(tok, "waitgroup")
	e.mu.Unlock()
	tok.park()
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
// between them: a waiter marks the latch waited on, under the engine lock,
// before it tests open; OpenAt stores the instant and then open before it
// tests waited. Whichever store comes first in the (sequentially
// consistent) order, either the waiter sees the latch open, with its
// instant, and does not queue, or OpenAt sees the mark and takes the engine
// lock — which the waiter holds until it is queued.
type Latch struct {
	open   atomic.Bool
	at     atomic.Int64 // the instant the latch opens; stored before open
	waited atomic.Bool
	// The actors parked before the latch was opened, guarded by the
	// engine's lock. A latch is usually new (one per future) and waited on
	// once, so the first waiter is held inline: a queue's first push would
	// allocate its storage.
	first   *parkToken
	waiters waitQueue // waiters beyond the first
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
	e.mu.Lock()
	l.waited.Store(true)
	if l.open.Load() && time.Duration(l.at.Load()) <= e.now {
		e.mu.Unlock()
		return
	}
	tok := newParkToken()
	switch {
	case l.open.Load():
		l.wakeAtLocked(e, tok, time.Duration(l.at.Load()))
	case l.first == nil:
		l.first = tok
	default:
		l.waiters.push(tok)
	}
	e.blockLocked(tok, "latch")
	e.mu.Unlock()
	tok.park()
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
	if tok := l.first; tok != nil {
		l.first = nil
		l.wakeAtLocked(e, tok, at)
	}
	for l.waiters.len() > 0 {
		l.wakeAtLocked(e, l.waiters.pop(), at)
	}
	if e.runnable == 0 {
		e.unblockLocked() // opened from outside with every actor parked
	}
	e.mu.Unlock()
}

// wakeAtLocked wakes a parked (or parking) waiter at instant at: now if it
// has passed, otherwise on a timer in the engine's heap. Caller holds e.mu.
func (l *Latch) wakeAtLocked(e *Engine, tok *parkToken, at time.Duration) {
	if at <= e.now {
		e.wakeLocked(tok)
		return
	}
	e.seq++
	e.timers.push(timer{when: at, seq: e.seq, tok: tok})
}
