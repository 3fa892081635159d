package sim

import "time"

// Mutex is a FIFO mutual-exclusion lock for actors. FIFO ordering keeps the
// simulation deterministic and models a fair hardware arbiter (flash channel,
// controller bus). The zero value is not usable; create with NewMutex.
type Mutex struct {
	e       *Engine
	locked  bool
	name    string
	waiters []*parkToken
}

// NewMutex returns an unlocked mutex owned by engine e.
func (e *Engine) NewMutex(name string) *Mutex {
	return &Mutex{e: e, name: name}
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
	m.waiters = append(m.waiters, tok)
	e.blockLocked(tok, "mutex:"+m.name)
	e.mu.Unlock()
	tok.park()
}

// TryLock acquires the mutex if it is free and reports whether it did.
func (m *Mutex) TryLock() bool {
	e := m.e
	e.mu.Lock()
	defer e.mu.Unlock()
	if m.locked {
		return false
	}
	m.locked = true
	return true
}

// Unlock releases the mutex, handing it directly to the oldest waiter.
func (m *Mutex) Unlock() {
	e := m.e
	e.mu.Lock()
	if !m.locked {
		e.mu.Unlock()
		panic("sim: unlock of unlocked Mutex " + m.name)
	}
	if len(m.waiters) > 0 {
		tok := m.waiters[0]
		m.waiters = m.waiters[1:]
		e.wakeLocked(tok) // lock stays held, ownership transfers
	} else {
		m.locked = false
	}
	e.mu.Unlock()
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
	waiters []*parkToken
}

// NewCond returns a condition variable whose Wait releases and reacquires l.
func (e *Engine) NewCond(l *Mutex) *Cond { return &Cond{L: l} }

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
	c.waiters = append(c.waiters, tok)
	// Release the mutex inline (same logic as Unlock, under e.mu already).
	if len(c.L.waiters) > 0 {
		next := c.L.waiters[0]
		c.L.waiters = c.L.waiters[1:]
		e.wakeLocked(next)
	} else {
		c.L.locked = false
	}
	if idle {
		tok.idle = true
		e.idleParked++
	}
	e.blockLocked(tok, "cond:"+c.L.name)
	e.mu.Unlock()
	tok.park()
	c.L.Lock()
}

// Signal wakes the oldest waiter, if any. Caller should hold c.L.
func (c *Cond) Signal() {
	e := c.L.e
	e.mu.Lock()
	if len(c.waiters) > 0 {
		tok := c.waiters[0]
		c.waiters = c.waiters[1:]
		e.wakeLocked(tok)
	}
	e.mu.Unlock()
}

// Broadcast wakes every waiter. Caller should hold c.L.
func (c *Cond) Broadcast() {
	e := c.L.e
	e.mu.Lock()
	for _, tok := range c.waiters {
		e.wakeLocked(tok)
	}
	c.waiters = nil
	e.mu.Unlock()
}

// Semaphore is a counting semaphore with FIFO handoff. It models pools of
// identical servers such as controller CPU cores or DMA engines.
type Semaphore struct {
	e       *Engine
	name    string
	avail   int
	waiters []*parkToken
}

// NewSemaphore returns a semaphore with n initial permits.
func (e *Engine) NewSemaphore(name string, n int) *Semaphore {
	if n < 0 {
		panic("sim: negative semaphore size")
	}
	return &Semaphore{e: e, name: name, avail: n}
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
	s.waiters = append(s.waiters, tok)
	e.blockLocked(tok, "sem:"+s.name)
	e.mu.Unlock()
	tok.park()
}

// Release returns one permit, handing it directly to the oldest waiter.
func (s *Semaphore) Release() {
	e := s.e
	e.mu.Lock()
	if len(s.waiters) > 0 {
		tok := s.waiters[0]
		s.waiters = s.waiters[1:]
		e.wakeLocked(tok) // permit transfers to waiter
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
	readers      int
	writer       bool
	readWaiters  []*parkToken
	writeWaiters []*parkToken
}

// NewRWMutex returns an unlocked RWMutex owned by engine e.
func (e *Engine) NewRWMutex(name string) *RWMutex {
	return &RWMutex{e: e, name: name}
}

// RLock acquires a shared lock.
func (m *RWMutex) RLock() {
	e := m.e
	e.mu.Lock()
	if !m.writer && len(m.writeWaiters) == 0 {
		m.readers++
		e.mu.Unlock()
		return
	}
	tok := newParkToken()
	m.readWaiters = append(m.readWaiters, tok)
	e.blockLocked(tok, "rwmutex-r:"+m.name)
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
	m.writeWaiters = append(m.writeWaiters, tok)
	e.blockLocked(tok, "rwmutex-w:"+m.name)
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
	if len(m.writeWaiters) > 0 {
		tok := m.writeWaiters[0]
		m.writeWaiters = m.writeWaiters[1:]
		m.writer = true
		e.wakeLocked(tok)
		return
	}
	for _, tok := range m.readWaiters {
		m.readers++
		e.wakeLocked(tok)
	}
	m.readWaiters = nil
}

// WaitGroup lets an actor wait for a set of actors to finish, on virtual time.
type WaitGroup struct {
	e       *Engine
	n       int
	waiters []*parkToken
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
		for _, tok := range w.waiters {
			e.wakeLocked(tok)
		}
		w.waiters = nil
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
	w.waiters = append(w.waiters, tok)
	e.blockLocked(tok, "waitgroup")
	e.mu.Unlock()
	tok.park()
}
