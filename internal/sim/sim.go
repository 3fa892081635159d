// Package sim provides a deterministic discrete-event simulation engine.
//
// Everything in this repository that has a notion of time — flash chips,
// NVMe transport, firmware CPUs, host "threads" running transactions —
// executes on the virtual clock owned by an Engine. An actor is a function
// the engine runs on a coroutine of its own (Go). At most one actor runs at
// a time. Whenever the running actor blocks in a sim primitive (Sleep,
// Mutex, Cond, Semaphore, ...) the engine draws the next actor from those
// ready to run at the current instant with a seeded PRNG; when none is
// ready it advances the clock to the earliest pending timer and wakes the
// actors due then. Because no actor ever blocks on real I/O or real time,
// the whole simulation is deterministic — a seed fixes the schedule — and
// runs as fast as one host CPU allows.
//
// The one rule actors must follow: any blocking interaction between actors
// must go through a sim primitive. Blocking on a plain channel or sync.Mutex
// while registered would stall the clock.
//
// # Idle is not deadlock
//
// "Every actor parked and no timer pending" has two meanings, and the engine
// tells them apart by what the parked actors wait for, not by a clock. A
// service actor blocked until somebody hands it work — a flusher with nothing
// to program, a collector whose log has free blocks, a coalescer shard with
// no pending write — parks with Cond.WaitIdle. When every parked actor is in
// such a wait the simulation is idle: nothing inside it can make progress and
// nothing needs to, the clock stands still at no host cost, and the next
// Go() from outside resumes it. When at least one actor is parked in any
// other wait (a mutex, a semaphore, a plain Cond.Wait, a wait group) with no
// timer pending, somebody expects progress that can no longer come: that is
// a stall, reported after stallTimeout of wall-clock time with a dump of who
// waits on what and which of those waits are idle ones.
//
// # Parking allocates nothing
//
// Every simulated request parks and wakes a handful of times, so a park is
// on the host's hot path. None allocates: an actor parks on a token of its
// own, a Sleep's timer lives by value in the engine's heap once the heap has
// grown, each primitive's wait queue is linked through its waiters' tokens,
// the reason a parked actor gives the stall dump is a string its primitive
// built once, and a one-shot event (Latch) parks a completion's waiter with
// no mutex or condition of its own.
//
// # Actors are coroutines
//
// One actor runs at a time, so handing the CPU from one actor to the next
// needs no scheduler: each actor is a coroutine (iter.Pull), and one hub
// goroutine per engine resumes the actor the seeded draw picked. A parking
// actor draws its successor and yields it to the hub, which resumes it at
// once — a direct switch, not a channel send through the Go scheduler's run
// queue. When the draw picks the parking actor itself (a lone sleeper whose
// timer is next), it returns without any switch. The hub is started by a
// dispatch from outside the simulation (Go, or Latch.OpenAt with every actor
// parked) and ends when nothing is drawn. An actor's coroutine outlives its
// function: it waits in the engine's pool and runs the next spawned
// function, so a Go that finds one allocates nothing, and the pool's
// coroutines end when the engine's last actor exits. A Go that finds none
// pays for a new coroutine (about a dozen allocations in iter.Pull) once per
// actor alive at the same time. How actors switch never reaches the draws:
// a seed fixes the schedule, and TestScheduleFingerprint pins it.
// Engine.Counts says how many parks, draws and switches a piece of work
// cost.
//
// # The owner, the inbox and outside callers
//
// The engine's state has one owner at a time, so the actor path takes no
// lock. While the hub is up, the owner is the hub and the actor it resumed;
// while the hub is down, it is whoever holds the engine's mutex. Sleep,
// every park and wake, the draws, an actor's retirement and every primitive
// (Mutex, RWMutex, Cond, Semaphore, WaitGroup, Latch.Wait) run on the
// owner's path.
//
// Two calls may come from outside the simulation: Go, and Latch.OpenAt on a
// latch that has a waiter. Each takes the mutex; with the hub down it applies
// its work at once, and with the hub up it posts the work to the engine's
// inbox instead. The owner takes in what was posted, in order, before its
// next change to the ready queue or the timer heap — in Sleep before the
// timer push, in a park, a wake, a retirement and a latch wait — and the
// hub does so under the mutex before it stops. So posted work lands where it
// would have landed had it waited for the owner, and no draw changes. An
// actor's own Go and OpenAt post the same way; once the inbox has grown,
// posting allocates nothing.
//
// Everything else is the owner's. An outside caller may set up a primitive
// before any actor can reach it, read Now (which is NowCheap), and read
// Counts once Wait has returned; Wait and the stall watchdog look at the
// engine only while the hub is down. Any other touch from outside is a data
// race, and the race detector reports it. A method whose name ends in
// Locked runs with the engine owned.
package sim

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Engine owns the virtual clock and the set of registered actors.
// The zero value is not usable; call NewEngine.
type Engine struct {
	// mu guards the inbox and hubUp, and the state while the hub is down
	// (see "The owner, the inbox and outside callers").
	mu       sync.Mutex
	now      time.Duration // virtual time since engine start
	nowCheap atomic.Int64  // mirrors now; lock-free reads (see NowCheap)
	runnable int           // actors currently executing (not parked)
	actors   int           // registered actors (running or parked)
	timers   timerHeap
	seq      uint64 // tiebreak for timers at equal deadlines (determinism)

	// waiters parked on mutexes/conds/semaphores, each token carrying what
	// it waits on and its slot here; tracked so that a stall is told from
	// idleness (idleParked counts the tokens parked in an idle wait,
	// parkToken.idle) and produces a diagnostic instead of a silent hang.
	parked     []*parkToken
	idleParked int

	// At most one actor executes at a time and every wakeup is deferred
	// into ready, from which the next actor is drawn by the seeded schedRng
	// once the current one parks. Each actor is a coroutine (see "Actors
	// are coroutines").
	schedRng *rand.Rand
	ready    []*parkToken // woken (or freshly spawned) actors awaiting dispatch
	spawned  bool         // any actor ever started (guards late Serialize)
	drawn    *parkToken   // dispatched, not yet taken for a resume
	running  *actor       // the actor resumed last; set before its resume, read by it
	handoff  *actor       // what a yielding actor drew, for the hub to resume next
	hubUp    bool         // a hub goroutine is resuming actors; written under mu
	free     waitQueue    // tokens of the actors whose function has ended, for the next Go
	spare    []actor      // actors not yet made, carved actorBlock at a time

	// Bound once in NewEngine, so that starting the hub or a coroutine
	// allocates no method value.
	hub  func()                    // e.runHub
	loop func(func(struct{}) bool) // e.runActor: every actor coroutine's body

	// The work outside callers posted while the hub was up, in order, under
	// mu; posted says it is not empty, so the owner checks it without mu.
	inbox  []post
	posted atomic.Bool

	counts Counts // what the scheduler has done (Counts)

	idle          chan struct{} // under mu: closed & replaced each time the actors are gone
	watchdogArmed atomic.Bool   // a stall watchdog timer is pending
	onDeadlock    func(string)  // test hook; replaces the deadlock panic
}

// post is a call from outside that the owner applies: a Go (fn), or an
// opening of latch at instant at.
type post struct {
	fn    func()
	latch *Latch
	at    time.Duration
}

// NewEngine returns an engine with the clock at zero, no actors and its
// schedule seeded with 1 (see Serialize).
func NewEngine() *Engine {
	e := &Engine{idle: make(chan struct{}), schedRng: rand.New(rand.NewSource(1))}
	e.hub, e.loop = e.runHub, e.runActor
	return e
}

// Now returns the current virtual time. It is NowCheap.
func (e *Engine) Now() time.Duration { return e.NowCheap() }

// NowCheap returns the current virtual time without taking the engine
// lock. The clock only advances while every actor is parked, so a running
// actor always observes a stable, current value; a caller outside the
// simulation reads the instant the clock last moved to.
func (e *Engine) NowCheap() time.Duration {
	return time.Duration(e.nowCheap.Load())
}

// Counts is what an engine's scheduler has done since NewEngine.
type Counts struct {
	Parks      uint64 // an actor parked (Sleep, or a wait on a primitive)
	Dispatches uint64 // an actor was drawn from the ready queue
	// Switches counts the hub's resumes of a drawn actor; a parking actor
	// that draws itself runs on without one.
	Switches uint64
}

// Counts returns the scheduler's counts so far. Two reads around a piece of
// work give what it cost the scheduler. An actor reads them, or a caller
// outside the simulation once Wait has returned.
func (e *Engine) Counts() Counts { return e.counts }

// takeIn applies what outside callers posted. The owner calls it before
// each change it makes to the ready queue or the timer heap — a Sleep's
// timer, a park, a wake, a retirement, a latch wait — so posted work lands
// where it would have landed had it waited for the owner. Only those paths
// call it: an outside caller that sets up a primitive takes nothing in.
func (e *Engine) takeIn() {
	if e.posted.Load() {
		e.drain()
	}
}

// drain applies the posted work on the owner's path.
func (e *Engine) drain() {
	e.mu.Lock()
	e.drainLocked()
	e.mu.Unlock()
}

// drainLocked applies the posted work in the order it was posted, each call
// as it would have run under e.mu. Caller holds e.mu and owns the engine.
func (e *Engine) drainLocked() {
	for i, p := range e.inbox {
		e.inbox[i] = post{}
		if p.latch != nil {
			p.latch.releaseLocked(e, p.at)
		} else {
			e.spawnLocked(p.fn)
		}
	}
	e.inbox = e.inbox[:0]
	e.posted.Store(false)
}

// postLocked posts p for the owner. Caller holds e.mu, with the hub up.
func (e *Engine) postLocked(p post) {
	e.inbox = append(e.inbox, p)
	e.posted.Store(true)
}

// Serialize re-seeds the engine's schedule: whenever several actors are
// eligible to run at the same virtual instant, the next one is chosen by a
// PRNG seeded with seed (1 unless re-seeded). Two engines with the same seed
// driven by the same workload make identical scheduling decisions, which is
// what lets the model checker replay a failing schedule from nothing but its
// seed — and lets different seeds explore different interleavings of the
// same instant.
//
// Must be called before any actor is spawned.
func (e *Engine) Serialize(seed int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.spawned {
		panic("sim: Serialize called after actors were spawned")
	}
	e.schedRng = rand.New(rand.NewSource(seed))
}

// Go spawns fn as a new actor. It may be called from inside or outside the
// simulation. The actor is queued for dispatch like any other wakeup, by
// the owner if the hub is up.
func (e *Engine) Go(name string, fn func()) {
	e.mu.Lock()
	e.spawned = true
	if e.hubUp {
		e.postLocked(post{fn: fn})
	} else {
		e.spawnLocked(fn)
	}
	e.mu.Unlock()
}

// spawnLocked queues fn on an actor for a draw, and draws one if no actor
// runs. Caller owns the engine.
func (e *Engine) spawnLocked(fn func()) {
	e.actors++
	var a *actor
	if !e.free.empty() {
		a = e.free.pop().a
	} else {
		a = e.newActor()
	}
	a.fn = fn
	e.ready = append(e.ready, &a.tok)
	if e.runnable == 0 {
		e.dispatchLocked()
	}
}

// Wait blocks the (non-actor) caller until every actor has exited.
// It is typically called from the test or benchmark goroutine after
// spawning the workload with Go. The actors are gone once the hub stops
// with none left, which closes e.idle.
func (e *Engine) Wait() {
	e.mu.Lock()
	if !e.hubUp && e.actors == 0 {
		e.mu.Unlock()
		return
	}
	ch := e.idle
	e.mu.Unlock()
	<-ch
}

// Sleep parks the calling actor for d of virtual time. d <= 0 returns at
// once, without a park.
func (e *Engine) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	tok := e.token()
	e.takeIn()
	e.seq++
	e.timers.push(timer{when: e.now + d, seq: e.seq, tok: tok})
	e.parkLocked(tok, "sleep")
}

// parkLocked parks the calling actor on tok, which the caller has put where
// its waker finds it, and returns once it is woken and drawn. If it was the
// last runnable actor, the engine first picks what runs next. why is a
// string the primitive built once, at construction, so a park concatenates
// nothing.
func (e *Engine) parkLocked(tok *parkToken, why string) {
	e.takeIn()
	tok.why, tok.slot = why, int32(len(e.parked))
	e.parked = append(e.parked, tok)
	e.counts.Parks++
	e.runnable--
	if e.runnable == 0 {
		e.unblockLocked()
	}
	if e.drawn == tok { // the draw picked the parking actor: it runs on
		e.drawn = nil
		return
	}
	e.handoff = e.takeLocked()
	tok.a.yield(struct{}{})
}

// wake is a primitive's wakeLocked: the owner takes in what was posted
// first.
func (e *Engine) wake(tok *parkToken) {
	e.takeIn()
	e.wakeLocked(tok)
}

// wakeLocked transfers a parked actor back to runnable. The actor is only
// queued; it starts running when dispatchLocked draws it.
func (e *Engine) wakeLocked(tok *parkToken) {
	if tok.idle {
		tok.idle = false
		e.idleParked--
	}
	last := e.parked[len(e.parked)-1]
	e.parked[tok.slot], last.slot = last, tok.slot
	e.parked[len(e.parked)-1] = nil
	e.parked = e.parked[:len(e.parked)-1]
	e.ready = append(e.ready, tok)
}

// unblockLocked runs when no actor is runnable: it dispatches exactly one
// queued actor, advancing the clock first if the queue is empty.
func (e *Engine) unblockLocked() {
	if len(e.ready) == 0 {
		e.advanceLocked() // due timers feed e.ready via wakeLocked
	}
	if len(e.ready) > 0 {
		e.dispatchLocked()
	}
}

// dispatchLocked draws one actor at seeded-random from the ready queue for
// the hub to resume, and starts the hub if none runs: a dispatch from
// outside the simulation (Go, or Latch.OpenAt with every actor parked).
func (e *Engine) dispatchLocked() {
	i := e.schedRng.Intn(len(e.ready))
	tok := e.ready[i]
	copy(e.ready[i:], e.ready[i+1:])
	e.ready[len(e.ready)-1] = nil
	e.ready = e.ready[:len(e.ready)-1]
	e.runnable++
	e.drawn = tok
	e.counts.Dispatches++
	if !e.hubUp {
		e.hubUp = true
		go e.hub()
	}
}

// takeLocked takes the drawn actor, if any, as the one about to run.
func (e *Engine) takeLocked() *actor {
	tok := e.drawn
	if tok == nil {
		return nil
	}
	e.drawn = nil
	e.running = tok.a
	e.counts.Switches++
	return tok.a
}

// runHub resumes the drawn actors until nothing is drawn. A resumed actor runs
// until it parks or its function ends, and leaves in e.handoff the actor it
// drew itself, or nil; on nil the hub takes in, under e.mu, what outside
// callers posted since, and runs what that drew or ends. Ending, it hands
// the engine to e.mu's holders, and if no actor is left it wakes Wait. The
// switches order e.handoff's write before its read.
func (e *Engine) runHub() {
	var a *actor
	defer func() {
		// iter.Pull passes an actor's runtime.Goexit on to the coroutine's
		// resumer: this hub ends with it, and a new one carries on.
		if a != nil && a.goexited {
			go e.hub()
		}
	}()
	for {
		e.mu.Lock()
		e.drainLocked()
		a = e.takeLocked()
		if a == nil {
			e.hubUp = false
			if e.actors == 0 {
				close(e.idle)
				e.idle = make(chan struct{})
			}
			e.mu.Unlock()
			return
		}
		e.mu.Unlock()
		for a != nil {
			a.resume()
			a, e.handoff = e.handoff, nil
		}
	}
}

// actor is a coroutine that the hub resumes and that yields back to it when it parks or its function ends.
// An actor whose function has ended waits in the engine's free list to run
// the next spawned one; those coroutines end when the engine's last actor
// exits.
type actor struct {
	tok      parkToken // the actor's one park token; tok.a is the actor
	fn       func()    // the spawned function, nil while free
	resume   func() (struct{}, bool)
	yield    func(struct{}) bool
	goexited bool // fn ended in runtime.Goexit, which ends the coroutine
}

// actorBlock is how many actors newActor allocates at once: a burst of
// spawns that finds no free coroutine pays one allocation per block for the
// actors beside their coroutines' own, and an engine leaves at most a block
// less one unused.
const actorBlock = 8

// runActor is the body of every actor's coroutine. The hub resumes a new
// coroutine for its actor's first function, so e.running is that actor. It
// runs one spawned function after another, yielding to the hub in between,
// until it is resumed with no function to run.
func (e *Engine) runActor(yield func(struct{}) bool) {
	a := e.running
	a.yield = yield
	for a.fn != nil && e.run(a) {
		yield(struct{}{})
	}
}

// run runs a's function and retires it from the engine's actors. It reports
// whether a went back to the free list.
func (e *Engine) run(a *actor) (freed bool) {
	ended := false
	defer func() {
		if !ended {
			if r := recover(); r != nil {
				// iter.Pull re-panics on the hub, whose stack says
				// nothing of where the panic began.
				panic(actorPanic{r, debug.Stack()})
			}
			a.goexited = true
		}
		freed = e.retire(a, ended)
	}()
	a.fn()
	ended = true
	return
}

// actorPanic is an actor's panic value with the actor's stack.
type actorPanic struct {
	v     any
	stack []byte
}

func (p actorPanic) Error() string {
	return fmt.Sprintf("%v\n\nactor's goroutine at the panic:\n%s", p.v, p.stack)
}

// retire counts a's function as ended and lets the engine pick what runs
// next. An actor whose function returned goes on the free list and hands
// the hub the draw; after runtime.Goexit the draw is left for the next hub.
// The engine's last actor ends the free coroutines instead, resuming each
// with no function.
func (e *Engine) retire(a *actor, returned bool) (freed bool) {
	e.takeIn()
	a.fn = nil
	e.actors--
	e.runnable--
	if e.actors == 0 {
		for !e.free.empty() {
			e.free.pop().a.resume()
		}
		return false
	}
	if e.runnable == 0 {
		e.unblockLocked()
	}
	if !returned {
		return false
	}
	e.free.push(&a.tok)
	e.handoff = e.takeLocked()
	return true
}

// advanceLocked pops every timer due at the earliest deadline and wakes its
// actor.
//
// If no timers exist while an actor is parked in anything but an idle wait,
// the simulation has stalled (see "Idle is not deadlock" in the package
// comment; with only idle waits parked it is merely idle and the engine
// does nothing until the next Go()). A stall is usually a deadlock — but it
// also happens transiently while a non-actor goroutine (a constructor, a
// network handler) is between Go() calls: the actors it already spawned may
// all park before the one that owns the first timer exists. So a stall arms
// a real-time watchdog instead of panicking immediately; any Go() or wake
// disarms it, and a stall that persists for stallTimeout of wall-clock time
// is reported as a deadlock with a state dump.
func (e *Engine) advanceLocked() {
	if len(e.timers) == 0 {
		if len(e.parked) == e.idleParked {
			return // idle, or all actors exited or exiting
		}
		e.armWatchdog()
		return
	}
	first := e.timers[0].when
	if first < e.now {
		panic(fmt.Sprintf("sim: timer in the past (%v < %v)", first, e.now))
	}
	e.now = first
	e.nowCheap.Store(int64(first))
	for len(e.timers) > 0 && e.timers[0].when == first {
		e.wakeLocked(e.timers.pop().tok)
	}
}

// stallTimeout is how long a no-timer, all-parked state may persist in
// real time before it is reported as a deadlock (variable for tests).
var stallTimeout = 5 * time.Second

// armWatchdog schedules the deadlock report, unless one is pending.
func (e *Engine) armWatchdog() {
	if e.watchdogArmed.CompareAndSwap(false, true) {
		time.AfterFunc(stallTimeout, e.checkStall)
	}
}

// checkStall is the watchdog: it reports the stall if the engine is still
// stalled. It reads the engine only while the hub is down; a hub that is up
// has work, so the watchdog looks again stallTimeout later.
func (e *Engine) checkStall() {
	e.mu.Lock()
	if e.hubUp {
		e.mu.Unlock()
		time.AfterFunc(stallTimeout, e.checkStall)
		return
	}
	e.watchdogArmed.Store(false)
	stalled := e.runnable == 0 && len(e.timers) == 0 && len(e.ready) == 0 && len(e.parked) > e.idleParked
	if !stalled {
		e.mu.Unlock()
		return
	}
	// Release e.mu before panicking: unwinding runs deferred functions
	// (waitgroup Done, unlocks) that may need the engine lock.
	msg := "sim: deadlock — all actors parked with no pending timers\n" + e.stateLocked()
	hook := e.onDeadlock
	e.mu.Unlock()
	if hook != nil {
		hook(msg)
		return
	}
	panic(msg)
}

func (e *Engine) stateLocked() string {
	var b strings.Builder
	fmt.Fprintf(&b, "  now=%v actors=%d runnable=%d parked=%d timers=%d\n",
		e.now, e.actors, e.runnable, len(e.parked), len(e.timers))
	reasons := make(map[string]int)
	for _, tok := range e.parked {
		why := fmt.Sprintf("%q", tok.why)
		if tok.idle {
			why += " (idle wait)"
		}
		reasons[why]++
	}
	keys := make([]string, 0, len(reasons))
	for k := range reasons {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "  parked on %s: %d\n", k, reasons[k])
	}
	return b.String()
}

// parkToken is the rendezvous for one parked actor: each actor has one
// token of its own (actor.tok), which the hub resumes it by, so a park
// allocates none. Each token receives exactly one wakeup per park: every
// wake path (timer pop, mutex handoff, cond signal) removes the token from
// its wait structure before it wakes it.
type parkToken struct {
	a    *actor     // the actor that parks on it
	why  string     // what the token is parked on
	next *parkToken // the next in its wait queue (waitQueue)
	slot int32      // its index in Engine.parked while parked
	// idle marks a token parked in an idle wait (Cond.WaitIdle): a wait for
	// work, which an otherwise quiescent simulation may sit in forever. Set
	// and cleared by the engine's owner, between parkLocked and wakeLocked.
	idle bool
}

// token returns the token the calling actor parks on: its own.
func (e *Engine) token() *parkToken { return &e.running.tok }

type timer struct {
	when time.Duration
	seq  uint64
	tok  *parkToken
}

// timerHeap is a binary min-heap of pending timers ordered by (when, seq).
// Timers live in it by value, so arming one allocates nothing once the
// slice has grown to the simulation's usual number of sleepers. The keys are
// unique (seq breaks ties), so the pop order is the same whatever the heap's
// internal layout.
type timerHeap []timer

func (h timerHeap) less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].seq < h[j].seq
}

func (h *timerHeap) push(t timer) {
	*h = append(*h, t)
	s := *h
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

// pop removes and returns the earliest timer. The heap must not be empty.
func (h *timerHeap) pop() timer {
	s := *h
	n := len(s) - 1
	t := s[0]
	s[0] = s[n]
	s[n] = timer{} // drop the token reference
	s = s[:n]
	for i := 0; ; {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && s.less(r, child) {
			child = r
		}
		if !s.less(child, i) {
			break
		}
		s[i], s[child] = s[child], s[i]
		i = child
	}
	*h = s
	return t
}
