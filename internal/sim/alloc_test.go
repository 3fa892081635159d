package sim

import (
	"sync/atomic"
	"testing"
	"time"
)

// parkAllocs measures the allocations per call of op — a call that parks at
// least once — on one actor of a fresh engine, with partner running beside
// it. setup builds both on the engine. Every goroutine's allocations count,
// the partner's included. The measured actor sets stop when it is done and
// calls op once more, so a partner that loops until stop can still finish the
// exchange it is in. The first calls warm the queues' storage and the
// engine's free coroutines.
func parkAllocs(t *testing.T, setup func(e *Engine, stop *atomic.Bool) (op, partner func())) float64 {
	t.Helper()
	var stop atomic.Bool
	var got float64
	e := NewEngine()
	op, partner := setup(e, &stop)
	together(e, func() {
		if partner != nil {
			e.Go("partner", partner)
		}
		e.Go("measured", func() {
			for i := 0; i < parkWarmup; i++ {
				op()
			}
			got = testing.AllocsPerRun(parkRuns, op)
			stop.Store(true)
			op()
		})
	})
	return got
}

const (
	parkWarmup = 64
	parkRuns   = 1000
	parkCalls  = parkWarmup + parkRuns + 1 + 1 // AllocsPerRun makes one extra call, parkAllocs one more
)

// A park allocates nothing in steady state: not a Sleep's timer, not the
// queue slot of a contended lock or a condition wait, not the reason the
// stall dump would print, and not a one-shot event's wait, whether the
// latch opens now or ahead (parked before OpenAt, or waiting after it). A
// spawn allocates at most what it did while every actor was a goroutine of
// its own.
func TestParksDoNotAllocate(t *testing.T) {
	for _, tc := range parks {
		t.Run(tc.name, func(t *testing.T) {
			if got := parkAllocs(t, tc.setup); got != 0 {
				t.Errorf("%s allocates %.2f times per call, want 0", tc.name, got)
			}
		})
	}
	t.Run("spawn", func(t *testing.T) {
		got := parkAllocs(t, func(e *Engine, _ *atomic.Bool) (op, partner func()) {
			wg := e.NewWaitGroup()
			done := wg.Done
			return func() {
				wg.Add(1)
				e.Go("spawned", done)
				wg.Wait()
			}, nil
		})
		t.Logf("a Go allocates %.2f times", got)
		if got > spawnAllocs {
			t.Errorf("a Go allocates %.2f times, want at most %.2f", got, spawnAllocs)
		}
	})
}

// The same parks and spawn hold their budgets on an engine that Serialize
// re-seeded: a different seed draws a different interleaving of the measured
// actor and its partner, and no draw may reach a path that allocates.
func TestSerializedParksDoNotAllocate(t *testing.T) {
	for _, tc := range parks {
		t.Run(tc.name, func(t *testing.T) {
			for _, seed := range reseeds {
				if got := parkAllocs(t, reseeded(seed, tc.setup)); got != 0 {
					t.Errorf("seed %d: %s allocates %.2f times per call, want 0", seed, tc.name, got)
				}
			}
		})
	}
	t.Run("spawn", func(t *testing.T) {
		for _, seed := range reseeds {
			got := parkAllocs(t, reseeded(seed, func(e *Engine, _ *atomic.Bool) (op, partner func()) {
				wg := e.NewWaitGroup()
				done := wg.Done
				return func() {
					wg.Add(1)
					e.Go("spawned", done)
					wg.Wait()
				}, nil
			}))
			if got > spawnAllocs {
				t.Errorf("seed %d: a Go allocates %.2f times, want at most %.2f", seed, got, spawnAllocs)
			}
		}
	})
}

// reseeds are the seeds of TestSerializedParksDoNotAllocate; the default
// seed, 1, is TestParksDoNotAllocate's.
var reseeds = []int64{2, 3, 7}

// reseeded makes a case's engine draw its schedule with seed.
func reseeded(seed int64, setup func(e *Engine, stop *atomic.Bool) (op, partner func())) func(e *Engine, stop *atomic.Bool) (op, partner func()) {
	return func(e *Engine, stop *atomic.Bool) (op, partner func()) {
		e.Serialize(seed)
		return setup(e, stop)
	}
}

// spawnAllocs is what a Go allocated while each actor was a goroutine of
// its own: the goroutine's closure.
const spawnAllocs = 1.0

// parks are the waits of TestParksDoNotAllocate.
var parks = []struct {
	name  string
	setup func(e *Engine, stop *atomic.Bool) (op, partner func())
}{
	{"Sleep", func(e *Engine, _ *atomic.Bool) (op, partner func()) {
		return func() { e.Sleep(time.Microsecond) }, nil
	}},
	// Each holds the mutex across a sleep, so every Lock but the first
	// finds it held and parks until the other's Unlock hands it over.
	{"contended Mutex handoff", func(e *Engine, stop *atomic.Bool) (op, partner func()) {
		m := e.NewMutex("m")
		use := func() { m.Lock(); e.Sleep(time.Microsecond); m.Unlock() }
		return use, func() {
			for !stop.Load() {
				use()
			}
		}
	}},
	// Ping-pong on one condition: each waits for its turn, passes the
	// turn on and signals.
	{"Cond wait and signal", func(e *Engine, stop *atomic.Bool) (op, partner func()) {
		m := e.NewMutex("m")
		c := e.NewCond(m)
		turn := 0
		step := func(me int) {
			m.Lock()
			for turn != me {
				c.Wait()
			}
			turn = 1 - me
			c.Signal()
			m.Unlock()
		}
		return func() { step(0) }, func() {
			for !stop.Load() {
				step(1)
			}
		}
	}},
	// The partner opens each latch a microsecond after the measured actor
	// has parked on it.
	{"blocked Latch wait", func(e *Engine, _ *atomic.Bool) (op, partner func()) {
		latches := make([]Latch, parkCalls)
		next := 0
		return func() {
				latches[next].Wait(e)
				next++
			}, func() {
				for i := range latches {
					e.Sleep(time.Microsecond)
					latches[i].Open(e)
				}
			}
	}},
	// The two ways to wait on a latch opened ahead: parked before OpenAt
	// (the partner opens each latch a microsecond ahead, after the measured
	// actor has parked on it, and the parked waiter moves to a timer), and
	// arriving after it (the measured actor opens each latch a microsecond
	// ahead and then waits on it, sleeping on a timer of its own).
	{"parked before OpenAt", func(e *Engine, _ *atomic.Bool) (op, partner func()) {
		latches := make([]Latch, parkCalls)
		next := 0
		return func() {
				latches[next].Wait(e)
				next++
			}, func() {
				for i := range latches {
					e.Sleep(time.Microsecond)
					latches[i].OpenAt(e, e.Now()+time.Microsecond)
				}
			}
	}},
	{"waiting after OpenAt", func(e *Engine, _ *atomic.Bool) (op, partner func()) {
		latches := make([]Latch, parkCalls)
		next := 0
		return func() {
			latches[next].OpenAt(e, e.Now()+time.Microsecond)
			latches[next].Wait(e)
			next++
		}, nil
	}},
}

// A latch parks every waiter until it opens, wakes them all at the instant
// it opens, and lets every later wait through at once.
func TestLatch(t *testing.T) {
	e := NewEngine()
	var l Latch
	woke := make([]time.Duration, 3) // indexed: the waiters run together
	var opened, late time.Duration
	together(e, func() {
		for i := range woke {
			e.Go("waiter", func() {
				l.Wait(e)
				woke[i] = e.Now()
			})
		}
		e.Sleep(time.Millisecond)
		if l.IsOpen(e) {
			t.Error("latch open before Open")
		}
		opened = e.Now()
		l.Open(e)
		l.Open(e) // idempotent
		e.Go("late", func() {
			l.Wait(e)
			late = e.Now()
		})
	})
	for i, at := range woke {
		if at != opened {
			t.Errorf("waiter %d went through at %v, want when the latch opened (%v)", i, at, opened)
		}
	}
	if late != opened {
		t.Errorf("a wait on an open latch returned at %v, want at once (%v)", late, opened)
	}
}

// A latch opened at a later instant stays closed until it. Parked before
// OpenAt: the waiters parked before the call and those that arrive between
// the call and the instant all go through at the instant, and the opener
// does not wait at all. Waiting after OpenAt: the opener's own wait returns
// at the instant, and a wait after it returns at once.
func TestLatchOpenAt(t *testing.T) {
	const ahead = 8 * time.Microsecond
	t.Run("parked before OpenAt", func(t *testing.T) {
		e := NewEngine()
		var l Latch
		early := make([]time.Duration, 3) // parked before OpenAt
		between := make([]time.Duration, 2)
		var called, at, opener time.Duration
		together(e, func() {
			for i := range early {
				e.Go("early", func() {
					l.Wait(e)
					early[i] = e.Now()
				})
			}
			e.Sleep(time.Millisecond)
			called = e.Now()
			at = called + ahead
			l.OpenAt(e, at)
			opener = e.Now()
			if l.IsOpen(e) {
				t.Error("latch open before its instant")
			}
			for i := range between {
				e.Go("between", func() {
					e.Sleep(time.Duration(i+1) * time.Microsecond)
					if l.IsOpen(e) {
						t.Errorf("latch open %v before its instant", at-e.Now())
					}
					l.Wait(e)
					between[i] = e.Now()
				})
			}
			e.Sleep(ahead - time.Nanosecond)
			if l.IsOpen(e) {
				t.Error("latch open a nanosecond before its instant")
			}
			e.Sleep(time.Nanosecond)
			if !l.IsOpen(e) {
				t.Error("latch still closed at its instant")
			}
		})
		if opener != called {
			t.Errorf("OpenAt took %v of the opener's time, want none", opener-called)
		}
		for i, w := range append(early, between...) {
			if w != at {
				t.Errorf("waiter %d went through at %v, want the latch's instant %v", i, w, at)
			}
		}
	})
	t.Run("waiting after OpenAt", func(t *testing.T) {
		e := NewEngine()
		var l Latch
		var at, own, late time.Duration
		together(e, func() {
			e.Sleep(time.Millisecond)
			at = e.Now() + ahead
			l.OpenAt(e, at)
			l.Wait(e)
			own = e.Now()
			e.Sleep(time.Microsecond)
			l.Wait(e)
			late = e.Now()
		})
		if own != at {
			t.Errorf("the opener's wait returned at %v, want the latch's instant %v", own, at)
		}
		if late != at+time.Microsecond {
			t.Errorf("a wait after the instant returned at %v, want at once (%v)", late, at+time.Microsecond)
		}
	})
}
