package sim

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// serialTrace runs a small contended workload on an engine seeded with
// seed and returns the order in which actors got to touch the shared counter.
func serialTrace(seed int64) []string {
	eng := NewEngine()
	eng.Serialize(seed)
	var (
		traceMu sync.Mutex
		trace   []string
	)
	eng.Go("root", func() {
		mu := eng.NewMutex("shared")
		wg := eng.NewWaitGroup()
		for a := 0; a < 4; a++ {
			a := a
			wg.Add(1)
			eng.Go(fmt.Sprintf("worker%d", a), func() {
				defer wg.Done()
				for i := 0; i < 5; i++ {
					// All workers sleep to the same instants, so every
					// wakeup is a genuine tie the scheduler must break.
					eng.Sleep(time.Microsecond)
					mu.Lock()
					traceMu.Lock()
					trace = append(trace, fmt.Sprintf("%d.%d@%v", a, i, eng.Now()))
					traceMu.Unlock()
					mu.Unlock()
				}
			})
		}
		wg.Wait()
	})
	eng.Wait()
	return trace
}

func TestSerializeSameSeedSameSchedule(t *testing.T) {
	a := serialTrace(42)
	b := serialTrace(42)
	if len(a) == 0 {
		t.Fatal("empty trace")
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("same seed diverged:\n%v\n%v", a, b)
	}
}

func TestSerializeDifferentSeedsDiffer(t *testing.T) {
	a := serialTrace(1)
	for seed := int64(2); seed < 10; seed++ {
		if fmt.Sprint(serialTrace(seed)) != fmt.Sprint(a) {
			return // schedules diverge, as they should
		}
	}
	t.Fatal("eight different seeds produced the identical schedule")
}

func TestSerializeAfterSpawnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	eng := NewEngine()
	eng.Go("a", func() {})
	eng.Wait()
	eng.Serialize(1)
}

// An actor that ends in runtime.Goexit (t.FailNow from an actor does) runs
// its defers, and the engine carries on with the others.
func TestActorGoexitRunsDefersAndTheEngineCarriesOn(t *testing.T) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		e := NewEngine()
		var deferred int
		var last time.Duration
		together(e, func() {
			for i := 0; i < 3; i++ {
				e.Go("goexit", func() {
					defer func() { deferred++ }()
					e.Sleep(time.Duration(i) * time.Microsecond)
					runtime.Goexit()
				})
			}
			e.Go("after", func() {
				e.Sleep(5 * time.Microsecond)
				last = e.Now()
			})
		})
		if deferred != 3 || last != 5*time.Microsecond {
			t.Errorf("%d of 3 defers ran and the last actor ended at %v, want all and 5µs", deferred, last)
		}
		// The engine still serves a spawn from outside.
		ran := false
		e.Go("later", func() { e.Sleep(time.Microsecond); ran = true })
		e.Wait()
		if !ran {
			t.Error("an actor spawned after the Goexits did not run")
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the engine hung after an actor's Goexit")
	}
}

// Once Wait returns, none of the engine's goroutines is left: not its
// hub, not the actors' coroutines it keeps for its next spawn.
func TestWaitLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	for session := 0; session < 2; session++ {
		together(e, func() {
			wg := e.NewWaitGroup()
			for i := 0; i < 32; i++ {
				wg.Add(1)
				e.Go("worker", func() {
					defer wg.Done()
					e.Sleep(time.Duration(i%5) * time.Microsecond)
					if i%4 == 0 {
						e.Go("child", func() { e.Sleep(time.Microsecond) })
					}
				})
			}
			wg.Wait()
		})
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Wait, want at most the %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// A panic in an actor reaches the hub that resumed it, and the hub's stack
// says nothing of where it began: the crash must still show the actor's.
// The panic ends the process, so the test runs it in a child.
func TestActorPanicShowsTheActorsStack(t *testing.T) {
	if os.Getenv("SIM_PANIC_HELPER") == "1" {
		e := NewEngine()
		e.Go("panicker", func() {
			e.Sleep(time.Microsecond)
			panicInActor()
		})
		e.Wait()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestActorPanicShowsTheActorsStack$")
	cmd.Env = append(os.Environ(), "SIM_PANIC_HELPER=1")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("the child survived its actor's panic:\n%s", out)
	}
	for _, want := range []string{"panic: actor panicked", "sim.panicInActor"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("the crash does not show %q:\n%s", want, out)
		}
	}
}

//go:noinline
func panicInActor() { panic("actor panicked") }

// Counts: a lone sleeper draws itself (a park and a draw, no switch), while
// two actors that pass a mutex switch at every draw: one to start the
// spawned actor, one per park that leaves the other to run, and one when
// its exit wakes the waiter.
func TestCountsParksDrawsAndSwitches(t *testing.T) {
	eng := NewEngine()
	var lone, pair Counts
	eng.Go("root", func() {
		c0 := eng.Counts()
		for i := 0; i < 3; i++ {
			eng.Sleep(time.Microsecond)
		}
		c1 := eng.Counts()
		lone = Counts{c1.Parks - c0.Parks, c1.Dispatches - c0.Dispatches, c1.Switches - c0.Switches}

		mu := eng.NewMutex("shared")
		wg := eng.NewWaitGroup()
		mu.Lock()
		wg.Add(1)
		eng.Go("other", func() {
			defer wg.Done()
			mu.Lock() // parks until root unlocks
			mu.Unlock()
		})
		eng.Sleep(time.Microsecond) // other runs and parks on mu
		mu.Unlock()
		wg.Wait() // root parks; other takes mu and exits
		c2 := eng.Counts()
		pair = Counts{c2.Parks - c1.Parks, c2.Dispatches - c1.Dispatches, c2.Switches - c1.Switches}
	})
	eng.Wait()
	if want := (Counts{Parks: 3, Dispatches: 3}); lone != want {
		t.Errorf("three lone sleeps: %+v, want %+v", lone, want)
	}
	if want := (Counts{Parks: 3, Dispatches: 4, Switches: 4}); pair != want {
		t.Errorf("a mutex handoff: %+v, want %+v", pair, want)
	}
}

// Outside callers post to the owner: real goroutines spawn actors and open,
// ahead, latches that actors wait on, while the engine's actors run. Every spawned actor runs once, every waiter goes through at its
// latch's instant, Wait returns and the watchdog never fires. A pacer actor
// sleeps a microsecond at a time until every caller is done, so the clock
// stays short of the latches' instants (an hour on) while they open.
func TestOutsideCallersPostToTheOwner(t *testing.T) {
	old := stallTimeout
	stallTimeout = 50 * time.Millisecond
	defer func() { stallTimeout = old }()

	const (
		callers = 4
		spawns  = 256 // per caller
		latches = 32  // per caller
		waiters = 2   // per latch
		horizon = time.Hour
	)
	e := NewEngine()
	var fired atomic.Bool
	e.onDeadlock = func(string) { fired.Store(true) }
	ran := make([]int, callers*spawns)
	ls := make([]Latch, callers*latches)
	woke := make([]time.Duration, len(ls)*waiters)
	instant := func(i int) time.Duration { return horizon + time.Duration(i)*time.Microsecond }
	var done atomic.Int32
	e.Go("pacer", func() {
		for i := range ls {
			for w := 0; w < waiters; w++ {
				e.Go("waiter", func() {
					ls[i].Wait(e)
					woke[i*waiters+w] = e.Now()
				})
			}
		}
		for done.Load() < callers {
			e.Sleep(time.Microsecond)
		}
	})
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < spawns; k++ {
				id := c*spawns + k
				e.Go("spawned", func() {
					ran[id]++
					e.Sleep(time.Duration(id%3) * time.Microsecond)
				})
				if k%(spawns/latches) == 0 {
					i := c*latches + k/(spawns/latches)
					ls[i].OpenAt(e, instant(i))
				}
			}
			done.Add(1)
		}()
	}
	wg.Wait()
	waited := make(chan struct{})
	go func() { e.Wait(); close(waited) }()
	select {
	case <-waited:
	case <-time.After(30 * time.Second):
		t.Fatal("Wait did not return")
	}
	for id, n := range ran {
		if n != 1 {
			t.Errorf("spawned actor %d ran %d times, want once", id, n)
		}
	}
	for j, at := range woke {
		if want := instant(j / waiters); at != want {
			t.Errorf("waiter %d of latch %d went through at %v, want its instant %v", j%waiters, j/waiters, at, want)
		}
	}
	time.Sleep(2 * stallTimeout)
	if fired.Load() {
		t.Error("the stall watchdog fired")
	}
}
