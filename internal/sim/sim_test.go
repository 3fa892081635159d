package sim

import (
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestSleepAdvancesClock(t *testing.T) {
	e := NewEngine()
	var woke time.Duration
	e.Go("a", func() {
		e.Sleep(5 * time.Millisecond)
		woke = e.Now()
	})
	e.Wait()
	if woke != 5*time.Millisecond {
		t.Fatalf("woke at %v, want 5ms", woke)
	}
}

func TestSleepZeroIsNoop(t *testing.T) {
	e := NewEngine()
	e.Go("a", func() {
		e.Sleep(0)
		e.Sleep(-time.Second)
		if e.Now() != 0 {
			t.Errorf("clock moved: %v", e.Now())
		}
	})
	e.Wait()
}

// together spawns the actors of a test that asserts on virtual instants from
// one root actor: the clock cannot move while the root runs, so all of them
// start at the same instant. Spawned one by one from the test goroutine, the
// first could park — and the clock advance — before the next existed.
func together(e *Engine, spawn func()) {
	e.Go("root", spawn)
	e.Wait()
}

func TestParallelSleepersOverlap(t *testing.T) {
	e := NewEngine()
	var end1, end2 time.Duration
	together(e, func() {
		e.Go("a", func() { e.Sleep(10 * time.Millisecond); end1 = e.Now() })
		e.Go("b", func() { e.Sleep(10 * time.Millisecond); end2 = e.Now() })
	})
	if end1 != 10*time.Millisecond || end2 != 10*time.Millisecond {
		t.Fatalf("ends %v %v, want both 10ms (parallel)", end1, end2)
	}
}

func TestMutexSerializesUse(t *testing.T) {
	e := NewEngine()
	m := e.NewMutex("chip")
	var ends []time.Duration
	together(e, func() {
		for i := 0; i < 3; i++ {
			e.Go("w", func() {
				m.Use(10 * time.Millisecond)
				ends = append(ends, e.Now())
			})
		}
	})
	if len(ends) != 3 {
		t.Fatalf("got %d ends", len(ends))
	}
	// Serialized resource: completions at 10, 20, 30 ms.
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	for i, w := range want {
		if ends[i] != w {
			t.Errorf("end[%d]=%v want %v", i, ends[i], w)
		}
	}
}

func TestMutexFIFOFairness(t *testing.T) {
	e := NewEngine()
	m := e.NewMutex("m")
	var order []int
	e.Go("setup", func() {
		m.Lock()
		for i := 0; i < 5; i++ {
			i := i
			e.Go("waiter", func() {
				// Stagger arrival so queue order is deterministic.
				m.Lock()
				order = append(order, i)
				m.Unlock()
			})
			e.Sleep(time.Microsecond) // let waiter i enqueue before i+1 spawns
		}
		m.Unlock()
	})
	e.Wait()
	for i, v := range order {
		if v != i {
			t.Fatalf("wakeup order %v, want FIFO", order)
		}
	}
}

func TestCondSignalAndBroadcast(t *testing.T) {
	e := NewEngine()
	m := e.NewMutex("m")
	c := e.NewCond(m)
	ready := 0
	woken := 0
	for i := 0; i < 3; i++ {
		e.Go("waiter", func() {
			m.Lock()
			ready++
			c.Wait()
			woken++
			m.Unlock()
		})
	}
	e.Go("signaler", func() {
		// Wait until everyone is parked on the cond.
		m.Lock()
		for ready < 3 {
			m.Unlock()
			e.Sleep(time.Microsecond)
			m.Lock()
		}
		m.Unlock()
		c.Signal()
		e.Sleep(time.Microsecond)
		c.Broadcast()
	})
	e.Wait()
	if woken != 3 {
		t.Fatalf("woken=%d want 3", woken)
	}
}

func TestSemaphoreLimitsConcurrency(t *testing.T) {
	e := NewEngine()
	s := e.NewSemaphore("cores", 2)
	ends := make([]time.Duration, 4) // indexed: jobs may finish at the same instant
	together(e, func() {
		for i := 0; i < 4; i++ {
			i := i
			e.Go("job", func() {
				s.Use(10 * time.Millisecond)
				ends[i] = e.Now()
			})
		}
	})
	// 4 jobs, 2 permits, 10ms each: finish at 10,10,20,20.
	var at10, at20 int
	for _, d := range ends {
		switch d {
		case 10 * time.Millisecond:
			at10++
		case 20 * time.Millisecond:
			at20++
		default:
			t.Fatalf("unexpected end %v", d)
		}
	}
	if at10 != 2 || at20 != 2 {
		t.Fatalf("ends=%v", ends)
	}
}

func TestRWMutexReadersShareWritersExclude(t *testing.T) {
	e := NewEngine()
	m := e.NewRWMutex("rw")
	readEnds := make([]time.Duration, 3) // indexed: readers finish together
	var writeEnd time.Duration
	together(e, func() {
		for i := 0; i < 3; i++ {
			i := i
			e.Go("r", func() {
				m.RLock()
				e.Sleep(10 * time.Millisecond)
				readEnds[i] = e.Now()
				m.RUnlock()
			})
		}
		e.Go("w", func() {
			e.Sleep(time.Millisecond) // arrive after readers hold the lock
			m.Lock()
			e.Sleep(5 * time.Millisecond)
			writeEnd = e.Now()
			m.Unlock()
		})
	})
	for _, r := range readEnds {
		if r != 10*time.Millisecond {
			t.Fatalf("reader end %v, want 10ms (shared)", r)
		}
	}
	if writeEnd != 15*time.Millisecond {
		t.Fatalf("writer end %v, want 15ms (after readers)", writeEnd)
	}
}

func TestWriterPreference(t *testing.T) {
	e := NewEngine()
	m := e.NewRWMutex("rw")
	var order []string
	e.Go("setup", func() {
		m.RLock()
		e.Go("w", func() {
			m.Lock()
			order = append(order, "w")
			m.Unlock()
		})
		e.Sleep(time.Microsecond)
		e.Go("r2", func() {
			m.RLock() // must queue behind pending writer
			order = append(order, "r2")
			m.RUnlock()
		})
		e.Sleep(time.Microsecond)
		m.RUnlock()
	})
	e.Wait()
	if len(order) != 2 || order[0] != "w" || order[1] != "r2" {
		t.Fatalf("order=%v, want [w r2]", order)
	}
}

func TestWaitGroup(t *testing.T) {
	e := NewEngine()
	wg := e.NewWaitGroup()
	sum := 0
	var joined time.Duration
	together(e, func() {
		for i := 1; i <= 3; i++ {
			i := i
			wg.Add(1)
			e.Go("job", func() {
				e.Sleep(time.Duration(i) * time.Millisecond)
				sum += i
				wg.Done()
			})
		}
		wg.Wait()
		joined = e.Now()
	})
	if sum != 6 {
		t.Fatalf("sum=%d", sum)
	}
	if joined != 3*time.Millisecond {
		t.Fatalf("joined at %v, want 3ms", joined)
	}
}

func TestDeadlockWatchdogReports(t *testing.T) {
	old := stallTimeout
	stallTimeout = 50 * time.Millisecond
	defer func() { stallTimeout = old }()

	e := NewEngine()
	reported := make(chan string, 1)
	e.onDeadlock = func(msg string) { reported <- msg }

	m := e.NewMutex("m")
	e.Go("holder", func() {
		m.Lock() // never unlocked
		e.Go("waiter", func() {
			m.Lock() // deadlocks
		})
		e.Sleep(time.Millisecond)
		// exits while still holding m
	})
	select {
	case msg := <-reported:
		if !strings.Contains(msg, "deadlock") || !strings.Contains(msg, "mutex:m") {
			t.Fatalf("unhelpful report: %s", msg)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watchdog never fired")
	}
}

func TestStallDuringExternalSpawnIsTolerated(t *testing.T) {
	old := stallTimeout
	stallTimeout = 50 * time.Millisecond
	defer func() { stallTimeout = old }()

	e := NewEngine()
	e.onDeadlock = func(msg string) { t.Errorf("false deadlock: %s", msg) }
	m := e.NewMutex("m")
	// An actor parks on a cond-like wait with no timers anywhere...
	c := e.NewCond(m)
	e.Go("waiter", func() {
		m.Lock()
		c.Wait()
		m.Unlock()
	})
	// ...while this non-actor goroutine is "still constructing" and only
	// spawns the waker after the stall window would have fired a naive
	// immediate panic.
	time.Sleep(10 * time.Millisecond)
	e.Go("waker", func() {
		m.Lock()
		c.Signal()
		m.Unlock()
	})
	e.Wait()
	// Give a late watchdog a chance to misfire before declaring success.
	time.Sleep(100 * time.Millisecond)
}

// Idle is not deadlock: actors parked only in idle waits never report,
// however long they sit there; one actor parked in an ordinary wait beside
// them still does, and the report says which waits are the idle ones.
func TestIdleWaitsAreNotADeadlock(t *testing.T) {
	old := stallTimeout
	stallTimeout = 50 * time.Millisecond
	defer func() { stallTimeout = old }()

	e := NewEngine()
	reported := make(chan string, 1)
	e.onDeadlock = func(msg string) { reported <- msg }

	svc := e.NewMutex("svc")
	work := e.NewCond(svc)
	stop := false
	for i := 0; i < 3; i++ {
		e.Go("service", func() {
			svc.Lock()
			for !stop {
				work.WaitIdle()
			}
			svc.Unlock()
		})
	}
	select {
	case msg := <-reported:
		t.Fatalf("an engine with only idle waits parked reported: %s", msg)
	case <-time.After(4 * stallTimeout):
	}

	// Somebody who expects progress nobody can make.
	cl := e.NewMutex("client")
	reply := e.NewCond(cl)
	replied := false
	e.Go("client", func() {
		cl.Lock()
		for !replied {
			reply.Wait()
		}
		cl.Unlock()
	})
	select {
	case msg := <-reported:
		for _, want := range []string{"deadlock", `"cond:client": 1`, `"cond:svc" (idle wait): 3`} {
			if !strings.Contains(msg, want) {
				t.Errorf("report lacks %q:\n%s", want, msg)
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("an ordinary wait parked beside idle ones was never reported")
	}

	e.Go("release", func() {
		cl.Lock()
		replied = true
		reply.Signal()
		cl.Unlock()
		svc.Lock()
		stop = true
		work.Broadcast()
		svc.Unlock()
	})
	e.Wait()
}

func TestTimersAreDeterministic(t *testing.T) {
	// Actors with DISTINCT deadlines wake strictly in deadline order, each
	// alone (the engine advances to one instant at a time), so the
	// observed order is identical on every run. Actors sharing an instant
	// wake together but execute concurrently — the engine guarantees time,
	// not execution order within an instant — hence the distinct deadlines.
	run := func() []int {
		e := NewEngine()
		var order []int
		e.Go("coord", func() {
			for i := 0; i < 4; i++ {
				i := i
				// Reverse-staggered deadlines: later-spawned actors wake first.
				at := time.Duration(10-i) * time.Millisecond
				e.Go("t", func() {
					e.Sleep(at - e.Now())
					order = append(order, i)
				})
				e.Sleep(time.Microsecond)
			}
		})
		e.Wait()
		return order
	}
	want := []int{3, 2, 1, 0}
	for r := 0; r < 6; r++ {
		got := run()
		if len(got) != 4 {
			t.Fatalf("run %d: %v", r, got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("run %d order %v != %v", r, got, want)
			}
		}
	}
}

func TestQuickMutexNeverDoubleHeld(t *testing.T) {
	// Property: under arbitrary interleavings of lock/sleep/unlock, the
	// critical section is never held by two actors at once.
	f := func(delays []uint8) bool {
		e := NewEngine()
		m := e.NewMutex("m")
		inCS := 0
		ok := true
		for _, d := range delays {
			d := time.Duration(d%50) * time.Microsecond
			e.Go("w", func() {
				e.Sleep(d)
				m.Lock()
				inCS++
				if inCS != 1 {
					ok = false
				}
				e.Sleep(time.Duration(d%7) * time.Microsecond)
				inCS--
				m.Unlock()
			})
		}
		e.Wait()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
