package sim

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// scheduleFingerprints are scheduleFingerprint(1..20). A change to the
// engine that draws its actors in another order, or wakes them at other
// instants, changes them; so does a change to the program below. Every
// seeded golden of the repository rests on the draw order, so a new value
// here is a new schedule for all of them, not a new constant to paste.
var scheduleFingerprints = [20]uint64{
	0xe637936dc5373898, 0xb2b9e08098c08322, 0xa346ac0b7ca7336b, 0xe2b3c6c12ca0a56e,
	0x149ce9886257fa29, 0xbad55abacc2cd88d, 0xe1f1dfb0520061e6, 0xd347fc1c13aaa35,
	0x8818210d58e3b5e6, 0xb69fb0f93b71db13, 0x2a768342df2546bf, 0x7b2de2b603bcb666,
	0x303bb76aee61508f, 0x6e421133d6d72e8c, 0xc8b7ada79c5cf2c1, 0xd5cc71fe104f7872,
	0x9a0d66f3a2392f4, 0xf4d2f3ddc20b6668, 0xa5565b971f79e788, 0x799ac25dc26fcc4,
}

// The engine's draw order is pinned: seeded random actor
// programs that use every primitive, spawned from inside and outside the
// simulation, must produce the recorded (actor, instant) sequence.
func TestScheduleFingerprint(t *testing.T) {
	for i, want := range scheduleFingerprints {
		seed := int64(i + 1)
		if got := scheduleFingerprint(seed); got != want {
			t.Errorf("seed %d: schedule fingerprint %#x, want %#x", seed, got, want)
		}
	}
}

func us(n int) time.Duration { return time.Duration(n) * time.Microsecond }

// schedWorld is the shared state of one fingerprint run. Its actors run
// one at a time, so they touch it without a lock of their own.
type schedWorld struct {
	e      *Engine
	seed   int64
	mark   func(id int)
	nextID int

	mu      *Mutex
	tick    *Cond // on mu: epoch advances while ticking
	epoch   int
	ticking bool
	sem     *Semaphore
	rw      *RWMutex
	wg      *WaitGroup // the workers of the running session

	svcMu  *Mutex
	work   *Cond // on svcMu: the service actors' idle wait
	queued int
	stop   bool

	gate Latch // opened from outside the simulation
}

// spawn starts fn as a new actor with the next id.
func (w *schedWorld) spawn(fn func(id int)) {
	id := w.nextID
	w.nextID++
	w.e.Go("fingerprint", func() { fn(id) })
}

// worker runs steps random steps, each one a primitive or a spawn, marking
// the instant after each. depth bounds the spawned children.
func (w *schedWorld) worker(id, steps, depth int) {
	e := w.e
	rng := rand.New(rand.NewSource(w.seed*1000 + int64(id)))
	for i := 0; i < steps; i++ {
		switch rng.Intn(10) {
		case 0:
			e.Sleep(us(rng.Intn(3) + 1))
		case 1:
			w.mu.Lock()
			e.Sleep(us(rng.Intn(2) + 1))
			w.mu.Unlock()
		case 2: // wait for the ticker's next epoch
			w.mu.Lock()
			for seen := w.epoch; w.epoch == seen && w.ticking; {
				w.tick.Wait()
			}
			w.mu.Unlock()
		case 3:
			w.sem.Use(us(rng.Intn(3) + 1))
		case 4:
			w.rw.RLock()
			e.Sleep(us(rng.Intn(2) + 1))
			w.rw.RUnlock()
		case 5:
			w.rw.Lock()
			e.Sleep(us(1))
			w.rw.Unlock()
		case 6: // hand the service actors work
			w.svcMu.Lock()
			w.queued++
			w.work.Signal()
			w.svcMu.Unlock()
		case 7: // a child opens a latch ahead, the worker waits on it
			l := new(Latch)
			d, ahead := us(rng.Intn(3)), us(rng.Intn(3))
			w.spawn(func(int) {
				e.Sleep(d)
				l.OpenAt(e, e.Now()+ahead)
			})
			l.Wait(e)
		case 8: // open a latch ahead, then wait on it
			var l Latch
			l.OpenAt(e, e.Now()+us(rng.Intn(3)))
			l.Wait(e)
		case 9:
			if depth > 0 {
				w.wg.Add(1)
				w.spawn(func(id int) {
					defer w.wg.Done()
					w.worker(id, steps/2, depth-1)
				})
			}
		}
		w.mark(id)
	}
}

// session spawns one root actor from outside the simulation: it runs
// first (if not nil), starts workers and the ticker and joins the workers.
// The workers of a gated session then park on the gate.
func (w *schedWorld) session(workers, steps int, gated bool, first func()) {
	w.e.Go("root", func() {
		if first != nil {
			first()
		}
		w.wg = w.e.NewWaitGroup()
		w.ticking = true
		w.spawn(func(id int) {
			for i := 0; i < 3*steps; i++ {
				w.e.Sleep(us(1))
				w.mu.Lock()
				w.epoch++
				w.tick.Broadcast()
				w.mu.Unlock()
				w.mark(id)
			}
			w.mu.Lock()
			w.ticking = false
			w.tick.Broadcast()
			w.mu.Unlock()
		})
		for i := 0; i < workers; i++ {
			w.wg.Add(1)
			w.spawn(func(id int) {
				w.worker(id, steps, 2)
				w.wg.Done()
				if gated {
					w.gate.Wait(w.e)
					w.mark(id)
				}
			})
		}
		w.wg.Wait()
	})
}

// services spawns three service actors that serve queued work and park
// in an idle wait when there is none, until stop.
func (w *schedWorld) services() {
	e := w.e
	for i := 0; i < 3; i++ {
		w.spawn(func(id int) {
			w.svcMu.Lock()
			for !w.stop {
				if w.queued == 0 {
					w.work.WaitIdle()
					continue
				}
				w.queued--
				w.svcMu.Unlock()
				e.Sleep(us(2))
				w.mark(id)
				w.svcMu.Lock()
			}
			w.svcMu.Unlock()
		})
	}
}

// awaitQuiescent waits, on the wall clock, until every actor of e is
// parked and no timer is pending: the only instants at which a call from
// outside the simulation lands at a point the schedule fixes. It asks under
// the engine's mutex, and reads the state only once the hub is down: while
// the hub is up the state is its owner's, and between a park and the next
// draw no timer may be left while an actor is about to run.
func awaitQuiescent(e *Engine) {
	for {
		e.mu.Lock()
		q := !e.hubUp && e.runnable == 0 && len(e.timers) == 0
		e.mu.Unlock()
		if q {
			return
		}
		runtime.Gosched()
	}
}

// scheduleFingerprint hashes the (actor, instant) sequence of a seeded
// run: a gated session with service actors beside it, the gate opened
// ahead from outside with every actor parked, the idle service actors
// stopped by an actor spawned from outside, and a second session spawned
// from outside after every actor has exited.
func scheduleFingerprint(seed int64) uint64 {
	e := NewEngine()
	e.Serialize(seed)
	h := fnv.New64a()
	var buf [16]byte
	w := &schedWorld{e: e, seed: seed}
	w.mark = func(id int) {
		binary.LittleEndian.PutUint64(buf[:8], uint64(id))
		binary.LittleEndian.PutUint64(buf[8:], uint64(e.Now()))
		h.Write(buf[:])
	}
	w.mu = e.NewMutex("fp")
	w.tick = e.NewCond(w.mu)
	w.sem = e.NewSemaphore("fp", 2)
	w.rw = e.NewRWMutex("fp")
	w.svcMu = e.NewMutex("fp-svc")
	w.work = e.NewCond(w.svcMu)
	w.session(6, 24, true, w.services)
	awaitQuiescent(e)
	w.gate.OpenAt(e, e.Now()+us(5))
	awaitQuiescent(e)
	w.spawn(func(id int) {
		w.svcMu.Lock()
		w.stop = true
		w.work.Broadcast()
		w.svcMu.Unlock()
		w.mark(id)
	})
	e.Wait()
	w.session(3, 12, false, nil)
	e.Wait()
	return h.Sum64()
}
