package cmdq

import (
	"testing"
	"time"

	"github.com/kaml-ssd/kaml/internal/sim"
)

// A Wait that has to park — its command is still executing — allocates
// nothing: the future parks on the latch it carries, with no mutex or
// condition built for it.
func TestBlockedFutureWaitDoesNotAllocate(t *testing.T) {
	const warmup, runs = 64, 1000
	eng := sim.NewEngine()
	futs := make([]*Future, warmup+runs+1) // AllocsPerRun makes one extra call
	for i := range futs {
		futs[i] = newFuture(eng)
	}
	next := 0
	wait := func() {
		if res := futs[next].Wait(); res.Namespace != uint32(next) {
			t.Errorf("future %d resolved with %d", next, res.Namespace)
		}
		next++
	}
	var got float64
	eng.Go("root", func() {
		// Each future completes a microsecond after its waiter has parked.
		eng.Go("completer", func() {
			for i, f := range futs {
				eng.Sleep(time.Microsecond)
				f.complete(Result{Namespace: uint32(i)})
			}
		})
		eng.Go("waiter", func() {
			for i := 0; i < warmup; i++ {
				wait()
			}
			got = testing.AllocsPerRun(runs, wait)
		})
	})
	eng.Wait()
	if got != 0 {
		t.Errorf("a blocked Future.Wait allocates %.2f times, want 0", got)
	}
}

// Submitting a direct command allocates its future and nothing else: the
// command runs on the future's own copy, so neither the caller's Command nor
// anything RunDirect touches escapes to the heap.
func TestDirectSubmitAllocatesOnlyItsFuture(t *testing.T) {
	eng := sim.NewEngine()
	p := New(eng, Config{}, func(cmd *Command) Result { return Result{Namespace: cmd.Namespace} })
	var got float64
	eng.Go("root", func() {
		defer p.Close()
		submit := func() {
			if res := p.Submit(&Command{Op: OpGet, Namespace: 3, Key: 7}).Wait(); res.Err != nil || res.Namespace != 3 {
				t.Errorf("get: %+v", res)
			}
		}
		for i := 0; i < 64; i++ {
			submit()
		}
		got = testing.AllocsPerRun(1000, submit)
	})
	eng.Wait()
	if got != 1 {
		t.Errorf("Submit(Get).Wait allocates %.2f times, want 1 (its future)", got)
	}
}
