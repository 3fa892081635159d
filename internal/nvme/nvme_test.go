package nvme

import (
	"testing"
	"time"

	"github.com/kaml-ssd/kaml/internal/sim"
)

func TestSubmitChargesTransportCosts(t *testing.T) {
	e := sim.NewEngine()
	c := New(e, DefaultConfig())
	var elapsed time.Duration
	e.Go("host", func() {
		start := e.Now()
		c.Submit(func() { e.Sleep(100 * time.Microsecond) })
		elapsed = e.Now() - start
	})
	e.Wait()
	want := DefaultConfig().HostSoftware + DefaultConfig().SubmissionLatency +
		100*time.Microsecond + DefaultConfig().CompletionLatency
	if elapsed != want {
		t.Fatalf("elapsed %v want %v", elapsed, want)
	}
}

func TestQueueDepthLimitsConcurrentTransfers(t *testing.T) {
	e := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.QueueDepth = 2
	cfg.HostSoftware = 0
	cfg.SubmissionLatency = time.Millisecond
	cfg.CompletionLatency = 0
	c := New(e, cfg)
	var ends []time.Duration
	e.Go("root", func() {
		for i := 0; i < 4; i++ {
			e.Go("cmd", func() {
				c.Submission()
				ends = append(ends, e.Now())
			})
		}
	})
	e.Wait()
	var at1, at2 int
	for _, d := range ends {
		switch d {
		case time.Millisecond:
			at1++
		case 2 * time.Millisecond:
			at2++
		default:
			t.Fatalf("unexpected completion at %v", d)
		}
	}
	if at1 != 2 || at2 != 2 {
		t.Fatalf("ends=%v", ends)
	}
}

// The queue slot covers transfers only: device-side work between submission
// and completion must not serialize other commands, even at QueueDepth 1.
func TestSlotNotHeldAcrossDeviceWork(t *testing.T) {
	e := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.QueueDepth = 1
	cfg.HostSoftware = 0
	cfg.SubmissionLatency = 0
	cfg.CompletionLatency = 0
	c := New(e, cfg)
	var ends []time.Duration
	e.Go("root", func() {
		for i := 0; i < 2; i++ {
			e.Go("cmd", func() {
				c.Submit(func() { e.Sleep(time.Millisecond) })
				ends = append(ends, e.Now())
			})
		}
	})
	e.Wait()
	for _, d := range ends {
		if d != time.Millisecond {
			t.Fatalf("device work held the queue slot: ends=%v", ends)
		}
	}
}

func TestCoresLimitCompute(t *testing.T) {
	e := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.Cores = 1
	c := New(e, cfg)
	var end time.Duration
	wg := e.NewWaitGroup()
	e.Go("root", func() {
		for i := 0; i < 3; i++ {
			wg.Add(1)
			e.Go("fw", func() {
				defer wg.Done()
				c.Compute(time.Millisecond)
			})
		}
		wg.Wait()
		end = e.Now()
	})
	e.Wait()
	if end != 3*time.Millisecond {
		t.Fatalf("one core should serialize: end=%v", end)
	}
}

func TestComputeProbesScalesWithN(t *testing.T) {
	e := sim.NewEngine()
	cfg := DefaultConfig()
	c := New(e, cfg)
	var d1, d100 time.Duration
	e.Go("fw", func() {
		s := e.Now()
		c.ComputeProbes(1)
		d1 = e.Now() - s
		s = e.Now()
		c.ComputeProbes(100)
		d100 = e.Now() - s
	})
	e.Wait()
	if d100-d1 != 99*cfg.ProbeCost {
		t.Fatalf("d1=%v d100=%v", d1, d100)
	}
}

func TestZeroComputeIsFree(t *testing.T) {
	e := sim.NewEngine()
	c := New(e, DefaultConfig())
	e.Go("fw", func() {
		c.Compute(0)
		if e.Now() != 0 {
			t.Errorf("clock moved to %v", e.Now())
		}
	})
	e.Wait()
}
