package main

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/kaml-ssd/kaml/internal/sim"
)

// The load driver: one open-loop and one closed-loop routine shared by
// every workload, written against a clock so the same code drives
// simulation actors on virtual time and plain goroutines on wall time.
// Conventions follow internal/traffic (ROADMAP item 2 can fold the two
// together later): seeded exponential gaps, one task per arrival, latency
// measured from the INTENDED arrival so a stall is charged to every
// request it delays.

type group interface {
	Add(int)
	Done()
	Wait()
}

type clock interface {
	Now() time.Duration
	SleepUntil(t time.Duration)
	Go(fn func())
	NewGroup() group
	// backdate moves the start of root span i, on this clock's own time
	// axis, to due: an open-loop request starts when it was due to be sent,
	// not when the generator got to it.
	backdate(tr *tracer, i int32, due time.Duration)
}

// simClock is virtual time: callers must be simulation actors.
type simClock struct{ eng *sim.Engine }

func (c simClock) Now() time.Duration { return c.eng.NowCheap() }
func (c simClock) SleepUntil(t time.Duration) {
	if d := t - c.eng.NowCheap(); d > 0 {
		c.eng.Sleep(d)
	}
}
func (c simClock) Go(fn func())    { c.eng.Go("bench-op", fn) }
func (c simClock) NewGroup() group { return c.eng.NewWaitGroup() }
func (c simClock) backdate(tr *tracer, i int32, due time.Duration) {
	if i >= 0 {
		tr.spans[i].v0 = int64(due)
	}
}

// wallClock is real time: callers are plain goroutines.
type wallClock struct{ t0 time.Time }

func (c wallClock) Now() time.Duration         { return time.Since(c.t0) }
func (c wallClock) SleepUntil(t time.Duration) { time.Sleep(t - time.Since(c.t0)) }
func (c wallClock) Go(fn func())               { go fn() }
func (c wallClock) NewGroup() group            { return &sync.WaitGroup{} }
func (c wallClock) backdate(tr *tracer, i int32, due time.Duration) {
	if i >= 0 {
		tr.spans[i].w0 = int64(c.t0.Add(due).Sub(tr.t0))
	}
}

// op is one drawn request: a kind private to the workload and up to four
// keys.
type op struct {
	kind uint8
	n    uint8
	keys [4]uint64
}

// opCtx is what the driver hands a workload to execute one request.
type opCtx struct {
	seq   uint32
	phase uint8
	tr    *tracer // nil when this request is not traced
	root  int32   // the request's root span
	buf   []byte  // value scratch: one per client in closed loops, made on demand in open loops
}

// loadSpec is what a workload gives the driver: how to draw a request and
// how to run it. run reports whether the request succeeded and verified.
type loadSpec struct {
	draw      func(rng *rand.Rand, o *op)
	run       func(c *opCtx, o *op) bool
	valueSize int // bytes of value scratch a closed-loop client needs
}

// phase is the record of one driven phase.
type phase struct {
	name string
	id   uint8
	ops  int

	start, end         time.Duration // on the phase's clock
	wallStart, wallEnd time.Time

	lat       []int64 // open loop: latency from intended arrival, ns
	lag       []int64 // open loop: how late the generator issued, ns
	backlog50 int64   // issued - completed at half the arrivals
	backlog   int64   // ... and at the last arrival
	cut       bool    // open loop: stopped early, the backlog passed maxBacklog
	failed    atomic.Int64
	completed atomic.Int64
	segWall   []time.Duration // closed loop: wall time at each segment boundary
	traceHalf bool            // closed loop: record spans in half the segments only (tracedSegment)
}

func (p *phase) elapsed() time.Duration { return p.end - p.start }

// mark stamps a hand-driven phase: the first call is its start, the second
// its end. now is the time on the phase's clock.
func (p *phase) mark(now time.Duration) {
	if p.wallStart.IsZero() {
		p.wallStart, p.start = time.Now(), now
		return
	}
	p.wallEnd, p.end = time.Now(), now
}

// opsPerSec is the phase's throughput on its own clock.
func (p *phase) opsPerSec() float64 { return float64(p.ops) / p.elapsed().Seconds() }

// driver carries what both loops need.
type driver struct {
	seed   int64
	seq    atomic.Uint32 // request sequence numbers, shared by all phases
	tr     *tracer       // nil on an untraced run
	phases []*phase
}

func (d *driver) newPhase(name string, ops int) *phase {
	p := &phase{name: name, id: uint8(len(d.phases)), ops: ops}
	d.phases = append(d.phases, p)
	return p
}

func (d *driver) phaseNames() []string {
	names := make([]string, len(d.phases))
	for i, p := range d.phases {
		names[i] = p.name
	}
	return names
}

// phaseRNG derives a phase- and client-specific seed from the run seed.
func (d *driver) phaseRNG(p *phase, client int) *rand.Rand {
	x := uint64(d.seed)*0x9e3779b97f4a7c15 ^ uint64(p.id+1)<<32 ^ uint64(client+1)
	x ^= x >> 31
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 29
	return rand.New(rand.NewSource(int64(x >> 1)))
}

// openLoop issues n requests at rate per second on clk with seeded
// exponential gaps, each on its own task, and waits for the last one
// (the quiesce between rungs). Every random draw — gap, kind, keys —
// happens on the generator in arrival order, so a serialized engine
// replays the phase exactly.
//
// A positive maxBacklog cuts the phase short once that many requests are
// outstanding: such a rung has already failed the no-growing-backlog rule,
// and the program serves a deep backlog several times slower in host time
// than it serves the same requests at its own pace, so running a hopeless
// rung to the end would cost minutes. The cut depends on simulated state
// only, so it replays too.
func (d *driver) openLoop(clk clock, ls loadSpec, name string, rate float64, n int, maxBacklog int64) *phase {
	p := d.newPhase(name, n)
	p.lat = make([]int64, n)
	p.lag = make([]int64, n)
	rng := d.phaseRNG(p, 0)
	inflight := clk.NewGroup()
	p.wallStart = time.Now()
	p.start = clk.Now()
	due := p.start
	for i := 0; i < n; i++ {
		due += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		clk.SleepUntil(due)
		p.lag[i] = int64(clk.Now() - due)
		c := &opCtx{seq: d.seq.Add(1), phase: p.id, tr: d.tr}
		c.root = c.tr.begin(spanOp, p.id, -1, c.seq)
		clk.backdate(c.tr, c.root, due)
		kg := c.tr.begin(spanKeygen, p.id, c.root, c.seq)
		var o op
		ls.draw(rng, &o)
		c.tr.end(kg)
		i, due := i, due
		inflight.Add(1)
		clk.Go(func() {
			defer inflight.Done()
			if !ls.run(c, &o) {
				p.failed.Add(1)
			}
			p.lat[i] = int64(clk.Now() - due)
			c.tr.end(c.root)
			p.completed.Add(1)
		})
		p.backlog = int64(i+1) - p.completed.Load()
		if i+1 == n/2 {
			p.backlog50 = p.backlog
		}
		if maxBacklog > 0 && p.backlog > maxBacklog {
			p.cut, p.ops = true, i+1
			break
		}
	}
	inflight.Wait()
	p.lat, p.lag = p.lat[:p.ops], p.lag[:p.ops]
	p.end = clk.Now()
	p.wallEnd = time.Now()
	return p
}

// closedLoop runs clients back-to-back requesters until ops requests are
// done (ops is rounded down to a multiple of clients). It stamps the wall
// clock each time another ops/peakSegments requests have completed, which
// is where host_ops_per_s takes its median from. With traceHalf (and a
// tracer) half of those segments record spans, so one phase yields both the
// span aggregates and the cost of recording them; without it none do.
func (d *driver) closedLoop(clk clock, ls loadSpec, name string, clients, ops int, traceHalf bool) *phase {
	per := ops / clients
	p := d.newPhase(name, per*clients)
	p.traceHalf = traceHalf
	segOps := int64(p.ops / peakSegments)
	if segOps == 0 {
		segOps = int64(p.ops)
	}
	p.segWall = make([]time.Duration, p.ops/int(segOps)+1)
	done := clk.NewGroup()
	p.wallStart = time.Now()
	p.start = clk.Now()
	for cl := 0; cl < clients; cl++ {
		rng := d.phaseRNG(p, cl)
		buf := make([]byte, ls.valueSize)
		done.Add(1)
		clk.Go(func() {
			defer done.Done()
			for i := 0; i < per; i++ {
				c := opCtx{seq: d.seq.Add(1), phase: p.id, buf: buf}
				if traceHalf && tracedSegment(int(p.completed.Load()/segOps)) {
					c.tr = d.tr
				}
				c.root = c.tr.begin(spanOp, p.id, -1, c.seq)
				kg := c.tr.begin(spanKeygen, p.id, c.root, c.seq)
				var o op
				ls.draw(rng, &o)
				c.tr.end(kg)
				if !ls.run(&c, &o) {
					p.failed.Add(1)
				}
				c.tr.end(c.root)
				if n := p.completed.Add(1); n%segOps == 0 {
					p.segWall[n/segOps] = time.Since(p.wallStart)
				}
			}
		})
	}
	done.Wait()
	p.end = clk.Now()
	p.wallEnd = time.Now()
	return p
}

// tracedSegment says whether segment i of a half-traced closed loop
// records spans: the Thue-Morse sequence (0110 1001 1001 0110), which
// splits any run of segments into two halves balanced against drift and
// against every short period — plain alternation aliased with put-churn's
// two-segment GC rhythm and reported a negative overhead.
func tracedSegment(i int) bool { return bits.OnesCount(uint(i))%2 == 1 }

// Which segments of a closed loop segmentRates returns.
const (
	segAll = iota
	segTraced
	segUntraced
)

// segmentRates returns the host throughput (requests per wall second) of
// each closed-loop segment: all of them, or only the traced or only the
// untraced half of a half-traced phase.
func (p *phase) segmentRates(which int) []float64 {
	segOps := float64(p.ops / (len(p.segWall) - 1))
	var out []float64
	for i := 1; i < len(p.segWall); i++ {
		if which != segAll && tracedSegment(i-1) != (which == segTraced) {
			continue
		}
		if dt := (p.segWall[i] - p.segWall[i-1]).Seconds(); dt > 0 {
			out = append(out, segOps/dt)
		}
	}
	return out
}

// quantile returns the q-quantile of xs by nearest rank (ceil(q*n)-1, the
// rank convention of internal/stats and internal/telemetry). xs must be
// sorted.
func quantile(xs []int64, q float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// rankMean is the mean of the order statistics of sorted xs between ranks
// lo and hi (shares of n): a quantile smoothed over a rank window. The
// model's latencies sit on a lattice (139.12 us is one probed slot, 157.12
// two, ...), so a single order statistic is either the same lattice point
// on every seed — which the builder's driver refuses as not a measurement —
// or flips between two of them; a window mean moves with the mix instead.
func rankMean(xs []int64, lo, hi float64) float64 {
	a, b := int(lo*float64(len(xs))), int(math.Ceil(hi*float64(len(xs))))
	if b > len(xs) {
		b = len(xs)
	}
	if a >= b {
		a = b - 1
	}
	var sum float64
	for _, x := range xs[a:b] {
		sum += float64(x)
	}
	return sum / float64(b-a)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
