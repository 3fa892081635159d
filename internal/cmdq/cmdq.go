// Package cmdq implements the firmware's asynchronous command pipeline:
// typed commands, a bounded submission queue with backpressure, completion
// futures, and a sharded coalescer that merges small concurrent Puts
// into multi-record batch commits.
//
// The paper's KAML interface is a set of NVMe vendor commands issued through
// queue pairs; its headline numbers come from many outstanding commands
// amortizing transport and flash latency. This package is the
// device-internal half of that story. Each command kind has one executor:
// a direct command (Get, Snapshot) runs on the actor that issued it, so
// reads reach queue depth through concurrent callers, and every write goes
// to its shard's coalescer, whose group-commit window turns N concurrent
// single-record Puts into one multi-record NVRAM batch commit (one commit
// marker — the write-coalescing design the Host-SSD collaborative literature
// shows a concurrent KV store needs).
//
// A write's completion entry reaches the host a transfer after its commit:
// exec says when (Result.Due), and the future opens at that instant on the
// engine's clock (sim.Latch.OpenAt). The shard does not sleep through the
// transfer — it cuts its next batch at once — and the command's occupancy
// slot frees at the commit, so the transfer holds neither.
//
// # Backpressure
//
// Occupancy — commands accepted but not yet completed — is bounded by
// Config.Depth. Submit parks the calling actor on a condition variable while
// the pipeline is full, which is exactly the NVMe semantics of a full
// submission queue: the host spins on the doorbell, it does not get an
// error. Completions signal the queue-space condition, so waiters resume in
// FIFO order and throughput degrades gracefully instead of failing.
//
// Occupancy itself is a plain counter, not mutex-guarded state: the engine
// runs one actor at a time and the running actor owns the pipeline, so while
// it has room, acceptance is one increment and completion one subtract, and
// the pipeline lock is touched only to hand a write to its coalescer shard.
// A direct command therefore meets no pipeline-induced parking at all below
// Depth (see RunDirect).
//
// # Determinism
//
// Everything blocks on sim primitives (FIFO mutexes, condition variables,
// wait groups) and the coalescer's group-commit window is a virtual-clock
// sleep, so a given schedule of submissions always produces the same batch
// boundaries, the same completion order, and the same stats. The coalescer
// shards start, and are woken on shutdown, in shard order.
package cmdq

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"github.com/kaml-ssd/kaml/internal/sim"
	"github.com/kaml-ssd/kaml/internal/telemetry"
)

// ErrClosed reports a command submitted after the pipeline shut down.
// Pipelines embedded in a device usually override it via Config.ClosedErr.
var ErrClosed = errors.New("cmdq: pipeline closed")

// Op identifies a command type.
type Op uint8

// Command opcodes. OpPut and OpPutBatch route through the coalescer; OpGet
// and OpSnapshot are direct commands and execute on the submitting actor.
const (
	OpGet Op = iota + 1
	OpPut
	OpPutBatch
	OpSnapshot
)

func (o Op) String() string {
	switch o {
	case OpGet:
		return "Get"
	case OpPut:
		return "Put"
	case OpPutBatch:
		return "PutBatch"
	case OpSnapshot:
		return "Snapshot"
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Record is one key-value record of a write command — the one put-record
// type: kamlssd.PutRecord and kaml.Record alias it, so a batch travels from
// the public API to the NVRAM commit without conversion, copied once, into
// its future, by Submit.
type Record struct {
	Namespace uint32
	Key       uint64
	Value     []byte
}

// Command is one typed request submitted to the pipeline. Get and Snapshot
// use Namespace and Key, and a Get reads as of commit timestamp TS (the
// newest version committed at or before it); writes carry Records (one for
// OpPut, many for OpPutBatch).
type Command struct {
	Op        Op
	Namespace uint32
	Key       uint64
	TS        uint64
	Records   []Record
	// Merged is set by the coalescer on a group commit: the number of
	// logical write commands whose records the batch carries. Zero for a
	// direct command and for a write re-executed alone after its group
	// commit failed, so exec functions keeping per-command stats should
	// charge max(1, Merged) commands per call.
	Merged int
}

// Result is a command's completion: the read value for Get, the created
// namespace ID for Snapshot, and the terminal error if any.
type Result struct {
	Value     []byte
	Namespace uint32
	Err       error
	// Seq is the commit seq the command names, as an NVMe completion entry's
	// result dword would: for a Get, the version it returned; for a write,
	// the newest seq of the group commit that carried it (every merged
	// command gets the same Result). Zero on error.
	Seq uint64
	// Due is the virtual instant the completion reaches the host. exec sets
	// it for a write, whose completion entry is still in transfer when the
	// commit returns: the future opens then, and the shard that ran the
	// commit cuts its next batch meanwhile. Zero, or an instant already
	// past, opens the future at once.
	Due time.Duration
}

// Future is a command's pending completion. Wait parks the calling actor on
// the virtual clock until the command completes; it is safe to Wait from
// multiple actors and to Wait repeatedly.
//
// The future parks on a sim.Latch it carries by value: complete writes the
// result and opens the latch, which is one atomic store unless somebody is
// already parked, and a Wait that arrives afterwards returns without touching
// the engine. Neither side allocates — under a loaded pipeline most
// completions resolve before their waiter gets there, and the ones that do
// not park with no mutex or condition of their own.
//
// A submitted future is also the command's storage in the pipeline: Submit
// copies the command into it (hold), so a submission is this one allocation
// and neither the caller's Command nor its records slice outlives the call.
type Future struct {
	eng  *sim.Engine
	done sim.Latch // opened once res is written
	res  Result

	cmd Command       // the command as submitted; its Records are the future's own
	one [1]Record     // a lone record rides here
	at  time.Duration // submission timestamp (virtual clock) when tracing, zero otherwise
}

func newFuture(eng *sim.Engine) *Future {
	return &Future{eng: eng}
}

// hold copies cmd into the future. A lone record goes inline and a larger
// batch is copied once into a slice of its own, clipped to its length;
// either way the copy has no spare capacity, so an append to it (a merge)
// reallocates rather than writing into the future's array. The fields are
// copied one by one: assigning *cmd whole would store the caller's records
// slice and make it escape.
func (f *Future) hold(cmd *Command) {
	f.cmd = Command{Op: cmd.Op, Namespace: cmd.Namespace, Key: cmd.Key, TS: cmd.TS, Merged: cmd.Merged}
	switch len(cmd.Records) {
	case 0:
	case 1:
		f.one[0] = cmd.Records[0]
		f.cmd.Records = f.one[:]
	default:
		f.cmd.Records = slices.Clip(append([]Record(nil), cmd.Records...))
	}
}

// Resolved returns an already-completed future. Validation failures (and
// no-op commands like an empty batch) resolve without ever occupying the
// pipeline.
func Resolved(eng *sim.Engine, res Result) *Future {
	f := newFuture(eng)
	f.complete(res)
	return f
}

// Wait blocks the calling actor until the command completes and returns its
// result.
func (f *Future) Wait() Result {
	f.done.Wait(f.eng)
	return f.res
}

// Ready reports whether the command's completion has reached the host.
func (f *Future) Ready() bool { return f.done.IsOpen(f.eng) }

// complete publishes res and wakes any parked waiters at res.Due (at once
// if that has passed). The latch's open is the publication: res is written
// before it, and a waiter reads res only after it has seen the latch open.
func (f *Future) complete(res Result) {
	f.res = res
	f.done.OpenAt(f.eng, res.Due)
}

// Config tunes a pipeline.
type Config struct {
	// Depth bounds occupancy (commands submitted but not completed);
	// Submit blocks when the pipeline is full.
	Depth int
	// CoalesceWindow is how long the coalescer holds the first pending
	// write hoping to merge more into the same batch commit (0 cuts at
	// once: a batch merges only the writes already pending when its shard
	// runs).
	CoalesceWindow time.Duration
	// MaxBatchRecords caps a merged batch (0 = 16). A single submitted
	// batch larger than the cap still commits — atomicity forbids
	// splitting — it just never merges with anything else.
	MaxBatchRecords int
	// CoalesceShards is the number of independent coalescer shards
	// (0 = 4). Writes shard by the hash of their first record's
	// (namespace, key), so concurrent group commits proceed in parallel
	// while two writes to one key can never share a batch they'd conflict
	// in (a shard's cut also dedups within itself).
	CoalesceShards int
	// ClosedErr is returned by commands rejected after Close (default
	// ErrClosed). Fail overrides it with the poison error.
	ClosedErr error
	// Registry, when non-nil, exports the pipeline's counters under their
	// series names and turns on tracing: per-stage lifecycle histograms and
	// the per-command timestamp reads that feed them (see export). The
	// counters count either way; Stats reads the same cells.
	Registry *telemetry.Registry
}

func (c Config) withDefaults() Config {
	if c.Depth <= 0 {
		c.Depth = 128
	}
	if c.MaxBatchRecords <= 0 {
		c.MaxBatchRecords = 16
	}
	if c.CoalesceShards <= 0 {
		c.CoalesceShards = 4
	}
	if c.ClosedErr == nil {
		c.ClosedErr = ErrClosed
	}
	return c
}

// Stats is a snapshot of pipeline activity.
type Stats struct {
	Submitted int64 // commands accepted into the pipeline
	Completed int64 // commands whose future resolved
	// CoalescedPuts counts write commands that shared a batch commit with
	// at least one other command; BatchCommits/BatchRecords describe every
	// commit issued by the coalescer (mean records per commit =
	// BatchRecords / BatchCommits).
	CoalescedPuts int64
	BatchCommits  int64
	BatchRecords  int64
	// MaxOccupancy / MeanOccupancy describe queue depth actually reached
	// (occupancy is sampled at each submission).
	MaxOccupancy  int64
	MeanOccupancy float64
}

// Pipeline is an asynchronous command pipeline over a single exec function.
type Pipeline struct {
	eng  *sim.Engine
	cfg  Config
	exec func(*Command) Result

	// Tracing, nil/empty without Config.Registry: the registry and the
	// histograms export resolves in it.
	reg          *telemetry.Registry
	batchRecords *telemetry.Histogram
	stage        [numOps][numStages]*telemetry.Histogram

	mu         *sim.Mutex
	notFull    *sim.Cond // occupancy < Depth
	inlineIdle *sim.Cond // no RunDirect execution in flight (shutdown drain)

	// occ is the current occupancy, bpWaiters the actors parked on notFull
	// and inline the RunDirect executions in flight. They are plain fields
	// outside p.mu, owned by the running actor, so the direct path reserves
	// and releases a slot without a sim-mutex round-trip; p.mu orders the
	// backpressure slow path (parking on notFull) and the coalescer shards.
	occ, bpWaiters, inline int64

	closing bool  // no new submissions; drain what was accepted
	poison  error // non-nil: fail pending writes instead of executing them

	shards []*coalescer   // indexed by shardOf
	wg     *sim.WaitGroup // the shard actors

	// Counted events, one cell each: Stats() reads them without a sim lock
	// (final-report paths run outside the simulation), and the cells with a
	// series name are the ones the registry exports (see export).
	submitted, completed        atomic.Int64
	batchRecs                   atomic.Int64
	maxOcc                      atomic.Int64
	occSum, occSamples          atomic.Int64
	depth                       telemetry.Gauge   // occupancy as last reserved/released
	backpressure                telemetry.Counter // Submits that parked on a full pipeline
	batchCommits, coalescedPuts telemetry.Counter
	completionFlocks            telemetry.Counter // batched completion deliveries
}

// New builds a pipeline and starts one coalescer actor per shard. exec runs
// firmware work for one command — on the submitting actor for a direct
// command, on a shard's actor for a write — and must not retain the command
// or its records slice: both are reused once exec returns. Close or Fail
// must be called before draining the simulation.
func New(eng *sim.Engine, cfg Config, exec func(*Command) Result) *Pipeline {
	cfg = cfg.withDefaults()
	p := &Pipeline{
		eng:  eng,
		cfg:  cfg,
		exec: exec,
		mu:   eng.NewMutex("cmdq"),
		wg:   eng.NewWaitGroup(),
	}
	p.notFull = eng.NewCond(p.mu)
	p.inlineIdle = eng.NewCond(p.mu)
	if cfg.Registry != nil {
		p.export(cfg.Registry)
	}
	p.shards = make([]*coalescer, cfg.CoalesceShards)
	for i := range p.shards {
		c := &coalescer{p: p, cv: eng.NewCond(p.mu)}
		p.shards[i] = c
		p.wg.Add(1)
		eng.Go(fmt.Sprintf("cmdq-coalesce%d", i), c.loop)
	}
	return p
}

// Submit accepts a command and returns its completion future, blocking the
// calling actor while the pipeline is at Depth outstanding commands. A
// write is handed to its coalescer shard and the future resolves when its
// batch commits. A direct command (Get, Snapshot) runs on the calling actor
// through RunDirect, so the future Submit returns is already resolved.
// After Close or Fail the returned future is already resolved with the
// shutdown error.
//
// Submit copies the command into the future it returns, so the caller may
// reuse cmd and its Records slice as soon as Submit returns. The record
// values are not copied: they must stay unmodified until Wait returns.
func (p *Pipeline) Submit(cmd *Command) *Future {
	fut := newFuture(p.eng)
	fut.hold(cmd)
	if op := fut.cmd.Op; op != OpPut && op != OpPutBatch {
		// The future's own copy runs: handing exec the caller's cmd would
		// make it escape, one more allocation per submission.
		fut.complete(p.RunDirect(&fut.cmd))
		return fut
	}
	p.mu.Lock()
	if err := p.reserveLocked(); err != nil {
		p.mu.Unlock()
		fut.complete(Result{Err: err})
		return fut
	}
	if p.reg != nil {
		fut.at = p.eng.NowCheap()
	}
	p.shards[p.shardOf(&fut.cmd)].addLocked(fut)
	p.mu.Unlock()
	return fut
}

// RunDirect executes a direct (non-coalesced) command synchronously on the
// calling actor and returns its result; it is the one executor of direct
// commands, Submit's included. The command counts against Depth and honors
// backpressure and shutdown like a write, but on an open, non-full pipeline
// acceptance is a single increment and completion a single subtract — no
// handoff, no future, no sim primitive beyond what exec itself performs. A
// read's only engine traffic is therefore the flash access.
func (p *Pipeline) RunDirect(cmd *Command) Result {
	p.inline++
	defer p.inlineDone()
	if p.closing || !p.reserveFast() {
		// Full or closing: park under the lock exactly like Submit.
		p.mu.Lock()
		err := p.reserveLocked()
		p.mu.Unlock()
		if err != nil {
			return Result{Err: err}
		}
	}
	var res Result
	if p.reg != nil {
		at := p.eng.NowCheap()
		res = p.exec(cmd)
		now := p.eng.NowCheap()
		p.observeStage(cmd.Op, stageExec, now-at)
		p.observeStage(cmd.Op, stageTotal, now-at)
	} else {
		res = p.exec(cmd)
	}
	p.completed.Add(1)
	p.release(1)
	return res
}

// inlineDone retires one inline execution and, during shutdown, wakes a
// Close/Join parked on the drain.
func (p *Pipeline) inlineDone() {
	p.inline--
	if p.inline == 0 && p.closing {
		p.mu.Lock()
		p.inlineIdle.Broadcast()
		p.mu.Unlock()
	}
}

// drainInline parks until no RunDirect execution is in flight. Runs after
// the shutdown broadcast (closing set), which arms inlineDone's wakeup.
func (p *Pipeline) drainInline() {
	p.mu.Lock()
	for p.inline > 0 {
		p.inlineIdle.Wait()
	}
	p.mu.Unlock()
}

// shardOf picks the coalescer shard for a write: the hash of the first
// record's (namespace, key). Two writes to the same key always hash to the
// same shard, where the cut-time duplicate check keeps them out of one
// batch; writes to different keys spread across shards so group commits
// execute in parallel. Batches shard whole (atomicity forbids splitting) —
// a cross-shard batch merely merges less often, it is never wrong, because
// every cut dedups against all records of its own pending batches.
func (p *Pipeline) shardOf(cmd *Command) int {
	ns, key := cmd.Namespace, cmd.Key
	if len(cmd.Records) > 0 {
		ns, key = cmd.Records[0].Namespace, cmd.Records[0].Key
	}
	// splitmix64 finalizer: a plain multiply leaves the low bits of the
	// key intact, and strided key patterns then pin every writer to one
	// shard (h%n sees only the low bits).
	h := uint64(ns)*0x9e3779b9 ^ key
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return int(h % uint64(p.cfg.CoalesceShards))
}

func (p *Pipeline) shutdownErrLocked() error {
	if p.poison != nil {
		return p.poison
	}
	return p.cfg.ClosedErr
}

// reserveFast claims one occupancy slot if the pipeline is below Depth,
// recording the occupancy stats on success. Callable with or without p.mu
// held.
func (p *Pipeline) reserveFast() bool {
	if p.occ >= int64(p.cfg.Depth) {
		return false
	}
	p.occ++
	p.submitted.Add(1)
	if p.occ > p.maxOcc.Load() {
		p.maxOcc.Store(p.occ)
	}
	p.occSum.Add(p.occ)
	p.occSamples.Add(1)
	p.depth.Set(p.occ)
	return true
}

// reserveLocked claims one occupancy slot, parking the caller on queue space
// while the pipeline is full (counted once per parked command). Caller holds
// p.mu. It returns the shutdown error when the pipeline is closing.
func (p *Pipeline) reserveLocked() error {
	waited := false
	for !p.closing && !p.reserveFast() {
		waited = true
		p.bpWaiters++
		p.notFull.Wait()
		p.bpWaiters--
	}
	if waited {
		p.backpressure.Inc()
	}
	if p.closing {
		return p.shutdownErrLocked()
	}
	return nil
}

// completeAll counts a drained batch's commands completed and then resolves
// their futures, each to open at its result's Due instant. Lock-free: each
// complete is one atomic publish (plus a wakeup, or a timer, for waiters
// that actually parked). Called with p.mu NOT held.
//
// Counting comes first so that an actor which has waited on every future it
// submitted reads Stats().Completed == Submitted: a future published before
// its count would let the waiter run, and read the counters, in between. The
// occupancy release (release) still follows the publish, so the wakeups a
// completion delivers keep their order: the future's waiter first, then a
// submitter parked on queue space.
func (p *Pipeline) completeAll(tasks []*Future, results []Result) {
	if p.reg != nil {
		now := p.eng.NowCheap()
		for i, t := range tasks {
			p.observeStage(t.cmd.Op, stageTotal, max(now, results[i].Due)-t.at)
		}
	}
	p.completed.Add(int64(len(tasks)))
	for i, t := range tasks {
		t.complete(results[i])
	}
}

// release frees n occupancy slots and delivers the batch's queue-space
// wakeup — one Signal when a single slot freed, one Broadcast otherwise —
// instead of one broadcast per command. It takes p.mu only when a submitter
// is parked on queue space. The commands were counted completed before
// their results were published (completeAll). Called WITHOUT p.mu held.
func (p *Pipeline) release(n int) {
	p.occ -= int64(n)
	p.depth.Set(p.occ)
	p.completionFlocks.Inc()
	if p.bpWaiters > 0 {
		p.mu.Lock()
		if n == 1 {
			p.notFull.Signal()
		} else {
			p.notFull.Broadcast()
		}
		p.mu.Unlock()
	}
}

// coalescer merges pending writes for one shard into multi-record batch
// commits. One flusher actor per shard, started by New.
type coalescer struct {
	p    *Pipeline
	cv   *sim.Cond // rides on p.mu: pending work or shutdown
	pend []*Future
	born time.Duration // arrival of the oldest pending write

	// The cut in commit: its futures, its merged records, their results and
	// the batch command, rebuilt in place by every cut. Only the shard's
	// actor touches them, and exec retains none of them.
	tasks   []*Future
	batch   []Record
	results []Result
	cmd     Command
}

// addLocked queues a write on the shard. Caller holds p.mu.
func (c *coalescer) addLocked(t *Future) {
	if len(c.pend) == 0 {
		c.born = c.p.eng.NowCheap()
	}
	c.pend = append(c.pend, t)
	c.cv.Signal()
}

// earlyCutGrace is how long a coalescer waits before cutting a batch it
// believes no concurrent writer can join (pipeline occupancy equals the
// shard's pending tasks). The virtual clock only advances once every
// runnable actor has parked, so even this tiny sleep guarantees submitters
// runnable at the same instant get to land in the batch first; after it, a
// lone synchronous writer pays ~0.1µs instead of the full CoalesceWindow.
const earlyCutGrace = 100 * time.Nanosecond

// loop is the shard's flusher actor: wait for a write, hold the group-commit
// window open, then cut and commit one batch.
func (c *coalescer) loop() {
	p := c.p
	defer p.wg.Done()
	p.mu.Lock()
	for {
		for len(c.pend) == 0 && !p.closing {
			c.cv.WaitIdle()
		}
		if len(c.pend) == 0 {
			p.mu.Unlock()
			return
		}
		// Group-commit window: give concurrent writers a chance to land in
		// this batch. Shutdown flushes immediately — backpressured and
		// drained commands must not wait on a window nobody will extend.
		if p.poison == nil && !p.closing {
			deadline := c.born + p.cfg.CoalesceWindow
			graced := false
			for c.records() < p.cfg.MaxBatchRecords && !p.closing {
				now := p.eng.NowCheap()
				if now >= deadline {
					break
				}
				wait := deadline - now
				if p.occ == int64(len(c.pend)) {
					// Every outstanding command is already pending on this
					// shard: no in-flight command elsewhere can complete and
					// feed another write into this batch, so holding the full
					// window would add pure latency (the QD-1 synchronous
					// caller is parked in Wait on a future cut right here).
					// One grace tick lets same-instant submitters land, then
					// the batch cuts early.
					if graced {
						break
					}
					graced = true
					if wait > earlyCutGrace {
						wait = earlyCutGrace
					}
				}
				p.mu.Unlock()
				p.eng.Sleep(wait)
				p.mu.Lock()
			}
		}
		batch, tasks := c.cutLocked()
		poison := p.poison
		p.mu.Unlock()

		results := slices.Grow(c.results[:0], len(tasks))[:len(tasks)]
		c.results = results
		switch {
		case poison != nil:
			for i := range results {
				results[i] = Result{Err: poison}
			}
		default:
			var start time.Duration
			if p.reg != nil {
				start = p.eng.NowCheap()
				for _, t := range tasks {
					p.observeStage(t.cmd.Op, stageCoalesce, start-t.at)
				}
			}
			c.cmd = Command{Op: OpPutBatch, Records: batch, Merged: len(tasks)}
			res := p.exec(&c.cmd)
			if p.reg != nil {
				// The group commit's exec is the NVRAM batch commit; charge
				// its latency to every merged command.
				d := p.eng.NowCheap() - start
				for _, t := range tasks {
					p.observeStage(t.cmd.Op, stageExec, d)
				}
			}
			if res.Err != nil && len(tasks) > 1 {
				// A merged commit is all-or-nothing in the firmware, so its
				// error would name every coalesced neighbor even when only
				// one command is at fault (read-only namespace, namespace
				// deleted after submission, mapping table full — none of
				// which host-side validation can pre-check race-free). The
				// failed group commit rolled back without side effects, so
				// re-execute each merged command individually and give every
				// future its own verdict: an innocent write must never fail
				// because of what a coalesced neighbor did.
				for i, t := range tasks {
					results[i] = p.exec(&t.cmd)
				}
				break
			}
			p.batchCommits.Inc()
			p.batchRecs.Add(int64(len(batch)))
			p.batchRecords.Observe(int64(len(batch)))
			if len(tasks) > 1 {
				p.coalescedPuts.Add(int64(len(tasks)))
			}
			for i := range results {
				results[i] = res
			}
		}
		p.completeAll(tasks, results)
		// One occupancy release and one queue-space wakeup for the whole
		// batch, before the loop takes the pipeline lock back.
		p.release(len(tasks))
		p.mu.Lock()
	}
}

// records counts records currently pending on the shard. Caller holds p.mu.
func (c *coalescer) records() int {
	n := 0
	for _, t := range c.pend {
		n += len(t.cmd.Records)
	}
	return n
}

// cutLocked carves the next batch off the pending queue: a FIFO prefix
// bounded by MaxBatchRecords in which no two commands share a (namespace,
// key) — the firmware's atomic batch rejects duplicates, and an innocent
// writer must never fail because a coalesced neighbor touched the same key.
// Each command's own records were checked at submission, so only the
// cross-command pairs that merging creates are compared; a lone command —
// nearly every cut below queue depth 2 — commits its future's records as
// they are, and a merge copies into the shard's batch buffer. The cut's
// futures move to the shard's task list and pend closes up in place, so a
// steady cut allocates nothing. An oversized submitted batch is taken alone
// (never split). Caller holds p.mu.
func (c *coalescer) cutLocked() ([]Record, []*Future) {
	first := c.pend[0].cmd.Records
	batch := first
	take := 1
	for _, t := range c.pend[1:] {
		recs := t.cmd.Records
		if len(batch)+len(recs) > c.p.cfg.MaxBatchRecords || sharesKey(batch, recs) {
			break
		}
		if take == 1 {
			batch = append(c.batch[:0], first...)
		}
		batch = append(batch, recs...)
		take++
	}
	if take > 1 {
		c.batch = batch
	}
	c.tasks = append(c.tasks[:0], c.pend[:take]...)
	n := copy(c.pend, c.pend[take:])
	clear(c.pend[n:])
	c.pend = c.pend[:n]
	if n > 0 {
		c.born = c.p.eng.NowCheap() // restart the window for the remainder
	}
	return batch, c.tasks
}

// sharesKey reports whether any record of recs names a (namespace, key)
// already in batch. batch is below MaxBatchRecords whenever this runs, so
// the pairwise scan is bounded and allocates nothing.
func sharesKey(batch, recs []Record) bool {
	for _, r := range recs {
		for _, b := range batch {
			if b.Key == r.Key && b.Namespace == r.Namespace {
				return true
			}
		}
	}
	return false
}

// Close stops accepting commands, executes everything already accepted
// (pending writes flush immediately, skipping their coalesce window), and
// waits for the coalescer actors and every RunDirect execution to finish.
// Idempotent; call from a simulation actor.
func (p *Pipeline) Close() {
	p.broadcastShutdown(nil)
	p.wg.Wait()
	p.drainInline()
}

// Fail poisons the pipeline: pending writes and future commands complete
// with err instead of executing (a direct command already executing runs to
// its end). Non-blocking (the power-loss path calls it from actors that
// must not park); pair with Join to wait for actor exit.
func (p *Pipeline) Fail(err error) {
	p.broadcastShutdown(err)
}

func (p *Pipeline) broadcastShutdown(poison error) {
	p.mu.Lock()
	if poison != nil && p.poison == nil {
		p.poison = poison
	}
	p.closing = true
	p.notFull.Broadcast()
	for _, c := range p.shards {
		c.cv.Broadcast()
	}
	p.mu.Unlock()
}

// Join blocks until every coalescer actor has exited (they drain on Close,
// bail out on Fail) and every inline RunDirect execution has returned.
func (p *Pipeline) Join() {
	p.wg.Wait()
	p.drainInline()
}

// Stats returns a snapshot of pipeline counters. Lock-free, so it is safe
// to call from outside the simulation (final reports after the engine has
// drained).
func (p *Pipeline) Stats() Stats {
	s := Stats{
		Submitted:     p.submitted.Load(),
		Completed:     p.completed.Load(),
		CoalescedPuts: p.coalescedPuts.Value(),
		BatchCommits:  p.batchCommits.Value(),
		BatchRecords:  p.batchRecs.Load(),
		MaxOccupancy:  p.maxOcc.Load(),
	}
	if n := p.occSamples.Load(); n > 0 {
		s.MeanOccupancy = float64(p.occSum.Load()) / float64(n)
	}
	return s
}
