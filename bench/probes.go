package main

import (
	"runtime"
	"time"

	"github.com/kaml-ssd/kaml/internal/cmdq"
	"github.com/kaml-ssd/kaml/internal/flash"
	"github.com/kaml-ssd/kaml/internal/hashindex"
	"github.com/kaml-ssd/kaml/internal/lockmgr"
	"github.com/kaml-ssd/kaml/internal/nvme"
	"github.com/kaml-ssd/kaml/internal/record"
	"github.com/kaml-ssd/kaml/internal/sim"
	"github.com/kaml-ssd/kaml/internal/telemetry"
)

// Layer probes: each layer's public functions called in isolation — the
// per-package micro-benchmarks ROADMAP item 1 lists, kept here so they
// share the ledger's schema. Every probe warms up explicitly, then times
// probeSegments equal segments and reports the MEDIAN segment's ns/op, with
// allocations per op over all segments. (A time.Now() pair around one loop
// and a mean — SNIPPETS.md snippet 1 — is the pattern this avoids.)

const (
	probeSegments = 11
	probeWarmup   = 2 // segments run and thrown away first
)

// probeResult is one probe's outcome.
type probeResult struct {
	nsPerOp, allocsPerOp float64
	ops                  int64
}

// probeScale shrinks every probe's segment for tests; 1 on real runs.
var probeScale = 1.0

// probe times fn(n), which must perform n operations.
func probe(n int, fn func(n int)) probeResult { return probePrepared(n, nil, fn) }

// probePrepared is probe with an untimed prep(n) before every segment, for
// operations that consume what they work on.
func probePrepared(n int, prep, fn func(n int)) probeResult {
	n = scaled(n, probeScale, 64)
	var allocs uint64
	ns := make([]float64, 0, probeSegments)
	for i := 0; i < probeWarmup+probeSegments; i++ {
		if prep != nil {
			prep(n)
		}
		if i == probeWarmup {
			runtime.GC()
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t := time.Now()
		fn(n)
		d := time.Since(t)
		runtime.ReadMemStats(&m1)
		if i >= probeWarmup {
			ns = append(ns, float64(d)/float64(n))
			allocs += m1.Mallocs - m0.Mallocs
		}
	}
	ops := int64(n) * probeSegments
	return probeResult{median(ns), float64(allocs) / float64(ops), ops}
}

// simProbe runs fn on an actor of a fresh serialized engine and returns
// what it returns; the probes of engine-bound layers use it.
func simProbe(fn func(eng *sim.Engine) probeResult) probeResult {
	eng := sim.NewEngine()
	eng.Serialize(1)
	var out probeResult
	onActor(eng, func() { out = fn(eng) })
	return out
}

// virtPerOp is the modelled virtual microseconds one call of fn costs on
// an otherwise idle engine.
func virtPerOp(eng *sim.Engine, n int, fn func()) float64 {
	v0 := eng.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return float64(eng.Now()-v0) / 1e3 / float64(n)
}

func runProbes(res *result, scale float64) {
	probeScale = min(scale, 1)
	set := func(name string, p probeResult) { res.set(name, p.nsPerOp, p.ops) }
	setAllocs := func(name string, p probeResult) { res.set(name, p.allocsPerOp, p.ops) }

	// ---- sim: park/wake, mutex handoff, actor spawn ----
	p := simProbe(func(eng *sim.Engine) probeResult {
		return probe(20000, func(n int) {
			for i := 0; i < n; i++ {
				eng.Sleep(time.Microsecond)
			}
		})
	})
	set("sim.sleep_wake_ns", p)
	setAllocs("sim.sleep_wake_allocs", p)
	set("sim.mutex_handoff_ns", simProbe(func(eng *sim.Engine) probeResult {
		// Two actors alternate on one mutex held across a sleep, so every
		// Lock parks and every Unlock hands the lock over.
		mu := eng.NewMutex("probe")
		return probe(10000, func(n int) {
			wg := eng.NewWaitGroup()
			for a := 0; a < 2; a++ {
				wg.Add(1)
				eng.Go("probe", func() {
					defer wg.Done()
					for i := 0; i < n/2; i++ {
						mu.Lock()
						eng.Sleep(time.Microsecond)
						mu.Unlock()
					}
				})
			}
			wg.Wait()
		})
	}))
	set("sim.spawn_ns", simProbe(func(eng *sim.Engine) probeResult {
		return probe(10000, func(n int) {
			wg := eng.NewWaitGroup()
			for i := 0; i < n; i++ {
				wg.Add(1)
				eng.Go("probe", wg.Done)
			}
			wg.Wait()
		})
	}))

	// ---- nvme: one command's transfers on an idle controller ----
	var nvmeVirt float64
	set("nvme.submit_host_ns", simProbe(func(eng *sim.Engine) probeResult {
		ctrl := nvme.New(eng, nvme.DefaultConfig())
		nvmeVirt = virtPerOp(eng, 100, func() { ctrl.Submit(func() {}) })
		return probe(10000, func(n int) {
			for i := 0; i < n; i++ {
				ctrl.Submit(func() {})
			}
		})
	}))
	res.set("nvme.cmd_virt_us", nvmeVirt, 100)

	// ---- cmdq: a no-op command through the worker pool and inline ----
	pipeline := func(eng *sim.Engine) *cmdq.Pipeline {
		return cmdq.New(eng, cmdq.Config{}, func(*cmdq.Command) cmdq.Result { return cmdq.Result{} })
	}
	p = simProbe(func(eng *sim.Engine) probeResult {
		pl := pipeline(eng)
		defer pl.Close()
		cmd := &cmdq.Command{Op: cmdq.OpGet}
		return probe(10000, func(n int) {
			for i := 0; i < n; i++ {
				pl.Submit(cmd).Wait()
			}
		})
	})
	set("cmdq.submit_wait_ns", p)
	setAllocs("cmdq.submit_wait_allocs", p)
	set("cmdq.rundirect_ns", simProbe(func(eng *sim.Engine) probeResult {
		pl := pipeline(eng)
		defer pl.Close()
		cmd := &cmdq.Command{Op: cmdq.OpGet}
		return probe(100000, func(n int) {
			for i := 0; i < n; i++ {
				pl.RunDirect(cmd)
			}
		})
	}))

	// ---- hashindex: the seqlock table at load factor 0.4, and the chains ----
	idxKeys := scaled(100000, probeScale, 1024)
	tbl := hashindex.NewConcurrent(idxKeys*10/4, false)
	for k := uint64(0); k < uint64(idxKeys); k++ {
		_, _, _ = tbl.Put(scramble(k), k) // cannot fill: capacity is 2.5x the keys
	}
	set("hashindex.get_ns", probe(idxKeys, func(n int) {
		for k := uint64(0); k < uint64(n); k++ {
			_, _, _ = tbl.Get(scramble(k))
		}
	}))
	set("hashindex.upsert_ns", probe(idxKeys, func(n int) {
		for k := uint64(0); k < uint64(n); k++ {
			_, _, _, _ = tbl.Upsert(scramble(k), k+1)
		}
	}))
	chains := hashindex.NewVersionChains(idxKeys * 10 / 4)
	var seq uint64
	push := func(n int) {
		for k := uint64(0); k < uint64(n); k++ {
			seq++
			if v, err := chains.Push(k, seq, seq); err == nil {
				chains.Commit(v)
			}
		}
	}
	prune := func(n int) {
		for k := uint64(0); k < uint64(n); k++ {
			chains.Prune(k, nil, true, func(uint64, uint64) {})
		}
	}
	// Push stacks a version on every key and prune takes the superseded one
	// off again, so each is the other's preparation.
	push(idxKeys)
	p = probePrepared(idxKeys, prune, push)
	set("hashindex.chain_push_ns", p)
	setAllocs("hashindex.chain_push_allocs", p)
	set("hashindex.chain_prune_ns", probePrepared(idxKeys, push, prune))

	// ---- record: pack a page of 512 B values, parse it back ----
	fc := deviceOptions().Flash
	val := make([]byte, 512)
	packer := record.NewPacker(fc.PageSize, record.DefaultChunkSize)
	perPage := fc.PageSize / ((record.HeaderSize + len(val) + record.DefaultChunkSize - 1) / record.DefaultChunkSize * record.DefaultChunkSize)
	var page, oob []byte
	p = probe(20000, func(n int) {
		for i := 0; i < n; i++ {
			packer.Add(record.Record{Namespace: 1, Key: uint64(i), Seq: uint64(i), Value: val})
			if packer.Count() == perPage {
				page, oob = packer.Finish()
			}
		}
	})
	set("record.pack_ns", p)
	setAllocs("record.pack_allocs", p)
	pp := probe(2000, func(n int) {
		for i := 0; i < n; i++ {
			_, _ = record.Parse(page, oob, record.DefaultChunkSize)
		}
	})
	res.set("record.parse_ns", pp.nsPerOp/float64(perPage), pp.ops*int64(perPage))

	// ---- flash: page program and read on a bare array ----
	var readVirt, progVirt float64
	var readHost probeResult
	set("flash.program_host_ns", simProbe(func(eng *sim.Engine) probeResult {
		arr := flash.New(eng, fc)
		next := 0 // PPNs are chip-major: counting up programs each block in page order
		program := func() {
			_ = arr.ProgramPage(flash.PPN(next), page, oob) // fresh array, in order: cannot fail
			next++
		}
		progVirt = virtPerOp(eng, 100, program)
		out := probe(200, func(n int) {
			for i := 0; i < n; i++ {
				program()
			}
		})
		written := next
		read := func(i int) { _, _, _ = arr.ReadPage(flash.PPN(i % written)) }
		readVirt = virtPerOp(eng, 100, func() { read(0) })
		readHost = probe(20000, func(n int) {
			for i := 0; i < n; i++ {
				read(i)
			}
		})
		return out
	}))
	set("flash.read_host_ns", readHost)
	res.set("flash.read_virt_us", readVirt, 100)
	res.set("flash.program_virt_us", progVirt, 100)

	// ---- lockmgr: an uncontended exclusive lock, taken and released ----
	set("lockmgr.acquire_release_ns", simProbe(func(eng *sim.Engine) probeResult {
		lm := lockmgr.New(eng, 1)
		return probe(50000, func(n int) {
			for i := 0; i < n; i++ {
				t := lm.NewTxn(uint64(i + 1))
				_ = lm.Acquire(t, 1, uint64(i), lockmgr.Exclusive) // nothing contends: cannot die
				lm.ReleaseAll(t)
			}
		})
	}))

	// ---- telemetry: one counter add, one histogram observation ----
	reg := telemetry.NewRegistry()
	ctr, hist := reg.Counter("probe_total"), reg.Histogram("probe_seconds", telemetry.UnitSeconds)
	set("telemetry.counter_add_ns", probe(1000000, func(n int) {
		for i := 0; i < n; i++ {
			ctr.Inc()
		}
	}))
	set("telemetry.hist_observe_ns", probe(1000000, func(n int) {
		for i := 0; i < n; i++ {
			hist.Observe(int64(i))
		}
	}))
}
