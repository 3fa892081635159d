package main

import (
	"math/rand"
	"slices"
	"strconv"
	"time"

	kaml "github.com/kaml-ssd/kaml"
	"github.com/kaml-ssd/kaml/internal/cache"
	"github.com/kaml-ssd/kaml/internal/hashindex"
	"github.com/kaml-ssd/kaml/internal/record"
	"github.com/kaml-ssd/kaml/internal/sim"
	"github.com/kaml-ssd/kaml/internal/telemetry"
)

// Per-layer metrics of the single-device workloads: counter windows, span
// aggregates, the idle-device phase and the telemetry control run. All of
// it reads what the layers already export; nothing here reaches inside.

// devSnap is one boundary snapshot of everything a device exports.
type devSnap struct {
	at    time.Duration // virtual
	st    kaml.Stats
	cache cache.Stats
	ctr   map[string]int64
	hist  map[string]telemetry.HistSnapshot
}

// Histograms and counters read from the device registry. Registry getters
// return the instrument the device registered under the same name.
var (
	stageHists = [][2]string{{"Put", "coalesce"}, {"Put", "exec"}, {"Get", "exec"}}
	plainHists = []string{"kaml_gc_pause_seconds", "kaml_ssd_flash_install_seconds"}
	counters   = []string{"kaml_cmdq_backpressure_waits_total", "kaml_lockmgr_waits_total", "kaml_lockmgr_dies_total"}
)

func snapDevice(dev *kaml.Device, c *cache.Cache) devSnap {
	s := devSnap{at: dev.Now(), st: dev.Stats(), ctr: map[string]int64{}, hist: map[string]telemetry.HistSnapshot{}}
	if c != nil {
		s.cache = c.Stats()
	}
	reg := dev.Telemetry()
	for _, h := range stageHists {
		s.hist[h[0]+"/"+h[1]] = reg.Histogram("kaml_cmdq_stage_seconds", telemetry.UnitSeconds, "op", h[0], "stage", h[1]).Snapshot()
	}
	for _, h := range plainHists {
		s.hist[h] = reg.Histogram(h, telemetry.UnitSeconds).Snapshot()
	}
	for _, name := range counters {
		s.ctr[name] = reg.Counter(name).Value()
	}
	for lg := 0; lg < dev.Raw().Config().NumLogs; lg++ {
		s.ctr["gc_copied_bytes"] += reg.Counter("kaml_gc_copied_bytes_total", "log", strconv.Itoa(lg)).Value()
	}
	return s
}

func (r *runner) snapDevice() devSnap { return snapDevice(r.dev, r.cache) }

// histWindow is b minus a: the observations made between two snapshots.
func histWindow(a, b telemetry.HistSnapshot) telemetry.HistSnapshot {
	w := telemetry.HistSnapshot{N: b.N - a.N, Sum: b.Sum - a.Sum, MaxV: b.MaxV}
	for i := range w.Buckets {
		w.Buckets[i] = b.Buckets[i] - a.Buckets[i]
	}
	return w
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// deviceWindowMetrics differences the counters across ladder+peak.
func (r *runner) deviceWindowMetrics(a, b devSnap) {
	res := r.res
	gets := float64(b.st.Gets - a.st.Gets)
	puts := float64(b.st.Puts - a.st.Puts)
	recs := float64(b.st.PutRecords - a.st.PutRecords)
	user := float64(b.st.BytesWritten - a.st.BytesWritten)
	flashB := float64(b.st.FlashBytesWritten - a.st.FlashBytesWritten)
	programs := float64(b.st.Programs - a.st.Programs)
	erases := float64(b.st.GCErases - a.st.GCErases)
	hits := float64(b.st.NVRAMHits - a.st.NVRAMHits)
	retries := float64(b.st.ReadRetries - a.st.ReadRetries)
	ctr := func(name string) float64 { return float64(b.ctr[name] - a.ctr[name]) }
	hq := func(name string, q float64) (float64, int64) {
		w := histWindow(a.hist[name], b.hist[name])
		return float64(w.Quantile(q)) / 1e3, w.N
	}
	setHist := func(metric, hist string, q float64) {
		if v, n := hq(hist, q); n > 0 {
			res.set(metric, v, n)
		}
	}
	ops := gets + puts
	fc := deviceOptions().Flash

	// Coalesced writes never pass the worker queue, so the pipeline records
	// no "queue" stage for them: the queueing a Put sees is its wait for the
	// group-commit cut, the coalesce stage, whose tail this is.
	setHist("cmdq.put_queue_virt_p99_us", "Put/coalesce", 0.99)
	setHist("cmdq.put_coalesce_virt_p50_us", "Put/coalesce", 0.50)
	setHist("cmdq.put_exec_virt_p50_us", "Put/exec", 0.50)
	setHist("cmdq.get_exec_virt_p50_us", "Get/exec", 0.50)
	if puts > 0 {
		commits := float64(b.st.CoalescerBatches - a.st.CoalescerBatches)
		res.set("cmdq.records_per_commit", ratio(float64(b.st.CoalescerRecords-a.st.CoalescerRecords), commits), int64(commits))
		res.set("cmdq.coalesced_put_share", ratio(float64(b.st.CoalescedPuts-a.st.CoalescedPuts), puts), int64(puts))
	}
	res.set("cmdq.backpressure_waits_per_kop", 1000*ratio(ctr("kaml_cmdq_backpressure_waits_total"), ops), int64(ops))
	// Occupancy is sampled at every submission, so mean x submitted is the
	// running sum the pipeline keeps and the window mean falls out of two
	// snapshots.
	sub := float64(b.st.PipelineSubmitted - a.st.PipelineSubmitted)
	occ := b.st.PipelineMeanQueue*float64(b.st.PipelineSubmitted) - a.st.PipelineMeanQueue*float64(a.st.PipelineSubmitted)
	res.set("cmdq.mean_occupancy", ratio(occ, sub), int64(sub))

	res.set("hashindex.probes_per_op", ratio(float64(b.st.IndexProbes-a.st.IndexProbes), gets+recs), int64(gets+recs))
	if gets > 0 {
		res.set("hashindex.read_retries_per_kget", 1000*ratio(float64(b.st.IndexReadRetries-a.st.IndexReadRetries), gets), int64(gets))
		res.set("kamlssd.nvram_hit_share", ratio(hits, gets), int64(gets))
		// GC's victim-scan reads are not exported; this is the Get side only.
		res.set("flash.reads_per_get", ratio(gets-hits+retries, gets), int64(gets))
	}
	if keys, versions, maxChain, err := r.dev.Raw().VersionStats(r.ns); err == nil && keys > 0 {
		lf, _ := r.dev.Raw().IndexLoadFactor(r.ns)
		slots := ratio(float64(keys), lf)
		// Modelled DRAM: the mapping table and the chain directory are each
		// a seqlock table of the same capacity, plus a cell per key and a
		// node per retained version (the sizes hashindex exports).
		bytes := 2*slots*hashindex.ConcurrentEntryBytes + float64(keys)*8 + float64(versions)*hashindex.VersionNodeBytes
		res.set("hashindex.bytes_per_key", bytes/float64(keys), int64(keys))
		res.set("kamlssd.max_chain_len", float64(maxChain), int64(keys))
	}
	if puts > 0 {
		chunk := float64(record.DefaultChunkSize)
		recBytes := float64((record.HeaderSize+r.spec.ValueSize+record.DefaultChunkSize-1)/record.DefaultChunkSize) * chunk
		res.set("kamlssd.page_fill_share", ratio(recs*recBytes+ctr("gc_copied_bytes"), flashB), int64(programs))
		res.set("kamlssd.gc_copy_bytes_per_user_byte", ratio(ctr("gc_copied_bytes"), user), int64(user))
		res.set("kamlssd.gc_erases_per_kput", 1000*ratio(erases, puts), int64(puts))
		res.set("kamlssd.versions_pruned_per_put", ratio(float64(b.st.VersionsPruned-a.st.VersionsPruned), puts), int64(puts))
		res.set("flash.programs_per_kput", 1000*ratio(programs, puts), int64(puts))
		res.set("bench.flash_fills", flashB/float64(fc.TotalPages()*fc.PageSize), int64(programs))
		// With writes in the window these two always report, 0 with n=0 when
		// no block was collected or installed in it.
		v, n := hq("kaml_gc_pause_seconds", 0.99)
		res.set("kamlssd.gc_pause_virt_p99_us", v, n)
		v, n = hq("kaml_ssd_flash_install_seconds", 0.50)
		res.set("kamlssd.flash_install_virt_p50_us", v, n)
	}
	res.set("kamlssd.program_retries", float64(b.st.ProgramRetries-a.st.ProgramRetries), int64(programs))
	res.set("kamlssd.read_retries", retries, int64(gets))
	// Modelled chip service time over what the chips could have served. A
	// victim block is read page by page before its erase.
	busy := (gets-hits+retries+erases*float64(fc.PagesPerBlock))*float64(fc.ReadLatency) +
		programs*float64(fc.ProgramLatency) + erases*float64(fc.EraseLatency)
	res.set("flash.chip_busy_share", ratio(busy, float64(fc.Chips())*float64(b.at-a.at)), int64(ops))

	if r.cache != nil {
		ca, cb := a.cache, b.cache
		reads := float64(cb.Hits + cb.Misses - ca.Hits - ca.Misses)
		commits, aborts := float64(cb.Commits-ca.Commits), float64(cb.Aborts-ca.Aborts)
		si := float64(cb.SICommits + cb.SIAborts - ca.SICommits - ca.SIAborts)
		res.set("cache.hit_share", ratio(float64(cb.Hits-ca.Hits), reads), int64(reads))
		res.set("cache.evictions_per_kop", 1000*ratio(float64(cb.Evictions-ca.Evictions), commits), int64(commits))
		res.set("cache.abort_share", ratio(aborts, commits+aborts), int64(commits+aborts))
		res.set("cache.attempts_per_txn", ratio(commits+aborts, commits), int64(commits))
		res.set("cache.si_validation_fail_share", ratio(float64(cb.SIValidationFails-ca.SIValidationFails), si), int64(si))
		res.set("lockmgr.waits_per_ktxn", 1000*ratio(ctr("kaml_lockmgr_waits_total"), commits), int64(commits))
		res.set("lockmgr.dies_per_ktxn", 1000*ratio(ctr("kaml_lockmgr_dies_total"), commits), int64(commits))
		// Counted over the whole run (warm-up included): the driver keeps
		// one total, and any non-zero value is the finding.
		res.set("cache.si_lost_reads_per_ktxn", 1000*ratio(float64(r.siLost.Load()), float64(cb.Commits)), cb.Commits)
	}
}

// idleOps is how many Gets and how many Puts the idle phase issues.
const idleOps = 400

// idlePhase issues Gets, then Puts, one at a time on the idle, recovered
// device — Fig. 6's numbers. Loaded p50 minus these is queueing. It runs
// after every end-to-end number has been taken, so it cannot disturb them.
func (r *runner) idlePhase(clk clock) {
	p := r.drv.newPhase("idle", 2*idleOps)
	p.mark(clk.Now())
	defer func() { p.mark(clk.Now()) }()
	rng := r.drv.phaseRNG(p, 0)
	val := make([]byte, r.spec.ValueSize)
	tr := r.drv.tr
	for i := 0; i < 2*idleOps; i++ {
		key := uint64(rng.Int63n(int64(r.keys)))
		seq := r.drv.seq.Add(1)
		root := tr.begin(spanOp, p.id, -1, seq)
		if i < idleOps {
			fl := r.or.floorOf(key)
			s := tr.begin(spanKamlGet, p.id, root, seq)
			v, err := r.dev.Get(r.ns, key)
			tr.end(s)
			if err != nil || !r.or.check(key, fl, v) {
				p.failed.Add(1)
			}
		} else {
			ver := r.or.begin(key)
			stamp(val, key, ver)
			s := tr.begin(spanKamlPut, p.id, root, seq)
			err := r.dev.Put(r.ns, key, val)
			tr.end(s)
			r.or.finish(key, ver, err == nil)
			if err != nil {
				p.failed.Add(1)
			}
			r.dev.Flush() // the next Put must find the device idle again
		}
		tr.end(root)
	}
	r.count(p)
}

// spanDurations collects the durations of the spans with the given name in
// the given phase, sorted: virtual ns, or wall ns.
func spanDurations(spans []span, name, phase uint8, wall bool) []int64 {
	var out []int64
	for _, s := range spans {
		if s.name != name || s.phase != phase || s.w1 == 0 {
			continue
		}
		if wall {
			out = append(out, s.w1-s.w0)
		} else {
			out = append(out, s.v1-s.v0)
		}
	}
	slices.Sort(out)
	return out
}

func (r *runner) phaseID(name string) uint8 {
	for _, p := range r.drv.phases {
		if p.name == name {
			return p.id
		}
	}
	panic("bench: no phase " + name)
}

// setSpanQ reports the q-quantile of the named spans, in microseconds
// (virtual) or nanoseconds (wall), when there are any.
func (r *runner) setSpanQ(metric string, name uint8, phase string, q float64, wall bool) {
	d := spanDurations(r.drv.tr.recorded(), name, r.phaseID(phase), wall)
	if len(d) == 0 {
		return
	}
	v := float64(quantile(d, q))
	if !wall {
		v /= 1e3
	}
	r.res.set(metric, v, int64(len(d)))
}

// spanMetrics derives the span-sourced per-layer metrics of a device run.
func (r *runner) spanMetrics(peak *phase) {
	ref := "R" + strconv.Itoa(refRung+1)
	for _, m := range []struct {
		metric string
		name   uint8
		phase  string
		q      float64
		wall   bool
	}{
		{"kaml.get_virt_p50_us", spanKamlGet, ref, 0.50, false},
		{"kaml.get_virt_p99_us", spanKamlGet, ref, 0.99, false},
		{"kaml.put_virt_p50_us", spanKamlPut, ref, 0.50, false},
		{"kaml.put_virt_p99_us", spanKamlPut, ref, 0.99, false},
		{"kaml.putbatch_virt_p50_us", spanKamlPutBatch, ref, 0.50, false},
		{"kaml.putbatch_virt_p99_us", spanKamlPutBatch, ref, 0.99, false},
		{"cache.commit_virt_p50_us", spanCacheCommit, ref, 0.50, false},
		{"kamlssd.get_idle_virt_us", spanKamlGet, "idle", 0.50, false},
		{"kamlssd.put_idle_virt_us", spanKamlPut, "idle", 0.50, false},
		// On one idle client the wall clock is attributable: nothing else
		// runs while the call is parked but the device's own actors.
		{"kaml.get_host_ns", spanKamlGet, "idle", 0.50, true},
		{"kaml.put_host_ns", spanKamlPut, "idle", 0.50, true},
	} {
		r.setSpanQ(m.metric, m.name, m.phase, m.q, m.wall)
	}
	spans := r.drv.tr.recorded()
	// A cache read that misses pays a device Get on top of the host-side
	// cost; reads past four host-op costs are the misses.
	if r.cache != nil {
		var miss []int64
		for _, d := range spanDurations(spans, spanCacheRead, r.phaseID(ref), false) {
			if d > int64(4*cache.DefaultHostOpCost) {
				miss = append(miss, d)
			}
		}
		if len(miss) > 0 {
			r.res.set("cache.read_miss_virt_p50_us", float64(quantile(miss, 0.5))/1e3, int64(len(miss)))
		}
	}
	r.driverMetrics(peak)
}

// driverMetrics reports what the driver itself costs per closed-loop
// request: drawing it (bench.keygen) and its root span's self time, the
// root minus its children. (Open-loop roots also wait to be scheduled;
// they are no measure of the driver.)
func (r *runner) driverMetrics(peak *phase) {
	r.setSpanQ("bench.keygen_ns", spanKeygen, peak.name, 0.50, true)
	spans := r.drv.tr.recorded()
	var self []int64
	for i, d := range selfTimes(spans) {
		if spans[i].phase == peak.id && d >= 0 {
			self = append(self, d)
		}
	}
	if len(self) > 0 {
		slices.Sort(self)
		r.res.set("bench.driver_self_ns_per_op", float64(quantile(self, 0.5)), int64(len(self)))
	}
}

// telemetryOverhead is the telemetry control run: two small get-only
// devices, one with Firmware.DisableTelemetry, read in alternating
// closed-loop bursts so drift hits both alike. The metric is the share of
// host throughput telemetry costs (PR 6's budget: under 3 %).
func (r *runner) telemetryOverhead() {
	const rounds = 8
	keys, burst := scaled(20000, r.cfg.Scale, 1000), scaled(24000, r.cfg.Scale, 1024)
	type control struct {
		burst chan struct{}
		rate  chan float64 // a negative rate reports a set-up failure
	}
	var ctl [2]control
	for off := range ctl {
		c := control{burst: make(chan struct{}), rate: make(chan float64)}
		ctl[off] = c
		eng := sim.NewEngine()
		eng.Serialize(r.cfg.Seed)
		opts := deviceOptions()
		opts.Engine = eng
		opts.Firmware.DisableTelemetry = off == 1
		// The actor blocks on plain channels between bursts. That is safe
		// here: a blocked-but-registered actor only keeps its own engine's
		// clock from advancing, which is exactly what an idle control wants.
		eng.Go("bench-telemetry", func() {
			dev, ns, err := openPreloaded(opts, keys, r.spec.ValueSize)
			if err != nil {
				c.rate <- -1
				return
			}
			defer dev.Close()
			d := &driver{seed: r.cfg.Seed}
			ls := loadSpec{
				draw: func(rng *rand.Rand, o *op) { o.keys[0] = uint64(rng.Int63n(int64(keys))) },
				run: func(_ *opCtx, o *op) bool {
					_, err := dev.Get(ns, o.keys[0])
					return err == nil
				},
			}
			for range c.burst {
				p := d.closedLoop(simClock{eng}, ls, "telemetry", r.spec.Clients, burst, false)
				c.rate <- float64(p.ops) / p.wallEnd.Sub(p.wallStart).Seconds()
			}
		})
	}
	var rates [2][]float64
	ok := true
	for round := 0; round < rounds && ok; round++ {
		for off, c := range ctl {
			c.burst <- struct{}{}
			rate := <-c.rate
			ok = ok && rate > 0
			rates[off] = append(rates[off], rate)
		}
	}
	for _, c := range ctl {
		close(c.burst)
	}
	if ok {
		// The first round warms both devices up.
		r.res.set("telemetry.overhead_pct", 100*(1-median(rates[0][1:])/median(rates[1][1:])), rounds-1)
	}
}

// openPreloaded opens a device on opts.Engine and writes keys unstamped
// values of the given size, eight to a batch, then flushes: the small
// control devices the diff metrics compare against. Call from an actor.
func openPreloaded(opts kaml.Options, keys, valueSize int) (*kaml.Device, kaml.Namespace, error) {
	dev, err := kaml.Open(opts)
	if err != nil {
		return nil, 0, err
	}
	ns, err := dev.CreateNamespace(kaml.NamespaceOptions{ExpectedKeys: keys})
	if err != nil {
		return nil, 0, err
	}
	val := make([]byte, valueSize)
	recs := make([]kaml.Record, 0, 8)
	for k := 0; k < keys; k += 8 {
		recs = recs[:0]
		for i := k; i < k+8 && i < keys; i++ {
			recs = append(recs, kaml.Record{Namespace: ns, Key: uint64(i), Value: val})
		}
		if err := dev.PutBatch(recs); err != nil {
			return nil, 0, err
		}
	}
	dev.Flush()
	return dev, ns, nil
}
