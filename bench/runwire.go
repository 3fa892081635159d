package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"

	kaml "github.com/kaml-ssd/kaml"
	"github.com/kaml-ssd/kaml/internal/cluster"
	"github.com/kaml-ssd/kaml/internal/kvproto"
	"github.com/kaml-ssd/kaml/internal/sim"
	"github.com/kaml-ssd/kaml/internal/telemetry"
	"github.com/kaml-ssd/kaml/internal/workload"
)

// wire-cluster: one cluster on a free-running engine (what kamlsrv
// -cluster runs), measured twice with the same request stream — from
// inside, by actors on the virtual clock, and from outside, by one
// DialCluster client over loopback on the wall clock. Virtual results of a
// free-running engine drift in the last digits from run to run; nothing
// here is expected to repeat exactly.

const (
	wireNodes    = 2
	wireShards   = 4
	wireReplicas = 2
	wireGetShare = 0.7
)

const (
	wireGet uint8 = iota
	wirePut
)

// wireDraw draws one request of the 70/30 Get/Put mix on a zipf key.
func (r *runner) wireDraw(rng *rand.Rand, o *op) {
	o.kind = wireGet
	if rng.Float64() >= wireGetShare {
		o.kind = wirePut
	}
	o.keys[0] = r.zipfKey(rng)
}

// onActor runs fn on a fresh actor of eng and waits for it. Closing a real
// channel never parks the actor, so the virtual clock is not stalled.
func onActor(eng *sim.Engine, fn func()) {
	done := make(chan struct{})
	eng.Go("bench-root", func() {
		defer close(done)
		fn()
	})
	<-done
}

// wireSnap is one boundary snapshot of the cluster's exported state.
type wireSnap struct {
	status  cluster.Status
	get     telemetry.HistSnapshot
	put     telemetry.HistSnapshot
	user    int64 // device payload bytes accepted, all nodes
	flash   int64 // flash bytes programmed, all nodes
	devGets int64
}

func snapWire(cl *cluster.Cluster) wireSnap {
	reg := cl.Telemetry()
	s := wireSnap{
		status: cl.Status(),
		get:    reg.Histogram("kaml_cluster_get_seconds", telemetry.UnitSeconds, "shard", "all").Snapshot(),
		put:    reg.Histogram("kaml_cluster_put_seconds", telemetry.UnitSeconds, "shard", "all").Snapshot(),
	}
	for i := 0; i < cl.NumNodes(); i++ {
		st := cl.Node(i).Dev.Stats()
		s.user += st.BytesWritten
		s.flash += st.FlashBytesWritten
		s.devGets += st.Gets
	}
	return s
}

// hostCost is a closed-loop phase's cost on the host: wall microseconds
// and allocations per request.
type hostCost struct{ us, allocs float64 }

func measureHost(fn func() *phase) (*phase, hostCost, runtime.MemStats, runtime.MemStats) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	p := fn()
	runtime.ReadMemStats(&m1)
	ops := float64(p.ops)
	return p, hostCost{
		us:     float64(p.wallEnd.Sub(p.wallStart)) / 1e3 / ops,
		allocs: float64(m1.Mallocs-m0.Mallocs) / ops,
	}, m0, m1
}

func (r *runner) runWire() error {
	res := r.res
	size := r.spec.ValueSize
	r.zipf = workload.NewZipfian(uint64(r.keys), 0.8)
	r.or = newOracle(r.keys)

	// ---- setup: cluster, preload, listeners, client, warm-up ----
	t0 := time.Now()
	cl, err := cluster.New(cluster.Config{
		Nodes: wireNodes, Shards: wireShards, ReplicationFactor: wireReplicas,
		Device:               deviceOptions(), // never SmallOptions: 32 MiB devices fill and park forever
		Hedge:                cluster.HedgeConfig{Enabled: true},
		ExpectedKeysPerShard: r.keys / wireShards * 2,
		Seed:                 r.cfg.Seed,
	})
	if err != nil {
		return err
	}
	eng := cl.Engine()
	simClk := simClock{eng}
	if r.cfg.Trace {
		extra := scaled(wireOpenOps, r.cfg.Scale, 200) + scaled(wireIdleOps, r.cfg.Scale, 100)
		r.drv.tr = newTracer(r.spanBudget(extra), eng.NowCheap)
	}
	var addrs []string
	var servers []*kvproto.ClusterServer
	var serving sync.WaitGroup
	var cc *kvproto.ClusterClient
	// closeWire ends everything outside the simulation; it runs once the
	// wire phases are over, and on every early return.
	closeWire := func() {
		if cc != nil {
			cc.Close()
		}
		for _, srv := range servers {
			srv.Close()
		}
		serving.Wait()
	}
	abandon := func(err error) error {
		closeWire()
		onActor(eng, cl.Close)
		return err
	}
	var preloadErr error
	onActor(eng, func() { preloadErr = r.preloadCluster(cl) })
	if preloadErr != nil {
		return abandon(preloadErr)
	}
	for n := 0; n < wireNodes; n++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return abandon(err)
		}
		srv := kvproto.NewClusterServer(cl, n)
		servers = append(servers, srv)
		addrs = append(addrs, ln.Addr().String())
		serving.Add(1)
		go func() {
			defer serving.Done()
			_ = srv.Serve(ln) // returns nil once Close stops the listener
		}()
	}
	if cc, err = kvproto.DialCluster(addrs, kvproto.ClusterClientConfig{}); err != nil {
		return abandon(err)
	}

	// Both request paths share one body; only the two calls differ.
	load := func(get func(uint64) ([]byte, error), put func(uint64, []byte) error, getSpan, putSpan uint8) loadSpec {
		return loadSpec{valueSize: size, draw: r.wireDraw, run: func(c *opCtx, o *op) bool {
			key := o.keys[0]
			if o.kind == wireGet {
				fl := r.or.floorOf(key)
				s := c.tr.begin(getSpan, c.phase, c.root, c.seq)
				v, err := get(key)
				c.tr.end(s)
				s = c.tr.begin(spanVerify, c.phase, c.root, c.seq)
				ok := err == nil && r.or.check(key, fl, v)
				c.tr.end(s)
				return ok
			}
			v := c.value(size)
			ver := r.or.begin(key)
			stamp(v, key, ver)
			s := c.tr.begin(putSpan, c.phase, c.root, c.seq)
			err := put(key, v)
			c.tr.end(s)
			r.or.finish(key, ver, err == nil)
			return err == nil
		}}
	}
	inproc := load(cl.Get, cl.Put, spanClusterGet, spanClusterPut)
	var retryable, moved int64
	var errMu sync.Mutex
	note := func(err error) {
		var m *kvproto.MovedError
		errMu.Lock()
		if errors.Is(err, kvproto.ErrRetryable) {
			retryable++
		}
		if errors.As(err, &m) {
			moved++
		}
		errMu.Unlock()
	}
	wire := load(
		func(k uint64) ([]byte, error) {
			v, err := cc.Get(k)
			if err != nil {
				note(err)
			}
			return v, err
		},
		func(k uint64, v []byte) error {
			err := cc.Put(k, v)
			if err != nil {
				note(err)
			}
			return err
		}, spanKvprotoGet, spanKvprotoPut)

	wallClk := wallClock{t0: time.Now()}
	r.count(r.drv.closedLoop(wallClk, wire, "warm", r.spec.Clients, r.warmOps, false))
	res.set("setup_s", time.Since(t0).Seconds(), 1)

	// ---- in-process: ladder and closed-loop peak on the virtual clock ----
	winA := snapWire(cl)
	epoch0 := cc.Epoch()
	rungs := make([]*phase, len(r.spec.Rates))
	var inPeak *phase
	var inCost hostCost
	onActor(eng, func() {
		for i, rate := range r.spec.Rates {
			runtime.GC()
			rungs[i] = r.drv.openLoop(simClk, inproc, fmt.Sprintf("R%d", i+1), rate, r.arrivals, int64(r.arrivals/10))
			r.count(rungs[i])
		}
		inPeak, inCost, _, _ = measureHost(func() *phase {
			return r.drv.closedLoop(simClk, inproc, "peak-inproc", r.spec.Clients, scaled(wireInprocOps, r.cfg.Scale, r.spec.Clients*peakSegments), false)
		})
		r.count(inPeak)
	})
	r.ladderMetrics(rungs)
	res.setVirtual("virt_peak_ops_per_s", inPeak.opsPerSec(), int64(inPeak.ops))

	// ---- wire: open loop at ~40% of the closed-loop rate, then the peak ----
	stopSampler := r.sampleGauges(cl)
	runtime.GC()
	open := r.drv.openLoop(wallClk, wire, "wire-open", wireOpenRate, scaled(wireOpenOps, r.cfg.Scale, 200), 0)
	r.count(open)
	slices.Sort(open.lat)
	slices.Sort(open.lag)
	res.set("kvproto.wall_p50_us", float64(quantile(open.lat, 0.50))/1e3, int64(open.ops))
	res.set("kvproto.wall_p99_us", float64(quantile(open.lat, 0.99))/1e3, int64(open.ops))
	// For this workload the generator that can really run late is the
	// wall-clock one; the virtual one wakes exactly on time.
	res.set("bench.gen_lag_p99_us", float64(quantile(open.lag, 0.99))/1e3, int64(open.ops))

	peak, wireCost, m0, m1 := measureHost(func() *phase {
		return r.drv.closedLoop(wallClk, wire, "peak", r.spec.Clients, r.peakOps, r.cfg.Trace)
	})
	r.count(peak)
	winB := snapWire(cl)
	var m2 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m2)
	r.peakMetrics(peak, &m0, &m1, &m2)
	stopSampler()
	// Replication is part of what the cluster's user pays for: flash bytes
	// of all nodes over the bytes clients were acknowledged.
	user := (winB.user - winA.user) / wireReplicas
	res.setVirtual("write_amp", ratio(float64(winB.flash-winA.flash), float64(user)), user)
	r.wireWindowMetrics(winA, winB, float64(retryable), float64(moved)+float64(cc.Epoch()-epoch0))
	res.set("kvproto.host_us_per_op", wireCost.us-inCost.us, int64(peak.ops))
	res.set("kvproto.allocs_per_op", wireCost.allocs-inCost.allocs, int64(peak.ops))

	// ---- verify: every key through the router, then node 0 after a power cut ----
	onActor(eng, func() {
		p := r.drv.newPhase("verify", r.keys)
		p.mark(eng.Now())
		defer func() { p.mark(eng.Now()) }()
		for key := uint64(0); key < uint64(r.keys); key++ {
			fl := r.or.floorOf(key)
			if v, err := cl.Get(key); err != nil || !r.or.check(key, fl, v) {
				p.failed.Add(1)
			}
		}
		r.count(p)
	})
	if r.cfg.Trace {
		r.wireIdle(cc)
		r.driverMetrics(peak)
	}
	closeWire()
	onActor(eng, func() {
		err = r.recoverNode(cl.Node(0).Dev)
		cl.Close()
	})
	if err == nil && r.cfg.Trace {
		// Only now, with the cluster closed: an idle free-running engine
		// spins its clock through the devices' GC polls and would take a
		// core away from everything measured here.
		r.clusterControl(inCost)
		runProbes(res, r.cfg.Scale)
	}
	return err
}

// preloadCluster writes every key once through the router from 16 loader
// actors (the cluster API has no batch write) and flushes every node.
func (r *runner) preloadCluster(cl *cluster.Cluster) error {
	const loaders = 16
	errs := make([]error, loaders)
	wg := cl.Engine().NewWaitGroup()
	for l := 0; l < loaders; l++ {
		wg.Add(1)
		cl.Go(func() {
			defer wg.Done()
			v := make([]byte, r.spec.ValueSize)
			for key := uint64(l); key < uint64(r.keys); key += loaders {
				ver := r.or.begin(key)
				stamp(v, key, ver)
				err := cl.Put(key, v)
				r.or.finish(key, ver, err == nil)
				if err != nil {
					errs[l] = fmt.Errorf("preload key %d: %w", key, err)
					return
				}
			}
		})
	}
	wg.Wait()
	for n := 0; n < cl.NumNodes(); n++ {
		cl.Node(n).Dev.Flush()
	}
	return errors.Join(errs...)
}

// sampleGauges polls the instantaneous server and replication gauges every
// 2 ms of a traced run and reports their maxima; untraced runs skip the
// sampler goroutine altogether.
func (r *runner) sampleGauges(cl *cluster.Cluster) (stop func()) {
	if !r.cfg.Trace {
		return func() {}
	}
	reg := cl.Telemetry()
	var inflight, writerQ, lag []*telemetry.Gauge
	for n := 0; n < wireNodes; n++ {
		inflight = append(inflight, reg.Gauge("kaml_cluster_srv_inflight_requests", "node", strconv.Itoa(n)))
		writerQ = append(writerQ, reg.Gauge("kaml_cluster_srv_writer_queue_depth", "node", strconv.Itoa(n)))
	}
	for s := 0; s < wireShards; s++ {
		lag = append(lag, reg.Gauge("kaml_cluster_replica_lag", "shard", strconv.Itoa(s)))
	}
	quit, done := make(chan struct{}), make(chan struct{})
	var maxIn, maxQ, maxLag, samples int64
	go func() {
		defer close(done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
			}
			samples++
			var in, q int64
			for n := range inflight {
				in += inflight[n].Value()
				q += writerQ[n].Value()
			}
			maxIn, maxQ = max(maxIn, in), max(maxQ, q)
			for _, g := range lag {
				maxLag = max(maxLag, g.Value())
			}
		}
	}()
	return func() {
		close(quit)
		<-done
		r.res.set("kvproto.srv_inflight_max", float64(maxIn), samples)
		r.res.set("kvproto.writer_queue_max", float64(maxQ), samples)
		r.res.set("cluster.replica_lag_max", float64(maxLag), samples)
	}
}

// wireWindowMetrics differences the cluster's counters and histograms
// across everything between set-up and the end of the wire peak.
func (r *runner) wireWindowMetrics(a, b wireSnap, retryable, moved float64) {
	res := r.res
	get, put := histWindow(a.get, b.get), histWindow(a.put, b.put)
	ops := float64(get.N + put.N)
	res.set("cluster.get_virt_p50_us", float64(get.Quantile(0.50))/1e3, get.N)
	res.set("cluster.get_virt_p99_us", float64(get.Quantile(0.99))/1e3, get.N)
	res.set("cluster.put_virt_p50_us", float64(put.Quantile(0.50))/1e3, put.N)
	res.set("cluster.put_virt_p99_us", float64(put.Quantile(0.99))/1e3, put.N)
	issued := float64(b.status.HedgesIssued - a.status.HedgesIssued)
	res.set("cluster.hedges_per_kget", 1000*ratio(issued, float64(get.N)), get.N)
	res.set("cluster.hedge_win_share", ratio(float64(b.status.HedgesWon-a.status.HedgesWon), issued), int64(issued))
	res.set("cluster.retries_per_kop", 1000*ratio(float64(b.status.Retries-a.status.Retries), ops), int64(ops))
	res.set("cluster.failovers", float64(b.status.Failovers-a.status.Failovers), 1)
	res.set("kvproto.retryable_errors", retryable, int64(ops))
	res.set("kvproto.moved_redirects", moved, int64(ops))
}

// wireIdle measures the wire round trip at queue depth 1: one goroutine,
// one request at a time, alternating nothing else.
func (r *runner) wireIdle(cc *kvproto.ClusterClient) {
	n := scaled(wireIdleOps, r.cfg.Scale, 100)
	p := r.drv.newPhase("wire-idle", n)
	p.mark(0)
	defer func() { p.mark(time.Since(p.wallStart)) }()
	rng := r.drv.phaseRNG(p, 0)
	lat := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		key := r.zipfKey(rng)
		fl := r.or.floorOf(key)
		seq := r.drv.seq.Add(1)
		t := time.Now()
		root := r.drv.tr.begin(spanOp, p.id, -1, seq)
		s := r.drv.tr.begin(spanKvprotoGet, p.id, root, seq)
		v, err := cc.Get(key)
		r.drv.tr.end(s)
		r.drv.tr.end(root)
		lat = append(lat, int64(time.Since(t)))
		if err != nil || !r.or.check(key, fl, v) {
			p.failed.Add(1)
		}
	}
	r.count(p)
	slices.Sort(lat)
	r.res.set("kvproto.idle_roundtrip_us", float64(quantile(lat, 0.5))/1e3, int64(n))
}

// clusterControl runs the same request mix on ONE device of the same
// geometry, free-running like the cluster, so that the in-process cluster
// cost minus this is what routing and replication add.
func (r *runner) clusterControl(inCost hostCost) {
	eng := sim.NewEngine()
	opts := deviceOptions()
	opts.Engine = eng
	var cost hostCost
	var ops int
	onActor(eng, func() {
		dev, ns, err := openPreloaded(opts, r.keys, r.spec.ValueSize)
		if err != nil {
			return
		}
		defer dev.Close()
		d := &driver{seed: r.cfg.Seed}
		ls := loadSpec{
			valueSize: r.spec.ValueSize,
			draw:      r.wireDraw,
			run: func(c *opCtx, o *op) bool {
				if o.kind == wireGet {
					_, err := dev.Get(ns, o.keys[0])
					return err == nil
				}
				return dev.Put(ns, o.keys[0], c.value(r.spec.ValueSize)) == nil
			},
		}
		n := scaled(wireInprocOps, r.cfg.Scale, r.spec.Clients*peakSegments)
		d.closedLoop(simClock{eng}, ls, "warm", r.spec.Clients, n/4, false)
		var p *phase
		p, cost, _, _ = measureHost(func() *phase {
			return d.closedLoop(simClock{eng}, ls, "control", r.spec.Clients, n, false)
		})
		ops = p.ops
	})
	if ops > 0 {
		r.res.set("cluster.host_us_per_op", inCost.us-cost.us, int64(ops))
		r.res.set("cluster.allocs_per_op", inCost.allocs-cost.allocs, int64(ops))
	}
}

// recoverNode cuts power to one node's device behind the cluster's back —
// the run is over, nothing routes to it any more — recovers it and checks
// that it still holds every key (RF 2 on 2 nodes puts every shard on every
// node) at a version no older than the newest acknowledged write.
func (r *runner) recoverNode(dev *kaml.Device) error {
	nd, err := r.powerCycle(dev)
	if err != nil {
		return err
	}
	defer nd.Close()
	p := r.drv.newPhase("readback", 0)
	p.mark(nd.Now())
	defer func() { p.mark(nd.Now()) }()
	seen := 0
	for _, ns := range nd.Raw().Namespaces() {
		keys, err := nd.NamespaceKeys(ns)
		if err != nil {
			return err
		}
		seen += len(keys)
		for _, key := range keys {
			p.ops++
			v, err := nd.Get(ns, key)
			if err != nil || !r.or.check(key, r.or.floorOf(key), v) {
				p.failed.Add(1)
			}
		}
	}
	if seen != r.keys {
		p.ops++
		p.failed.Add(1) // a key vanished from the replica (or one appeared)
	}
	r.count(p)
	return nil
}
