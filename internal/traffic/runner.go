package traffic

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	kaml "github.com/kaml-ssd/kaml"
	"github.com/kaml-ssd/kaml/internal/check"
	"github.com/kaml-ssd/kaml/internal/cluster"
	"github.com/kaml-ssd/kaml/internal/sim"
	"github.com/kaml-ssd/kaml/internal/telemetry"
	"github.com/kaml-ssd/kaml/internal/workload"
)

// opKind is one drawn operation.
type opKind uint8

const (
	opGet opKind = iota
	opPut
	opRMW
	opSITxn
)

// phaseStats accumulates one phase's measurements. The actors that record
// into it run one at a time, so it needs no lock.
type phaseStats struct {
	issued        int64
	completed     int64
	errors        int64
	powerLoss     int64
	notFound      int64
	commits       int64
	aborts        int64
	clientRetries int64
	latUS         []int64
}

func (st *phaseStats) record(latUS int64, err error, kind opKind) {
	st.completed++
	st.latUS = append(st.latUS, latUS)
	switch {
	case err == nil:
		if kind == opSITxn {
			st.commits++
		}
	case errors.Is(err, kaml.ErrKeyNotFound), errors.Is(err, kaml.ErrTxnNotFoundKey):
		st.notFound++
	case kaml.IsRetryable(err):
		st.aborts++
	case errors.Is(err, kaml.ErrPowerLoss):
		st.powerLoss++
		st.errors++
	default:
		st.errors++
	}
}

// teleSnap is one phase-boundary telemetry snapshot. gen counts device
// recoveries: a Reopen starts a fresh registry, so monotonicity is only
// meaningful within one generation.
type teleSnap struct {
	gen  int
	snap *telemetry.Snapshot
}

// runner holds the mutable state of one scenario execution.
type runner struct {
	sc     *Scenario
	eng    *sim.Engine
	rec    *check.Recorder
	tap    *samplingTap
	starts []time.Duration
	endAt  time.Duration
	t0     time.Duration // virtual time of phase 0's start (preload done)
	endNow time.Duration // virtual time after quiesce

	// Device target. dev/cache/txnNS swap on crash recovery. Like every
	// field below, they are owned by the running actor: the scenario's
	// actors run one at a time on one engine.
	dev    *kaml.Device
	cache  *kaml.Cache
	mainNS kaml.Namespace
	txnNS  kaml.Namespace
	gen    int
	dead   bool // recovery failed; device unusable

	// Cluster target.
	cl *cluster.Cluster

	// Client-side event state (stall / partition windows).
	stallUntil time.Duration
	partUntil  time.Duration
	partFrac   float64

	// Counters shared across actors.
	nextTag          uint64
	ackedWrites      int64
	maybeWrites      int64
	powerCuts        int64
	recoveries       int64
	recoveryFailures int64
	recoveryTime     time.Duration // inside kaml.Reopen, every attempt
	// Flash faults absorbed, tallied at the end of each device generation.
	programRetries, tornPages int64

	stats    []*phaseStats
	clStart  []cluster.Status // per-phase start/end counter snapshots
	clEnd    []cluster.Status
	clFinal  *cluster.Status // end-of-run status, before Close
	tele     []teleSnap
	inflight *sim.WaitGroup
}

// usesTxns reports whether any phase mixes SI transactions.
func (sc *Scenario) usesTxns() bool {
	for _, ph := range sc.Phases {
		if ph.Mix.SITxn > 0 {
			return true
		}
	}
	return false
}

// Run executes a validated scenario on a fresh, serialized simulation
// engine and returns its Report. Call from an ordinary goroutine (not a
// simulation actor): cluster construction synchronizes with the engine
// from the outside. The same scenario and seed always produce the same
// report, byte for byte.
func Run(sc *Scenario) (*Report, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	eng := sim.NewEngine()
	eng.Serialize(sc.Seed)
	rec := check.NewRecorder(eng.Now)
	r := &runner{
		sc:       sc,
		eng:      eng,
		rec:      rec,
		tap:      newSamplingTap(rec, sc.Keyspace.SampleEvery),
		nextTag:  1,
		inflight: eng.NewWaitGroup(),
	}
	r.starts, r.endAt = sc.phaseStarts()
	for range sc.Phases {
		r.stats = append(r.stats, &phaseStats{})
	}
	r.clStart = make([]cluster.Status, len(sc.Phases))
	r.clEnd = make([]cluster.Status, len(sc.Phases))

	var setupErr error
	if sc.Target.Kind == TargetCluster {
		c, err := cluster.New(cluster.Config{
			Nodes:                sc.Target.Nodes,
			Shards:               sc.Target.Shards,
			ReplicationFactor:    sc.Target.Replication,
			Hedge:                cluster.HedgeConfig{Enabled: sc.Target.HedgedReads},
			ExpectedKeysPerShard: int(sc.Keyspace.Keys),
			Seed:                 sc.Seed,
			Engine:               eng,
		})
		if err != nil {
			return nil, fmt.Errorf("scenario %q: cluster: %w", sc.Name, err)
		}
		c.SetHistoryTap(r.tap)
		r.cl = c
	} else {
		opts := kaml.SmallOptions()
		opts.Engine = eng
		opts.Faults = &kaml.FaultPlan{Seed: sc.Seed}
		dev, err := kaml.Open(opts)
		if err != nil {
			return nil, fmt.Errorf("scenario %q: device: %w", sc.Name, err)
		}
		dev.SetHistoryTap(r.tap)
		r.dev = dev
	}

	eng.Go("traffic-root", func() {
		if err := r.setupNamespaces(); err != nil {
			setupErr = err
			return
		}
		r.preload()
		// The scenario's timeline starts when the system is loaded:
		// every phase window, event offset, and ramp step is anchored
		// here, so preload cost never eats into phase 0.
		r.t0 = r.eng.Now()
		r.spawnEventActors()
		r.runPhases()
		r.quiesce()
		r.endNow = r.eng.Now()
	})
	eng.Wait()
	if setupErr != nil {
		return nil, fmt.Errorf("scenario %q: %w", sc.Name, setupErr)
	}
	return r.buildReport(), nil
}

// setupNamespaces creates the main namespace (device target) and the SI
// transaction table. Runs on the root actor.
func (r *runner) setupNamespaces() error {
	if r.cl != nil {
		return nil
	}
	ns, err := r.dev.CreateNamespace(kaml.NamespaceOptions{ExpectedKeys: int(r.sc.Keyspace.Keys)})
	if err != nil {
		return fmt.Errorf("main namespace: %w", err)
	}
	r.mainNS = ns
	if r.sc.usesTxns() {
		return r.rebuildCache(r.dev)
	}
	return nil
}

// rebuildCache builds a fresh caching layer and SI transaction table over
// dev — at setup and again after every crash recovery (the table is a new
// namespace each time, so post-crash transactions start from an empty,
// unambiguous keyspace).
func (r *runner) rebuildCache(dev *kaml.Device) error {
	c := dev.NewCache(kaml.CacheOptions{CapacityBytes: 4 << 20, RecordsPerLock: 1})
	ns, err := c.CreateTable("traffic-txn", int(r.sc.Keyspace.TxnKeys))
	if err != nil {
		return fmt.Errorf("txn table: %w", err)
	}
	r.cache, r.txnNS = c, ns
	return nil
}

// tag returns the next unique value tag.
func (r *runner) tag() uint64 {
	t := r.nextTag
	r.nextTag++
	return t
}

func (r *runner) countWrite(err error) {
	switch {
	case err == nil:
		r.ackedWrites++
	case errors.Is(err, kaml.ErrPowerLoss):
		r.maybeWrites++
	}
}

// currentDev returns the device pointers as of now. Ops racing a crash
// simply fail on the powered-off device — exactly what real clients see.
func (r *runner) currentDev() (*kaml.Device, *kaml.Cache, kaml.Namespace, kaml.Namespace) {
	return r.dev, r.cache, r.mainNS, r.txnNS
}

// preload writes every key once so reads hit and migrations copy a real
// data set. Preload writes are tagged and tapped: they are part of the
// judged history.
func (r *runner) preload() {
	if !r.sc.Keyspace.Preload {
		return
	}
	ks := r.sc.Keyspace
	if r.cl != nil {
		for key := uint64(0); key < ks.Keys; key++ {
			err := r.cl.Put(key, check.EncodeValue(r.tag(), ks.ValueSize))
			r.countWrite(err)
		}
		return
	}
	dev, _, main, _ := r.currentDev()
	const batch = 64
	for lo := uint64(0); lo < ks.Keys; lo += batch {
		var recs []kaml.Record
		for key := lo; key < lo+batch && key < ks.Keys; key++ {
			recs = append(recs, kaml.Record{
				Namespace: main, Key: key,
				Value: check.EncodeValue(r.tag(), ks.ValueSize),
			})
		}
		err := dev.PutBatch(recs)
		for range recs {
			r.countWrite(err)
		}
	}
}

// sleepUntil parks the calling actor until the absolute virtual time at.
func (r *runner) sleepUntil(at time.Duration) {
	if d := at - r.eng.Now(); d > 0 {
		r.eng.Sleep(d)
	}
}

// spawnEventActors launches one actor per scripted event and fault ramp,
// each sleeping to its absolute trigger time. Spawned before phase 0 so
// events land regardless of what the arrival loop is doing.
func (r *runner) spawnEventActors() {
	for pi := range r.sc.Phases {
		ph := &r.sc.Phases[pi]
		start := r.t0 + r.starts[pi]
		for ei := range ph.Events {
			ev := ph.Events[ei]
			at := start + time.Duration(ev.AtMS)*time.Millisecond
			r.inflight.Add(1)
			r.eng.Go("traffic-event", func() {
				defer r.inflight.Done()
				r.sleepUntil(at)
				r.fire(ev)
			})
		}
		if ph.Faults != nil {
			f := *ph.Faults
			dur := time.Duration(ph.DurationMS) * time.Millisecond
			r.inflight.Add(1)
			r.eng.Go("traffic-faultramp", func() {
				defer r.inflight.Done()
				r.runFaultRamp(f, start, dur)
			})
		}
	}
}

// runFaultRamp steps the flash fault probabilities linearly across the
// phase window.
func (r *runner) runFaultRamp(f FaultRamp, start, dur time.Duration) {
	steps := f.Steps
	if steps <= 0 {
		steps = 8
	}
	for i := 0; i < steps; i++ {
		r.sleepUntil(start + dur*time.Duration(i)/time.Duration(steps))
		p := 0.0
		if steps > 1 {
			p = float64(i) / float64(steps-1)
		}
		read := f.ReadFailStart + (f.ReadFailEnd-f.ReadFailStart)*p
		prog := f.ProgramFailStart + (f.ProgramFailEnd-f.ProgramFailStart)*p
		r.setFaultProbs(read, prog)
	}
}

// setFaultProbs applies fault probabilities to the device (or to every
// live cluster node).
func (r *runner) setFaultProbs(read, prog float64) {
	if r.cl != nil {
		for i := 0; i < r.cl.NumNodes(); i++ {
			n := r.cl.Node(i)
			if !n.Down() {
				n.Dev.SetFaultProbs(read, prog, 0)
			}
		}
		return
	}
	dev, _, _, _ := r.currentDev()
	dev.SetFaultProbs(read, prog, 0)
}

// fire executes one scripted event on its own actor.
func (r *runner) fire(ev Event) {
	switch ev.Kind {
	case EventClientStall:
		until := r.eng.Now() + time.Duration(ev.DurationMS)*time.Millisecond
		if until > r.stallUntil {
			r.stallUntil = until
		}
	case EventClientPartition:
		until := r.eng.Now() + time.Duration(ev.DurationMS)*time.Millisecond
		r.partUntil, r.partFrac = until, ev.Fraction
	case EventPowerCut:
		if r.cl != nil {
			r.killClusterNode(ev)
			return
		}
		r.devicePowerCut(ev.Torn)
	case EventKillNode:
		r.killClusterNode(ev)
	case EventMigrateShard:
		r.migrateShard(ev.Shard)
	}
}

// resolveNode picks the event's target node: an explicit ID, or the
// current primary of the event's shard.
func (r *runner) resolveNode(ev Event) int {
	if ev.Node >= 0 {
		return ev.Node
	}
	topo := r.cl.Topology()
	if ev.Shard < len(topo.Shards) {
		return topo.Shards[ev.Shard].Primary
	}
	return -1
}

func (r *runner) killClusterNode(ev Event) {
	node := r.resolveNode(ev)
	if node < 0 || node >= r.cl.NumNodes() || r.cl.Node(node).Down() {
		return
	}
	r.powerCuts++
	r.cl.KillNode(node)
}

// migrateShard moves the shard from its current primary to the
// lowest-numbered live node not already holding a replica of it — a
// deterministic choice, so scripted rebalances reproduce exactly.
func (r *runner) migrateShard(shardID int) {
	topo := r.cl.Topology()
	if shardID >= len(topo.Shards) {
		return
	}
	si := topo.Shards[shardID]
	if si.Primary < 0 {
		return
	}
	holds := make(map[int]bool, len(si.Replicas))
	for _, n := range si.Replicas {
		holds[n] = true
	}
	to := -1
	for _, n := range topo.Nodes {
		if n.Live && !holds[n.ID] {
			to = n.ID
			break
		}
	}
	if to < 0 {
		return
	}
	// A doomed migration (its source killed mid-copy) returns an error;
	// the scenario's assertions judge the aftermath, not the error.
	_ = r.cl.Migrate(shardID, si.Primary, to)
}

// devicePowerCut is the full outage arc on the device target: arm a cut
// inside the flash array (so an in-flight program can be torn), force the
// halt, capture the crash image, and run recovery — retrying, then
// disarming fault injection as a last resort, because a scenario may cut
// power while aging faults are active. Traffic keeps flowing the whole
// time; ops in the window fail with power-loss errors.
func (r *runner) devicePowerCut(torn bool) {
	if r.dead {
		return
	}
	dev := r.dev
	r.powerCuts++

	dev.TriggerPowerCut(torn)
	if torn {
		// A page is programmed only when it is full, so the next flash op is
		// almost always a read, which tears nothing. A torn-page cut asks
		// for a program to be caught mid-flight: start a drain, and the
		// first page it programs trips the armed cut.
		r.eng.Go("traffic-drain", dev.Flush)
	}
	r.eng.Sleep(200 * time.Microsecond) // let an in-flight flash op trip it
	dev.PowerCut()                      // idle device: force the outage anyway
	img := dev.Crash()
	r.tallyFaults(dev)

	var nd *kaml.Device
	var err error
	began := r.eng.Now()
	for attempt := 0; attempt < 4; attempt++ {
		if nd, err = kaml.Reopen(img); err == nil {
			break
		}
	}
	if err != nil {
		// Recovery keeps failing under injected read errors: a real
		// operator would swap the failing medium out; we disarm the
		// injector and give recovery one clean shot.
		dev.SetFaultProbs(0, 0, 0)
		nd, err = kaml.Reopen(img)
	}
	r.recoveryTime += r.eng.Now() - began
	if err != nil {
		r.recoveryFailures++
	} else {
		r.recoveries++
	}
	if err != nil {
		r.dead = true
		return
	}
	r.dev = nd
	r.gen++
	if r.sc.usesTxns() {
		if cerr := r.rebuildCache(nd); cerr != nil {
			r.recoveryFailures++
		}
	}
}

// runPhases drives the open-loop arrival process, phase by phase, on the
// root actor. All randomness (gaps, op mix, keys, partition draws) comes
// from one seeded PRNG consumed in arrival order, which a serialized
// engine replays identically for a given seed.
func (r *runner) runPhases() {
	rng := rand.New(rand.NewSource(r.sc.Seed))
	for pi := range r.sc.Phases {
		ph := &r.sc.Phases[pi]
		start := r.t0 + r.starts[pi]
		dur := time.Duration(ph.DurationMS) * time.Millisecond
		r.sleepUntil(start)
		r.snapPhase(pi, true)
		chooser := r.buildChooser(ph, start)
		st := r.stats[pi]
		for {
			now := r.eng.Now()
			if now >= start+dur {
				break
			}
			p := float64(now-start) / float64(dur)
			rate := ph.Arrival.rateAt(p)
			if rate <= 0.01 {
				r.eng.Sleep(time.Millisecond)
				continue
			}
			gap := time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
			if gap > 100*time.Millisecond {
				gap = 100 * time.Millisecond
			}
			if gap <= 0 {
				gap = time.Microsecond
			}
			r.eng.Sleep(gap)
			if r.eng.Now() >= start+dur {
				break
			}
			r.issueOp(rng, ph, chooser, st)
		}
		r.snapPhase(pi, false)
	}
}

// buildChooser constructs the phase's key chooser. Zipf choosers rotate
// their hot set as a pure function of virtual time, so the "shifting hot
// set" is deterministic.
func (r *runner) buildChooser(ph *Phase, phaseStart time.Duration) workload.KeyChooser {
	n := r.sc.Keyspace.Keys
	switch ph.Keys.Dist {
	case DistZipf:
		kd := ph.Keys
		offset := func() uint64 {
			off := kd.HotOffset
			if kd.ShiftEveryMS > 0 {
				elapsed := r.eng.Now() - phaseStart
				steps := uint64(elapsed / (time.Duration(kd.ShiftEveryMS) * time.Millisecond))
				off += steps * kd.ShiftStep
			}
			return off
		}
		return workload.Rotating{Inner: workload.NewZipfian(n, kd.Theta), N: n, Offset: offset}
	case DistLatest:
		return workload.NewLatest(n)
	default:
		return workload.Uniform{N: n}
	}
}

// chooseOp draws the op kind from the phase mix.
func chooseOp(rng *rand.Rand, m Mix) opKind {
	u := rng.Float64()
	switch {
	case u < m.Get:
		return opGet
	case u < m.Get+m.Put:
		return opPut
	case u < m.Get+m.Put+m.RMW:
		return opRMW
	default:
		return opSITxn
	}
}

// issueOp draws one operation and runs it on its own actor. Latency is
// measured from the intended arrival time — a stalled or partitioned
// client's queueing delay counts, so the tail reflects what users felt.
func (r *runner) issueOp(rng *rand.Rand, ph *Phase, chooser workload.KeyChooser, st *phaseStats) {
	arrival := r.eng.Now()
	kind := chooseOp(rng, ph.Mix)
	key := chooser.Next(rng)
	if kind == opSITxn {
		key %= r.sc.Keyspace.TxnKeys
	}

	// Client-side event state, decided deterministically at arrival.
	var holdUntil time.Duration
	retried := false
	if r.stallUntil > arrival {
		holdUntil = r.stallUntil
	}
	partUntil, frac := r.partUntil, r.partFrac
	if partUntil > arrival && rng.Float64() < frac {
		// The client's first attempt dies inside the partition; it
		// retries with backoff once connectivity returns.
		until := partUntil + 500*time.Microsecond
		if until > holdUntil {
			holdUntil = until
		}
		retried = true
	}

	st.issued++
	if retried {
		st.clientRetries++
	}

	r.inflight.Add(1)
	r.eng.Go("traffic-op", func() {
		defer r.inflight.Done()
		if holdUntil > r.eng.Now() {
			r.sleepUntil(holdUntil)
		}
		err := r.execute(kind, key)
		latUS := int64((r.eng.Now() - arrival) / time.Microsecond)
		st.record(latUS, err, kind)
	})
}

// execute performs one operation against the target.
func (r *runner) execute(kind opKind, key uint64) error {
	if r.cl != nil {
		return r.executeCluster(kind, key)
	}
	dev, cache, main, txnNS := r.currentDev()
	switch kind {
	case opGet:
		_, err := dev.Get(main, key)
		return err
	case opPut:
		err := dev.Put(main, key, check.EncodeValue(r.tag(), r.sc.Keyspace.ValueSize))
		r.countWrite(err)
		return err
	case opRMW:
		if _, err := dev.Get(main, key); err != nil && !errors.Is(err, kaml.ErrKeyNotFound) {
			return err
		}
		err := dev.Put(main, key, check.EncodeValue(r.tag(), r.sc.Keyspace.ValueSize))
		r.countWrite(err)
		return err
	default: // opSITxn
		return r.executeTxn(cache, txnNS, key)
	}
}

// executeTxn runs one snapshot-isolation read-modify-write transaction.
func (r *runner) executeTxn(cache *kaml.Cache, ns kaml.Namespace, key uint64) error {
	if cache == nil {
		return kaml.ErrClosed
	}
	t := cache.BeginSI()
	defer t.Free()
	val := check.EncodeValue(r.tag(), r.sc.Keyspace.ValueSize)
	_, rerr := t.Read(ns, key)
	var werr error
	switch {
	case rerr == nil:
		werr = t.Update(ns, key, val)
	case errors.Is(rerr, kaml.ErrTxnNotFoundKey):
		werr = t.Insert(ns, key, val)
	default:
		t.Abort()
		return rerr
	}
	if werr != nil {
		t.Abort()
		return werr
	}
	return t.Commit()
}

// executeCluster performs one operation against the cluster router.
func (r *runner) executeCluster(kind opKind, key uint64) error {
	switch kind {
	case opGet:
		_, err := r.cl.Get(key)
		return err
	case opRMW:
		if _, err := r.cl.Get(key); err != nil && !errors.Is(err, kaml.ErrKeyNotFound) {
			return err
		}
		fallthrough
	default: // opPut
		err := r.cl.Put(key, check.EncodeValue(r.tag(), r.sc.Keyspace.ValueSize))
		r.countWrite(err)
		return err
	}
}

// snapPhase records the phase-boundary counter and telemetry snapshots.
func (r *runner) snapPhase(pi int, atStart bool) {
	if r.cl != nil {
		if atStart {
			r.clStart[pi] = r.cl.Status()
		} else {
			r.clEnd[pi] = r.cl.Status()
		}
	}
	r.snapTelemetry()
}

// snapTelemetry captures a generation-tagged registry snapshot for the
// telemetry-monotone check.
func (r *runner) snapTelemetry() {
	var snap *telemetry.Snapshot
	gen := 0
	if r.cl != nil {
		snap = r.cl.Telemetry().Snapshot()
	} else {
		dev, g := r.dev, r.gen
		snap = dev.Telemetry().Snapshot()
		gen = g
	}
	r.tele = append(r.tele, teleSnap{gen: gen, snap: snap})
}

// quiesce waits out in-flight work, disarms fault injection, reads every
// sampled key back through the history tap (anchoring the final state for
// the checkers), takes the last telemetry snapshot, and shuts the target
// down.
func (r *runner) quiesce() {
	r.inflight.Wait()
	r.setFaultProbsQuiet(0, 0)
	ks := r.sc.Keyspace
	if r.cl != nil {
		for key := uint64(0); key < ks.Keys; key += ks.SampleEvery {
			_, _ = r.cl.Get(key)
		}
		r.snapTelemetry()
		st := r.cl.Status()
		r.clFinal = &st
		r.cl.Close()
		return
	}
	dev, _, main, _ := r.currentDev()
	dead := r.dead
	if !dead {
		for key := uint64(0); key < ks.Keys; key += ks.SampleEvery {
			_, _ = dev.Get(main, key)
		}
		r.snapTelemetry()
		dev.Close()
		r.tallyFaults(dev)
	}
}

// tallyFaults adds a halted device generation's absorbed flash faults to the
// run's totals.
func (r *runner) tallyFaults(dev *kaml.Device) {
	st := dev.Stats()
	r.programRetries += st.ProgramRetries
	r.tornPages += st.TornPagesSkipped
}

// setFaultProbsQuiet is setFaultProbs tolerant of a dead device.
func (r *runner) setFaultProbsQuiet(read, prog float64) {
	dead := r.dead
	if dead {
		return
	}
	r.setFaultProbs(read, prog)
}

// buildReport assembles the Report and evaluates the assertion block.
// Runs on the host after the simulation has fully drained.
func (r *runner) buildReport() *Report {
	rep := &Report{
		Scenario:   r.sc.Name,
		Seed:       r.sc.Seed,
		Target:     r.sc.Target.Kind,
		DurationMS: int64((r.endNow - r.t0) / time.Millisecond),
	}
	for pi := range r.sc.Phases {
		ph := &r.sc.Phases[pi]
		st := r.stats[pi]
		pr := PhaseReport{
			Name:          ph.Name,
			StartMS:       int64(r.starts[pi] / time.Millisecond),
			EndMS:         int64(r.starts[pi]/time.Millisecond) + ph.DurationMS,
			OpsIssued:     st.issued,
			OpsCompleted:  st.completed,
			Errors:        st.errors,
			PowerLoss:     st.powerLoss,
			NotFound:      st.notFound,
			TxnsCommitted: st.commits,
			TxnsAborted:   st.aborts,
			ClientRetries: st.clientRetries,
			LatencyUS:     summarizeLatencies(st.latUS),
		}
		if r.cl != nil {
			a, b := r.clStart[pi], r.clEnd[pi]
			pr.Cluster = &ClusterPhase{
				Failovers:    b.Failovers - a.Failovers,
				Migrations:   b.Migrations - a.Migrations,
				HedgesIssued: b.HedgesIssued - a.HedgesIssued,
				HedgesWon:    b.HedgesWon - a.HedgesWon,
				Retries:      b.Retries - a.Retries,
			}
		}
		rep.Phases = append(rep.Phases, pr)
	}
	rep.Final = FinalReport{
		AckedWrites:      r.ackedWrites,
		MaybeWrites:      r.maybeWrites,
		PowerCuts:        r.powerCuts,
		Recoveries:       r.recoveries,
		RecoveryFailures: r.recoveryFailures,
		RecoveryMS:       float64(r.recoveryTime.Microseconds()) / 1000,
		ProgramRetries:   r.programRetries,
		TornPages:        r.tornPages,
	}
	if r.clFinal != nil {
		rep.Final.Failovers = r.clFinal.Failovers
		rep.Final.ShardsTotal = len(r.clFinal.Shards)
		for _, sh := range r.clFinal.Shards {
			if sh.Primary >= 0 {
				rep.Final.ShardsLive++
			}
		}
	}
	tele := append([]teleSnap(nil), r.tele...)

	events := r.rec.Events()
	rep.Final.SampledEvents = len(events)
	r.runCheckers(rep, events, tele)
	evaluate(r.sc, rep)
	return rep
}
