package check

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	kaml "github.com/kaml-ssd/kaml"
	"github.com/kaml-ssd/kaml/internal/flash"
	"github.com/kaml-ssd/kaml/internal/kamlssd"
	"github.com/kaml-ssd/kaml/internal/nvme"
	"github.com/kaml-ssd/kaml/internal/record"
	"github.com/kaml-ssd/kaml/internal/sim"
)

// opKind is one step kind of a worker program.
type opKind uint8

const (
	opPut opKind = iota
	opGet
	opBatch // atomic multi-record PutBatch
	opBurst // several AsyncPuts in flight at once (coalescer pressure)
	opSnap  // snapshot a root namespace, then read keys through it
	opTune  // retarget a namespace's log count (GC/relocation pressure)
)

// opSpec is one step of a device worker's program. Values are not stored:
// every write takes the worker's next unique tag at execution time.
type opSpec struct {
	Kind  opKind
	Keys  []uint64      // put/get: 1 key; batch/burst: N; snap: keys read through the snapshot
	Arg   int           // tune: log-count selector; burst: 1 leaves the last future pending
	Delay time.Duration // virtual-time sleep before the step
}

// txnOp is one step of a transaction: a Read of Key or a write (Update).
type txnOp struct {
	Read bool
	Key  uint64
}

// Scenario is one fully deterministic model-checking run: device shape,
// fault plan, concurrency shape, and per-actor programs. Same Scenario =>
// same schedule => byte-identical history.
type Scenario struct {
	Seed int64 // schedule seed (sim.Engine.Serialize)

	// Flash geometry.
	Channels, ChipsPerChannel, BlocksPerChip, PagesPerBlock int

	// Firmware / pipeline shape.
	NumLogs            int
	QueueDepthPerLog   int
	PipelineDepth      int
	CoalesceWindow     time.Duration
	MaxCoalesceRecords int
	CoalesceShards     int

	NSCount    int  // root namespaces; key k lives in namespace k % NSCount
	SmallIndex bool // undersize the mapping tables to exercise index-full rollback
	ValueSize  int  // base written value size (tag header + filler)

	// Fault plan (flash-level, seeded).
	FaultSeed        int64
	ReadFailProb     float64
	ProgramFailProb  float64
	CutAfterPrograms int // fault-plan power cut on the Nth program attempt
	TornPageOnCut    bool

	// Nemesis power cut: during round CutRound (-1 = never), a concurrent
	// actor sleeps CutDelay of virtual time and cuts power.
	CutRound int
	CutDelay time.Duration

	Rounds   int        // each round re-runs every program (fresh tags)
	Programs [][]opSpec // device worker programs

	// Transaction workers (cache layer, SS2PL). Txns[w] is worker w's list
	// of transactions; generated scenarios keep these cut-free.
	Txns           [][][]txnOp
	RecordsPerLock int

	// SplitCommitBug makes the runner break batch atomicity on purpose: an
	// opBatch is recorded as one PutBatch but issued as two device Puts (see
	// splitBatch), so a cut — or a concurrently created snapshot — can
	// observe a torn batch. The harness's self-test proves the checker
	// catches it; the firmware has no such switch.
	SplitCommitBug bool

	// SIMode runs every transaction worker under snapshot isolation
	// (Cache.BeginSI) and checks the history with CheckHistorySI instead of
	// the serializability checker — write-skew is legal under SI, so the
	// SS2PL checker would report false anomalies.
	SIMode bool
	// LostUpdateBug disables the cache's first-committer-wins validation
	// (Cache.TestingDisableSIValidation), arming a real lost-update anomaly.
	// The SI self-test proves CheckHistorySI catches it.
	LostUpdateBug bool
}

// RunResult is the outcome of executing one scenario.
type RunResult struct {
	Events     []Event
	History    []byte // deterministic text rendering (Recorder.Serialize)
	Violations []Violation
	// PlanCutMidRun reports that the fault plan's program-count cut
	// (Scenario.CutAfterPrograms) struck while the workers were running —
	// not in the final drain, and not never. The explorer's tests assert it
	// over a sweep so the generator's cut range cannot silently fall out of
	// step with how many pages a workload programs.
	PlanCutMidRun bool
	// CacheHits and CacheMisses count the transaction reads the record cache
	// served and those it sent to the device (kaml.Cache.Stats); under
	// SIMode, the snapshot reads that found their version in DRAM and those
	// that did not.
	CacheHits, CacheMisses int64
}

// Failed reports whether the run produced a definite violation
// ("inconclusive" findings alone do not count).
func (r *RunResult) Failed() bool {
	for _, v := range r.Violations {
		if v.Kind != "inconclusive" {
			return true
		}
	}
	return false
}

// Run executes the scenario on a serialized engine and checks the recorded
// history. It is pure: no global state, no wall-clock, no shared RNG.
func Run(sc *Scenario) *RunResult {
	eng := sim.NewEngine()
	eng.Serialize(sc.Seed)
	rec := NewRecorder(eng.Now)
	var harnessErr error
	res := &RunResult{}
	eng.Go("root", func() {
		harnessErr = runScenario(sc, eng, rec, res)
	})
	eng.Wait()
	res.Events, res.History = rec.Events(), rec.Serialize()
	if sc.SIMode {
		res.Violations = CheckHistorySI(res.Events)
	} else {
		res.Violations = CheckHistory(res.Events)
	}
	if harnessErr != nil {
		res.Violations = append(res.Violations, Violation{
			Kind: "harness", Detail: harnessErr.Error(),
		})
	}
	return res
}

// options translates the scenario into device options on the given engine.
func (sc *Scenario) options(eng *sim.Engine) kaml.Options {
	fc := flash.DefaultConfig()
	fc.Channels = sc.Channels
	fc.ChipsPerChannel = sc.ChipsPerChannel
	fc.BlocksPerChip = sc.BlocksPerChip
	fc.PagesPerBlock = sc.PagesPerBlock
	fw := kamlssd.DefaultConfig(fc)
	fw.NumLogs = sc.NumLogs
	if sc.QueueDepthPerLog > 0 {
		fw.QueueDepthPerLog = sc.QueueDepthPerLog
	}
	if sc.PipelineDepth > 0 {
		fw.PipelineDepth = sc.PipelineDepth
	}
	fw.CoalesceWindow = sc.CoalesceWindow
	if sc.MaxCoalesceRecords > 0 {
		fw.MaxCoalesceRecords = sc.MaxCoalesceRecords
	}
	if sc.CoalesceShards > 0 {
		fw.CoalesceShards = sc.CoalesceShards
	}
	opts := kaml.Options{Flash: fc, Transport: nvme.DefaultConfig(), Firmware: fw, Engine: eng}
	if sc.ReadFailProb > 0 || sc.ProgramFailProb > 0 || sc.CutAfterPrograms > 0 {
		opts.Faults = &kaml.FaultPlan{
			Seed:             sc.FaultSeed,
			ReadFailProb:     sc.ReadFailProb,
			ProgramFailProb:  sc.ProgramFailProb,
			CutAfterPrograms: sc.CutAfterPrograms,
			TornPageOnCut:    sc.TornPageOnCut,
		}
	}
	return opts
}

// runScenario is the root actor's body. It sets res.PlanCutMidRun when the
// fault plan's count-based cut strikes mid-run, and res's cache counts.
func runScenario(sc *Scenario, eng *sim.Engine, rec *Recorder, res *RunResult) error {
	dev, err := kaml.Open(sc.options(eng))
	if err != nil {
		return fmt.Errorf("open: %w", err)
	}
	dev.SetHistoryTap(rec)

	nsCount := sc.NSCount
	if nsCount < 1 {
		nsCount = 1
	}
	nsOpts := kaml.NamespaceOptions{}
	if sc.SmallIndex {
		nsOpts.ExpectedKeys = 8
	}
	roots := make([]kaml.Namespace, nsCount)
	for i := range roots {
		if roots[i], err = dev.CreateNamespace(nsOpts); err != nil {
			return fmt.Errorf("create namespace: %w", err)
		}
	}
	nsOf := func(key uint64) kaml.Namespace { return roots[int(key%uint64(len(roots)))] }

	// The cache layer for transaction workers. Its table must be driven
	// exclusively through the cache (a direct device write would bypass the
	// DRAM cache), so it is a namespace of its own; post-crash audits read
	// it directly, which is safe — commits are write-through.
	var cache *kaml.Cache
	var table kaml.Namespace
	if len(sc.Txns) > 0 {
		rpl := sc.RecordsPerLock
		if rpl <= 0 {
			rpl = 1
		}
		cache = dev.NewCache(kaml.CacheOptions{CapacityBytes: 1 << 16, RecordsPerLock: rpl})
		if table, err = cache.CreateTable("t", 256); err != nil {
			return fmt.Errorf("create table: %w", err)
		}
		if sc.LostUpdateBug {
			cache.TestingDisableSIValidation()
		}
	}
	begin := func() *kaml.Txn {
		if sc.SIMode {
			return cache.BeginSI()
		}
		return cache.Begin()
	}

	// Per-actor unique tags: actor a's n-th write is tagged a<<32 | n, n
	// from 1. Counters persist across rounds so tags never repeat.
	tagSeq := make([]uint64, len(sc.Programs)+len(sc.Txns))
	nextTag := func(actor int) uint64 {
		tagSeq[actor]++
		return uint64(actor+1)<<32 | tagSeq[actor]
	}
	vsize := func(tag uint64) int { return sc.ValueSize + int(tag%3)*7 }

	// Every key any program writes, per namespace — the audit set.
	written := make(map[kaml.Namespace]map[uint64]struct{})
	note := func(ns kaml.Namespace, key uint64) {
		if written[ns] == nil {
			written[ns] = make(map[uint64]struct{})
		}
		written[ns][key] = struct{}{}
	}
	for _, prog := range sc.Programs {
		for _, op := range prog {
			if op.Kind == opPut || op.Kind == opBatch || op.Kind == opBurst {
				for _, k := range op.Keys {
					note(nsOf(k), k)
				}
			}
		}
	}
	for _, txns := range sc.Txns {
		for _, txn := range txns {
			for _, o := range txn {
				if !o.Read {
					note(table, o.Key)
				}
			}
		}
	}

	// Power-loss tracking shared by the workers, which are actors of one
	// engine and run one at a time.
	crashed := false
	markDead := func() { crashed = true }
	dead := func() bool { return crashed }
	// fatal records a harness-level failure (a bug in the harness or an
	// unexpected device error class), which fails the run loudly.
	var fatalErr error
	fatal := func(err error) { fatalErr, crashed = err, true }

	// expected classifies errors a worker may legitimately see mid-workload.
	expected := func(err error) bool {
		return err == nil ||
			errors.Is(err, kaml.ErrKeyNotFound) ||
			errors.Is(err, kaml.ErrDuplicateKey) ||
			errors.Is(err, kaml.ErrTxnNotFoundKey) ||
			errors.Is(err, kaml.ErrTxnAborted) ||
			errors.Is(err, kamlssd.ErrIndexFull)
	}
	// step runs after each operation: abandon the program on power loss,
	// tolerate expected errors, flag anything else.
	step := func(err error) bool {
		switch {
		case errors.Is(err, kaml.ErrPowerLoss), errors.Is(err, kaml.ErrClosed):
			markDead()
			return false
		case expected(err):
			return true
		default:
			fatal(fmt.Errorf("unexpected device error: %w", err))
			return false
		}
	}

	runProgram := func(d *kaml.Device, actor int, prog []opSpec) {
		for _, op := range prog {
			if op.Delay > 0 {
				eng.Sleep(op.Delay)
			}
			if dead() {
				return
			}
			switch op.Kind {
			case opPut:
				k := op.Keys[0]
				tag := nextTag(actor)
				if !step(d.Put(nsOf(k), k, EncodeValue(tag, vsize(tag)))) {
					return
				}
			case opGet:
				_, err := d.Get(nsOf(op.Keys[0]), op.Keys[0])
				if !step(err) {
					return
				}
			case opBatch:
				recs := make([]kaml.Record, len(op.Keys))
				for i, k := range op.Keys {
					tag := nextTag(actor)
					recs[i] = kaml.Record{Namespace: nsOf(k), Key: k, Value: EncodeValue(tag, vsize(tag))}
				}
				var err error
				if sc.SplitCommitBug {
					err = splitBatch(d, rec, recs)
				} else {
					err = d.PutBatch(recs)
				}
				if !step(err) {
					return
				}
			case opBurst:
				futs := make([]*kaml.PutFuture, len(op.Keys))
				for i, k := range op.Keys {
					tag := nextTag(actor)
					futs[i] = d.AsyncPut(nsOf(k), k, EncodeValue(tag, vsize(tag)))
				}
				if op.Arg == 1 && len(futs) > 1 {
					futs = futs[:len(futs)-1] // leave one future pending forever
				}
				ok := true
				for _, f := range futs {
					if !step(f.Wait()) {
						ok = false // drain every future before abandoning
					}
				}
				if !ok {
					return
				}
			case opSnap:
				snap, err := d.Snapshot(nsOf(op.Keys[0]))
				if !step(err) {
					return
				}
				if err != nil {
					continue
				}
				for _, k := range op.Keys {
					if _, err := d.Get(snap, k); !step(err) {
						return
					}
				}
			case opTune:
				logs := 1 + op.Arg%sc.NumLogs
				if !step(d.TuneNamespaceLogs(nsOf(uint64(op.Arg)), logs)) {
					return
				}
			}
		}
	}

	runTxns := func(actor int, txns [][]txnOp) {
		for _, prog := range txns {
			if dead() {
				return
			}
			t := begin()
			var terr error
			for _, o := range prog {
				if o.Read {
					_, terr = t.Read(table, o.Key)
					if errors.Is(terr, kaml.ErrTxnNotFoundKey) {
						terr = nil
					}
				} else {
					tag := nextTag(actor)
					terr = t.Update(table, o.Key, EncodeValue(tag, vsize(tag)))
				}
				if terr != nil {
					break
				}
			}
			if terr == nil {
				terr = t.Commit()
			} else {
				t.Abort()
			}
			t.Free()
			if !step(terr) {
				return
			}
		}
	}

	// audit reads back every key ever written (device namespaces and the
	// txn table) so the checkers see the final — and each post-recovery —
	// state. Returns the first power-loss error so the caller can recover.
	audit := func(d *kaml.Device) error {
		nss := make([]kaml.Namespace, 0, len(written))
		for ns := range written {
			nss = append(nss, ns)
		}
		sort.Slice(nss, func(i, j int) bool { return nss[i] < nss[j] })
		for _, ns := range nss {
			keys := make([]uint64, 0, len(written[ns]))
			for k := range written[ns] {
				keys = append(keys, k)
			}
			sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
			for _, k := range keys {
				_, err := d.Get(ns, k)
				if err != nil && !errors.Is(err, kaml.ErrKeyNotFound) {
					return err
				}
			}
		}
		return nil
	}

	// reopenAudited mirrors the crash-test idiom: capture, recover (a
	// latched time/count cut can strike during recovery itself — retry),
	// then audit, recovering again if the cut strikes mid-audit.
	reopenAudited := func(d *kaml.Device) (*kaml.Device, error) {
		for round := 0; ; round++ {
			img := d.Crash()
			var re *kaml.Device
			var rerr error
			for attempt := 0; attempt < 4; attempt++ {
				if re, rerr = kaml.Reopen(img); rerr == nil {
					break
				}
			}
			if rerr != nil {
				return nil, fmt.Errorf("reopen: %w", rerr)
			}
			aerr := audit(re)
			if aerr == nil {
				return re, nil
			}
			if !errors.Is(aerr, kaml.ErrPowerLoss) || round >= 3 {
				return nil, fmt.Errorf("post-recovery audit: %w", aerr)
			}
			d = re // cut struck between recovery and audit; go again
		}
	}

	rounds := sc.Rounds
	if rounds < 1 {
		rounds = 1
	}
	cutOnce := false
	for round := 0; round < rounds; round++ {
		wg := eng.NewWaitGroup()
		for i := range sc.Programs {
			i := i
			wg.Add(1)
			eng.Go("worker", func() {
				defer wg.Done()
				runProgram(dev, i, sc.Programs[i])
			})
		}
		if cache != nil && !cutOnce {
			for j := range sc.Txns {
				j := j
				wg.Add(1)
				eng.Go("txn", func() {
					defer wg.Done()
					runTxns(len(sc.Programs)+j, sc.Txns[j])
				})
			}
		}
		if round == sc.CutRound {
			d := dev
			wg.Add(1)
			eng.Go("nemesis", func() {
				defer wg.Done()
				eng.Sleep(sc.CutDelay)
				d.PowerCut()
			})
		}
		wg.Wait()
		if fe := fatalErr; fe != nil {
			dev.PowerCut() // stop background actors before bailing out
			dev.Crash()
			return fe
		}
		if dead() || round == sc.CutRound {
			if sc.CutAfterPrograms > 0 && round != sc.CutRound {
				res.PlanCutMidRun = true
			}
			cutOnce = true
			re, rerr := reopenAudited(dev)
			if rerr != nil {
				return rerr
			}
			dev = re
			crashed = false
		}
	}

	if cache != nil {
		st := cache.Stats()
		res.CacheHits, res.CacheMisses = st.Hits, st.Misses
	}
	dev.Flush()
	if err := audit(dev); err != nil {
		// A fault-plan cut can fire this late; one recovery settles it.
		if !errors.Is(err, kaml.ErrPowerLoss) {
			return fmt.Errorf("final audit: %w", err)
		}
		re, rerr := reopenAudited(dev)
		if rerr != nil {
			return rerr
		}
		dev = re
	}
	dev.Close()
	return nil
}

// splitBatch is the armed atomicity self-test's fault, synthesised here so
// the firmware's commit loop carries no test branch: the history records
// ONE atomic PutBatch while the device sees the first record committed by
// its own Put, a pause, then the rest — bypassing the tap, so rec sees only
// the batch. The pause must span several reader scheduling points to be
// findable in a small seed budget: 80µs is a couple of whole Gets, enough
// for readers, snapshots and power cuts to land between the halves.
func splitBatch(d *kaml.Device, rec *Recorder, recs []kaml.Record) error {
	id := rec.OpInvoked(kaml.OpPutBatch, 0, recs)
	err := d.Raw().Put(recs[:1])
	if err == nil && len(recs) > 1 {
		d.Sleep(80 * time.Microsecond)
		err = d.Raw().Put(recs[1:])
	}
	rec.OpCompleted(id, 0, nil, err)
	return err
}

// GenScenario derives a random-but-reproducible scenario from seed: device
// geometry, concurrency shape, fault plan, and worker programs, sized to
// roughly ops operations total. bug additionally arms the runner's
// split-batch defect (splitBatch) and biases the workload toward the
// batch+snapshot+cut shapes that expose it.
func GenScenario(seed int64, ops int, bug bool) *Scenario {
	rng := rand.New(rand.NewSource(seed))
	sc := &Scenario{
		Seed:            seed,
		Channels:        2 << rng.Intn(2),
		ChipsPerChannel: 1 + rng.Intn(2),
		BlocksPerChip:   16 << rng.Intn(2),
		PagesPerBlock:   8 << rng.Intn(2),

		NumLogs:            1 + rng.Intn(4), // clamped to the chip count below
		QueueDepthPerLog:   1 + rng.Intn(2),
		PipelineDepth:      4 << rng.Intn(4),
		CoalesceWindow:     []time.Duration{0, 2 * time.Microsecond, 5 * time.Microsecond}[rng.Intn(3)],
		MaxCoalesceRecords: 4 + rng.Intn(13),
		CoalesceShards:     1 + rng.Intn(4),

		NSCount: 1 + rng.Intn(2),
		// 16 B to 1 KB: one to nine of a page's 64 chunks, so some workloads
		// fill pages by the dozen and others hardly at all.
		ValueSize: (16 + rng.Intn(48)) << rng.Intn(5),
		CutRound:  -1,
		FaultSeed: seed,
	}
	if chips := sc.Channels * sc.ChipsPerChannel; sc.NumLogs > chips {
		sc.NumLogs = chips
	}
	if rng.Intn(8) == 0 {
		sc.SmallIndex = true
	}
	if rng.Intn(4) == 0 {
		sc.ProgramFailProb = 0.02
	}
	if rng.Intn(4) == 0 {
		sc.ReadFailProb = 0.01
	}

	mode := rng.Intn(4)
	txnMode := mode == 3
	sc.Rounds = 1 + rng.Intn(2)
	if !txnMode && (bug || rng.Intn(2) == 0) {
		// A cut: either the nemesis actor (virtual-time) or the fault
		// plan's program-count trigger (guaranteed mid-write).
		if rng.Intn(3) == 0 {
			// A page is programmed only once it is full, so the cut is drawn
			// from the pages this workload fills — about one record per op —
			// not from a fixed range: the first half of them, so the cut lands
			// with workers still running (TestCountCutsLandMidRun).
			chunks := (record.HeaderSize + sc.ValueSize + record.DefaultChunkSize - 1) / record.DefaultChunkSize
			pages := ops * chunks * record.DefaultChunkSize / flash.DefaultConfig().PageSize
			sc.CutAfterPrograms = 1 + rng.Intn(max(1, pages/2))
			if rng.Intn(3) == 0 {
				sc.TornPageOnCut = true
			}
		} else {
			sc.CutRound = rng.Intn(sc.Rounds)
			sc.CutDelay = time.Duration(5+rng.Intn(2000)) * time.Microsecond
		}
	}
	sc.SplitCommitBug = bug

	workers := 2 + rng.Intn(3)
	keySpace := uint64(8 << rng.Intn(2))
	perWorker := ops / (workers * sc.Rounds)
	if perWorker < 4 {
		perWorker = 4
	}
	key := func() uint64 { return uint64(rng.Intn(int(keySpace))) }
	sc.Programs = make([][]opSpec, workers)
	for w := range sc.Programs {
		prog := make([]opSpec, 0, perWorker)
		for len(prog) < perWorker {
			var op opSpec
			roll := rng.Intn(100)
			// Cumulative weights per kind: put, get, batch, burst, snap, tune.
			weights := [6]int{40, 62, 80, 89, 95, 100}
			if bug {
				// The split-commit defect tears multi-record batches; it is
				// observed by snapshots (and post-cut audits), so bias hard
				// toward batches and snapshots.
				weights = [6]int{10, 20, 65, 70, 97, 100}
			}
			switch {
			case roll < weights[0]:
				op = opSpec{Kind: opPut, Keys: []uint64{key()}}
			case roll < weights[1]:
				op = opSpec{Kind: opGet, Keys: []uint64{key()}}
			case roll < weights[2]:
				n := 2 + rng.Intn(3)
				keys := make([]uint64, 0, n)
				used := make(map[uint64]bool)
				for len(keys) < n {
					k := key()
					if used[k] {
						continue
					}
					used[k] = true
					keys = append(keys, k)
				}
				// Not in an armed run: splitBatch would turn the rejected
				// batch into two accepted writes. (The draw still happens, so
				// both modes consume the same random stream.)
				if rng.Intn(12) == 0 && !bug {
					keys = append(keys, keys[0]) // deliberate duplicate: must be rejected
				}
				op = opSpec{Kind: opBatch, Keys: keys}
			case roll < weights[3]:
				n := 2 + rng.Intn(5)
				keys := make([]uint64, n)
				for i := range keys {
					keys[i] = key()
				}
				op = opSpec{Kind: opBurst, Keys: keys}
				if rng.Intn(3) == 0 {
					op.Arg = 1
				}
			case roll < weights[4]:
				// Snapshot + reads of keys from the snapshotted namespace
				// (same residue class => same root).
				base := key()
				n := 1 + rng.Intn(3)
				keys := make([]uint64, n)
				for i := range keys {
					// Same residue class mod NSCount => same root namespace.
					keys[i] = (base + uint64(i*sc.NSCount)) % (keySpace - keySpace%uint64(sc.NSCount))
				}
				op = opSpec{Kind: opSnap, Keys: keys}
			default:
				op = opSpec{Kind: opTune, Arg: rng.Intn(16)}
			}
			if rng.Intn(5) == 0 {
				op.Delay = time.Duration(rng.Intn(8)) * time.Microsecond
			}
			prog = append(prog, op)
		}
		sc.Programs[w] = prog
	}

	if txnMode {
		sc.RecordsPerLock = 1 + rng.Intn(2)*3
		txnWorkers := 2 + rng.Intn(2)
		sc.Txns = make([][][]txnOp, txnWorkers)
		for w := range sc.Txns {
			nTxns := 2 + rng.Intn(4)
			txns := make([][]txnOp, nTxns)
			for t := range txns {
				nOps := 2 + rng.Intn(3)
				prog := make([]txnOp, nOps)
				for i := range prog {
					prog[i] = txnOp{Read: rng.Intn(2) == 0, Key: uint64(rng.Intn(6))}
				}
				txns[t] = prog
			}
			sc.Txns[w] = txns
		}
	}
	return sc
}

// GenSIScenario derives a random-but-reproducible snapshot-isolation
// scenario from seed: transaction workers only, biased hard toward hot-key
// read-modify-write — the access pattern where SI's first-committer-wins
// validation must fire. Sized to roughly ops transaction steps total. SI
// scenarios are cut- and fault-free: the axioms concern concurrency, not
// recovery, and the MVCC crash path has its own torture test. bug arms the
// cache's validation-off defect, making lost updates real.
func GenSIScenario(seed int64, ops int, bug bool) *Scenario {
	rng := rand.New(rand.NewSource(seed))
	sc := &Scenario{
		Seed:            seed,
		Channels:        2,
		ChipsPerChannel: 1 + rng.Intn(2),
		BlocksPerChip:   16,
		PagesPerBlock:   16,

		NumLogs:          1 + rng.Intn(2),
		QueueDepthPerLog: 1 + rng.Intn(2),
		PipelineDepth:    8,
		CoalesceWindow:   []time.Duration{0, 2 * time.Microsecond}[rng.Intn(2)],

		NSCount:   1,
		ValueSize: 16 + rng.Intn(32),
		CutRound:  -1,
		FaultSeed: seed,

		Rounds:         1 + rng.Intn(2),
		RecordsPerLock: 1 + rng.Intn(2)*3,
		SIMode:         true,
		LostUpdateBug:  bug,
	}
	if chips := sc.Channels * sc.ChipsPerChannel; sc.NumLogs > chips {
		sc.NumLogs = chips
	}

	workers := 2 + rng.Intn(3)
	hot := 2 + rng.Intn(3) // tiny hot set: maximal write-write contention
	cold := hot + 4
	hotKey := func() uint64 { return uint64(rng.Intn(hot)) }
	anyKey := func() uint64 { return uint64(rng.Intn(cold)) }
	perWorker := ops / (workers * sc.Rounds * 4) // ~4 steps per txn
	if perWorker < 3 {
		perWorker = 3
	}
	sc.Txns = make([][][]txnOp, workers)
	for w := range sc.Txns {
		txns := make([][]txnOp, perWorker)
		for t := range txns {
			var prog []txnOp
			switch roll := rng.Intn(100); {
			case roll < 55:
				// Hot-key RMW, padded with reads to widen the window between
				// the snapshot read and the write.
				k := hotKey()
				prog = append(prog, txnOp{Read: true, Key: k})
				for i := rng.Intn(3); i > 0; i-- {
					prog = append(prog, txnOp{Read: true, Key: anyKey()})
				}
				prog = append(prog, txnOp{Read: false, Key: k})
			case roll < 70:
				// Two-key RMW: a multi-record atomic commit, the shape the
				// fractured-read axiom watches.
				a, b := hotKey(), anyKey()
				if a == b {
					b = uint64((int(b) + 1) % cold)
				}
				prog = []txnOp{
					{Read: true, Key: a}, {Read: true, Key: b},
					{Read: false, Key: a}, {Read: false, Key: b},
				}
			case roll < 90:
				// Read-only scan: must never block, abort, or observe a torn
				// commit.
				for i := 1 + rng.Intn(4); i > 0; i-- {
					prog = append(prog, txnOp{Read: true, Key: anyKey()})
				}
			default:
				// Blind write: write-write conflict with no prior read.
				prog = []txnOp{{Read: false, Key: hotKey()}}
			}
			txns[t] = prog
		}
		sc.Txns[w] = txns
	}
	return sc
}

// ExploreSI is Explore over snapshot-isolation scenarios (GenSIScenario),
// each history checked against the SI axioms (CheckHistorySI).
func ExploreSI(baseSeed int64, n, ops int, bug bool, visit func(*Scenario, *RunResult)) *Failure {
	return explore(GenSIScenario, baseSeed, n, ops, bug, visit)
}

// Failure is one failing scenario with its result, as found by Explore.
type Failure struct {
	Scenario *Scenario
	Result   *RunResult
}

// Explore runs seeds scenarios (seeds baseSeed..baseSeed+n-1) of roughly
// ops operations each and returns the first failure, or nil if all pass.
// visit, when non-nil, is shown every scenario run and its result.
func Explore(baseSeed int64, n, ops int, bug bool, visit func(*Scenario, *RunResult)) *Failure {
	return explore(GenScenario, baseSeed, n, ops, bug, visit)
}

func explore(gen func(int64, int, bool) *Scenario, baseSeed int64, n, ops int, bug bool,
	visit func(*Scenario, *RunResult)) *Failure {
	for i := 0; i < n; i++ {
		sc := gen(baseSeed+int64(i), ops, bug)
		res := Run(sc)
		if visit != nil {
			visit(sc, res)
		}
		if res.Failed() {
			return &Failure{Scenario: sc, Result: res}
		}
	}
	return nil
}
