// Package kaml is a from-scratch reproduction of the key-addressable,
// multi-log SSD from "KAML: A Flexible, High-Performance Key-Value SSD"
// (HPCA 2017), together with everything its evaluation needs: a NAND flash
// array simulator with realistic timing, an NVMe-like transport, the KAML
// firmware (namespaces, multi-log flash management, atomic multi-record
// Put, GC and wear leveling), the host caching layer with SS2PL
// transactions, a conventional block-SSD baseline, and a Shore-MT-style
// ARIES storage engine for comparison.
//
// Everything runs on a deterministic virtual clock: operations cost
// simulated time derived from flash and transport models rather than wall
// time, so experiments are fast and exactly reproducible. The one usage
// rule this imposes: all calls into the device or the transaction layer
// must happen on a simulation actor — start one with Device.Go and wait
// with Device.Wait (see the examples/ directory).
//
// # Quick start
//
//	dev, _ := kaml.Open(kaml.DefaultOptions())
//	dev.Go(func() {
//	    defer dev.Close()
//	    ns, _ := dev.CreateNamespace(kaml.NamespaceOptions{})
//	    _ = dev.Put(ns, 42, []byte("hello"))
//	    v, _ := dev.Get(ns, 42)
//	    fmt.Printf("%s\n", v)
//	})
//	dev.Wait()
//
// For transactions, wrap the device in a Cache (the paper's caching
// layer) and use Begin/Read/Update/Insert/Commit.
package kaml

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"github.com/kaml-ssd/kaml/internal/cache"
	"github.com/kaml-ssd/kaml/internal/cmdq"
	"github.com/kaml-ssd/kaml/internal/faultinject"
	"github.com/kaml-ssd/kaml/internal/flash"
	"github.com/kaml-ssd/kaml/internal/kamlssd"
	"github.com/kaml-ssd/kaml/internal/nvme"
	"github.com/kaml-ssd/kaml/internal/sim"
	"github.com/kaml-ssd/kaml/internal/storage"
	"github.com/kaml-ssd/kaml/internal/telemetry"
)

// Errors surfaced by the public API.
var (
	// ErrKeyNotFound reports a Get of an absent key.
	ErrKeyNotFound = kamlssd.ErrKeyNotFound
	// ErrNoNamespace reports an operation on an unknown namespace.
	ErrNoNamespace = kamlssd.ErrNoNamespace
	// ErrValueTooLarge reports a value exceeding one flash page.
	ErrValueTooLarge = kamlssd.ErrValueTooLarge
	// ErrReadOnly reports a Put against a snapshot namespace.
	ErrReadOnly = kamlssd.ErrReadOnly
	// ErrPowerLoss reports an operation interrupted by a power cut. A Put
	// returning it was NOT acknowledged: after Reopen the batch is absent.
	ErrPowerLoss = kamlssd.ErrPowerLoss
	// ErrClosed reports an operation submitted after Close.
	ErrClosed = kamlssd.ErrClosed
	// ErrEmptyBatch reports a PutBatch with no records; an empty atomic
	// write is almost always a caller bug, so it is rejected rather than
	// trivially acknowledged.
	ErrEmptyBatch = kamlssd.ErrEmptyBatch
	// ErrDuplicateKey reports a PutBatch naming the same (namespace, key)
	// twice. The firmware cannot order two writes to one key within a
	// single atomic batch, so the batch is rejected before submission.
	ErrDuplicateKey = kamlssd.ErrBadBatch
	// ErrTxnAborted reports a transaction killed by concurrency control;
	// retry it.
	ErrTxnAborted = storage.ErrAborted
	// ErrTxnNotFoundKey reports a transactional read of an absent key.
	ErrTxnNotFoundKey = storage.ErrNotFound
)

// Options configure a simulated KAML SSD.
type Options struct {
	// Flash selects the array geometry and timing.
	Flash flash.Config
	// Transport selects NVMe-layer latencies and controller resources.
	Transport nvme.Config
	// Firmware tunes the KAML FTL (log count, queue depths, coalescing, ...).
	Firmware kamlssd.Config
	// Faults, when non-nil, installs a deterministic fault plan on the
	// flash array: seeded per-operation failure probabilities and/or a
	// power cut at a chosen point. Crash-consistency tests sweep its seed.
	Faults *FaultPlan
	// Engine, when non-nil, runs the device on an existing virtual clock
	// instead of a fresh one. The model checker uses this to serialize the
	// engine (sim.Engine.Serialize) before Open and to run Open itself on a
	// simulation actor, which makes the whole device lifecycle — including
	// the background actors Open spawns — deterministic for a given seed.
	Engine *sim.Engine
}

// FaultPlan mirrors the fault-injection configuration (see
// internal/faultinject): seeded probabilities for read/program/erase
// failures plus an optional deterministic power cut.
type FaultPlan struct {
	// Seed initializes the plan's PRNG for probability draws.
	Seed int64
	// Per-operation failure probabilities in [0, 1].
	ReadFailProb    float64
	ProgramFailProb float64
	EraseFailProb   float64
	// CutAfterPrograms > 0 cuts power on the Nth flash program attempt.
	CutAfterPrograms int
	// CutAtTime > 0 cuts power at the first flash operation at or after
	// the given virtual time.
	CutAtTime time.Duration
	// TornPageOnCut makes a program-triggered cut leave a torn page.
	TornPageOnCut bool
}

// DefaultOptions mirrors the paper's board: 16 channels x 4 chips, 8 KB
// pages, 16 logs.
func DefaultOptions() Options {
	fc := flash.DefaultConfig()
	return Options{
		Flash:     fc,
		Transport: nvme.DefaultConfig(),
		Firmware:  kamlssd.DefaultConfig(fc),
	}
}

// SmallOptions returns a scaled-down device that builds and churns quickly
// in tests and examples.
func SmallOptions() Options {
	fc := flash.DefaultConfig()
	fc.Channels = 4
	fc.ChipsPerChannel = 2
	fc.BlocksPerChip = 32
	fc.PagesPerBlock = 16
	fw := kamlssd.DefaultConfig(fc)
	fw.NumLogs = 4
	return Options{Flash: fc, Transport: nvme.DefaultConfig(), Firmware: fw}
}

// Op identifies one public-API operation kind as observed by a HistoryTap.
type Op uint8

// Operation kinds reported to HistoryTap.OpInvoked.
const (
	OpGet Op = iota + 1
	OpPut
	OpPutBatch
	OpSnapshot
	OpTuneLogs
	OpCrash
	OpReopen
	OpTxnRead
	OpTxnUpdate
	OpTxnInsert
	OpTxnCommit
	OpTxnAbort
)

// String names the operation kind.
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
	case OpTuneLogs:
		return "TuneLogs"
	case OpCrash:
		return "Crash"
	case OpReopen:
		return "Reopen"
	case OpTxnRead:
		return "TxnRead"
	case OpTxnUpdate:
		return "TxnUpdate"
	case OpTxnInsert:
		return "TxnInsert"
	case OpTxnCommit:
		return "TxnCommit"
	case OpTxnAbort:
		return "TxnAbort"
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// HistoryTap observes the invocation and completion of every public-API
// operation on a Device (and on transactions of its Caches). The model
// checker implements it to record a timestamped operation history; see
// internal/check.
//
// OpInvoked is called before the operation starts and returns an opaque ID;
// OpCompleted is called with that ID when the caller observes the result.
// For Get and TxnRead, value is the value returned to the caller; for
// Snapshot, ns is the created snapshot's ID; for TuneLogs, the single
// record's Key field carries the requested log count. txn is 0 for
// non-transactional operations, else the handle returned by TxnBegan.
//
// Install a tap with SetHistoryTap before issuing operations and do not
// change it while operations are in flight; implementations must be safe
// for concurrent use by many actors.
type HistoryTap interface {
	OpInvoked(op Op, txn uint64, records []Record) uint64
	OpCompleted(id uint64, ns Namespace, value []byte, err error)
	TxnBegan() uint64
}

// Device is a simulated KAML SSD plus the simulation engine it runs on.
type Device struct {
	eng  *sim.Engine
	arr  *flash.Array
	dev  *kamlssd.Device
	opts Options
	tap  HistoryTap
	mu   sync.Mutex // guards lazy fault-plan install
	plan *faultinject.Plan
}

// SetHistoryTap installs (or, with nil, removes) a history tap. Call it
// before issuing operations; the tap survives Crash/Reopen.
func (d *Device) SetHistoryTap(t HistoryTap) { d.tap = t }

// Open builds a device on a fresh virtual clock (or on opts.Engine).
func Open(opts Options) (*Device, error) {
	if err := opts.Flash.Validate(); err != nil {
		return nil, err
	}
	eng := opts.Engine
	if eng == nil {
		eng = sim.NewEngine()
	}
	arr := flash.New(eng, opts.Flash)
	var plan *faultinject.Plan
	if opts.Faults != nil {
		f := *opts.Faults
		plan = faultinject.New(faultinject.Config{
			Seed:             f.Seed,
			ReadFailProb:     f.ReadFailProb,
			ProgramFailProb:  f.ProgramFailProb,
			EraseFailProb:    f.EraseFailProb,
			CutAfterPrograms: f.CutAfterPrograms,
			CutAtTime:        f.CutAtTime,
			TornPageOnCut:    f.TornPageOnCut,
		})
		arr.SetInjector(plan)
	}
	ctrl := nvme.New(eng, opts.Transport)
	dev := kamlssd.New(arr, ctrl, opts.Firmware)
	return &Device{eng: eng, arr: arr, dev: dev, opts: opts, plan: plan}, nil
}

// ensurePlan installs an initially-benign fault plan on the flash array if
// none was configured at Open, so fault knobs can be turned at run time.
func (d *Device) ensurePlan() *faultinject.Plan {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.plan == nil {
		seed := int64(0)
		if d.opts.Faults != nil {
			seed = d.opts.Faults.Seed
		}
		d.plan = faultinject.New(faultinject.Config{Seed: seed})
		d.arr.SetInjector(d.plan)
	}
	return d.plan
}

// SetFaultProbs retargets the flash array's per-operation failure
// probabilities at run time, installing a benign fault plan first if the
// device was opened without one. The traffic simulator's flash-aging
// scenarios ramp these as simulated wear accumulates. Safe to call from
// any actor; draws stay on the plan's seeded PRNG stream.
func (d *Device) SetFaultProbs(read, program, erase float64) {
	d.ensurePlan().SetProbs(read, program, erase)
}

// TriggerPowerCut arms an immediate fault-plan power cut: the next flash
// operation is interrupted, and with torn set a program caught mid-flight
// leaves a torn page for the recovery scanner to detect. Unlike PowerCut
// (which halts the device instantly), the cut lands inside the flash
// array exactly the way a supply failure would. Follow with Crash and
// Reopen, as with any power loss.
func (d *Device) TriggerPowerCut(torn bool) {
	d.ensurePlan().CutNow(torn)
}

// CrashImage is what survives a power cut: the flash array's contents and
// the battery-backed NVRAM, still attached to the original virtual clock.
// Pass it to Reopen to run recovery.
type CrashImage struct {
	eng  *sim.Engine
	arr  *flash.Array
	nv   *kamlssd.NVRAM
	opts Options
	tap  HistoryTap
	plan *faultinject.Plan // fault plan still installed on the array
}

// Crash cuts power to the device and waits for its internal actors to
// halt, then returns the surviving state. Call from a simulation actor.
// Unlike Close nothing is drained: values still in the staging buffers
// stay there (they are battery-backed) and everything volatile is lost.
// In-flight operations fail with ErrPowerLoss; the device is unusable
// afterwards — hand the image to Reopen.
func (d *Device) Crash() *CrashImage {
	var id uint64
	if t := d.tap; t != nil {
		id = t.OpInvoked(OpCrash, 0, nil)
		defer func() { t.OpCompleted(id, 0, nil, nil) }()
	}
	d.dev.PowerFail()
	d.dev.AwaitHalt()
	d.mu.Lock()
	plan := d.plan
	d.mu.Unlock()
	return &CrashImage{eng: d.eng, arr: d.arr, nv: d.dev.NVRAM(), opts: d.opts, tap: d.tap, plan: plan}
}

// PowerCut cuts power without waiting for the device to halt — use it from
// a concurrent actor while operations are in flight. Follow with Crash
// (which is then just the halt-and-capture step) before Reopen.
func (d *Device) PowerCut() { d.dev.PowerFail() }

// Reopen runs power-failure recovery on a crash image: the firmware scans
// the flash logs to rebuild every namespace's mapping table
// (newest-sequence-wins, honoring snapshot cutoffs), discards batches that
// never committed, and replays committed staging-buffer values. The
// returned device runs on the same virtual clock; Stats on it reports the
// Recovered*/Replayed*/Dropped* counters. Call from a simulation actor.
func Reopen(img *CrashImage) (*Device, error) {
	var id uint64
	if t := img.tap; t != nil {
		id = t.OpInvoked(OpReopen, 0, nil)
	}
	ctrl := nvme.New(img.eng, img.opts.Transport)
	dev, err := kamlssd.Recover(img.arr, ctrl, img.opts.Firmware, img.nv)
	if t := img.tap; t != nil {
		t.OpCompleted(id, 0, nil, err)
	}
	if err != nil {
		return nil, err
	}
	return &Device{eng: img.eng, arr: img.arr, dev: dev, opts: img.opts, tap: img.tap, plan: img.plan}, nil
}

// Go runs fn as a simulation actor. All device operations must happen
// inside an actor.
func (d *Device) Go(fn func()) { d.eng.Go("app", fn) }

// Wait blocks the (real-world) caller until every actor has finished.
func (d *Device) Wait() { d.eng.Wait() }

// Now returns the current virtual time.
func (d *Device) Now() time.Duration { return d.eng.Now() }

// Sleep advances the calling actor by d of virtual time.
func (d *Device) Sleep(dur time.Duration) { d.eng.Sleep(dur) }

// Engine exposes the simulation engine (for spawning workers).
func (d *Device) Engine() *sim.Engine { return d.eng }

// WaitGroup joins actors on the simulated clock. Actors must never block
// on ordinary channels or sync primitives (that would stall the virtual
// clock); use this to wait for workers spawned with Go.
type WaitGroup struct{ wg *sim.WaitGroup }

// NewWaitGroup returns a simulation-aware wait group.
func (d *Device) NewWaitGroup() *WaitGroup {
	return &WaitGroup{wg: d.eng.NewWaitGroup()}
}

// Add adds delta to the counter.
func (w *WaitGroup) Add(delta int) { w.wg.Add(delta) }

// Done decrements the counter.
func (w *WaitGroup) Done() { w.wg.Done() }

// Wait parks the calling actor until the counter reaches zero.
func (w *WaitGroup) Wait() { w.wg.Wait() }

// Raw exposes the firmware device for advanced use (experiments).
func (d *Device) Raw() *kamlssd.Device { return d.dev }

// Close drains the logs and stops the device's background actors. Call it
// from an actor before the simulation ends.
func (d *Device) Close() { d.dev.Close() }

// NamespaceOptions configure CreateNamespace (Table I "attributes").
type NamespaceOptions struct {
	// ExpectedKeys sizes the namespace's mapping table (0 = device default).
	ExpectedKeys int
	// Logs bounds how many of the device's logs serve this namespace
	// (0 = all; the Fig. 8 tuning knob).
	Logs int
	// TreeIndex selects a B+tree mapping table instead of the default hash
	// table: ordered keys and no load-factor ceiling, at O(log n) lookup
	// cost (§IV-C's per-namespace index flexibility).
	TreeIndex bool
}

// Namespace identifies a key-value namespace.
type Namespace = uint32

// CreateNamespace allocates a namespace and returns its ID.
func (d *Device) CreateNamespace(opts NamespaceOptions) (Namespace, error) {
	capacity := 0
	if opts.ExpectedKeys > 0 {
		// Each of the table's stripes rounds its share up to a power of two,
		// so ExpectedKeys fill it to a load factor between 0.375 and 0.75
		// (get-flash's 200 000 keys sit at 0.38).
		capacity = opts.ExpectedKeys * 4 / 3
	}
	kind := kamlssd.IndexHash
	if opts.TreeIndex {
		kind = kamlssd.IndexTree
	}
	return d.dev.CreateNamespace(kamlssd.NamespaceAttrs{
		IndexCapacity: capacity,
		NumLogs:       opts.Logs,
		Index:         kind,
	})
}

// DeleteNamespace destroys a namespace; its records become garbage.
func (d *Device) DeleteNamespace(ns Namespace) error {
	return d.dev.DeleteNamespace(ns)
}

// Get retrieves the value stored under (ns, key).
func (d *Device) Get(ns Namespace, key uint64) ([]byte, error) {
	t := d.tap
	if t == nil {
		return d.dev.Get(ns, key)
	}
	id := t.OpInvoked(OpGet, 0, []Record{{Namespace: ns, Key: key}})
	v, err := d.dev.Get(ns, key)
	t.OpCompleted(id, ns, v, err)
	return v, err
}

// CommitTS returns the device's current commit timestamp — the sequence
// number of the newest committed write. Values returned here are valid
// arguments to GetAt, but nothing retains the versions visible at them:
// an overwrite makes the old version collectable immediately. Use
// PinCurrent (or a Snapshot) to hold a timestamp's view in place.
func (d *Device) CommitTS() uint64 { return d.dev.CommitTS() }

// PinCurrent pins and returns the newest settled commit timestamp: until
// the pin is released, pruning and garbage collection keep every version
// visible at it, so GetAt(ns, key, ts) keeps resolving to the values that
// were current when the pin was taken. Pins are refcounted and cheap —
// they hold back reclamation of superseded versions, not writes. Callers
// must pair each PinCurrent with a ReleasePin.
func (d *Device) PinCurrent() uint64 { return d.dev.PinCurrent() }

// ReleasePin drops one reference to a pin taken by PinCurrent. Once a
// timestamp has no pins and no snapshot cutoff, the versions only it
// could see become collectable.
func (d *Device) ReleasePin(ts uint64) { d.dev.ReleasePin(ts) }

// GetAt retrieves the value stored under (ns, key) as of commit timestamp
// ts: the newest version committed at or before ts ("time travel"). The
// version is pinned against garbage collection only for the duration of
// the call — for a stable long-lived view, create a Snapshot or use
// Cache.BeginSI. A ts of CommitTS() reads the present; ts past a
// snapshot's creation point is clamped to the snapshot's cutoff.
func (d *Device) GetAt(ns Namespace, key uint64, ts uint64) ([]byte, error) {
	t := d.tap
	if t == nil {
		return d.dev.GetAt(ns, key, ts)
	}
	id := t.OpInvoked(OpGet, 0, []Record{{Namespace: ns, Key: key}})
	v, err := d.dev.GetAt(ns, key, ts)
	t.OpCompleted(id, ns, v, err)
	return v, err
}

// Put atomically inserts or updates a single key-value pair.
func (d *Device) Put(ns Namespace, key uint64, value []byte) error {
	rec := [1]kamlssd.PutRecord{{Namespace: ns, Key: key, Value: value}}
	t := d.tap
	if t == nil {
		return d.dev.Put(rec[:]) // the device copies it: the record stays on the stack
	}
	// The tap may keep the slice it is shown, so it gets one of its own.
	recs := []kamlssd.PutRecord{rec[0]}
	id := t.OpInvoked(OpPut, 0, recs)
	err := d.dev.Put(recs)
	t.OpCompleted(id, ns, nil, err)
	return err
}

// Record is one element of an atomic batch Put. It is the same type all the
// way down (kamlssd.PutRecord, cmdq.Record): the device copies a batch's
// records once, on submission, and never converts them.
type Record = kamlssd.PutRecord

// PutBatch atomically inserts or updates several key-value pairs, possibly
// across namespaces — the paper's multi-part atomic write. Batches must be
// non-empty (ErrEmptyBatch) and free of repeated keys (ErrDuplicateKey);
// the firmware checks both on submission (kamlssd.SubmitPut), before the
// batch costs a device round trip. The device copies the records, not the
// values they name: records may live on the caller's stack, and the values
// must stay unmodified until PutBatch returns.
func (d *Device) PutBatch(records []Record) error {
	t := d.tap
	if t == nil {
		return d.dev.Put(records)
	}
	id := t.OpInvoked(OpPutBatch, 0, slices.Clone(records)) // the tap may keep it
	err := d.dev.Put(records)
	t.OpCompleted(id, 0, nil, err)
	return err
}

// PutFuture is an in-flight AsyncPut or AsyncPutBatch.
type PutFuture struct {
	f    *cmdq.Future
	tap  HistoryTap
	id   uint64
	once sync.Once
}

// Wait blocks (on the virtual clock) until the write is acknowledged.
func (f *PutFuture) Wait() error {
	err := f.f.Wait().Err
	if f.tap != nil {
		f.once.Do(func() { f.tap.OpCompleted(f.id, 0, nil, err) })
	}
	return err
}

// Ready reports, without blocking, whether the completion has arrived.
func (f *PutFuture) Ready() bool { return f.f.Ready() }

// AsyncPut submits a single-record Put and returns immediately with a
// future. Concurrent small AsyncPuts are candidates for the device's group
// commit: the coalescer may merge them into one multi-record NVRAM commit,
// amortizing the per-command firmware cost and commit marker.
func (d *Device) AsyncPut(ns Namespace, key uint64, value []byte) *PutFuture {
	recs := []kamlssd.PutRecord{{Namespace: ns, Key: key, Value: value}}
	fut := &PutFuture{tap: d.tap}
	if fut.tap != nil {
		fut.id = fut.tap.OpInvoked(OpPut, 0, recs)
	}
	fut.f = d.dev.SubmitPut(recs)
	return fut
}

// AsyncPutBatch submits an atomic multi-record write and returns a future.
// Validation failures (ErrEmptyBatch, ErrDuplicateKey) surface through the
// future's Wait, never through a neighboring command. The device copies the
// records before this returns, so the slice may be reused at once; the
// values it names must stay unmodified until Wait has returned.
func (d *Device) AsyncPutBatch(records []Record) *PutFuture {
	fut := &PutFuture{tap: d.tap}
	if fut.tap != nil {
		fut.id = fut.tap.OpInvoked(OpPutBatch, 0, slices.Clone(records))
	}
	fut.f = d.dev.SubmitPut(records)
	return fut
}

// NamespaceKeys returns every key in the namespace in ascending order.
// Combined with Snapshot it is the live-migration primitive: snapshot a
// namespace, enumerate the snapshot's frozen key set, and stream the
// records elsewhere while writes keep flowing to the origin (see
// internal/cluster).
func (d *Device) NamespaceKeys(ns Namespace) ([]uint64, error) {
	return d.dev.NamespaceKeys(ns)
}

// Flush drains the device: it returns once every acknowledged Put is on
// flash and the index points there. KAML's durability does not require it
// (the staging buffers are battery-backed) — but it is the drain point: a
// record otherwise leaves the staging buffers only when the page it shares
// with its neighbours fills, so a quiet device keeps its last few records
// in NVRAM indefinitely. Call it to settle the flash layout: after a bulk
// load, before measuring reads from flash.
func (d *Device) Flush() { d.dev.Flush() }

// TuneNamespaceLogs changes how many logs serve the namespace (Fig. 8).
func (d *Device) TuneNamespaceLogs(ns Namespace, logs int) error {
	t := d.tap
	if t == nil {
		return d.dev.SetNamespaceLogs(ns, logs)
	}
	id := t.OpInvoked(OpTuneLogs, 0, []Record{{Namespace: ns, Key: uint64(logs)}})
	err := d.dev.SetNamespaceLogs(ns, logs)
	t.OpCompleted(id, ns, nil, err)
	return err
}

// Snapshot creates a read-only, point-in-time snapshot of the namespace.
// A snapshot is an index-less shell that pins the namespace's commit
// timestamp: reads resolve through the live index's version chains,
// selecting the newest version at or below the pinned cutoff. Records are
// shared on flash and kept alive by the garbage collector while any
// snapshot (or in-flight snapshot-isolation transaction) can still see
// them (§I's "additional services like snapshots").
func (d *Device) Snapshot(ns Namespace) (Namespace, error) {
	t := d.tap
	if t == nil {
		return d.dev.SnapshotNamespace(ns)
	}
	id := t.OpInvoked(OpSnapshot, 0, []Record{{Namespace: ns}})
	snap, err := d.dev.SnapshotNamespace(ns)
	t.OpCompleted(id, snap, nil, err)
	return snap, err
}

// CacheOptions configure the host caching layer (paper §III-D).
type CacheOptions struct {
	// CapacityBytes bounds cached value bytes (controls the hit ratio).
	CapacityBytes int64
	// RecordsPerLock sets the locking granularity (1 = record-level).
	RecordsPerLock int
}

// Cache is the host caching layer: a DRAM record cache plus a transaction
// manager over the SSD's atomic Put, offering two isolation levels —
// serializable SS2PL (Begin) and snapshot isolation (BeginSI).
type Cache struct {
	c *cache.Cache
	d *Device
}

// NewCache builds a caching layer over the device.
func (d *Device) NewCache(opts CacheOptions) *Cache {
	return &Cache{
		c: cache.New(d.dev, cache.Config{
			CapacityBytes:  opts.CapacityBytes,
			RecordsPerLock: opts.RecordsPerLock,
		}),
		d: d,
	}
}

// CreateTable creates a namespace sized for the expected row count and
// returns it for use with transactions.
func (c *Cache) CreateTable(name string, expectedRows int) (Namespace, error) {
	return c.c.CreateTable(name, storage.TableHint{ExpectedRows: expectedRows})
}

// HitRatio reports the cache's hit ratio so far.
func (c *Cache) HitRatio() float64 { return c.c.HitRatio() }

// Txn is a transaction on the caching layer (paper Table II / Fig. 2).
type Txn struct {
	tx  storage.Tx
	tap HistoryTap
	id  uint64
}

// Begin starts a transaction (TransactionBegin).
func (c *Cache) Begin() *Txn {
	t := &Txn{tx: c.c.Begin(), tap: c.d.tap}
	if t.tap != nil {
		t.id = t.tap.TxnBegan()
	}
	return t
}

// BeginSI starts a snapshot-isolation transaction. Its reads are served
// from a snapshot pinned at begin — they take no locks, never block, and
// never abort on conflicts with readers or writers; long analytical reads
// coexist with update traffic. Writes still lock and follow first-
// committer-wins: if another transaction committed to the same key after
// this transaction's snapshot, the write fails with ErrTxnAborted (retry
// it). Write-skew is possible — use Begin (SS2PL, serializable) when that
// matters.
func (c *Cache) BeginSI() *Txn {
	t := &Txn{tx: c.c.BeginSI(), tap: c.d.tap}
	if t.tap != nil {
		t.id = t.tap.TxnBegan()
	}
	return t
}

// TestingDisableSIValidation turns off first-committer-wins validation on
// snapshot-isolation writes, making lost updates possible. Defect-injection
// hook for the model checker's SI self-test (internal/check) — never call
// it in production code.
func (c *Cache) TestingDisableSIValidation() { c.c.DisableSIValidation() }

// Read returns the value under (ns, key) with a shared lock
// (TransactionRead).
func (t *Txn) Read(ns Namespace, key uint64) ([]byte, error) {
	if t.tap == nil {
		return t.tx.Read(ns, key)
	}
	id := t.tap.OpInvoked(OpTxnRead, t.id, []Record{{Namespace: ns, Key: key}})
	v, err := t.tx.Read(ns, key)
	t.tap.OpCompleted(id, ns, v, err)
	return v, err
}

// Update stages a new value under an exclusive lock (TransactionUpdate).
func (t *Txn) Update(ns Namespace, key uint64, value []byte) error {
	if t.tap == nil {
		return t.tx.Update(ns, key, value)
	}
	id := t.tap.OpInvoked(OpTxnUpdate, t.id, []Record{{Namespace: ns, Key: key, Value: value}})
	err := t.tx.Update(ns, key, value)
	t.tap.OpCompleted(id, ns, nil, err)
	return err
}

// Insert stages a new record under an exclusive lock (TransactionInsert).
func (t *Txn) Insert(ns Namespace, key uint64, value []byte) error {
	if t.tap == nil {
		return t.tx.Insert(ns, key, value)
	}
	id := t.tap.OpInvoked(OpTxnInsert, t.id, []Record{{Namespace: ns, Key: key, Value: value}})
	err := t.tx.Insert(ns, key, value)
	t.tap.OpCompleted(id, ns, nil, err)
	return err
}

// Commit atomically persists the write set and releases locks
// (TransactionCommit).
func (t *Txn) Commit() error {
	if t.tap == nil {
		return t.tx.Commit()
	}
	id := t.tap.OpInvoked(OpTxnCommit, t.id, nil)
	err := t.tx.Commit()
	t.tap.OpCompleted(id, 0, nil, err)
	return err
}

// Abort discards staged writes and releases locks (TransactionAbort).
func (t *Txn) Abort() {
	if t.tap == nil {
		t.tx.Abort()
		return
	}
	id := t.tap.OpInvoked(OpTxnAbort, t.id, nil)
	t.tx.Abort()
	t.tap.OpCompleted(id, 0, nil, nil)
}

// Free releases the transaction's resources (TransactionFree).
func (t *Txn) Free() { t.tx.Free() }

// IsRetryable reports whether err is a concurrency-control abort the
// application should retry.
func IsRetryable(err error) bool { return errors.Is(err, storage.ErrAborted) }

// Stats is a snapshot of firmware counters.
type Stats = kamlssd.Stats

// Stats returns device counters (programs, GC activity, probes, ...).
func (d *Device) Stats() Stats { return d.dev.Stats() }

// Telemetry returns the device's metrics registry — a directory of the
// counter cells behind Stats plus the per-stage latency histograms — or nil
// when Options.Firmware.DisableTelemetry is set. The registry is read with
// atomic snapshots only, so scraping it from plain goroutines (an HTTP
// admin endpoint, a bench reporter) never touches the simulation's clock
// or locks.
func (d *Device) Telemetry() *telemetry.Registry { return d.dev.Telemetry() }
