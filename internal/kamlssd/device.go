// Package kamlssd implements the paper's primary contribution: the
// key-addressable, multi-log SSD firmware (KAML, HPCA 2017).
//
// The firmware manages the flash array as a set of append-only logs, one
// active append point per log, striped over the array's chips. Applications
// create key-value namespaces; each namespace owns one mapping table in
// on-SSD DRAM — a directory from key to the key's chain of retained
// versions, whose head is the key's current physical location — and is
// assigned a subset of the logs. Put atomically inserts or updates a batch
// of variable-sized records: phase 1 lands the batch in battery-backed NVRAM
// and pushes a version naming the NVRAM copy onto each key's chain (logical
// commit — the host is acknowledged here); phase 2 programs sealed pages to
// flash in the background; phase 3 swings each version to its flash address.
// Get resolves a key through the mapping table and serves the value from
// NVRAM or flash. Each log has its own garbage collector, woken when the
// log runs short of erased blocks, which reclaims blocks chosen by low erase
// count and low valid-byte count, re-validating every scanned record against
// the mapping table (§IV-E).
//
// # Lock hierarchy
//
// The firmware's metadata is sharded across a strict lock hierarchy so that
// independent requests never serialize (§V-D; DESIGN.md "Lock hierarchy &
// concurrency model"). Outer to inner:
//
//	d.mu   (RWMutex)  namespace map + family membership. Readers: per-op
//	                  namespace lookup, flusher/GC installs (which
//	                  must see a frozen snapshot family). Writers: create/
//	                  delete/snapshot namespace.
//	ns.mu  (RWMutex)  one per namespace: mapping-table mutation and log
//	                  assignment. Put and the flusher's and GC's installs
//	                  take the write lock; Get does NOT take it — see "The
//	                  read contract" below.
//	lg.mu  (Mutex)    one per log: open pages, sealed queue,
//	                  append points, the space ledger (space.go: free
//	                  lists, valid bytes). workCv (the flusher), freeCv
//	                  (the flusher out of erased blocks) and gcCv (the
//	                  collector) ride on it.
//	d.nvMu (Mutex)    the NVRAM region: staged values, batches, catalog,
//	                  bad-block table. drainCv (Flush) and the conditions
//	                  of the room event (a writer that met every log of
//	                  its namespace full, waiting for any flusher to make
//	                  room) and the batch-end event (a read or a snapshot
//	                  that met a half-staged Put batch) ride on it.
//
// An actor may acquire locks only downward in that order, at most one
// namespace lock and one log lock at a time (Put touches namespaces one
// record at a time; valid-byte credits lock the owning log internally).
// The key-lock table and the closed/crashed flags sit outside the
// hierarchy: key locks are acquired with no other lock held, and the flags
// are plain booleans. The firmware takes no host lock, and its only atomics
// are the telemetry cells behind Stats, which plain goroutines read: its
// engine runs one actor at a time, and the running actor owns the mapping
// tables, the pins, the flags and every other piece of plain memory, so the
// locks above order actors across their parks and nothing else. No actor
// holds ns.mu while waiting for queue space or free blocks — that is what
// lets the flusher take ns.mu to install flash locations while a Put is
// blocked on backpressure.
//
// # The read contract
//
// Every read — a root Get, a snapshot Get, GetAt, an SI transaction read —
// is the same routine (readVersion, mvcc.go): resolve the key in the
// family's mapping table as of a timestamp (noCutoff for a root Get), fetch
// the value from NVRAM or flash with no firmware lock held, and resolve
// again to catch a record that moved mid-read. The resolution acquires no
// firmware lock and cannot meet a half-done write: it runs without a park,
// and only the running actor touches the table, so it sees the table as the
// last mutation left it. The fetch parks, and mutations run meanwhile; the
// second resolution is what catches them (a pruned or aborted node keeps
// its links, and a recycled chain cell names its new key). ns.mu therefore
// does not order reads against writes; it orders mutators against each
// other across their parks, which the valid-byte accounting depends on. A
// family's table is built once, when the family is, and is never replaced:
// every mapping-table mutation goes through it in place.
package kamlssd

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"github.com/kaml-ssd/kaml/internal/cmdq"
	"github.com/kaml-ssd/kaml/internal/flash"
	"github.com/kaml-ssd/kaml/internal/hashindex"
	"github.com/kaml-ssd/kaml/internal/nvme"
	"github.com/kaml-ssd/kaml/internal/record"
	"github.com/kaml-ssd/kaml/internal/sim"
	"github.com/kaml-ssd/kaml/internal/telemetry"
)

// Errors returned by device operations.
var (
	ErrNoNamespace   = errors.New("kamlssd: no such namespace")
	ErrKeyNotFound   = errors.New("kamlssd: key not found")
	ErrClosed        = errors.New("kamlssd: device closed")
	ErrValueTooLarge = errors.New("kamlssd: value exceeds one flash page")
	// ErrEmptyBatch and ErrBadBatch are the two ways a Put batch breaks the
	// batch contract (checkBatch): no records, or one (namespace, key) named
	// twice — the firmware cannot order two writes to one key inside a
	// single atomic batch.
	ErrEmptyBatch = errors.New("kamlssd: empty Put batch")
	ErrBadBatch   = errors.New("kamlssd: duplicate key in Put batch")
	ErrIndexFull  = errors.New("kamlssd: namespace mapping table full")
	// ErrPowerLoss reports an operation interrupted by a power cut. A Put
	// that returns it was NOT acknowledged: recovery discards the batch.
	ErrPowerLoss = errors.New("kamlssd: power lost")
)

// Config tunes the KAML firmware.
type Config struct {
	NumLogs          int  // append streams; paper sweeps 16..64 (Fig. 8)
	QueueDepthPerLog int  // sealed NVRAM pages a log may buffer before its writers move on
	AutoGrowIndex    bool // let mapping tables grow (off for paper experiments)

	// Command pipeline (internal/cmdq). PipelineDepth bounds outstanding
	// commands (submission backpressure); CoalesceWindow is the group-commit
	// window merging concurrent Puts into one NVRAM batch commit, capped at
	// MaxCoalesceRecords records (0 cuts each batch at once).
	PipelineDepth      int
	CoalesceWindow     time.Duration
	MaxCoalesceRecords int
	// CoalesceShards sets the number of independent key-hash coalescer
	// shards (0 = cmdq default). The model checker sweeps it as a
	// concurrency-shape knob.
	CoalesceShards int

	// DisableTelemetry turns off the device's telemetry registry: nothing is
	// exported, the latency histograms do not exist and the timestamp reads
	// that feed them are skipped. The counters behind Stats() count either
	// way. The default — telemetry on — is cheap enough to leave enabled
	// (atomic adds on the hot path, no allocations); disabling exists for
	// the overhead benchmark and for harnesses that build thousands of
	// short-lived devices.
	DisableTelemetry bool
}

// DefaultConfig matches DESIGN.md §5: one log per channel by default.
func DefaultConfig(fc flash.Config) Config {
	return Config{
		NumLogs:          fc.Channels,
		QueueDepthPerLog: 2,
		AutoGrowIndex:    false,

		PipelineDepth:      128,
		CoalesceWindow:     5 * time.Microsecond,
		MaxCoalesceRecords: stackBatch,
	}
}

// chunkSize is the record allocation unit within a page, and
// defaultIndexCap the mapping-table capacity of a namespace created
// without one.
const (
	chunkSize       = record.DefaultChunkSize
	defaultIndexCap = 1 << 16
)

// NamespaceAttrs configure CreateNamespace.
type NamespaceAttrs struct {
	IndexCapacity int       // mapping-table capacity (0 = device default)
	NumLogs       int       // how many of the device's logs to append to (0 = all)
	Index         IndexKind // mapping-table structure (hash default; §IV-C)
}

// Device is the KAML SSD.
type Device struct {
	cfg  Config
	fc   flash.Config
	arr  *flash.Array
	ctrl *nvme.Controller
	eng  *sim.Engine

	// mu guards the namespace map and family membership (see the package
	// comment for the full hierarchy). Installs hold the read lock for the
	// whole multi-member swing so snapshot creation (a writer) can never
	// observe — or miss — half an install.
	mu *sim.RWMutex

	namespaces map[uint32]*namespace

	// families maps a family root's namespace ID to its version-chain
	// container. An entry outlives DeleteNamespace of the root while
	// snapshots of it remain — GC resolves record liveness through this map,
	// and a record's OOB namespace field is always the family root. Guarded
	// by mu.
	families map[uint32]*family

	// pins holds transient commit-timestamp pins (SI transactions, GetAt
	// readers) as ts -> refcount. Version pruning keeps every version
	// visible at a pinned timestamp. Plain memory, like the mapping tables:
	// the running actor owns it.
	pins map[uint64]int

	chainLenObs func(int)

	logs []*logState

	// nv is the battery-backed region: staged values, batch commit
	// markers, the namespace catalog, and the bad-block table. It is the
	// only firmware state that survives a power cut (see recover.go).
	// nvMu is the innermost lock of the hierarchy; the NVRAM structure
	// itself holds no lock because it must survive device teardown.
	nv     *NVRAM
	nvMu   *sim.Mutex
	keyLks *keyLockTable

	// drainers counts Flush callers waiting on drainCv (on nvMu) for
	// nv.unflushed() to reach zero. While it is non-zero the flushers seal
	// open pages as soon as they hold a record (log.go).
	drainers int
	drainCv  *sim.Cond

	// room is where a writer that met every log of its namespace full
	// waits for any flusher to make room (awaitRoom): raised when a flusher
	// seals a page a writer left (madeRoom).
	room event
	// batchEnd is where a read that met a pending version and a snapshot
	// that met a half-staged batch wait for that batch to commit or abort
	// (awaitBatchEnd): raised by execPut when it stamps a commit and when it
	// releases its namespaces, which an aborted batch does right after its
	// rollback.
	batchEnd event

	// pipe is the asynchronous command pipeline: a Get or Snapshot runs on
	// its caller (RunDirect), and every write runs on its coalescer shard,
	// which merges small concurrent Puts (see pipeline.go for the
	// submission glue).
	pipe *cmdq.Pipeline

	// ctr holds the firmware's counted events, one cell each (metrics.go).
	// tel is the device's telemetry registry — a directory of those cells
	// plus the histograms below, all nil when Config.DisableTelemetry.
	// The cells are the device's one host-synchronised state: Stats and the
	// registry are read from plain goroutines outside the simulation (an
	// HTTP handler, a bench reporter) without stalling the virtual clock.
	ctr          counters
	tel          *telemetry.Registry
	flashInstall *telemetry.Histogram // NVRAM stage -> flash index swing, per record
	gcPause      *telemetry.Histogram // one victim collection, scan to erase
	chainLen     *telemetry.Histogram // version-chain length at prune time, per key
	sealedChunks *telemetry.Histogram // chunks used in each page leaving the packer
	// freeBlockWait is how long a flusher waited for its log's collector to
	// return an erased block for the page it dequeued (hostPPN).
	freeBlockWait *telemetry.Histogram
	// logFullWait is how long a writer that met every log of its namespace
	// full waited for a flusher to make room (awaitRoom).
	logFullWait *telemetry.Histogram
	// programWait is how much longer than its floor a flusher's program
	// took, by the other job of its log on the page's chip (sharer).
	programWait [numWaitCauses]*telemetry.Histogram
	// gcPhase is a relocated victim's collection by phase: its scan, what
	// relocation took after the scan, its erase (collectBlock).
	gcPhase      [numGCPhases]*telemetry.Histogram
	recoveryTime *telemetry.Histogram // one Recover, log scan to actors started

	closed       bool
	crashed      bool // power-cut: actors exit without draining
	closeBegun   bool // Close entered; pipeline drain in progress
	flushersLive int  // flusher actors still running; the collectors outlive them
	stopped      *sim.WaitGroup
}

// Stats is a snapshot of firmware activity: a view of the device's counter
// cells (metrics.go), which a plain goroutine may read while actors run.
type Stats struct {
	Gets, Puts, PutRecords int64
	NVRAMHits              int64 // Gets served from NVRAM
	Programs               int64
	GCCopies, GCErases     int64
	// IndexProbes counts mapping-table entries scanned: the directory probe
	// sequence of a Get or of a Put's version push (one per record), and the
	// chain hops of a read at an explicit timestamp.
	IndexProbes int64
	// IndexReadRetries is always 0: a mapping-table read has one owner and
	// never retries. The field stays because the benchmark's per-layer
	// ledger (bench/layers.go) still reads it.
	IndexReadRetries  int64
	BytesWritten      int64 // host payload bytes accepted
	FlashBytesWritten int64 // pages programmed x page size (write amp)
	// RecordsRerouted counts records a full sealed queue sent on to their
	// namespace's next log (kaml_ssd_records_rerouted_total, all logs).
	RecordsRerouted int64
	// HotPages counts pages sealed from the logs' hot host streams
	// (kaml_ssd_hot_pages_total, all logs).
	HotPages int64

	// Fault handling.
	ProgramRetries int64 // failed programs rewritten to a fresh page
	ReadRetries    int64 // injected read errors retried by Get
	BlocksRetired  int64 // blocks taken out of service

	// MVCC (see mvcc.go). VersionsPruned counts dead record versions
	// unlinked from the chains; PinnedReads counts Gets resolved against an
	// explicit commit timestamp (snapshots, GetAt, SI transaction reads).
	VersionsPruned int64
	PinnedReads    int64

	// Recovery (populated by Recover on the post-crash device).
	RecoveredRecords     int64 // index entries rebuilt from the flash scan
	ReplayedValues       int64 // NVRAM values re-staged for flushing
	DroppedUncommitted   int64 // staged values of never-committed batches
	TornPagesSkipped     int64 // pages failing OOB magic/CRC during the scan
	RecoveryScannedPages int64 // programmed pages the scan read

	// Command pipeline (internal/cmdq; sampled from the pipeline rather
	// than updated by actors).
	PipelineSubmitted int64 // commands accepted into the pipeline
	PipelineCompleted int64 // commands whose completion resolved
	CoalescedPuts     int64 // Put commands that shared a group commit
	CoalescerBatches  int64 // batch commits issued by the coalescer
	CoalescerRecords  int64 // records across those commits
	PipelineMaxQueue  int64 // peak pipeline occupancy observed
	PipelineMeanQueue float64
}

// family groups a writable root namespace with the snapshots pinned
// against it. It owns the mapping table (internal/hashindex VersionChains):
// one directory from key to the chain of every retained version of the key,
// the head being the root's current view. The struct deliberately outlives
// the root namespace object's map entry: snapshot shells hold a direct
// pointer, so deleting the origin leaves their point-in-time reads fully
// functional (TestDeleteOriginKeepsSnapshot). Table mutations are
// serialized by root.mu — the root namespace object is retained here for
// exactly that lock, even after deletion.
type family struct {
	root *namespace
	// chains is the mapping table, built by newFamily and never replaced.
	// Readers use it with no lock; mutators hold root.mu.
	chains *hashindex.VersionChains
	kind   IndexKind // the directory's structure; immutable
	// rootLive is false once DeleteNamespace removed the root: pruning then
	// stops protecting chain heads, so versions survive only while a pinned
	// snapshot sees them. Guarded by d.mu.
	rootLive bool
}

// namespace is one key-value namespace.
type namespace struct {
	id uint32

	// mu guards logIDs and, on a family root, mutations of the family's
	// mapping table. Put, installs and GC swings take the write lock. Reads
	// do NOT take it (see the package comment).
	mu *sim.RWMutex

	logIDs []int
	// rr is the cursor over logIDs: the namespace appends to
	// logIDs[rr%len] until a record of its seals that log's page, then moves
	// on (appendRecord). It advances under the log lock, not mu, and only
	// from the value its writer routed on, which a park may have made stale.
	rr uint64
	// origin is the family root whose records this namespace references
	// (non-zero only for snapshots); readonly marks snapshots.
	origin   uint32
	readonly bool
	// cutoff bounds the sequences this namespace observes: noCutoff for
	// writable namespaces, the origin's sequence at snapshot time for
	// snapshots. Recovery uses it to rebuild a snapshot's point-in-time
	// view from the raw flash scan (newest record with seq <= cutoff).
	// Immutable after creation.
	cutoff uint64

	// fam is the family this namespace belongs to: its own for writable
	// roots, the origin's for snapshot shells. Immutable after creation.
	// Every read resolves through fam's mapping table at cutoff.
	fam *family

	// pendingBatches counts Put batches that have validated this namespace
	// but not yet committed or aborted. SnapshotNamespace waits for zero so
	// a snapshot never pins a half-staged batch (batch atomicity would
	// otherwise leak into the snapshot's point-in-time view).
	pendingBatches int
}

// newFamily builds an empty mapping table of the given shape for root.
func (d *Device) newFamily(root *namespace, kind IndexKind, capacity int, live bool) *family {
	return &family{
		root:     root,
		chains:   hashindex.NewVersionChainsOver(d.newDirectory(kind, capacity)),
		kind:     kind,
		rootLive: live,
	}
}

// New builds a KAML device on the array and transport and starts its
// background actors (one flusher and one collector per log). Close must be
// called before draining the simulation.
func New(arr *flash.Array, ctrl *nvme.Controller, cfg Config) *Device {
	fc := arr.Config()
	if cfg.NumLogs <= 0 || cfg.NumLogs > fc.Chips() {
		panic(fmt.Sprintf("kamlssd: NumLogs %d must be in 1..%d", cfg.NumLogs, fc.Chips()))
	}
	if fc.PageSize < chunkSize || fc.PageSize%chunkSize != 0 || fc.PageSize/chunkSize > 64 {
		panic(fmt.Sprintf("kamlssd: page size %d is not 1..64 chunks of %d", fc.PageSize, chunkSize))
	}
	if fc.OOBSize < oobLen {
		panic(fmt.Sprintf("kamlssd: OOB size %d < %d required for recovery metadata", fc.OOBSize, oobLen))
	}
	d := newDevice(arr, ctrl, cfg, NewNVRAM())
	d.startActors()
	return d
}

// newDevice builds a device's lock hierarchy and its logs, every block free,
// and starts no actor (shared by New and Recover).
func newDevice(arr *flash.Array, ctrl *nvme.Controller, cfg Config, nv *NVRAM) *Device {
	d := &Device{cfg: cfg, fc: arr.Config(), arr: arr, ctrl: ctrl, eng: arr.Engine(), nv: nv,
		namespaces: make(map[uint32]*namespace), families: make(map[uint32]*family), pins: make(map[uint64]int)}
	d.mu = d.eng.NewRWMutex("kaml-dev")
	d.nvMu = d.eng.NewMutex("kaml-nvram")
	d.drainCv = d.eng.NewCond(d.nvMu)
	d.room.cv = d.eng.NewCond(d.nvMu)
	d.batchEnd.cv = d.eng.NewCond(d.nvMu)
	d.keyLks = newKeyLockTable(d.eng)
	d.chainLenObs = func(l int) { d.chainLen.Observe(int64(l)) }
	d.buildLogs()
	return d
}

// newNamespace allocates the in-DRAM shell of a namespace, including its
// lock.
func (d *Device) newNamespace(id uint32) *namespace {
	return &namespace{id: id, mu: d.eng.NewRWMutex(fmt.Sprintf("kaml-ns%d", id))}
}

// startActors launches the command pipeline and, per log, one flusher and
// one collector.
func (d *Device) startActors() {
	if !d.cfg.DisableTelemetry {
		d.tel = telemetry.NewRegistry()
		d.export(d.tel)
	}
	d.pipe = cmdq.New(d.eng, cmdq.Config{
		Depth:           d.cfg.PipelineDepth,
		CoalesceWindow:  d.cfg.CoalesceWindow,
		MaxBatchRecords: d.cfg.MaxCoalesceRecords,
		CoalesceShards:  d.cfg.CoalesceShards,
		ClosedErr:       ErrClosed,
		Registry:        d.tel,
	}, d.execCommand)
	d.stopped = d.eng.NewWaitGroup()
	d.flushersLive = len(d.logs)
	for _, lg := range d.logs {
		lg := lg
		d.stopped.Add(2)
		d.eng.Go(fmt.Sprintf("kaml-flush%d", lg.id), func() { d.flusherLoop(lg) })
		d.eng.Go(fmt.Sprintf("kaml-gc%d", lg.id), newCollector(d, lg).loop)
	}
}

// buildLogs partitions the array's chips across the configured logs.
// Log i owns chips {c : c mod NumLogs == i}, giving each log its own
// append bandwidth; the chips of one log sit on as few channels as
// possible when NumLogs >= Channels (chip-per-log at 64 logs).
func (d *Device) buildLogs() {
	n := d.cfg.NumLogs
	d.logs = make([]*logState, n)
	for i := 0; i < n; i++ {
		d.logs[i] = newLogState(d, i)
	}
	for c := 0; c < d.fc.Chips(); c++ {
		lg := d.logs[c%n]
		lg.space.addChip(c, d.fc.BlocksPerChip)
	}
}

// Engine returns the owning simulation engine.
func (d *Device) Engine() *sim.Engine { return d.eng }

// Config returns the firmware configuration.
func (d *Device) Config() Config { return d.cfg }

// Telemetry returns the device's metrics registry, or nil when
// Config.DisableTelemetry. The registry is lock-free to read (atomic
// snapshots), so admin/scrape goroutines outside the simulation may use it
// freely.
func (d *Device) Telemetry() *telemetry.Registry { return d.tel }

// NVRAM returns the device's battery-backed region. The caller keeps the
// pointer across a power cut and hands it to Recover — that is the crash
// model: NVRAM survives, everything else is rebuilt.
func (d *Device) NVRAM() *NVRAM { return d.nv }

// lookupNS resolves a namespace ID under the device read lock.
func (d *Device) lookupNS(id uint32) (*namespace, error) {
	d.mu.RLock()
	ns, ok := d.namespaces[id]
	d.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNoNamespace, id)
	}
	return ns, nil
}

// Stats returns a snapshot of the device counters.
func (d *Device) Stats() Stats {
	c := &d.ctr
	ps := d.pipe.Stats()
	st := Stats{
		PipelineSubmitted: ps.Submitted,
		PipelineCompleted: ps.Completed,
		CoalescedPuts:     ps.CoalescedPuts,
		CoalescerBatches:  ps.BatchCommits,
		CoalescerRecords:  ps.BatchRecords,
		PipelineMaxQueue:  ps.MaxOccupancy,
		PipelineMeanQueue: ps.MeanOccupancy,

		Gets:               c.gets.Value(),
		Puts:               c.puts.Value(),
		PutRecords:         c.putRecords.Value(),
		NVRAMHits:          c.nvramHits.Value(),
		Programs:           c.programs.Value(),
		GCCopies:           c.gcCopies.Value(),
		IndexProbes:        c.indexProbes.Value(),
		BytesWritten:       c.bytesWritten.Value(),
		FlashBytesWritten:  c.flashBytes.Value(),
		ProgramRetries:     c.programRetries.Value(),
		ReadRetries:        c.readRetries.Value(),
		BlocksRetired:      c.blocksRetired.Value(),
		VersionsPruned:     c.versionsPruned.Value(),
		PinnedReads:        c.pinnedReads.Value(),
		RecoveredRecords:   c.recoveredRecords.Value(),
		ReplayedValues:     c.replayedValues.Value(),
		DroppedUncommitted: c.droppedUncommitted.Value(),
		TornPagesSkipped:   c.tornPagesSkipped.Value(),

		RecoveryScannedPages: c.scannedPages.Value(),
	}
	for _, lg := range d.logs {
		st.GCErases += lg.gcErases.Value()
		st.RecordsRerouted += lg.rerouted.Value()
		st.HotPages += lg.hotPages.Value()
	}
	return st
}

// programPage programs one flash page for either stream and applies the
// program-fault policy; its callers only decide what to do next. A success is
// counted here alone (Programs x PageSize is FlashBytesWritten), a power cut
// marks the device crashed, and an injected failure, which consumes the page,
// is counted and marks the block for retirement at its next erase
// (collectBlock). Any other error is a firmware bug. Called with no lock held.
func (d *Device) programPage(ppn flash.PPN, data, oob []byte) error {
	err := d.arr.ProgramPage(ppn, data, oob)
	switch {
	case err == nil:
		d.ctr.programs.Inc()
		d.ctr.flashBytes.Add(int64(d.fc.PageSize))
	case errors.Is(err, flash.ErrPowerCut):
		d.noticePowerLoss()
	case errors.Is(err, flash.ErrInjectedFailure):
		d.ctr.programRetries.Inc()
		lg, lc, b := d.blockOf(ppn)
		lg.mu.Lock()
		lc.blocks[b].progFailed++
		lg.space.gcRetry()
		lg.mu.Unlock()
	default:
		panic(fmt.Sprintf("kamlssd: program %d: %v", ppn, err))
	}
	return err
}

// readRecords reads page ppn whole and appends its records, which alias the
// page, to placed: the one page read of the victim and recovery scans, which
// filter the records themselves. It retries an injected read failure up to
// maxReadRetries times; a page whose OOB does not check (torn, garbage,
// consumed by a failed program) is torn and carries nothing.
func (d *Device) readRecords(ppn flash.PPN, placed []record.Placed) (_ []record.Placed, torn bool, err error) {
	var data, oob []byte
	for tries := 0; ; tries++ {
		data, oob, err = d.arr.ReadPage(ppn)
		if err == nil || !errors.Is(err, flash.ErrInjectedFailure) || tries >= maxReadRetries {
			break
		}
		d.ctr.readRetries.Inc()
	}
	if err != nil || !checkOOB(oob, data) {
		return placed, err == nil, err
	}
	placed, err = record.AppendParsed(placed, data, oob, chunkSize)
	if err != nil {
		err = fmt.Errorf("kamlssd: parse ppn %d: %w", ppn, err)
	}
	return placed, false, err
}

// PowerFail cuts power: the flash array stops accepting operations, the
// device is marked crashed, and background actors exit without draining.
// Unlike Close, nothing is flushed — recovery must rebuild from flash and
// NVRAM alone. Call from a simulation actor; AwaitHalt blocks until the
// background actors have exited.
func (d *Device) PowerFail() {
	d.arr.PowerOff()
	d.noticePowerLoss()
}

// AwaitHalt blocks until the device's background actors — flushers,
// collectors, and the command pipeline — have exited.
func (d *Device) AwaitHalt() {
	d.stopped.Wait()
	d.pipe.Join()
}

// noticePowerLoss marks the device crashed after an actor observed the
// array powered off, and wakes every actor blocked on a log condition —
// work, a free block, the collector's wake-up — on a log with room or on a
// batch end, so it can exit.
// Idempotent. Callers must not hold any log mutex (the broadcast takes each
// in turn so parked waiters cannot miss the wakeup).
func (d *Device) noticePowerLoss() {
	if d.crashed {
		return
	}
	d.crashed, d.closed = true, true
	for _, lg := range d.logs {
		lg.wakeAll()
	}
	d.nvMu.Lock()
	d.drainCv.Broadcast()     // Flush gives up on a dead device
	d.room.cv.Broadcast()     // and a writer waiting for a log with room on it
	d.batchEnd.cv.Broadcast() // and a read or a snapshot waiting for a batch
	d.nvMu.Unlock()
	// Poison the command pipeline last: pending writes and future commands
	// fail with ErrPowerLoss instead of executing, and submitters blocked on
	// backpressure wake up. Non-blocking, so this is safe from any actor
	// (including a coalescer or a direct command's caller noticing the cut
	// mid-command).
	if d.pipe != nil {
		d.pipe.Fail(ErrPowerLoss)
	}
}

// event is one firmware event that actors wait for by count: a waiter reads
// seen before it tests what it waits for, and await parks it until an
// occurrence after that one. Raising it costs an add and a test while
// nobody waits; it takes the condition's lock only for a registered waiter,
// so a run where nobody waits keeps its schedule.
type event struct {
	cv      *sim.Cond // on nvMu
	n       uint64
	waiters int
}

// seen returns how many times the event has occurred.
func (e *event) seen() uint64 { return e.n }

// raise records an occurrence and wakes every registered waiter.
func (e *event) raise() {
	e.n++
	if e.waiters > 0 {
		e.cv.L.Lock()
		e.cv.Broadcast()
		e.cv.L.Unlock()
	}
}

// await parks until an occurrence after the seen-th or a power cut
// (noticePowerLoss broadcasts every event's condition). Called with no lock
// held.
func (e *event) await(seen uint64, crashed *bool) {
	e.cv.L.Lock()
	// Registered before the test, as cmdq's queue-space waiters are: a
	// raiser that reads no waiter counted its occurrence before this test,
	// which then sees it.
	e.waiters++
	for e.n == seen && !*crashed {
		e.cv.Wait()
	}
	e.waiters--
	e.cv.L.Unlock()
}

// closedErr returns the right error for an operation arriving after the
// device stopped.
func (d *Device) closedErr() error {
	if d.crashed {
		return ErrPowerLoss
	}
	return ErrClosed
}

// Close drains the command pipeline and the logs, then stops the
// background actors. Commands accepted before Close still execute (the
// coalescer flushes pending writes immediately); commands submitted after
// fail with ErrClosed.
func (d *Device) Close() {
	if d.closeBegun {
		return
	}
	d.closeBegun = true
	// Drain the pipeline first — d.closed stays false so queued commands
	// execute rather than bounce, and the flushers stay alive to absorb
	// the writes the drain stages.
	d.pipe.Close()
	if d.closed {
		return // power was cut during the drain; actors are already exiting
	}
	d.closed = true
	for _, lg := range d.logs {
		lg.wakeAll()
	}
	d.stopped.Wait()
}

// CreateNamespace allocates a namespace with the given attributes and
// returns its ID (Table I).
func (d *Device) CreateNamespace(attrs NamespaceAttrs) (uint32, error) {
	capacity := attrs.IndexCapacity
	if capacity <= 0 {
		capacity = defaultIndexCap
	}
	var id uint32
	var err error
	d.ctrl.Submit(func() {
		d.ctrl.ComputeProbes(0)
		if d.closed {
			err = d.closedErr()
			return
		}
		d.mu.Lock()
		defer d.mu.Unlock()
		d.nvMu.Lock()
		id = d.nv.nextNSID
		d.nv.nextNSID++
		d.nvMu.Unlock()
		ns := d.newNamespace(id)
		ns.cutoff = noCutoff
		ns.fam = d.newFamily(ns, attrs.Index, capacity, true)
		d.families[id] = ns.fam
		ns.logIDs = d.firstLogs(attrs.NumLogs) // by default all logs serve every namespace
		d.namespaces[id] = ns
		d.nvMu.Lock()
		d.nv.putNS(nsMeta{
			id: id, kind: attrs.Index, capacity: capacity,
			numLogs: len(ns.logIDs), cutoff: noCutoff,
		})
		d.nvMu.Unlock()
	})
	return id, err
}

// DeleteNamespace destroys a namespace; record versions no surviving pin
// can see become garbage that GC will reclaim (Table I). Deleting a family
// root while snapshots of it remain keeps the version chains (and so the
// snapshots' reads) fully alive — only the chain versions newer than every
// surviving pin are released. Deleting the last member of a family releases
// everything.
func (d *Device) DeleteNamespace(id uint32) error {
	var err error
	d.ctrl.Submit(func() {
		d.ctrl.ComputeProbes(0)
		d.mu.Lock()
		defer d.mu.Unlock()
		ns, ok := d.namespaces[id]
		if !ok {
			err = fmt.Errorf("%w: %d", ErrNoNamespace, id)
			return
		}
		delete(d.namespaces, id)
		d.nvMu.Lock()
		d.nv.deleteNS(id)
		d.nvMu.Unlock()
		fam := ns.fam
		if fam.root == ns {
			fam.rootLive = false
			d.ctr.indexEntries.Add(-int64(fam.chains.Keys()))
		}
		if d.familyRefsLocked(fam) == 0 {
			delete(d.families, fam.root.id)
		}
		// Versions invisible to every surviving pin (for a dead root that
		// includes the chain heads) release their flash space now; the
		// per-block valid-byte accounting keeps GC victim scoring honest.
		pins, floor := d.pinsAppend(nil)
		d.pruneFamily(fam, pins, floor, fam.rootLive)
	})
	return err
}

// firstLogs lists the IDs of the device's first n logs, or of all of them
// when n is not in 1..NumLogs.
func (d *Device) firstLogs(n int) []int {
	if n <= 0 || n > len(d.logs) {
		n = len(d.logs)
	}
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// familyRefsLocked counts live namespaces still referencing fam. Called
// with d.mu held.
func (d *Device) familyRefsLocked(fam *family) int {
	n := 0
	for _, ns := range d.namespaces {
		if ns.fam == fam {
			n++
		}
	}
	return n
}

// SetNamespaceLogs retunes how many logs the namespace appends to,
// the knob behind Fig. 8. n is clamped to [1, NumLogs].
func (d *Device) SetNamespaceLogs(id uint32, n int) error {
	ns, err := d.lookupNS(id)
	if err != nil {
		return err
	}
	n = min(max(n, 1), len(d.logs))
	ns.mu.Lock()
	ns.logIDs = d.firstLogs(n)
	ns.rr = 0
	ns.mu.Unlock()
	d.nvMu.Lock()
	if m := d.nv.catalog[id]; m != nil {
		m.numLogs = n
	}
	d.nvMu.Unlock()
	return nil
}

// Namespaces returns the live namespace IDs in ascending order
// (diagnostics).
func (d *Device) Namespaces() []uint32 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	ids := make([]uint32, 0, len(d.namespaces))
	for id := range d.namespaces {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// namespacesSorted returns every live namespace ordered by ID. Callers that
// take per-namespace locks while walking the whole map must use this
// instead of ranging d.namespaces — map order would randomize the
// lock-acquisition schedule across runs. Called with d.mu held.
func (d *Device) namespacesSorted() []*namespace {
	out := make([]*namespace, 0, len(d.namespaces))
	for _, ns := range d.namespaces {
		out = append(out, ns)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// IndexLoadFactor reports the namespace mapping table's load factor.
func (d *Device) IndexLoadFactor(id uint32) (float64, error) {
	ns, err := d.lookupNS(id)
	if err != nil {
		return 0, err
	}
	if ns.origin != 0 || ns.fam.kind == IndexTree {
		return 0, nil // a snapshot shell mounts no table; a tree has no load factor
	}
	return ns.fam.chains.LoadFactor(), nil
}

// location packs a record's physical position into a hashindex value.
//
//	bit 63     : 1 = NVRAM (value keyed by seq), 0 = flash
//	flash form : ppn<<13 | startChunk<<7 | chunkCount
//	nvram form : bit63 | seq
type location uint64

const nvramBit = location(1) << 63

func flashLoc(ppn flash.PPN, chunk, nchunks int) location {
	return location(uint64(ppn)<<13 | uint64(chunk&63)<<7 | uint64(nchunks&127))
}

func nvramLoc(seq uint64) location { return nvramBit | location(seq) }

func (l location) isFlash() bool { return l&nvramBit == 0 }
func (l location) ppn() flash.PPN {
	return flash.PPN(uint64(l) >> 13)
}
func (l location) chunk() int   { return int(uint64(l) >> 7 & 63) }
func (l location) nchunks() int { return int(uint64(l) & 127) }
func (l location) seq() uint64  { return uint64(l &^ nvramBit) }
