// Package shoremt is the baseline storage engine the paper compares KAML
// against: a Shore-MT-style engine with ARIES write-ahead logging, a page
// buffer pool, slotted heap files, B+tree indexes, two-phase locking
// (record- or page-granular), and background checkpointing — all running on
// the conventional block SSD (internal/ftl via internal/blockdev).
//
// The engine deliberately has the three structural costs §V-D.1 attributes
// to conventional engines:
//
//  1. Centralized synchronous logging — every commit forces the shared log
//     while holding the global log mutex.
//  2. Checkpointing copies dirty data in the background, interfering with
//     foreground transactions (on top of the SSD's own GC: "double GC").
//  3. Extra indirection — key -> B+tree -> RID -> page -> LBA -> flash,
//     versus KAML's key -> flash.
package shoremt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"github.com/kaml-ssd/kaml/internal/blockdev"
	"github.com/kaml-ssd/kaml/internal/btree"
	"github.com/kaml-ssd/kaml/internal/bufferpool"
	"github.com/kaml-ssd/kaml/internal/lockmgr"
	"github.com/kaml-ssd/kaml/internal/sim"
	"github.com/kaml-ssd/kaml/internal/storage"
	"github.com/kaml-ssd/kaml/internal/wal"
)

// masterPage is the device page holding the master record (last checkpoint
// LSN); the WAL region follows it, then the data region.
const masterPage = 0

// Config tunes the engine.
type Config struct {
	PoolFrames      int           // buffer pool size in pages
	LogPages        int           // WAL region length
	RecordsPerLock  int           // 1 = record locks; >1 emulates coarse/page locks
	CheckpointEvery time.Duration // 0 disables the background checkpointer
}

// hostOpCost is host CPU per transactional operation; higher than the KAML
// caching layer's because of the extra layers (B+tree descent, buffer-pool
// bookkeeping, slotted-page access) — §V-D.1's "extra layers of
// indirection".
const hostOpCost = 18 * time.Microsecond

// DefaultConfig sizes the engine for tests and benchmarks.
func DefaultConfig() Config {
	return Config{
		PoolFrames:      256,
		LogPages:        128,
		RecordsPerLock:  1,
		CheckpointEvery: 50 * time.Millisecond,
	}
}

// Engine implements storage.Engine.
type Engine struct {
	cfg  Config
	eng  *sim.Engine
	dev  *blockdev.Device
	log  *wal.Log
	pool *bufferpool.Pool
	lm   *lockmgr.Manager

	mu        *sim.Mutex // catalog, page allocator, txn table
	tables    map[uint32]*table
	nextTable uint32
	nextPage  int
	txSeq     uint64
	active    map[uint64]*Txn // for checkpointing and recovery bookkeeping

	closed  bool
	stopped *sim.WaitGroup

	commits, aborts int64
}

type table struct {
	id    uint32
	name  string
	mu    *sim.Mutex  // index latch
	index *btree.Tree // key -> RID.Pack()
	pages []int       // heap pages owned by the table, in allocation order
	fill  int         // current insertion page (-1 = allocate on demand)
}

var _ storage.Engine = (*Engine)(nil)

// New builds an engine on dev. The WAL occupies pages [1, 1+LogPages); the
// data region follows.
func New(dev *blockdev.Device, eng *sim.Engine, cfg Config) *Engine {
	if cfg.PoolFrames <= 0 {
		cfg.PoolFrames = 64
	}
	if cfg.LogPages < 2 {
		cfg.LogPages = 2
	}
	if cfg.RecordsPerLock < 1 {
		cfg.RecordsPerLock = 1
	}
	e := &Engine{
		cfg:       cfg,
		eng:       eng,
		dev:       dev,
		tables:    make(map[uint32]*table),
		nextTable: 1,
		nextPage:  1 + cfg.LogPages,
		active:    make(map[uint64]*Txn),
	}
	e.mu = eng.NewMutex("shoremt")
	e.log = wal.New(dev, eng, wal.Config{StartPage: 1, NumPages: cfg.LogPages})
	e.pool = bufferpool.New(dev, eng, cfg.PoolFrames, func(lsn uint64) error {
		return e.log.Force(wal.LSN(lsn))
	})
	e.lm = lockmgr.New(eng, cfg.RecordsPerLock)
	e.stopped = eng.NewWaitGroup()
	if cfg.CheckpointEvery > 0 {
		e.stopped.Add(1)
		eng.Go("shoremt-ckpt", e.checkpointLoop)
	}
	return e
}

// Log exposes the WAL (stats, tests).
func (e *Engine) Log() *wal.Log { return e.log }

// Pool exposes the buffer pool (stats, tests).
func (e *Engine) Pool() *bufferpool.Pool { return e.pool }

// Device exposes the block device (stats, tests).
func (e *Engine) Device() *blockdev.Device { return e.dev }

// Commits returns the number of committed transactions.
func (e *Engine) Commits() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.commits
}

// CreateTable implements storage.Engine. The creation is logged and
// immediately durable so recovery can rebuild the catalog.
func (e *Engine) CreateTable(name string, hint storage.TableHint) (uint32, error) {
	e.mu.Lock()
	id := e.nextTable
	e.nextTable++
	t := &table{
		id:    id,
		name:  name,
		mu:    e.eng.NewMutex(fmt.Sprintf("tbl-%d", id)),
		index: btree.New(),
		fill:  -1,
	}
	e.tables[id] = t
	e.mu.Unlock()
	rec := &wal.Record{Type: wal.TypeCheckpoint, Payload: e.catalogBlob()}
	lsn, err := e.log.Append(rec)
	if err != nil {
		return 0, err
	}
	if err := e.log.Force(lsn); err != nil {
		return 0, err
	}
	e.writeMaster(lsn)
	return id, nil
}

// Close flushes and stops background actors.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	e.mu.Unlock()
	e.stopped.Wait()
	_, _ = e.pool.FlushAll()
	e.dev.Close()
}

// allocPage reserves a fresh data page for a table. Caller holds t.mu.
func (e *Engine) allocPage(t *table) (int, error) {
	e.mu.Lock()
	pg := e.nextPage
	if pg >= e.dev.Pages() {
		e.mu.Unlock()
		return 0, errors.New("shoremt: device full")
	}
	e.nextPage++
	t.pages = append(t.pages, pg)
	e.mu.Unlock()
	f, err := e.pool.NewPage(pg)
	if err != nil {
		return 0, err
	}
	e.pool.Unpin(f)
	return pg, nil
}

// encodeRow prefixes the key so recovery can rebuild indexes by scanning
// heap pages.
func encodeRow(key uint64, value []byte) []byte {
	out := make([]byte, 8+len(value))
	binary.LittleEndian.PutUint64(out, key)
	copy(out[8:], value)
	return out
}

func decodeRow(row []byte) (uint64, []byte, error) {
	if len(row) < 8 {
		return 0, nil, errors.New("shoremt: short row")
	}
	return binary.LittleEndian.Uint64(row), row[8:], nil
}

// checkpointLoop periodically flushes dirty pages, writes a checkpoint
// record with the catalog and active-transaction table, updates the master
// record, and truncates the log. This background copying is the
// "checkpointing ... can interfere with foreground activity" effect. The
// closed check follows the sleep: a Crash or Close that arrived meanwhile
// must find the device as it was, not freshly checkpointed.
func (e *Engine) checkpointLoop() {
	defer e.stopped.Done()
	for !e.isClosed() {
		e.eng.Sleep(e.cfg.CheckpointEvery)
		if e.isClosed() {
			return
		}
		// An error is log pressure or device trouble: retry next round.
		_ = e.Checkpoint()
	}
}

func (e *Engine) isClosed() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.closed
}

// Checkpoint performs one fuzzy checkpoint.
func (e *Engine) Checkpoint() error {
	minRecLSN, err := e.pool.FlushAll()
	if err != nil {
		return err
	}
	e.mu.Lock()
	minTxnLSN := wal.LSN(^uint64(0))
	for _, tx := range e.active {
		if tx.firstLSN != wal.NilLSN && tx.firstLSN < minTxnLSN {
			minTxnLSN = tx.firstLSN
		}
	}
	blob := e.catalogBlobLocked()
	e.mu.Unlock()

	rec := &wal.Record{Type: wal.TypeCheckpoint, Payload: blob}
	lsn, err := e.log.Append(rec)
	if err != nil {
		return err
	}
	if err := e.log.Force(lsn); err != nil {
		return err
	}
	e.writeMaster(lsn)

	// The log below min(checkpoint, oldest active txn, oldest dirty page)
	// is no longer needed.
	horizon := lsn
	if minTxnLSN < horizon {
		horizon = minTxnLSN
	}
	if wal.LSN(minRecLSN) < horizon {
		horizon = wal.LSN(minRecLSN)
	}
	e.log.Truncate(horizon)
	return nil
}

// writeMaster stores the latest checkpoint LSN in the master page.
func (e *Engine) writeMaster(lsn wal.LSN) {
	buf := make([]byte, blockdev.PageSize)
	binary.LittleEndian.PutUint64(buf[0:8], 0x4B414D4C4D535452) // "KAMLMSTR"
	binary.LittleEndian.PutUint64(buf[8:16], uint64(lsn))
	_ = e.dev.WritePage(masterPage, buf)
	e.dev.Flush()
}

// readMaster returns the checkpoint LSN from the master page, or ok=false
// for a virgin device.
func readMaster(dev *blockdev.Device) (wal.LSN, bool) {
	buf := make([]byte, blockdev.PageSize)
	if err := dev.ReadPage(masterPage, buf); err != nil {
		return 0, false
	}
	if binary.LittleEndian.Uint64(buf[0:8]) != 0x4B414D4C4D535452 {
		return 0, false
	}
	return wal.LSN(binary.LittleEndian.Uint64(buf[8:16])), true
}

// catalogBlob serializes the catalog + txn table (see catalogBlobLocked).
func (e *Engine) catalogBlob() []byte {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.catalogBlobLocked()
}

// catalogBlobLocked layout:
//
//	u32 nextTable | u64 nextPage | u64 txSeq
//	u32 numTables { u32 id | u16 nameLen | name | u32 numPages | u64 pages... }
//	u32 numActive { u64 txid | u64 lastLSN | u64 firstLSN }
func (e *Engine) catalogBlobLocked() []byte {
	var out []byte
	var tmp [8]byte
	w32 := func(v uint32) {
		binary.LittleEndian.PutUint32(tmp[:4], v)
		out = append(out, tmp[:4]...)
	}
	w64 := func(v uint64) {
		binary.LittleEndian.PutUint64(tmp[:8], v)
		out = append(out, tmp[:8]...)
	}
	w32(e.nextTable)
	w64(uint64(e.nextPage))
	w64(e.txSeq)
	w32(uint32(len(e.tables)))
	for _, t := range e.tables {
		w32(t.id)
		binary.LittleEndian.PutUint16(tmp[:2], uint16(len(t.name)))
		out = append(out, tmp[:2]...)
		out = append(out, t.name...)
		w32(uint32(len(t.pages)))
		for _, p := range t.pages {
			w64(uint64(p))
		}
	}
	w32(uint32(len(e.active)))
	for _, tx := range e.active {
		w64(tx.id)
		w64(uint64(tx.lastLSN))
		w64(uint64(tx.firstLSN))
	}
	return out
}
