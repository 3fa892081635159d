// Package cache implements the KAML caching layer (paper §III-D): a host
// DRAM cache of variable-length key-value pairs in front of the KAML SSD,
// plus a transaction manager that layers isolation (strong strict two-phase
// locking) on top of the SSD's native atomicity and durability.
//
// The cache is a hash table keyed by (namespace, key) with LRU eviction.
// Reads probe the table; a miss issues a Get to the SSD and inserts the
// result. Each entry carries the commit seq of its value, so a
// snapshot-isolation read is served from the table too whenever the cached
// value is the version its snapshot sees (si.go). Transactions keep private
// copies of their writes; at commit the transaction manager issues a single
// atomic multi-record Put (the SSD's durability point), installs the new
// versions in the cache, and releases locks — so transactions with disjoint
// write sets commit fully in parallel, unlike an ARIES engine serialized by
// a central log (§V-D.1).
package cache

import (
	"container/list"
	"errors"
	"fmt"
	"time"

	"github.com/kaml-ssd/kaml/internal/kamlssd"
	"github.com/kaml-ssd/kaml/internal/lockmgr"
	"github.com/kaml-ssd/kaml/internal/sim"
	"github.com/kaml-ssd/kaml/internal/storage"
	"github.com/kaml-ssd/kaml/internal/telemetry"
)

// Config tunes the caching layer.
type Config struct {
	// CapacityBytes bounds the cache's value bytes (the paper controls the
	// hit ratio by sizing this).
	CapacityBytes int64
	// RecordsPerLock is the locking granularity (1 = record-level; 16
	// reproduces the coarse-grained ablation in Fig. 9).
	RecordsPerLock int
}

// DefaultHostOpCost is the host CPU charged per transactional operation
// (lock manager, hash probe, copies) — ~tens of microseconds on the
// paper's 2009-era Xeon E5520 host. It matches DESIGN.md §5.
const DefaultHostOpCost = 12 * time.Microsecond

// Cache is the caching layer. It implements storage.Engine.
type Cache struct {
	dev *kamlssd.Device
	eng *sim.Engine
	cfg Config

	mu      *sim.Mutex
	entries map[ckey]*entry
	lru     *list.List // front = most recent
	size    int64

	lm   *lockmgr.Manager
	ts   uint64
	tsMu *sim.Mutex

	// siValidate gates first-committer-wins validation on SI writes; always
	// true outside the model checker's lost-update self-test. Guarded by mu.
	siValidate bool

	// The cache's counted events, one cell each: Stats() is a view of them
	// and of the lock manager's backoff cell (every wait-die kill backs off
	// once), and the device's registry (when it has one) lists the three SI
	// cells. siAborts covers every SI abort — wait-die, validation kill and
	// explicit Abort alike; validation kills additionally count in
	// siValFails.
	hits, misses, evictions         telemetry.Counter
	commits, aborts                 telemetry.Counter
	siCommits, siAborts, siValFails telemetry.Counter
}

// Stats is a snapshot of cache activity. Hits/Misses count the table
// lookups of both isolation levels' reads (a transaction's read of its own
// staged write looks nothing up); an SI read misses when the cached value
// is not the version its snapshot sees. Commits/Aborts cover both
// isolation levels; the SI* fields break out the snapshot-isolation share,
// with SIValidationFails counting first-committer-wins kills specifically.
type Stats struct {
	Hits, Misses          int64
	Evictions             int64
	Commits, Aborts, Dies int64

	SICommits, SIAborts, SIValidationFails int64
}

type ckey struct {
	ns  uint32
	key uint64
}

// entry is one cached record. A non-zero seq is the commit seq of val, and
// says val is the key's newest committed version with no write to the key
// in flight: a commit zeroes it before its Put and sets it from the Put's
// completion after (commitWrites), and an SS2PL read miss, which holds the
// key's S-lock, sets it from its Get. SS2PL reads serve val whatever seq
// says; an SI read serves it only under a non-zero seq (lookup).
type entry struct {
	k   ckey
	val []byte
	seq uint64
	elt *list.Element
}

var _ storage.Engine = (*Cache)(nil)

// New builds a caching layer over dev.
func New(dev *kamlssd.Device, cfg Config) *Cache {
	if cfg.CapacityBytes <= 0 {
		cfg.CapacityBytes = 64 << 20
	}
	if cfg.RecordsPerLock < 1 {
		cfg.RecordsPerLock = 1
	}
	eng := dev.Engine()
	c := &Cache{
		dev:        dev,
		eng:        eng,
		cfg:        cfg,
		entries:    make(map[ckey]*entry),
		lru:        list.New(),
		lm:         lockmgr.New(eng, cfg.RecordsPerLock),
		siValidate: true,
	}
	c.mu = eng.NewMutex("cache")
	c.tsMu = eng.NewMutex("cache-ts")
	if reg := dev.Telemetry(); reg != nil {
		c.lm.Instrument(reg)
		reg.Help("kaml_si_commits_total", "Snapshot-isolation transactions committed.")
		reg.Help("kaml_si_aborts_total", "Snapshot-isolation transactions aborted (all causes).")
		reg.Help("kaml_si_validation_failures_total", "SI writes killed by first-committer-wins validation.")
		reg.AdoptCounter(&c.siCommits, "kaml_si_commits_total")
		reg.AdoptCounter(&c.siAborts, "kaml_si_aborts_total")
		reg.AdoptCounter(&c.siValFails, "kaml_si_validation_failures_total")
	}
	return c
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits: c.hits.Value(), Misses: c.misses.Value(), Evictions: c.evictions.Value(),
		Commits: c.commits.Value(), Aborts: c.aborts.Value(), Dies: c.lm.Backoffs(),
		SICommits: c.siCommits.Value(), SIAborts: c.siAborts.Value(),
		SIValidationFails: c.siValFails.Value(),
	}
}

// HitRatio returns hits/(hits+misses) so far.
func (c *Cache) HitRatio() float64 {
	s := c.Stats()
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// CreateTable implements storage.Engine by creating a KAML namespace.
func (c *Cache) CreateTable(name string, hint storage.TableHint) (uint32, error) {
	capacity := hint.ExpectedRows * 4 / 3 // target ~0.75 load factor
	return c.dev.CreateNamespace(kamlssd.NamespaceAttrs{IndexCapacity: capacity})
}

// Close shuts down the underlying device.
func (c *Cache) Close() { c.dev.Close() }

// lookup returns a copy of the cached value, refreshing LRU, if it is the
// version a read at commit timestamp ts sees. An SS2PL read passes
// kamlssd.Latest and takes any cached value: its S-lock keeps writers out,
// so the cached bytes are the newest committed version. A snapshot read
// takes the value only when it is the newest committed version and was
// committed at or before its snapshot (0 < seq <= ts).
func (c *Cache) lookup(k ckey, ts uint64) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[k]
	if !ok || ts != kamlssd.Latest && (e.seq == 0 || e.seq > ts) {
		c.misses.Inc()
		return nil, false
	}
	c.lru.MoveToFront(e.elt)
	c.hits.Inc()
	return append([]byte(nil), e.val...), true
}

// install puts a value committed at seq into the cache, evicting LRU
// entries over capacity. Committed data is already durable on the SSD, so
// eviction is free.
func (c *Cache) install(k ckey, val []byte, seq uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[k]; ok {
		c.size += int64(len(val)) - int64(len(e.val))
		e.val = append([]byte(nil), val...)
		e.seq = seq
		c.lru.MoveToFront(e.elt)
	} else {
		e := &entry{k: k, val: append([]byte(nil), val...), seq: seq}
		e.elt = c.lru.PushFront(e)
		c.entries[k] = e
		c.size += int64(len(val))
	}
	for c.size > c.cfg.CapacityBytes && c.lru.Len() > 1 {
		tail := c.lru.Back()
		victim := tail.Value.(*entry)
		c.lru.Remove(tail)
		delete(c.entries, victim.k)
		c.size -= int64(len(victim.val))
		c.evictions.Inc()
	}
}

// commitWrites makes a write set durable with one atomic multi-record Put
// and installs the new versions in the cache. The caller holds the X-lock
// of every key in order, so no other writer touches them. Before the Put,
// each cached entry of the write set loses its seq (keeping its bytes and
// its LRU slot): from the group commit until the Put's completion reaches
// the host, a snapshot that begins may already see the new version, so the
// old value must not serve it. After the Put, the new values are installed
// with the seq the completion names.
func (c *Cache) commitWrites(order []ckey, writes map[ckey][]byte) error {
	if len(order) == 0 {
		return nil
	}
	batch := make([]kamlssd.PutRecord, 0, len(order))
	for _, k := range order {
		batch = append(batch, kamlssd.PutRecord{Namespace: k.ns, Key: k.key, Value: writes[k]})
	}
	c.mu.Lock()
	for _, k := range order {
		if e, ok := c.entries[k]; ok {
			e.seq = 0
		}
	}
	c.mu.Unlock()
	res := c.dev.SubmitPut(batch).Wait()
	if res.Err != nil {
		return res.Err
	}
	for _, k := range order {
		c.install(k, writes[k], res.Seq)
	}
	return nil
}

// Txn states (paper Fig. 2).
type txnState int

const (
	stateIdle txnState = iota
	stateActive
	stateCommitted
	stateAborted
)

// Txn is the caching layer's transaction control block (XCB).
type Txn struct {
	c      *Cache
	lt     *lockmgr.Txn
	state  txnState
	writes map[ckey][]byte // private copies (update/insert staging)
	order  []ckey          // write order, for deterministic Put batches
}

var _ storage.Tx = (*Txn)(nil)

// Begin starts a transaction (TransactionBegin: IDLE -> ACTIVE).
func (c *Cache) Begin() storage.Tx {
	c.tsMu.Lock()
	c.ts++
	ts := c.ts
	c.tsMu.Unlock()
	return c.beginAt(ts)
}

// BeginRetry starts a retry of prev with its wait-die priority (see
// storage.Engine).
func (c *Cache) BeginRetry(prev storage.Tx) storage.Tx {
	if p, ok := prev.(*Txn); ok && p.lt != nil {
		return c.beginAt(p.lt.TS)
	}
	return c.Begin()
}

func (c *Cache) beginAt(ts uint64) *Txn {
	return &Txn{
		c:      c,
		lt:     c.lm.NewTxn(ts),
		state:  stateActive,
		writes: make(map[ckey][]byte),
	}
}

// Read implements TransactionRead: S-lock the record, then serve it from
// the transaction's private copies, the cache, or the SSD.
func (t *Txn) Read(table uint32, key uint64) ([]byte, error) {
	if t.state != stateActive {
		return nil, storage.ErrTxnDone
	}
	t.c.eng.Sleep(DefaultHostOpCost)
	if err := t.c.lm.Acquire(t.lt, table, key, lockmgr.Shared); err != nil {
		t.die()
		return nil, fmt.Errorf("%w: %v", storage.ErrAborted, err)
	}
	k := ckey{ns: table, key: key}
	if v, ok := t.writes[k]; ok {
		return append([]byte(nil), v...), nil
	}
	if v, ok := t.c.lookup(k, kamlssd.Latest); ok {
		return v, nil
	}
	v, seq, err := t.c.dev.GetVersion(table, key, kamlssd.Latest)
	if err != nil {
		if errors.Is(err, kamlssd.ErrKeyNotFound) {
			return nil, storage.ErrNotFound
		}
		return nil, err
	}
	t.c.install(k, v, seq)
	return append([]byte(nil), v...), nil
}

// Update implements TransactionUpdate: X-lock the record and stage the new
// value in main memory until commit.
func (t *Txn) Update(table uint32, key uint64, value []byte) error {
	return t.write(table, key, value)
}

// Insert implements TransactionInsert; KAML's Put upserts, so Insert and
// Update share the staging path (the paper's API keeps them distinct for
// application clarity).
func (t *Txn) Insert(table uint32, key uint64, value []byte) error {
	return t.write(table, key, value)
}

func (t *Txn) write(table uint32, key uint64, value []byte) error {
	if t.state != stateActive {
		return storage.ErrTxnDone
	}
	t.c.eng.Sleep(DefaultHostOpCost)
	if err := t.c.lm.Acquire(t.lt, table, key, lockmgr.Exclusive); err != nil {
		t.die()
		return fmt.Errorf("%w: %v", storage.ErrAborted, err)
	}
	k := ckey{ns: table, key: key}
	if _, ok := t.writes[k]; !ok {
		t.order = append(t.order, k)
	}
	t.writes[k] = append([]byte(nil), value...)
	return nil
}

// Commit implements TransactionCommit: one atomic multi-record Put makes
// the write set durable, then the cache picks up the new versions and all
// locks release (ACTIVE -> COMMITTED).
func (t *Txn) Commit() error {
	if t.state != stateActive {
		return storage.ErrTxnDone
	}
	t.c.eng.Sleep(DefaultHostOpCost)
	if err := t.c.commitWrites(t.order, t.writes); err != nil {
		t.Abort()
		return err
	}
	t.state = stateCommitted
	t.c.lm.ReleaseAll(t.lt)
	t.c.commits.Inc()
	return nil
}

// Abort implements TransactionAbort: discard private copies, release locks
// (ACTIVE -> ABORTED).
func (t *Txn) Abort() {
	if t.state != stateActive {
		return
	}
	t.state = stateAborted
	t.writes = nil
	t.order = nil
	t.c.lm.ReleaseAll(t.lt)
	t.c.aborts.Inc()
}

// die is the wait-die abort path (counted separately so experiments can
// report concurrency-control kills). The backoff happens after every lock
// is released so older waiters get a lock-free window.
func (t *Txn) die() {
	t.state = stateAborted
	t.writes = nil
	t.order = nil
	t.c.lm.ReleaseAll(t.lt)
	t.c.aborts.Inc()
	t.c.lm.Backoff()
}

// Free implements TransactionFree (COMMITTED/ABORTED -> IDLE). The Go
// implementation has no pooled XCBs to recycle, so Free only validates the
// state machine.
func (t *Txn) Free() {
	if t.state == stateActive {
		t.Abort()
	}
	t.state = stateIdle
}
