package cache

import (
	"errors"
	"fmt"

	"github.com/kaml-ssd/kaml/internal/kamlssd"
	"github.com/kaml-ssd/kaml/internal/lockmgr"
	"github.com/kaml-ssd/kaml/internal/storage"
)

// This file implements snapshot-isolation (SI) transactions over the SSD's
// MVCC machinery (internal/kamlssd/mvcc.go). Where the SS2PL Txn S-locks
// every record it reads, an SI transaction pins the device's commit
// timestamp at begin and serves every read from that snapshot — from the
// DRAM record cache when the cached value is the snapshot's version, else
// from the device — so reads take no locks, never block a writer, and never
// abort on read-read or read-write conflicts. Writes still X-lock through
// the shared lock manager (so SI and SS2PL transactions interoperate on the
// same tables) and validate first-committer-wins at lock-acquisition time:
// if a committed version newer than the transaction's snapshot exists, the
// transaction aborts with storage.ErrAborted. That check closes the lost-
// update window; write-skew remains possible, as SI permits.

// SITxn is a snapshot-isolation transaction. Its reads probe the record
// cache like an SS2PL transaction's, but a cached value serves one only if
// it carries a commit seq at or before the snapshot (Read); its commit
// keeps the cache's seqs exact the way an SS2PL commit does
// (commitWrites).
type SITxn struct {
	c       *Cache
	lt      *lockmgr.Txn // X-locks for the write set only
	beginTS uint64       // pinned device commit timestamp (snapshot)
	state   txnState
	writes  map[ckey][]byte
	order   []ckey
}

var _ storage.Tx = (*SITxn)(nil)

// BeginSI starts a snapshot-isolation transaction. The snapshot is the
// device's settled commit timestamp at the call: every batch committed at
// or before it is visible, nothing after it ever becomes visible.
func (c *Cache) BeginSI() storage.Tx {
	c.tsMu.Lock()
	c.ts++
	ts := c.ts
	c.tsMu.Unlock()
	return c.beginSIAt(ts)
}

// BeginSIRetry starts a retry of prev, inheriting its wait-die priority
// (the snapshot is re-pinned — a retry must see the writes that killed it).
func (c *Cache) BeginSIRetry(prev storage.Tx) storage.Tx {
	if p, ok := prev.(*SITxn); ok && p.lt != nil {
		return c.beginSIAt(p.lt.TS)
	}
	return c.BeginSI()
}

func (c *Cache) beginSIAt(lockTS uint64) *SITxn {
	return &SITxn{
		c:       c,
		lt:      c.lm.NewTxn(lockTS),
		beginTS: c.dev.PinCurrent(),
		state:   stateActive,
		writes:  make(map[ckey][]byte),
	}
}

// Read serves (table, key) from the transaction's snapshot — its own
// staged write if present, else the newest version committed at or before
// beginTS. No lock is taken and no conflict can abort the transaction
// here. The DRAM record cache serves the read when its entry is that
// version: the key's newest committed value, committed at or before
// beginTS (0 < seq <= beginTS, see entry). Otherwise the device reads the
// snapshot's version (GetAt); a value older than the newest is not cached.
func (t *SITxn) Read(table uint32, key uint64) ([]byte, error) {
	if t.state != stateActive {
		return nil, storage.ErrTxnDone
	}
	t.c.eng.Sleep(DefaultHostOpCost)
	k := ckey{ns: table, key: key}
	if v, ok := t.writes[k]; ok {
		return append([]byte(nil), v...), nil
	}
	if v, ok := t.c.lookup(k, t.beginTS); ok {
		return v, nil
	}
	v, err := t.c.dev.GetAt(table, key, t.beginTS)
	if err != nil {
		if errors.Is(err, kamlssd.ErrKeyNotFound) {
			return nil, storage.ErrNotFound
		}
		return nil, err
	}
	return v, nil
}

// Update stages a new value. The record is X-locked through the shared
// lock manager (wait-die against both SI and SS2PL writers), then
// validated first-committer-wins: a version committed after this
// transaction's snapshot means a concurrent writer already won — the
// transaction aborts with storage.ErrAborted.
func (t *SITxn) Update(table uint32, key uint64, value []byte) error {
	return t.write(table, key, value)
}

// Insert stages a new record; KAML's Put upserts, so Insert and Update
// share the staging path.
func (t *SITxn) Insert(table uint32, key uint64, value []byte) error {
	return t.write(table, key, value)
}

func (t *SITxn) write(table uint32, key uint64, value []byte) error {
	if t.state != stateActive {
		return storage.ErrTxnDone
	}
	t.c.eng.Sleep(DefaultHostOpCost)
	k := ckey{ns: table, key: key}
	if _, mine := t.writes[k]; !mine {
		if err := t.c.lm.Acquire(t.lt, table, key, lockmgr.Exclusive); err != nil {
			t.finish(true)
			return fmt.Errorf("%w: %v", storage.ErrAborted, err)
		}
		// First-committer-wins, checked at lock acquisition: with the X-lock
		// held no further commit to this key can land, so "newest committed
		// <= beginTS" stays true from here to our own commit.
		t.c.mu.Lock()
		validate := t.c.siValidate
		t.c.mu.Unlock()
		if validate {
			seq, err := t.c.dev.LatestCommittedSeq(table, key)
			if err != nil && !errors.Is(err, kamlssd.ErrKeyNotFound) {
				t.finish(true)
				return err
			}
			if err == nil && seq > t.beginTS {
				t.c.siValFails.Inc()
				t.finish(true)
				return fmt.Errorf("%w: snapshot ts %d overwritten at ts %d (first committer wins)",
					storage.ErrAborted, t.beginTS, seq)
			}
		}
		t.order = append(t.order, k)
	}
	t.writes[k] = append([]byte(nil), value...)
	return nil
}

// Commit makes the write set durable with one atomic multi-record Put,
// installs the new versions in the record cache (commitWrites), and
// releases the locks and the snapshot pin. A read-only transaction commits
// without touching the device.
func (t *SITxn) Commit() error {
	if t.state != stateActive {
		return storage.ErrTxnDone
	}
	t.c.eng.Sleep(DefaultHostOpCost)
	if err := t.c.commitWrites(t.order, t.writes); err != nil {
		t.Abort()
		return err
	}
	t.state = stateCommitted
	t.finishLocksAndPin()
	t.c.commits.Inc()
	t.c.siCommits.Inc()
	return nil
}

// Abort discards staged writes and releases the locks and the pin.
func (t *SITxn) Abort() {
	if t.state != stateActive {
		return
	}
	t.finish(false)
}

// Free implements storage.Tx; an active transaction is aborted.
func (t *SITxn) Free() {
	if t.state == stateActive {
		t.Abort()
	}
	t.state = stateIdle
}

// finish moves the transaction to ABORTED, releasing every resource and
// counting the abort; backoff (a concurrency-control kill) additionally
// counts a die and sleeps the wait-die backoff so an older conflicting
// transaction gets a lock-free window before the retry.
func (t *SITxn) finish(backoff bool) {
	t.state = stateAborted
	t.writes = nil
	t.order = nil
	t.finishLocksAndPin()
	t.c.aborts.Inc()
	t.c.siAborts.Inc()
	if backoff {
		t.c.dies.Inc()
		t.c.lm.Backoff()
	}
}

// finishLocksAndPin releases the write locks and the snapshot pin. Reached
// exactly once per transaction: every caller transitions out of
// stateActive first, and all entry points reject finished transactions.
func (t *SITxn) finishLocksAndPin() {
	t.c.lm.ReleaseAll(t.lt)
	t.c.dev.ReleasePin(t.beginTS)
}

// DisableSIValidation turns off first-committer-wins validation on SI
// writes. Testing hook only: with validation off, two concurrent SI
// transactions can both read version v of a key and both commit writes to
// it — a lost update. The model checker's SI self-test arms this to prove
// its checker catches the anomaly (internal/check).
func (c *Cache) DisableSIValidation() {
	c.mu.Lock()
	c.siValidate = false
	c.mu.Unlock()
}
