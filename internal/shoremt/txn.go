package shoremt

import (
	"errors"
	"fmt"

	"github.com/kaml-ssd/kaml/internal/heapfile"
	"github.com/kaml-ssd/kaml/internal/lockmgr"
	"github.com/kaml-ssd/kaml/internal/storage"
	"github.com/kaml-ssd/kaml/internal/wal"
)

// Txn is one ARIES transaction: updates apply in place to buffer-pool
// pages as they happen (steal/no-force), guarded by SS2PL locks; commit is
// a synchronous log force; abort rolls back through the prevLSN chain
// writing CLRs.
type Txn struct {
	e        *Engine
	id       uint64
	lt       *lockmgr.Txn
	firstLSN wal.LSN
	lastLSN  wal.LSN
	done     bool
}

var _ storage.Tx = (*Txn)(nil)

// Begin implements storage.Engine.
func (e *Engine) Begin() storage.Tx {
	e.mu.Lock()
	e.txSeq++
	tx := &Txn{e: e, id: e.txSeq, lt: e.lm.NewTxn(e.txSeq)}
	e.active[tx.id] = tx
	e.mu.Unlock()
	return tx
}

// BeginRetry implements storage.Engine: the retry keeps its predecessor's
// wait-die priority (and with it, the transaction ID — safe because the
// previous incarnation's ABORT record closed its log chain).
func (e *Engine) BeginRetry(prev storage.Tx) storage.Tx {
	p, ok := prev.(*Txn)
	if !ok {
		return e.Begin()
	}
	tx := &Txn{e: e, id: p.id, lt: e.lm.NewTxn(p.lt.TS)}
	e.mu.Lock()
	e.active[tx.id] = tx
	e.mu.Unlock()
	return tx
}

func (e *Engine) lookupTable(id uint32) (*table, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	t, ok := e.tables[id]
	if !ok {
		return nil, fmt.Errorf("shoremt: no table %d", id)
	}
	return t, nil
}

// Read implements storage.Tx.
func (tx *Txn) Read(tableID uint32, key uint64) ([]byte, error) {
	if tx.done {
		return nil, storage.ErrTxnDone
	}
	tx.e.eng.Sleep(hostOpCost)
	t, err := tx.e.lookupTable(tableID)
	if err != nil {
		return nil, err
	}
	if err := tx.e.lm.Acquire(tx.lt, tableID, key, lockmgr.Shared); err != nil {
		tx.dieAbort()
		return nil, fmt.Errorf("%w: %v", storage.ErrAborted, err)
	}
	t.mu.Lock()
	packed, ierr := t.index.Get(key)
	t.mu.Unlock()
	if ierr != nil {
		return nil, storage.ErrNotFound
	}
	rid := heapfile.UnpackRID(packed)
	frame, err := tx.e.pool.Fetch(int(rid.Page))
	if err != nil {
		return nil, err
	}
	frame.Latch.Lock()
	row, rerr := heapfile.Read(frame.Data, rid.Slot)
	frame.Latch.Unlock()
	tx.e.pool.Unpin(frame)
	if rerr != nil {
		return nil, rerr
	}
	_, val, derr := decodeRow(row)
	if derr != nil {
		return nil, derr
	}
	return val, nil
}

// Update implements storage.Tx: in-place page update under WAL.
func (tx *Txn) Update(tableID uint32, key uint64, value []byte) error {
	if tx.done {
		return storage.ErrTxnDone
	}
	tx.e.eng.Sleep(hostOpCost)
	t, err := tx.e.lookupTable(tableID)
	if err != nil {
		return err
	}
	if err := tx.e.lm.Acquire(tx.lt, tableID, key, lockmgr.Exclusive); err != nil {
		tx.dieAbort()
		return fmt.Errorf("%w: %v", storage.ErrAborted, err)
	}
	t.mu.Lock()
	packed, ierr := t.index.Get(key)
	t.mu.Unlock()
	if ierr != nil {
		// Upsert semantics match the KAML engine: absent key -> insert.
		return tx.insertLocked(t, key, value)
	}
	rid := heapfile.UnpackRID(packed)
	frame, err := tx.e.pool.Fetch(int(rid.Page))
	if err != nil {
		return err
	}
	frame.Latch.Lock()
	before, rerr := heapfile.Read(frame.Data, rid.Slot)
	if rerr != nil {
		frame.Latch.Unlock()
		tx.e.pool.Unpin(frame)
		return rerr
	}
	after := encodeRow(key, value)
	rec := &wal.Record{
		Type: wal.TypeUpdate, TxnID: tx.id, PrevLSN: tx.lastLSN,
		Table: tableID, Key: key, RID: rid.Pack(),
		Before: before, After: after,
	}
	lsn, lerr := tx.e.log.Append(rec)
	if lerr != nil {
		frame.Latch.Unlock()
		tx.e.pool.Unpin(frame)
		return lerr
	}
	tx.noteLSN(lsn)
	uerr := heapfile.Update(frame.Data, rid.Slot, after)
	if uerr == nil {
		tx.e.pool.MarkDirty(frame, uint64(lsn))
	}
	frame.Latch.Unlock()
	tx.e.pool.Unpin(frame)
	if errors.Is(uerr, heapfile.ErrNoSpace) {
		// The grown record no longer fits its page: relocate (delete +
		// re-insert elsewhere). The update record above already logged the
		// delete's before-image; log the relocation as an insert.
		return tx.relocate(t, key, rid, after)
	}
	return uerr
}

// relocate moves a grown row to a fresh page: tombstone the old RID, insert
// the row elsewhere, and swing the index.
func (tx *Txn) relocate(t *table, key uint64, oldRID heapfile.RID, row []byte) error {
	frame, err := tx.e.pool.Fetch(int(oldRID.Page))
	if err != nil {
		return err
	}
	frame.Latch.Lock()
	_ = heapfile.Delete(frame.Data, oldRID.Slot)
	tx.e.pool.MarkDirty(frame, uint64(tx.lastLSN))
	frame.Latch.Unlock()
	tx.e.pool.Unpin(frame)
	key2, val, _ := decodeRow(row)
	if key2 != key {
		return errors.New("shoremt: relocate key mismatch")
	}
	return tx.insertLocked(t, key, val)
}

// Insert implements storage.Tx.
func (tx *Txn) Insert(tableID uint32, key uint64, value []byte) error {
	if tx.done {
		return storage.ErrTxnDone
	}
	tx.e.eng.Sleep(hostOpCost)
	t, err := tx.e.lookupTable(tableID)
	if err != nil {
		return err
	}
	if err := tx.e.lm.Acquire(tx.lt, tableID, key, lockmgr.Exclusive); err != nil {
		tx.dieAbort()
		return fmt.Errorf("%w: %v", storage.ErrAborted, err)
	}
	t.mu.Lock()
	_, ierr := t.index.Get(key)
	t.mu.Unlock()
	if ierr == nil {
		return tx.Update(tableID, key, value)
	}
	return tx.insertLocked(t, key, value)
}

// insertLocked places a new row. The caller already holds the X lock.
func (tx *Txn) insertLocked(t *table, key uint64, value []byte) error {
	row := encodeRow(key, value)
	for attempt := 0; attempt < 3; attempt++ {
		// Pick (or allocate) the table's fill page.
		t.mu.Lock()
		pg := t.fill
		t.mu.Unlock()
		if pg < 0 {
			npg, err := tx.e.allocPage(t)
			if err != nil {
				return err
			}
			t.mu.Lock()
			t.fill = npg
			t.mu.Unlock()
			pg = npg
		}
		frame, err := tx.e.pool.Fetch(pg)
		if err != nil {
			return err
		}
		frame.Latch.Lock()
		if heapfile.FreeBytes(frame.Data) < len(row)+8 {
			frame.Latch.Unlock()
			tx.e.pool.Unpin(frame)
			t.mu.Lock()
			if t.fill == pg {
				t.fill = -1 // page is full; next iteration allocates
			}
			t.mu.Unlock()
			continue
		}
		rec := &wal.Record{
			Type: wal.TypeInsert, TxnID: tx.id, PrevLSN: tx.lastLSN,
			Table: t.id, Key: key, After: row,
		}
		// Reserve the slot before logging so the record carries the RID.
		slot, serr := heapfile.Insert(frame.Data, row)
		if serr != nil {
			frame.Latch.Unlock()
			tx.e.pool.Unpin(frame)
			return serr
		}
		rid := heapfile.RID{Page: uint32(pg), Slot: slot}
		rec.RID = rid.Pack()
		lsn, lerr := tx.e.log.Append(rec)
		if lerr != nil {
			_ = heapfile.Delete(frame.Data, slot)
			frame.Latch.Unlock()
			tx.e.pool.Unpin(frame)
			return lerr
		}
		tx.noteLSN(lsn)
		tx.e.pool.MarkDirty(frame, uint64(lsn))
		frame.Latch.Unlock()
		tx.e.pool.Unpin(frame)
		t.mu.Lock()
		t.index.Put(key, rid.Pack())
		t.mu.Unlock()
		return nil
	}
	return errors.New("shoremt: could not place row after 3 attempts")
}

// noteLSN records a log record the transaction appended. The fields are
// written under the engine lock because a fuzzy checkpoint reads every
// active transaction's LSNs under it; the transaction's own reads need none.
func (tx *Txn) noteLSN(lsn wal.LSN) {
	tx.e.mu.Lock()
	if tx.firstLSN == wal.NilLSN {
		tx.firstLSN = lsn
	}
	tx.lastLSN = lsn
	tx.e.mu.Unlock()
}

// Commit implements storage.Tx: append COMMIT and force the log — the
// synchronous, centralized durability point (§V-D.1).
func (tx *Txn) Commit() error {
	if tx.done {
		return storage.ErrTxnDone
	}
	tx.e.eng.Sleep(hostOpCost)
	if tx.lastLSN != wal.NilLSN {
		rec := &wal.Record{Type: wal.TypeCommit, TxnID: tx.id, PrevLSN: tx.lastLSN}
		lsn, err := tx.e.log.Append(rec)
		if err != nil {
			tx.Abort()
			return err
		}
		if err := tx.e.log.Force(lsn); err != nil {
			tx.Abort()
			return err
		}
	}
	tx.finish()
	return nil
}

// Abort implements storage.Tx: roll back via the prevLSN chain, writing
// compensation log records.
func (tx *Txn) Abort() {
	if tx.done {
		return
	}
	tx.rollback()
	tx.finish()
}

// dieAbort is the wait-die kill path. The backoff happens after locks are
// released so older waiters get a lock-free window.
func (tx *Txn) dieAbort() {
	if tx.done {
		return
	}
	tx.rollback()
	tx.finish()
	tx.e.lm.Backoff()
}

// rollback undoes the transaction's updates newest-first.
func (tx *Txn) rollback() {
	cur := tx.lastLSN
	for cur != wal.NilLSN {
		rec, err := tx.e.log.ReadAt(cur)
		if err != nil {
			break // log truncated under us; nothing more to undo
		}
		switch rec.Type {
		case wal.TypeUpdate:
			tx.undoUpdate(rec)
			cur = rec.PrevLSN
		case wal.TypeInsert:
			tx.undoInsert(rec)
			cur = rec.PrevLSN
		case wal.TypeCLR:
			cur = rec.UndoNext
		default:
			cur = rec.PrevLSN
		}
	}
	if tx.lastLSN != wal.NilLSN {
		rec := &wal.Record{Type: wal.TypeAbort, TxnID: tx.id, PrevLSN: tx.lastLSN}
		if lsn, err := tx.e.log.Append(rec); err == nil {
			tx.noteLSN(lsn)
		}
	}
}

// undoUpdate restores the before-image and logs a CLR.
func (tx *Txn) undoUpdate(rec wal.Record) {
	clr := &wal.Record{
		Type: wal.TypeCLR, TxnID: tx.id, PrevLSN: tx.lastLSN,
		Table: rec.Table, Key: rec.Key, RID: rec.RID,
		After: rec.Before, UndoNext: rec.PrevLSN,
	}
	lsn, err := tx.e.log.Append(clr)
	if err != nil {
		return
	}
	tx.noteLSN(lsn)
	rid := heapfile.UnpackRID(rec.RID)
	frame, err := tx.e.pool.Fetch(int(rid.Page))
	if err != nil {
		return
	}
	frame.Latch.Lock()
	if err := heapfile.Update(frame.Data, rid.Slot, rec.Before); err == nil {
		tx.e.pool.MarkDirty(frame, uint64(lsn))
	}
	frame.Latch.Unlock()
	tx.e.pool.Unpin(frame)
	// The update may itself have been an upsert-insert with a different
	// index target; index state for updates is unchanged (same RID).
}

// undoInsert deletes the inserted row and logs a CLR (Payload[0]=1 marks
// "delete at RID" for redo of the CLR).
func (tx *Txn) undoInsert(rec wal.Record) {
	clr := &wal.Record{
		Type: wal.TypeCLR, TxnID: tx.id, PrevLSN: tx.lastLSN,
		Table: rec.Table, Key: rec.Key, RID: rec.RID,
		UndoNext: rec.PrevLSN, Payload: []byte{1},
	}
	lsn, err := tx.e.log.Append(clr)
	if err != nil {
		return
	}
	tx.noteLSN(lsn)
	rid := heapfile.UnpackRID(rec.RID)
	frame, err := tx.e.pool.Fetch(int(rid.Page))
	if err == nil {
		frame.Latch.Lock()
		if derr := heapfile.Delete(frame.Data, rid.Slot); derr == nil {
			tx.e.pool.MarkDirty(frame, uint64(lsn))
		}
		frame.Latch.Unlock()
		tx.e.pool.Unpin(frame)
	}
	if t, terr := tx.e.lookupTable(rec.Table); terr == nil {
		t.mu.Lock()
		_ = t.index.Delete(rec.Key)
		t.mu.Unlock()
	}
}

// finish releases locks and retires the transaction.
func (tx *Txn) finish() {
	tx.done = true
	tx.e.lm.ReleaseAll(tx.lt)
	tx.e.mu.Lock()
	delete(tx.e.active, tx.id)
	tx.e.mu.Unlock()
}

// Free implements storage.Tx.
func (tx *Txn) Free() {
	if !tx.done {
		tx.Abort()
	}
}
