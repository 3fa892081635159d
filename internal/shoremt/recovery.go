package shoremt

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/kaml-ssd/kaml/internal/blockdev"
	"github.com/kaml-ssd/kaml/internal/btree"
	"github.com/kaml-ssd/kaml/internal/bufferpool"
	"github.com/kaml-ssd/kaml/internal/heapfile"
	"github.com/kaml-ssd/kaml/internal/lockmgr"
	"github.com/kaml-ssd/kaml/internal/sim"
	"github.com/kaml-ssd/kaml/internal/wal"
)

// crash simulates a host power failure: the buffer pool's volatile contents
// vanish; the device (whose write buffer is battery-backed) and the durable
// portion of the log survive. The engine becomes unusable; recover with
// restart over the same device.
func (e *Engine) crash() {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	e.stopped.Wait()
	e.pool.DropAll()
	// Note: the WAL's volatile tail page is also lost; only records below
	// its flushed horizon are recoverable, exactly as on real hardware.
}

// restart runs ARIES restart over a device that hosted a shoremt engine:
// analysis from the last checkpoint, redo of all logged actions whose
// effects are missing from pages, and undo of loser transactions with
// CLRs. Indexes are rebuilt by scanning heap pages (a documented
// simplification: Shore-MT logs index operations; here rows carry their
// keys, so a scan reproduces the same trees).
func restart(dev *blockdev.Device, eng *sim.Engine, cfg Config) (*Engine, error) {
	if cfg.LogPages < 2 {
		return nil, errors.New("shoremt: bad log config")
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

	ckptLSN, ok := readMaster(dev)
	if !ok {
		// Virgin device: nothing to recover.
		e.startBackground()
		return e, nil
	}

	// Reconstruct the durable log extent. The log object is fresh, so teach
	// it the on-device state by scanning from the checkpoint.
	if err := e.log.Adopt(ckptLSN); err != nil {
		return nil, fmt.Errorf("shoremt: adopt log: %w", err)
	}

	// --- Analysis ---
	ckptRec, err := e.log.ReadAt(ckptLSN)
	if err != nil || ckptRec.Type != wal.TypeCheckpoint {
		return nil, fmt.Errorf("shoremt: bad checkpoint at %d: %v", ckptLSN, err)
	}
	losers, err := e.analyze(ckptRec)
	if err != nil {
		return nil, err
	}

	// --- Redo ---
	if err := e.redo(ckptLSN); err != nil {
		return nil, err
	}

	// --- Undo ---
	if err := e.undoLosers(losers); err != nil {
		return nil, err
	}

	// Rebuild indexes and fill pages from the heap pages.
	if err := e.rebuildIndexes(); err != nil {
		return nil, err
	}
	e.startBackground()
	return e, nil
}

func (e *Engine) startBackground() {
	if e.cfg.CheckpointEvery > 0 {
		e.stopped.Add(1)
		e.eng.Go("shoremt-ckpt", e.checkpointLoop)
	}
}

// loserTxn tracks an uncommitted transaction found during analysis.
type loserTxn struct {
	id      uint64
	lastLSN wal.LSN
}

// analyze restores the catalog from the checkpoint payload and scans
// forward to find transactions without a COMMIT/ABORT-END.
func (e *Engine) analyze(ckpt wal.Record) (map[uint64]*loserTxn, error) {
	if err := e.loadCatalog(ckpt.Payload); err != nil {
		return nil, err
	}
	losers := make(map[uint64]*loserTxn)
	// Seed with transactions active at checkpoint time.
	for _, a := range catalogActive(ckpt.Payload) {
		losers[a.id] = &loserTxn{id: a.id, lastLSN: a.lastLSN}
	}
	err := e.log.Iterate(ckpt.LSN, func(r wal.Record) bool {
		switch r.Type {
		case wal.TypeUpdate, wal.TypeInsert, wal.TypeCLR:
			lt := losers[r.TxnID]
			if lt == nil {
				lt = &loserTxn{id: r.TxnID}
				losers[r.TxnID] = lt
			}
			lt.lastLSN = r.LSN
			// Track page allocation beyond the checkpoint.
			rid := heapfile.UnpackRID(r.RID)
			e.notePage(r.Table, int(rid.Page))
			if r.TxnID >= e.txSeq {
				e.txSeq = r.TxnID + 1
			}
		case wal.TypeCommit, wal.TypeAbort:
			delete(losers, r.TxnID)
			if r.TxnID >= e.txSeq {
				e.txSeq = r.TxnID + 1
			}
		case wal.TypeCheckpoint:
			// A later checkpoint (e.g., CreateTable) refreshes the catalog
			// but we keep scanning from the master checkpoint for txns.
			_ = e.loadCatalogTablesOnly(r.Payload)
		}
		return true
	})
	return losers, err
}

// notePage ensures the catalog covers a page observed in the log.
func (e *Engine) notePage(tableID uint32, page int) {
	if page <= 0 {
		return
	}
	if page >= e.nextPage {
		e.nextPage = page + 1
	}
	t, ok := e.tables[tableID]
	if !ok {
		return
	}
	for _, p := range t.pages {
		if p == page {
			return
		}
	}
	t.pages = append(t.pages, page)
}

// redo replays every page action whose effect has not reached the page.
func (e *Engine) redo(from wal.LSN) error {
	return e.log.Iterate(from, func(r wal.Record) bool {
		switch r.Type {
		case wal.TypeUpdate, wal.TypeInsert, wal.TypeCLR:
		default:
			return true
		}
		rid := heapfile.UnpackRID(r.RID)
		frame, err := e.pool.Fetch(int(rid.Page))
		if err != nil {
			// Page never reached the device: materialize it fresh.
			frame, err = e.pool.NewPage(int(rid.Page))
			if err != nil {
				return true
			}
		}
		frame.Latch.Lock()
		if heapfile.PageLSN(frame.Data) < uint64(r.LSN) {
			e.applyRedo(frame, r, rid)
		}
		frame.Latch.Unlock()
		e.pool.Unpin(frame)
		return true
	})
}

// applyRedo applies one record to a pinned, latched frame.
func (e *Engine) applyRedo(frame *bufferpool.Frame, r wal.Record, rid heapfile.RID) {
	switch {
	case r.Type == wal.TypeInsert:
		_ = heapfile.InsertAt(frame.Data, rid.Slot, r.After)
	case r.Type == wal.TypeUpdate:
		_ = heapfile.Update(frame.Data, rid.Slot, r.After)
	case r.Type == wal.TypeCLR && len(r.Payload) > 0 && r.Payload[0] == 1:
		_ = heapfile.Delete(frame.Data, rid.Slot)
	case r.Type == wal.TypeCLR:
		_ = heapfile.Update(frame.Data, rid.Slot, r.After)
	}
	e.pool.MarkDirty(frame, uint64(r.LSN))
}

// undoLosers rolls back every loser transaction, newest record first,
// writing CLRs so a crash during recovery stays idempotent.
func (e *Engine) undoLosers(losers map[uint64]*loserTxn) error {
	for _, lt := range losers {
		cur := lt.lastLSN
		for cur != wal.NilLSN {
			rec, err := e.log.ReadAt(cur)
			if err != nil {
				break // below truncation horizon: fully undone already
			}
			switch rec.Type {
			case wal.TypeUpdate:
				e.recoveryUndo(rec, rec.Before, false)
				cur = rec.PrevLSN
			case wal.TypeInsert:
				e.recoveryUndo(rec, nil, true)
				cur = rec.PrevLSN
			case wal.TypeCLR:
				cur = rec.UndoNext
			default:
				cur = rec.PrevLSN
			}
		}
		rec := &wal.Record{Type: wal.TypeAbort, TxnID: lt.id, PrevLSN: lt.lastLSN}
		if _, err := e.log.Append(rec); err != nil {
			return err
		}
	}
	if len(losers) > 0 {
		return e.log.Force(e.log.TailLSN())
	}
	return nil
}

// recoveryUndo reverses one action on the page and logs a CLR.
func (e *Engine) recoveryUndo(rec wal.Record, before []byte, wasInsert bool) {
	clr := &wal.Record{
		Type: wal.TypeCLR, TxnID: rec.TxnID, PrevLSN: rec.LSN,
		Table: rec.Table, Key: rec.Key, RID: rec.RID,
		After: before, UndoNext: rec.PrevLSN,
	}
	if wasInsert {
		clr.Payload = []byte{1}
	}
	lsn, err := e.log.Append(clr)
	if err != nil {
		return
	}
	rid := heapfile.UnpackRID(rec.RID)
	frame, ferr := e.pool.Fetch(int(rid.Page))
	if ferr != nil {
		return
	}
	frame.Latch.Lock()
	if wasInsert {
		_ = heapfile.Delete(frame.Data, rid.Slot)
	} else {
		_ = heapfile.Update(frame.Data, rid.Slot, before)
	}
	e.pool.MarkDirty(frame, uint64(lsn))
	frame.Latch.Unlock()
	e.pool.Unpin(frame)
}

// rebuildIndexes scans every table's heap pages and reconstructs its
// B+tree and fill page.
func (e *Engine) rebuildIndexes() error {
	for _, t := range e.tables {
		t.index = btree.New()
		t.fill = -1
		for _, pg := range t.pages {
			frame, err := e.pool.Fetch(pg)
			if err != nil {
				continue // page allocated but never written before the crash
			}
			frame.Latch.Lock()
			heapfile.Records(frame.Data, func(slot uint16, row []byte) bool {
				key, _, derr := decodeRow(row)
				if derr == nil {
					rid := heapfile.RID{Page: uint32(pg), Slot: slot}
					t.index.Put(key, rid.Pack())
				}
				return true
			})
			if heapfile.FreeBytes(frame.Data) > blockdev.PageSize/4 {
				t.fill = pg
			}
			frame.Latch.Unlock()
			e.pool.Unpin(frame)
		}
	}
	return nil
}

// loadCatalog restores tables, allocation counters, and txSeq.
func (e *Engine) loadCatalog(blob []byte) error {
	c, err := parseCatalog(blob)
	if err != nil {
		return err
	}
	e.nextTable = c.nextTable
	e.nextPage = c.nextPage
	e.txSeq = c.txSeq
	for _, tc := range c.tables {
		t := &table{
			id:    tc.id,
			name:  tc.name,
			mu:    e.eng.NewMutex(fmt.Sprintf("tbl-%d", tc.id)),
			index: btree.New(),
			pages: tc.pages,
			fill:  -1,
		}
		e.tables[t.id] = t
	}
	return nil
}

// loadCatalogTablesOnly merges tables from a later checkpoint (CreateTable
// writes one) without rewinding counters.
func (e *Engine) loadCatalogTablesOnly(blob []byte) error {
	c, err := parseCatalog(blob)
	if err != nil {
		return err
	}
	if c.nextTable > e.nextTable {
		e.nextTable = c.nextTable
	}
	if c.nextPage > e.nextPage {
		e.nextPage = c.nextPage
	}
	for _, tc := range c.tables {
		if _, ok := e.tables[tc.id]; !ok {
			e.tables[tc.id] = &table{
				id:    tc.id,
				name:  tc.name,
				mu:    e.eng.NewMutex(fmt.Sprintf("tbl-%d", tc.id)),
				index: btree.New(),
				pages: tc.pages,
				fill:  -1,
			}
		}
	}
	return nil
}

// Parsed catalog forms.
type catalogData struct {
	nextTable uint32
	nextPage  int
	txSeq     uint64
	tables    []catalogTable
	active    []catalogTxn
}

type catalogTable struct {
	id    uint32
	name  string
	pages []int
}

type catalogTxn struct {
	id       uint64
	lastLSN  wal.LSN
	firstLSN wal.LSN
}

func parseCatalog(blob []byte) (*catalogData, error) {
	c := &catalogData{}
	off := 0
	r32 := func() (uint32, error) {
		if off+4 > len(blob) {
			return 0, errors.New("shoremt: short catalog")
		}
		v := binary.LittleEndian.Uint32(blob[off:])
		off += 4
		return v, nil
	}
	r64 := func() (uint64, error) {
		if off+8 > len(blob) {
			return 0, errors.New("shoremt: short catalog")
		}
		v := binary.LittleEndian.Uint64(blob[off:])
		off += 8
		return v, nil
	}
	var err error
	if c.nextTable, err = r32(); err != nil {
		return nil, err
	}
	np, err := r64()
	if err != nil {
		return nil, err
	}
	c.nextPage = int(np)
	if c.txSeq, err = r64(); err != nil {
		return nil, err
	}
	nt, err := r32()
	if err != nil {
		return nil, err
	}
	for i := uint32(0); i < nt; i++ {
		var tc catalogTable
		if tc.id, err = r32(); err != nil {
			return nil, err
		}
		if off+2 > len(blob) {
			return nil, errors.New("shoremt: short catalog name")
		}
		nameLen := int(binary.LittleEndian.Uint16(blob[off:]))
		off += 2
		if off+nameLen > len(blob) {
			return nil, errors.New("shoremt: short catalog name body")
		}
		tc.name = string(blob[off : off+nameLen])
		off += nameLen
		npg, err := r32()
		if err != nil {
			return nil, err
		}
		for j := uint32(0); j < npg; j++ {
			pg, err := r64()
			if err != nil {
				return nil, err
			}
			tc.pages = append(tc.pages, int(pg))
		}
		c.tables = append(c.tables, tc)
	}
	na, err := r32()
	if err != nil {
		return nil, err
	}
	for i := uint32(0); i < na; i++ {
		var a catalogTxn
		if a.id, err = r64(); err != nil {
			return nil, err
		}
		l, err := r64()
		if err != nil {
			return nil, err
		}
		a.lastLSN = wal.LSN(l)
		f, err := r64()
		if err != nil {
			return nil, err
		}
		a.firstLSN = wal.LSN(f)
		c.active = append(c.active, a)
	}
	return c, nil
}

// catalogActive extracts just the active-transaction table.
func catalogActive(blob []byte) []catalogTxn {
	c, err := parseCatalog(blob)
	if err != nil {
		return nil
	}
	return c.active
}

// Silence unused-import guards in builds without recovery tests.
var _ = lockmgr.Shared
