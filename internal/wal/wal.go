// Package wal implements the ARIES-style write-ahead log used by the
// Shore-MT baseline. It reproduces the structural property the paper blames
// for the baseline's commit bottleneck (§V-D.1): the log is centralized —
// appends serialize on a global mutex, and a committing transaction holds
// that mutex while it forces the log to the device, blocking every other
// transaction even when their data does not conflict. Committers convoyed
// on the mutex still share a flush: the first one's makes theirs durable.
//
// The log occupies a fixed, circular range of pages on the block device.
// Records carry before- and after-images (physiological undo/redo), CLRs
// carry an undoNext pointer, and checkpoints snapshot the active
// transaction table and dirty page table for restart (analysis pass).
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"github.com/kaml-ssd/kaml/internal/blockdev"
	"github.com/kaml-ssd/kaml/internal/sim"
)

// LSN is a log sequence number: a byte offset in the log's logical stream.
type LSN uint64

// NilLSN marks "no LSN" (e.g., prevLSN of a transaction's first record).
const NilLSN = LSN(0)

// Type tags a log record.
type Type uint8

// Log record types.
const (
	TypePad Type = iota
	TypeBegin
	TypeUpdate
	TypeInsert
	TypeCommit
	TypeAbort
	TypeEnd
	TypeCLR
	TypeCheckpoint
)

func (t Type) String() string {
	switch t {
	case TypePad:
		return "PAD"
	case TypeBegin:
		return "BEGIN"
	case TypeUpdate:
		return "UPDATE"
	case TypeInsert:
		return "INSERT"
	case TypeCommit:
		return "COMMIT"
	case TypeAbort:
		return "ABORT"
	case TypeEnd:
		return "END"
	case TypeCLR:
		return "CLR"
	case TypeCheckpoint:
		return "CHECKPOINT"
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// Record is one log record. Update/Insert records carry enough to redo
// (After) and undo (Before) a record write; CLRs carry the compensated
// update's redo image plus UndoNext.
type Record struct {
	LSN      LSN // filled by Append
	Type     Type
	TxnID    uint64
	PrevLSN  LSN // previous record of the same transaction
	Table    uint32
	Key      uint64
	RID      uint64 // packed heapfile RID for physiological redo/undo
	Before   []byte // nil for inserts of fresh keys
	After    []byte
	UndoNext LSN    // CLR only
	Payload  []byte // checkpoint snapshot blob / CLR kind
}

const recHeaderSize = 4 + 4 + 1 + 8 + 8 + 4 + 8 + 8 + 8 + 4 + 4 + 4 // see Marshal

// Marshal encodes the record (without LSN, which is positional).
func (r *Record) Marshal() []byte {
	total := recHeaderSize + len(r.Before) + len(r.After) + len(r.Payload)
	out := make([]byte, total)
	binary.LittleEndian.PutUint32(out[0:4], uint32(total))
	// out[4:8] = CRC, filled last
	out[8] = byte(r.Type)
	binary.LittleEndian.PutUint64(out[9:17], r.TxnID)
	binary.LittleEndian.PutUint64(out[17:25], uint64(r.PrevLSN))
	binary.LittleEndian.PutUint32(out[25:29], r.Table)
	binary.LittleEndian.PutUint64(out[29:37], r.Key)
	binary.LittleEndian.PutUint64(out[37:45], uint64(r.UndoNext))
	binary.LittleEndian.PutUint64(out[45:53], r.RID)
	binary.LittleEndian.PutUint32(out[53:57], uint32(len(r.Before)))
	binary.LittleEndian.PutUint32(out[57:61], uint32(len(r.After)))
	binary.LittleEndian.PutUint32(out[61:65], uint32(len(r.Payload)))
	p := recHeaderSize
	p += copy(out[p:], r.Before)
	p += copy(out[p:], r.After)
	copy(out[p:], r.Payload)
	crc := crc32.ChecksumIEEE(out[8:])
	binary.LittleEndian.PutUint32(out[4:8], crc)
	return out
}

// Unmarshal decodes a record starting at b[0]. It returns the total
// encoded size.
func Unmarshal(b []byte) (Record, int, error) {
	if len(b) < 4 {
		return Record{Type: TypePad}, 0, nil // page tail too small for any record
	}
	total := int(binary.LittleEndian.Uint32(b[0:4]))
	if total == 0 {
		return Record{Type: TypePad}, 0, nil // zeroed page tail
	}
	if len(b) < recHeaderSize {
		return Record{}, 0, errors.New("wal: short record header")
	}
	if total < recHeaderSize || total > len(b) {
		return Record{}, 0, fmt.Errorf("wal: bad record size %d", total)
	}
	crc := binary.LittleEndian.Uint32(b[4:8])
	if crc32.ChecksumIEEE(b[8:total]) != crc {
		return Record{}, 0, errors.New("wal: checksum mismatch (torn record)")
	}
	r := Record{
		Type:     Type(b[8]),
		TxnID:    binary.LittleEndian.Uint64(b[9:17]),
		PrevLSN:  LSN(binary.LittleEndian.Uint64(b[17:25])),
		Table:    binary.LittleEndian.Uint32(b[25:29]),
		Key:      binary.LittleEndian.Uint64(b[29:37]),
		UndoNext: LSN(binary.LittleEndian.Uint64(b[37:45])),
		RID:      binary.LittleEndian.Uint64(b[45:53]),
	}
	bl := int(binary.LittleEndian.Uint32(b[53:57]))
	al := int(binary.LittleEndian.Uint32(b[57:61]))
	pl := int(binary.LittleEndian.Uint32(b[61:65]))
	if recHeaderSize+bl+al+pl != total {
		return Record{}, 0, errors.New("wal: inconsistent lengths")
	}
	p := recHeaderSize
	if bl > 0 {
		r.Before = append([]byte(nil), b[p:p+bl]...)
	}
	p += bl
	if al > 0 {
		r.After = append([]byte(nil), b[p:p+al]...)
	}
	p += al
	if pl > 0 {
		r.Payload = append([]byte(nil), b[p:p+pl]...)
	}
	return r, total, nil
}

// Config places the log on the device.
type Config struct {
	StartPage int // first device page of the log region
	NumPages  int // region length (circular)
}

// Log is the centralized write-ahead log.
type Log struct {
	dev *blockdev.Device
	eng *sim.Engine
	cfg Config

	// mu is the global log mutex: the contended resource the paper
	// identifies. Appends, and crucially Force's device flush, hold it.
	mu *sim.Mutex

	page    []byte // current tail page image
	pageOff int    // bytes used in the tail page
	tailLSN LSN    // LSN of the first byte of the tail page

	flushed LSN // everything below this is durable
	truncTo LSN // log space before this has been reclaimed

	appends, forces, pageWrites int64
}

// New opens an empty log region.
func New(dev *blockdev.Device, eng *sim.Engine, cfg Config) *Log {
	if cfg.NumPages < 2 {
		panic("wal: log region too small")
	}
	l := &Log{
		dev:  dev,
		eng:  eng,
		cfg:  cfg,
		mu:   eng.NewMutex("wal"),
		page: make([]byte, blockdev.PageSize),
	}
	// Reserve LSN 0 with a pad record so NilLSN (= 0) never collides with a
	// real record in prevLSN/undoNext chains.
	pad := (&Record{Type: TypePad}).Marshal()
	copy(l.page, pad)
	l.pageOff = len(pad)
	return l
}

// capacityBytes is the usable circular capacity.
func (l *Log) capacityBytes() LSN {
	return LSN(l.cfg.NumPages) * LSN(blockdev.PageSize)
}

// Append adds a record to the log and returns its LSN. The record is in
// host memory only until Force.
func (l *Log) Append(r *Record) (LSN, error) {
	enc := r.Marshal()
	if len(enc) > blockdev.PageSize {
		return 0, fmt.Errorf("wal: record of %d bytes exceeds a page", len(enc))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.appends++
	if l.pageOff+len(enc) > blockdev.PageSize {
		// Pad the page (zeros mean "skip to next page" on read) and move on.
		if err := l.sealPageLocked(); err != nil {
			return 0, err
		}
	}
	// Circular capacity check: refuse to overwrite unreclaimed log space.
	lsn := l.tailLSN + LSN(l.pageOff)
	if lsn+LSN(len(enc))-l.truncTo > l.capacityBytes() {
		return 0, errors.New("wal: log full; checkpoint and truncate first")
	}
	copy(l.page[l.pageOff:], enc)
	l.pageOff += len(enc)
	r.LSN = lsn
	return lsn, nil
}

// sealPageLocked writes the tail page image to the device (without
// flushing) and starts a new page. Called with l.mu held.
func (l *Log) sealPageLocked() error {
	if err := l.writeTailLocked(); err != nil {
		return err
	}
	l.tailLSN += LSN(blockdev.PageSize)
	l.pageOff = 0
	for i := range l.page {
		l.page[i] = 0
	}
	return nil
}

func (l *Log) writeTailLocked() error {
	pageNo := l.cfg.StartPage + int(l.tailLSN/LSN(blockdev.PageSize))%l.cfg.NumPages
	l.pageWrites++
	if l.pageOff > 0 && l.pageOff < blockdev.PageSize {
		// Only force the sectors that hold data; the commit path pays for
		// one 4 KB sector when the tail page is less than half full.
		return l.dev.WritePrefix(pageNo, l.page[:l.pageOff])
	}
	return l.dev.WritePage(pageNo, l.page)
}

// Force makes the log durable through lsn. It holds the global log mutex
// across the device write AND flush — the serialization §V-D.1 measures.
// Committers queued on the mutex still share one flush: a Force whose LSN
// the previous holder already made durable returns at once.
func (l *Log) Force(lsn LSN) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.forces++
	if lsn < l.flushed {
		return nil
	}
	if l.pageOff > 0 {
		if err := l.writeTailLocked(); err != nil {
			return err
		}
	}
	l.dev.Flush()
	l.flushed = l.tailLSN + LSN(l.pageOff)
	return nil
}

// TailLSN returns the LSN the next Append will receive.
func (l *Log) TailLSN() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tailLSN + LSN(l.pageOff)
}

// Truncate reclaims log space below lsn (after a checkpoint has made the
// older records unnecessary).
func (l *Log) Truncate(lsn LSN) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if lsn > l.truncTo {
		l.truncTo = lsn
	}
}

// Stats reports append/force/page-write counters.
func (l *Log) Stats() (appends, forces, pageWrites int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appends, l.forces, l.pageWrites
}

// Adopt initializes this (fresh) Log object over an existing on-device log
// image, as restart recovery does: scan forward from `from` (typically the
// last checkpoint LSN) decoding records until a torn record, an unwritten
// page, or page padding followed by an undecodable page. The durable
// horizon becomes the scan end; new appends start on the following page
// boundary so the adopted tail is never overwritten.
//
// Limitation (documented): if the circular log wrapped, pages past the true
// end may hold stale-but-well-formed records from an earlier generation;
// engines bound this by checkpointing well before wrap.
func (l *Log) Adopt(from LSN) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	buf := make([]byte, blockdev.PageSize)
	end := from
	pageIdx := int(from / LSN(blockdev.PageSize))
	off := int(from % LSN(blockdev.PageSize))
	maxPages := l.cfg.NumPages // never scan more than one full wrap
scan:
	for scanned := 0; scanned < maxPages; scanned++ {
		pageNo := l.cfg.StartPage + pageIdx%l.cfg.NumPages
		if err := l.dev.ReadPageLenient(pageNo, buf); err != nil {
			break // device error
		}
		any := false
		for off < blockdev.PageSize {
			rec, n, err := Unmarshal(buf[off:])
			if err != nil {
				break scan // torn record: true end of log
			}
			if n == 0 {
				break // padding: rest of page empty
			}
			_ = rec
			off += n
			end = LSN(pageIdx*blockdev.PageSize + off)
			any = true
		}
		if !any && off == 0 {
			break // an entirely empty page: end of log
		}
		pageIdx++
		off = 0
	}
	l.truncTo = from
	l.flushed = end
	// Continue appending on the next page boundary.
	l.tailLSN = (end + LSN(blockdev.PageSize) - 1) / LSN(blockdev.PageSize) * LSN(blockdev.PageSize)
	l.pageOff = 0
	for i := range l.page {
		l.page[i] = 0
	}
	return nil
}

// Iterate replays durable records in [from, l.flushed) in order.
// Used by restart recovery's analysis/redo passes.
func (l *Log) Iterate(from LSN, fn func(Record) bool) error {
	l.mu.Lock()
	limit := l.flushed
	trunc := l.truncTo
	l.mu.Unlock()
	if from < trunc {
		from = trunc
	}
	buf := make([]byte, blockdev.PageSize)
	for lsn := from; lsn < limit; {
		pageIdx := int(lsn / LSN(blockdev.PageSize))
		pageNo := l.cfg.StartPage + pageIdx%l.cfg.NumPages
		if err := l.dev.ReadPageLenient(pageNo, buf); err != nil {
			return fmt.Errorf("wal: iterate read page %d: %w", pageNo, err)
		}
		off := int(lsn % LSN(blockdev.PageSize))
		for off < blockdev.PageSize {
			rec, n, err := Unmarshal(buf[off:])
			if err != nil {
				return fmt.Errorf("wal: iterate at %d: %w", lsn, err)
			}
			if n == 0 {
				break // zero fill: rest of page is padding
			}
			rec.LSN = LSN(pageIdx*blockdev.PageSize + off)
			if rec.LSN >= limit {
				return nil
			}
			if rec.Type != TypePad {
				if !fn(rec) {
					return nil
				}
			}
			off += n
			lsn = LSN(pageIdx*blockdev.PageSize + off)
		}
		lsn = LSN((pageIdx + 1) * blockdev.PageSize)
	}
	return nil
}

// ReadAt returns the single record at lsn (used by the undo pass to follow
// prevLSN chains).
func (l *Log) ReadAt(lsn LSN) (Record, error) {
	buf := make([]byte, blockdev.PageSize)
	pageIdx := int(lsn / LSN(blockdev.PageSize))
	pageNo := l.cfg.StartPage + pageIdx%l.cfg.NumPages
	// The record may still be in the volatile tail page.
	l.mu.Lock()
	if lsn >= l.tailLSN {
		off := int(lsn - l.tailLSN)
		rec, _, err := Unmarshal(l.page[off:])
		rec.LSN = lsn
		l.mu.Unlock()
		return rec, err
	}
	l.mu.Unlock()
	if err := l.dev.ReadPageLenient(pageNo, buf); err != nil {
		return Record{}, err
	}
	off := int(lsn % LSN(blockdev.PageSize))
	rec, _, err := Unmarshal(buf[off:])
	rec.LSN = lsn
	return rec, err
}
