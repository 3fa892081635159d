// Package heapfile implements slotted database pages: the 8 KB on-disk
// layout the Shore-MT baseline stores table records in. A page holds a
// small header (pageLSN for ARIES, slot count, free-space bounds) and a
// slot directory that grows from the page tail toward the record heap.
//
// RIDs are (page number, slot) pairs, the classic record identifier.
package heapfile

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// PageSize is the database page size.
const PageSize = 8192

// Header layout:
//
//	0..8   pageLSN
//	8..10  slot count
//	10..12 free-space start (byte offset of the record heap's end)
//	12..16 reserved
const headerSize = 16

// Slot directory entries live at the page tail, 4 bytes each:
// 2-byte record offset, 2-byte record length. Offset 0xFFFF = dead slot.
const slotSize = 4

const deadOffset = 0xFFFF

// Errors.
var (
	ErrNoSpace  = errors.New("heapfile: page has no room")
	ErrBadSlot  = errors.New("heapfile: bad slot")
	ErrDeadSlot = errors.New("heapfile: slot is deleted")
	ErrTooLarge = errors.New("heapfile: record exceeds page capacity")
)

// RID identifies a record.
type RID struct {
	Page uint32
	Slot uint16
}

// Pack encodes a RID as a uint64 (for btree values).
func (r RID) Pack() uint64 { return uint64(r.Page)<<16 | uint64(r.Slot) }

// UnpackRID decodes a packed RID.
func UnpackRID(v uint64) RID {
	return RID{Page: uint32(v >> 16), Slot: uint16(v)}
}

// Init formats buf as an empty page.
func Init(buf []byte) {
	for i := range buf[:headerSize] {
		buf[i] = 0
	}
	setSlotCount(buf, 0)
	setFreeStart(buf, headerSize)
}

// PageLSN returns the page's recovery LSN.
func PageLSN(buf []byte) uint64 { return binary.LittleEndian.Uint64(buf[0:8]) }

// SetPageLSN stamps the page's recovery LSN.
func SetPageLSN(buf []byte, lsn uint64) { binary.LittleEndian.PutUint64(buf[0:8], lsn) }

func slotCount(buf []byte) int       { return int(binary.LittleEndian.Uint16(buf[8:10])) }
func setSlotCount(buf []byte, n int) { binary.LittleEndian.PutUint16(buf[8:10], uint16(n)) }
func freeStart(buf []byte) int       { return int(binary.LittleEndian.Uint16(buf[10:12])) }
func setFreeStart(buf []byte, n int) { binary.LittleEndian.PutUint16(buf[10:12], uint16(n)) }

func slotPos(buf []byte, slot int) int { return len(buf) - (slot+1)*slotSize }

func slotEntry(buf []byte, slot int) (off, length int) {
	p := slotPos(buf, slot)
	return int(binary.LittleEndian.Uint16(buf[p : p+2])), int(binary.LittleEndian.Uint16(buf[p+2 : p+4]))
}

func setSlotEntry(buf []byte, slot, off, length int) {
	p := slotPos(buf, slot)
	binary.LittleEndian.PutUint16(buf[p:p+2], uint16(off))
	binary.LittleEndian.PutUint16(buf[p+2:p+4], uint16(length))
}

// FreeBytes returns the contiguous free space available for a new record
// (including its slot entry).
func FreeBytes(buf []byte) int {
	return len(buf) - slotCount(buf)*slotSize - freeStart(buf)
}

// Insert places data in the page and returns its slot.
func Insert(buf []byte, data []byte) (uint16, error) {
	if len(data) > len(buf)-headerSize-slotSize {
		return 0, fmt.Errorf("%w: %d bytes", ErrTooLarge, len(data))
	}
	// Reuse a dead slot's directory entry if one exists.
	slot := -1
	for i := 0; i < slotCount(buf); i++ {
		if off, _ := slotEntry(buf, i); off == deadOffset {
			slot = i
			break
		}
	}
	need := len(data)
	if slot < 0 {
		need += slotSize
	}
	if FreeBytes(buf) < need {
		if compact(buf); FreeBytes(buf) < need {
			return 0, ErrNoSpace
		}
	}
	off := freeStart(buf)
	copy(buf[off:], data)
	setFreeStart(buf, off+len(data))
	if slot < 0 {
		slot = slotCount(buf)
		setSlotCount(buf, slot+1)
	}
	setSlotEntry(buf, slot, off, len(data))
	return uint16(slot), nil
}

// InsertAt places data in a specific slot — the redo path of recovery,
// which must reproduce the exact RID the original insert produced. Missing
// directory entries up to the slot are created dead.
func InsertAt(buf []byte, slot uint16, data []byte) error {
	if len(data) > len(buf)-headerSize-slotSize {
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, len(data))
	}
	for slotCount(buf) <= int(slot) {
		n := slotCount(buf)
		if FreeBytes(buf) < slotSize {
			return ErrNoSpace
		}
		setSlotEntry(buf, n, deadOffset, 0)
		setSlotCount(buf, n+1)
	}
	if off, _ := slotEntry(buf, int(slot)); off != deadOffset {
		return fmt.Errorf("heapfile: InsertAt into live slot %d", slot)
	}
	if FreeBytes(buf) < len(data) {
		compact(buf)
		if FreeBytes(buf) < len(data) {
			return ErrNoSpace
		}
	}
	off := freeStart(buf)
	copy(buf[off:], data)
	setFreeStart(buf, off+len(data))
	setSlotEntry(buf, int(slot), off, len(data))
	return nil
}

// Read returns a copy of the record in the slot.
func Read(buf []byte, slot uint16) ([]byte, error) {
	if int(slot) >= slotCount(buf) {
		return nil, fmt.Errorf("%w: %d", ErrBadSlot, slot)
	}
	off, length := slotEntry(buf, int(slot))
	if off == deadOffset {
		return nil, fmt.Errorf("%w: %d", ErrDeadSlot, slot)
	}
	return append([]byte(nil), buf[off:off+length]...), nil
}

// Update replaces the record in the slot. Same-size-or-smaller updates go
// in place; growth relocates within the page (compacting if needed) and
// returns ErrNoSpace when the page genuinely cannot hold the new size.
func Update(buf []byte, slot uint16, data []byte) error {
	if int(slot) >= slotCount(buf) {
		return fmt.Errorf("%w: %d", ErrBadSlot, slot)
	}
	off, length := slotEntry(buf, int(slot))
	if off == deadOffset {
		return fmt.Errorf("%w: %d", ErrDeadSlot, slot)
	}
	if len(data) <= length {
		copy(buf[off:], data)
		setSlotEntry(buf, int(slot), off, len(data))
		return nil
	}
	// Grow: tombstone the old copy, then place the new one.
	setSlotEntry(buf, int(slot), deadOffset, 0)
	if FreeBytes(buf) < len(data) {
		compact(buf)
	}
	if FreeBytes(buf) < len(data) {
		setSlotEntry(buf, int(slot), off, length) // restore
		return ErrNoSpace
	}
	noff := freeStart(buf)
	copy(buf[noff:], data)
	setFreeStart(buf, noff+len(data))
	setSlotEntry(buf, int(slot), noff, len(data))
	return nil
}

// Delete tombstones the slot. Its space is reclaimed by compaction.
func Delete(buf []byte, slot uint16) error {
	if int(slot) >= slotCount(buf) {
		return fmt.Errorf("%w: %d", ErrBadSlot, slot)
	}
	if off, _ := slotEntry(buf, int(slot)); off == deadOffset {
		return fmt.Errorf("%w: %d", ErrDeadSlot, slot)
	}
	setSlotEntry(buf, int(slot), deadOffset, 0)
	return nil
}

// compact rewrites the record heap to squeeze out dead space, preserving
// slot numbers (RIDs are stable).
func compact(buf []byte) {
	type rec struct {
		slot, off, length int
	}
	var live []rec
	for i := 0; i < slotCount(buf); i++ {
		off, length := slotEntry(buf, i)
		if off != deadOffset {
			live = append(live, rec{slot: i, off: off, length: length})
		}
	}
	// Copy records into a scratch area in ascending offset order, then
	// write them back packed.
	scratch := make([]byte, 0, len(buf))
	for i := range live {
		scratch = append(scratch, buf[live[i].off:live[i].off+live[i].length]...)
	}
	pos := headerSize
	spos := 0
	for _, r := range live {
		copy(buf[pos:], scratch[spos:spos+r.length])
		setSlotEntry(buf, r.slot, pos, r.length)
		pos += r.length
		spos += r.length
	}
	setFreeStart(buf, pos)
}

// Records calls fn for every live record in the page.
func Records(buf []byte, fn func(slot uint16, data []byte) bool) {
	for i := 0; i < slotCount(buf); i++ {
		off, length := slotEntry(buf, i)
		if off == deadOffset {
			continue
		}
		if !fn(uint16(i), buf[off:off+length]) {
			return
		}
	}
}
