// Package bufferpool is the Shore-MT baseline's page cache: a fixed set of
// 8 KB frames over the block device with pin/unpin, LRU replacement, and
// the ARIES write-ahead rule (a dirty page may not reach the device before
// the log records that dirtied it are durable).
package bufferpool

import (
	"cmp"
	"container/list"
	"errors"
	"fmt"
	"slices"

	"github.com/kaml-ssd/kaml/internal/blockdev"
	"github.com/kaml-ssd/kaml/internal/heapfile"
	"github.com/kaml-ssd/kaml/internal/sim"
)

// ErrNoFrames is returned when every frame is pinned.
var ErrNoFrames = errors.New("bufferpool: all frames pinned")

// ForceFunc makes the WAL durable through the given LSN (the write-ahead
// hook; wired to wal.Log.Force).
type ForceFunc func(lsn uint64) error

// Pool is the buffer pool.
type Pool struct {
	dev   *blockdev.Device
	eng   *sim.Engine
	force ForceFunc

	mu     *sim.Mutex
	cv     *sim.Cond // waits for in-flight page fills
	frames map[int]*Frame
	lru    *list.List // unpinned frames, front = most recent
	cap    int

	hits, misses, writebacks int64
}

// Frame is one cached page. Data may be accessed while the frame is pinned
// AND its Latch is held (record-level locking admits two transactions to
// different records of the same page, so page mutation needs a latch, as
// in Shore-MT).
type Frame struct {
	PageNo  int
	Latch   *sim.Mutex
	Data    []byte
	dirty   bool
	recLSN  uint64 // LSN that first dirtied the page since its last clean state
	pins    int
	loading bool          // a fill from the device is in flight
	elt     *list.Element // non-nil iff unpinned and on the LRU list
}

// New builds a pool of `frames` page frames.
func New(dev *blockdev.Device, eng *sim.Engine, frames int, force ForceFunc) *Pool {
	if frames < 1 {
		frames = 1
	}
	if force == nil {
		force = func(uint64) error { return nil }
	}
	p := &Pool{
		dev:    dev,
		eng:    eng,
		force:  force,
		frames: make(map[int]*Frame),
		lru:    list.New(),
		cap:    frames,
	}
	p.mu = eng.NewMutex("bufpool")
	p.cv = eng.NewCond(p.mu)
	return p
}

// Stats reports hit/miss/writeback counters.
func (p *Pool) Stats() (hits, misses, writebacks int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hits, p.misses, p.writebacks
}

// Fetch pins the page, reading it from the device on a miss. Concurrent
// fetchers of the same page wait for the first fill to complete.
func (p *Pool) Fetch(pageNo int) (*Frame, error) {
	p.mu.Lock()
	for {
		f, ok := p.frames[pageNo]
		if !ok {
			break
		}
		if f.loading {
			p.cv.Wait()
			continue
		}
		p.pinLocked(f)
		p.hits++
		p.mu.Unlock()
		return f, nil
	}
	p.misses++
	f, err := p.insertFrameLocked(pageNo)
	if err != nil {
		p.mu.Unlock()
		return nil, err
	}
	p.mu.Unlock()
	rerr := p.dev.ReadPage(pageNo, f.Data)
	p.mu.Lock()
	f.loading = false
	p.cv.Broadcast()
	if rerr != nil {
		f.pins--
		delete(p.frames, pageNo)
		p.mu.Unlock()
		return nil, rerr
	}
	p.mu.Unlock()
	return f, nil
}

// NewPage pins a frame for a fresh page and formats it, without reading
// the device (the page is being allocated for the first time).
func (p *Pool) NewPage(pageNo int) (*Frame, error) {
	p.mu.Lock()
	if f, ok := p.frames[pageNo]; ok && !f.loading {
		p.pinLocked(f)
		p.mu.Unlock()
		return f, nil
	}
	f, err := p.insertFrameLocked(pageNo)
	if err != nil {
		p.mu.Unlock()
		return nil, err
	}
	heapfile.Init(f.Data)
	f.loading = false
	p.cv.Broadcast()
	p.mu.Unlock()
	return f, nil
}

// pinLocked pins a resident, loaded frame.
func (p *Pool) pinLocked(f *Frame) {
	if f.elt != nil {
		p.lru.Remove(f.elt)
		f.elt = nil
	}
	f.pins++
}

// insertFrameLocked registers a new pinned, loading frame for pageNo and
// evicts LRU frames until the pool is within capacity. It may release and
// reacquire p.mu while writing back dirty victims. Caller holds p.mu.
func (p *Pool) insertFrameLocked(pageNo int) (*Frame, error) {
	f := &Frame{
		PageNo:  pageNo,
		Latch:   p.eng.NewMutex(fmt.Sprintf("latch-%d", pageNo)),
		Data:    make([]byte, blockdev.PageSize),
		pins:    1,
		loading: true,
	}
	p.frames[pageNo] = f
	for len(p.frames) > p.cap {
		tail := p.lru.Back()
		if tail == nil {
			// Everything else is pinned. Undo and fail.
			delete(p.frames, pageNo)
			p.cv.Broadcast()
			return nil, ErrNoFrames
		}
		victim := tail.Value.(*Frame)
		p.lru.Remove(tail)
		victim.elt = nil
		// Mark the victim loading so a concurrent Fetch of its page waits
		// for the writeback instead of re-reading stale device contents.
		victim.loading = true
		if victim.dirty {
			// WAL rule: force the log through the page's LSN before the
			// page itself reaches the device. Both happen outside p.mu.
			p.writebacks++
			lsn := heapfile.PageLSN(victim.Data)
			p.mu.Unlock()
			err := p.force(lsn)
			if err == nil {
				err = p.dev.WritePage(victim.PageNo, victim.Data)
			}
			p.mu.Lock()
			if err != nil {
				delete(p.frames, victim.PageNo)
				delete(p.frames, pageNo)
				p.cv.Broadcast()
				return nil, fmt.Errorf("bufferpool: evict page %d: %w", victim.PageNo, err)
			}
		}
		delete(p.frames, victim.PageNo)
		p.cv.Broadcast()
	}
	return f, nil
}

// MarkDirty records that the caller modified the pinned frame under the
// given log record LSN.
func (p *Pool) MarkDirty(f *Frame, lsn uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !f.dirty {
		f.dirty = true
		f.recLSN = lsn
	}
	heapfile.SetPageLSN(f.Data, lsn)
}

// Unpin releases the caller's pin.
func (p *Pool) Unpin(f *Frame) {
	p.mu.Lock()
	defer p.mu.Unlock()
	f.pins--
	if f.pins < 0 {
		panic("bufferpool: negative pin count")
	}
	if f.pins == 0 {
		f.elt = p.lru.PushFront(f)
	}
}

// FlushAll writes every unpinned dirty page back (checkpoint helper) and
// returns the minimum recLSN among pages that remain dirty, or ^0 if none.
// Pages are written in ascending page order, so a checkpoint's device
// traffic does not depend on map iteration order.
func (p *Pool) FlushAll() (minRecLSN uint64, err error) {
	minRecLSN = ^uint64(0)
	p.mu.Lock()
	var victims []*Frame
	for _, f := range p.frames {
		if f.loading {
			continue
		}
		if f.dirty && f.pins == 0 {
			p.pinLocked(f)
			f.loading = true // fetchers wait until the writeback finishes
			victims = append(victims, f)
		} else if f.dirty {
			if f.recLSN < minRecLSN {
				minRecLSN = f.recLSN
			}
		}
	}
	p.mu.Unlock()
	slices.SortFunc(victims, func(a, b *Frame) int { return cmp.Compare(a.PageNo, b.PageNo) })
	for _, f := range victims {
		lsn := heapfile.PageLSN(f.Data)
		if ferr := p.force(lsn); ferr != nil && err == nil {
			err = ferr
		}
		if werr := p.dev.WritePage(f.PageNo, f.Data); werr != nil && err == nil {
			err = werr
		}
		p.mu.Lock()
		p.writebacks++
		f.dirty = false
		f.recLSN = 0
		f.loading = false
		p.cv.Broadcast()
		p.mu.Unlock()
		p.Unpin(f)
	}
	return minRecLSN, err
}

// DropAll empties the pool without writing anything back — the crash hook
// (host DRAM contents vanish; the device and log survive).
func (p *Pool) DropAll() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.frames = make(map[int]*Frame)
	p.lru.Init()
}
