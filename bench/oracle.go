package main

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
)

// The oracle checks every value the system returns. Each written value
// carries a (key, version) stamp; versions come from one global counter
// drawn when the write is ISSUED, so version order is issue order.
//
// A read of key k is wrong when it returns a value for another key, or a
// version W that some other write W* had definitely overwritten before the
// read was issued: W completed before W* was issued, and W* was
// acknowledged before the read was issued. Checking against the single
// acknowledged write with the highest version (the "floor") is both sound
// and complete for that rule: anything older than the floor is legal only
// if it was still in flight when the floor write was issued, so the floor
// keeps the (almost always empty) set of writes in flight at its issue.
// Overlapping writers therefore never raise a false alarm, whichever order
// the device applies them in.

const stampLen = 16 // key u64 | version u64, big endian

// stamp writes the (key, version) header into v, which must hold stampLen
// bytes. The rest of v is left as is: the header alone identifies the
// write.
func stamp(v []byte, key, version uint64) {
	binary.BigEndian.PutUint64(v[0:8], key)
	binary.BigEndian.PutUint64(v[8:16], version)
}

func unstamp(v []byte) (key, version uint64, ok bool) {
	if len(v) < stampLen {
		return 0, 0, false
	}
	return binary.BigEndian.Uint64(v[0:8]), binary.BigEndian.Uint64(v[8:16]), true
}

// floor is the newest acknowledged write of one key as a reader captures
// it before issuing a read.
type floor struct {
	version uint64
	overlap []uint64 // versions in flight when the floor write was issued; immutable
}

type keyState struct {
	fl      floor
	pending []pendingWrite // issued, not yet acknowledged or cancelled
}

// pendingWrite is a write in flight, with what else was in flight when it
// was issued: should it be acknowledged and become the floor, that is its
// overlap set.
type pendingWrite struct {
	version uint64
	overlap []uint64
}

const oracleStripes = 256

type oracle struct {
	next atomic.Uint64 // last version handed out
	keys []keyState
	// Plain mutexes are right even on simulation actors: holders never
	// block on the virtual clock, and the free-running engine and the wire
	// clients really are concurrent.
	mu [oracleStripes]struct {
		sync.Mutex
		_ [56]byte
	}
}

// newOracle sizes the oracle for keys in [0, n). Every key gets room for
// two concurrent writers up front so the steady state allocates nothing.
func newOracle(n int) *oracle {
	o := &oracle{keys: make([]keyState, n)}
	pend := make([]pendingWrite, 2*n)
	for i := range o.keys {
		o.keys[i].pending = pend[2*i : 2*i : 2*i+2]
	}
	return o
}

func (o *oracle) lock(key uint64) *sync.Mutex {
	m := &o.mu[key%oracleStripes].Mutex
	m.Lock()
	return m
}

// begin issues a write of key and returns its version. Call it before the
// value is handed to the system.
func (o *oracle) begin(key uint64) uint64 {
	v := o.next.Add(1)
	m := o.lock(key)
	ks := &o.keys[key]
	var overlap []uint64
	for _, p := range ks.pending {
		overlap = append(overlap, p.version)
	}
	ks.pending = append(ks.pending, pendingWrite{version: v, overlap: overlap})
	m.Unlock()
	return v
}

// finish retires an issued write: acked ones may raise the floor, failed
// ones (an aborted transaction, an error) must never become visible.
func (o *oracle) finish(key, version uint64, acked bool) {
	m := o.lock(key)
	ks := &o.keys[key]
	for i, p := range ks.pending {
		if p.version == version {
			if acked && version > ks.fl.version {
				ks.fl = floor{version: version, overlap: p.overlap}
			}
			ks.pending = append(ks.pending[:i], ks.pending[i+1:]...)
			break
		}
	}
	m.Unlock()
}

// floorOf captures key's floor; call it before issuing the read.
func (o *oracle) floorOf(key uint64) floor {
	m := o.lock(key)
	fl := o.keys[key].fl
	m.Unlock()
	return fl
}

// check judges a value read for key against the floor captured before the
// read was issued.
func (o *oracle) check(key uint64, fl floor, value []byte) bool {
	k, v, ok := unstamp(value)
	if !ok || k != key || v > o.next.Load() {
		return false
	}
	if v >= fl.version {
		return true
	}
	for _, ov := range fl.overlap {
		if ov == v {
			return true
		}
	}
	return false
}
