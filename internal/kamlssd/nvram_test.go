package kamlssd

import (
	"bytes"
	"maps"
	"math/rand"
	"slices"
	"testing"
)

// nvModel is the NVRAM's bookkeeping written out longhand: every batch keeps
// the explicit list of seqs it staged, every entry is a separate object, and
// every staged value a fresh copy. The NVRAM derives a batch's members from
// the seq range beginBatch reserved and recycles its entries, batch records
// and buffers in place; TestNVRAMMatchesModel holds the two to the same
// observable state.
type nvModel struct {
	nvSeq, nextBatch uint64
	values           map[uint64]*nvEntry
	batches          map[uint64]*modelBatch
	open             map[uint64]uint64
	aborted          map[uint64]struct{}
}

type modelBatch struct {
	committed bool
	first, n  uint64
	seqs      []uint64 // staged, in staging order
	remaining int
}

func newNVModel() *nvModel {
	return &nvModel{
		values:  map[uint64]*nvEntry{},
		batches: map[uint64]*modelBatch{},
		open:    map[uint64]uint64{},
		aborted: map[uint64]struct{}{},
	}
}

func (m *nvModel) beginBatch(n int) (uint64, uint64) {
	m.nextBatch++
	first := m.nvSeq + 1
	m.batches[m.nextBatch] = &modelBatch{first: first, n: uint64(n)}
	m.open[m.nextBatch] = first
	m.nvSeq += uint64(n)
	return m.nextBatch, first
}

func (m *nvModel) stage(seq uint64, ns uint32, key uint64, val []byte, batch uint64) {
	m.values[seq] = &nvEntry{ns: ns, key: key, val: slices.Clone(val), batch: batch}
	b := m.batches[batch]
	b.seqs = append(b.seqs, seq)
	b.remaining++
}

func (m *nvModel) commitBatch(batch uint64) {
	b := m.batches[batch]
	if b == nil {
		return
	}
	b.committed = true
	delete(m.open, batch)
	for _, seq := range b.seqs {
		if e := m.values[seq]; e != nil && e.installed {
			delete(m.values, seq)
			b.remaining--
		}
	}
	if b.remaining == 0 {
		delete(m.batches, batch)
	}
}

// drop discards batch b's staged values, marking every seq it staged aborted.
func (m *nvModel) drop(id uint64, b *modelBatch) {
	for _, seq := range b.seqs {
		delete(m.values, seq)
		m.aborted[seq] = struct{}{}
	}
	delete(m.batches, id)
	delete(m.open, id)
}

func (m *nvModel) abortBatch(batch uint64) {
	if b := m.batches[batch]; b != nil {
		m.drop(batch, b)
	}
}

func (m *nvModel) installed(seq uint64) {
	e := m.values[seq]
	if e == nil {
		return
	}
	b := m.batches[e.batch]
	if b != nil && !b.committed {
		e.installed = true
		return
	}
	m.release(seq, e)
}

// release deletes a durable value and retires its batch with its last one.
func (m *nvModel) release(seq uint64, e *nvEntry) {
	delete(m.values, seq)
	if b := m.batches[e.batch]; b != nil {
		if b.remaining--; b.remaining == 0 {
			delete(m.batches, e.batch)
		}
	}
}

func (m *nvModel) dropUncommitted() {
	for id, b := range m.batches {
		if !b.committed {
			m.drop(id, b)
		}
	}
}

func (m *nvModel) finish(seq uint64) {
	if e := m.values[seq]; e != nil {
		m.release(seq, e)
	}
}

// diff reports the first way nv's state differs from the model's, or "".
func (m *nvModel) diff(nv *NVRAM) string {
	switch {
	case nv.nvSeq != m.nvSeq || nv.nextBatch != m.nextBatch:
		return "sequence counters"
	case !maps.Equal(nv.open, m.open):
		return "open batches"
	case !maps.Equal(nv.aborted, m.aborted):
		return "aborted seqs"
	case len(nv.values) != len(m.values):
		return "staged values"
	case len(nv.batches) != len(m.batches):
		return "batch records"
	}
	for seq, want := range m.values {
		got, ok := nv.values[seq]
		if !ok || got.ns != want.ns || got.key != want.key || got.batch != want.batch ||
			got.installed != want.installed || !bytes.Equal(got.val, want.val) {
			return "the value staged at a seq"
		}
	}
	for id, want := range m.batches {
		got, ok := nv.batches[id]
		if !ok || got.committed != want.committed || got.first != want.first ||
			got.n != want.n || got.remaining != want.remaining {
			return "a batch record"
		}
	}
	return ""
}

// The NVRAM agrees with the model after every step of random histories:
// batches reserve ranges and stage them a record at a time, commit, abort
// (half-staged ones too), and have their values installed in any order
// before and after their commit; a recovery drops the uncommitted ones and
// finishes some of the rest. Staged values of every length, a page and more
// among them, go through the buffer free list — a recycled buffer too small
// for the next value is replaced — and must read back intact.
func TestNVRAMMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		nv, m := NewNVRAM(), newNVModel()
		var open []uint64 // batch IDs neither committed nor aborted
		next := map[uint64]uint64{}
		for step := 0; step < 300; step++ {
			op := rng.Intn(12)
			switch {
			case op < 2 || len(open) == 0:
				n := rng.Intn(5)
				id, first := nv.beginBatch(n)
				if mid, mfirst := m.beginBatch(n); mid != id || mfirst != first {
					t.Fatalf("trial %d step %d: beginBatch gave (%d, %d), the model (%d, %d)", trial, step, id, first, mid, mfirst)
				}
				open = append(open, id)
				next[id] = first
			case op < 6:
				// Stage the next reserved seq of an open batch.
				id := open[rng.Intn(len(open))]
				b := m.batches[id]
				seq := next[id]
				if seq >= b.first+b.n {
					continue
				}
				next[id]++
				size := rng.Intn(64)
				if rng.Intn(20) == 0 {
					size = rng.Intn(9000) // up to a page and more
				}
				val := make([]byte, size)
				rng.Read(val)
				nv.stage(seq, uint32(seq%3), seq%16, val, id)
				m.stage(seq, uint32(seq%3), seq%16, val, id)
			case op < 8:
				i := rng.Intn(len(open))
				nv.commitBatch(open[i])
				m.commitBatch(open[i])
				open = slices.Delete(open, i, i+1)
			case op < 9:
				i := rng.Intn(len(open))
				nv.abortBatch(open[i])
				m.abortBatch(open[i])
				open = slices.Delete(open, i, i+1)
			case op < 11:
				// Install a staged value, or now and then a seq with none.
				seq := rng.Uint64()%(m.nvSeq+2) + 1
				if seqs := nv.pendingSeqs(); len(seqs) > 0 && rng.Intn(4) != 0 {
					seq = seqs[rng.Intn(len(seqs))]
				}
				nv.installed(seq)
				m.installed(seq)
			case rng.Intn(4) == 0:
				// A power cut and the start of a recovery.
				nv.dropUncommitted()
				m.dropUncommitted()
				open = open[:0]
				for _, seq := range nv.pendingSeqs() {
					if rng.Intn(2) == 0 {
						nv.finish(seq)
						m.finish(seq)
					}
				}
			}
			if what := m.diff(nv); what != "" {
				t.Fatalf("trial %d step %d: the NVRAM and the model disagree on %s", trial, step, what)
			}
		}
	}
}

// settledSeqByScan is the settled-floor rule by its definition: the newest
// sequence below the first of every batch that has neither committed nor
// aborted, found by walking every batch the NVRAM still tracks — committed
// ones waiting for their flash installs included.
func settledSeqByScan(nv *NVRAM) uint64 {
	ts := nv.nvSeq
	for _, b := range nv.batches {
		if !b.committed && b.first-1 < ts {
			ts = b.first - 1
		}
	}
	return ts
}

// settledSeq, which walks only the open batches, agrees with the full scan
// after every step of random histories of batches begun (empty ones too),
// staged, committed, aborted, installed in any order, dropped by a recovery
// and finished by its merge.
func TestSettledSeqMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		nv := NewNVRAM()
		var open []uint64   // batch IDs neither committed nor aborted
		var staged []uint64 // sequences that may still be staged
		for step := 0; step < 300; step++ {
			switch op := rng.Intn(10); {
			case op < 3 || len(open) == 0:
				n := rng.Intn(4)
				id, first := nv.beginBatch(n)
				for i := 0; i < n; i++ {
					seq := first + uint64(i)
					nv.stage(seq, 1, seq%16, []byte{byte(seq)}, id)
					staged = append(staged, seq)
				}
				open = append(open, id)
			case op < 6:
				i := rng.Intn(len(open))
				nv.commitBatch(open[i])
				open = slices.Delete(open, i, i+1)
			case op < 7:
				i := rng.Intn(len(open))
				nv.abortBatch(open[i])
				open = slices.Delete(open, i, i+1)
			case op < 9 && len(staged) > 0:
				i := rng.Intn(len(staged))
				nv.installed(staged[i])
				staged = slices.Delete(staged, i, i+1)
			case rng.Intn(10) == 0:
				// A power cut and the start of a recovery: open batches vanish,
				// and the merge releases some of what is left.
				nv.dropUncommitted()
				open = open[:0]
				for _, seq := range nv.pendingSeqs() {
					if rng.Intn(2) == 0 {
						nv.finish(seq)
					}
				}
			}
			if got, want := nv.settledSeq(), settledSeqByScan(nv); got != want {
				t.Fatalf("trial %d step %d: settledSeq %d, the full scan %d", trial, step, got, want)
			}
		}
	}
}

// pendingSeqs returns the staged sequence numbers in ascending order.
func (nv *NVRAM) pendingSeqs() []uint64 {
	out := make([]uint64, 0, len(nv.values))
	for seq := range nv.values {
		out = append(out, seq)
	}
	slices.Sort(out)
	return out
}
