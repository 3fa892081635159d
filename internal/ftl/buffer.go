package ftl

// writeBuffer is the battery-backed DRAM staging area for host writes.
//
// Entries keep serving reads while the flusher is programming them
// ("draining"); they are removed only after the new flash mapping is
// installed, so a read can never observe a mapping that points at a page
// the flusher has not finished, nor lose a host write that raced with the
// drain. Sequence numbers detect a host rewrite during the drain.
type writeBuffer struct {
	cap   int
	seq   uint64
	data  map[int]*bufEntry
	order []int // FIFO of queued (non-draining) LBAs
}

type bufEntry struct {
	data     []byte
	seq      uint64
	draining bool
}

func newWriteBuffer(capacity int) *writeBuffer {
	return &writeBuffer{cap: capacity, data: make(map[int]*bufEntry)}
}

// len counts queued (not yet draining) sectors.
func (b *writeBuffer) len() int { return len(b.order) }

// pending counts all entries, including ones mid-drain. Flush waits on this.
func (b *writeBuffer) pending() int { return len(b.data) }

// full reports whether new writes must wait for the flusher.
func (b *writeBuffer) full() bool { return len(b.data) >= b.cap }

// has reports whether any entry (queued or draining) exists for lba.
func (b *writeBuffer) has(lba int) bool {
	_, ok := b.data[lba]
	return ok
}

// get returns the freshest buffered data for lba.
func (b *writeBuffer) get(lba int) ([]byte, bool) {
	e, ok := b.data[lba]
	if !ok {
		return nil, false
	}
	return e.data, true
}

// put inserts or coalesces a host write.
func (b *writeBuffer) put(lba int, data []byte) {
	b.seq++
	if e, ok := b.data[lba]; ok {
		e.data = append([]byte(nil), data...)
		e.seq = b.seq
		if e.draining {
			// The flusher is programming the old version; queue the new one.
			e.draining = false
			b.order = append(b.order, lba)
		}
		return
	}
	b.data[lba] = &bufEntry{data: append([]byte(nil), data...), seq: b.seq}
	b.order = append(b.order, lba)
}

// take marks up to n queued sectors as draining and returns copies of
// their data with the sequence numbers observed.
func (b *writeBuffer) take(n int) (lbas []int, sectors [][]byte, seqs []uint64) {
	for len(lbas) < n && len(b.order) > 0 {
		lba := b.order[0]
		b.order = b.order[1:]
		e, ok := b.data[lba]
		if !ok || e.draining {
			continue // defensive; should not happen
		}
		e.draining = true
		lbas = append(lbas, lba)
		sectors = append(sectors, append([]byte(nil), e.data...))
		seqs = append(seqs, e.seq)
	}
	return lbas, sectors, seqs
}

// finish removes a drained entry unless the host rewrote it meanwhile
// (sequence mismatch). Reports whether the drained version is still the
// newest, i.e. whether the new flash mapping should be live.
func (b *writeBuffer) finish(lba int, seq uint64) (current bool) {
	e, ok := b.data[lba]
	if !ok {
		return false
	}
	if e.seq != seq {
		return false // rewritten; newer version queued or already drained
	}
	delete(b.data, lba)
	return true
}
