package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/kaml-ssd/kaml/internal/ftl"
	"github.com/kaml-ssd/kaml/internal/kamlssd"
	"github.com/kaml-ssd/kaml/internal/stats"
)

// Microbenchmark parameters shared by Figs. 5-7 (paper §V-B): eight host
// threads for bandwidth, one for latency; value sizes 512 B .. 4 KB; index
// load factors 0.1 / 0.4 / 0.7.
var (
	microSizes = []int{512, 1024, 2048, 4096}
	microLoads = []float64{0.1, 0.4, 0.7}
)

const bandwidthWorkers = 8

// microWindows scales the warmup/measurement windows.
func microWindows(s Scale) (warm, window time.Duration) {
	warm = time.Duration(float64(5*time.Millisecond) * float64(s))
	window = time.Duration(float64(50*time.Millisecond) * float64(s))
	if warm < time.Millisecond {
		warm = time.Millisecond
	}
	if window < 5*time.Millisecond {
		window = 5 * time.Millisecond
	}
	return warm, window
}

// kamlPreload creates a namespace for about n keys whose mapping table is
// at the target load factor once they are in, inserts them, and returns the
// namespace and how many keys it holds (sizedTable).
func kamlPreload(r *kamlRig, n int, valueSize int, load float64) (ns uint32, keys int, err error) {
	capacity, keys := sizedTable(n, load)
	ns, err = r.dev.CreateNamespace(kamlssd.NamespaceAttrs{IndexCapacity: capacity})
	if err != nil {
		return 0, 0, err
	}
	val := make([]byte, valueSize)
	const batch = 8
	for base := 0; base < keys; base += batch {
		recs := make([]kamlssd.PutRecord, 0, batch)
		for k := base; k < base+batch && k < keys; k++ {
			recs = append(recs, kamlssd.PutRecord{Namespace: ns, Key: uint64(k), Value: val})
		}
		if err := r.dev.Put(recs); err != nil {
			return 0, 0, err
		}
	}
	r.dev.Flush()
	return ns, keys, nil
}

// sizedTable returns the capacity and key count of a mapping table for
// about n keys at load factor load. A table rounds its capacity up to a
// power of two, so the capacity is rounded first and the key count taken
// from it: the table's load factor is then the one its row claims.
func sizedTable(n int, load float64) (capacity, keys int) {
	capacity = 1
	for capacity < int(float64(n)/load) {
		capacity <<= 1
	}
	return capacity, int(load * float64(capacity))
}

// blockPreload fills the first n records' sectors. Records are laid out
// one per sector region: record i lives at byte offset i*valueSize, so a
// sub-4KB record shares its sector with neighbours (the baseline's record
// packing through the file system).
func blockPreload(r *blockRig, n, valueSize int) error {
	bytesTotal := n * valueSize
	sectors := (bytesTotal + ftl.SectorSize - 1) / ftl.SectorSize
	sector := make([]byte, ftl.SectorSize)
	for s := 0; s < sectors; s++ {
		if err := r.dev.WriteSector(s, sector); err != nil {
			return err
		}
	}
	r.dev.Flush()
	return nil
}

// blockRecordIO runs a read or write of record k of the given size through
// the block interface, as the baseline microbenchmark does. Inserts write
// "sectors of data to previously unmapped LBAs" (§V-B), i.e. one record
// per sector, so spread selects sector-per-record addressing.
func blockRecordIO(r *blockRig, key int64, valueSize int, write, spread bool, buf []byte) error {
	stride := int64(valueSize)
	if spread && stride < ftl.SectorSize {
		stride = ftl.SectorSize
	}
	off := key * stride
	lba := int(off / ftl.SectorSize)
	in := int(off % ftl.SectorSize)
	if !write {
		return r.dev.ReadSector(lba, buf)
	}
	if valueSize >= ftl.SectorSize {
		return r.dev.WriteSector(lba, buf[:ftl.SectorSize])
	}
	return r.dev.WritePartial(lba, in, buf[:valueSize])
}

// Fig5 reproduces the bandwidth comparison (Get vs read, Put vs write) for
// Fetch (a), Update (b), and Insert (c) across value sizes and load
// factors.
func Fig5(s Scale) []*Table {
	warm, window := microWindows(s)
	n := int(2000 * float64(s))
	if n < 1500 {
		n = 1500 // keep the working set well beyond buffers and lock stripes
	}

	fetch := &Table{
		ID:     "fig5a",
		Title:  "Fetch bandwidth (MB/s), 8 threads",
		Header: []string{"value", "read(block)", "Get@0.1", "Get@0.4", "Get@0.7"},
	}
	update := &Table{
		ID:     "fig5b",
		Title:  "Update bandwidth (MB/s), 8 threads",
		Header: []string{"value", "write(block)", "Put@0.1", "Put@0.4", "Put@0.7"},
	}
	insert := &Table{
		ID:     "fig5c",
		Title:  "Insert bandwidth (MB/s), 8 threads",
		Header: []string{"value", "write(block)", "Put@0.1", "Put@0.4", "Put@0.7"},
	}

	// Every cell — one baseline rig or one KAML (size, load) pair — is an
	// independent simulation, so they fan out across the worker pool and
	// the rows are assembled from indexed slots afterwards.
	type sizeCell struct {
		readBW, writeBW, insBW float64
		get, put, ins          []float64
	}
	cells := make([]sizeCell, len(microSizes))
	var jobs cellJobs
	for si := range microSizes {
		si, size := si, microSizes[si]
		c := &cells[si]
		c.get = make([]float64, len(microLoads))
		c.put = make([]float64, len(microLoads))
		c.ins = make([]float64, len(microLoads))
		jobs = append(jobs,
			func() { c.readBW = blockBandwidth(size, n, warm, window, "fetch") },
			func() { c.writeBW = blockBandwidth(size, n, warm, window, "update") },
			func() { c.insBW = blockBandwidth(size, n, warm, window, "insert") },
		)
		for li := range microLoads {
			li, load := li, microLoads[li]
			jobs = append(jobs, func() {
				c.get[li], c.put[li], c.ins[li] = kamlBandwidth(size, n, load, warm, window)
			})
		}
	}
	jobs.run()
	for si, size := range microSizes {
		c := &cells[si]
		frow := []string{fmt.Sprintf("%dB", size), f2(c.readBW)}
		urow := []string{fmt.Sprintf("%dB", size), f2(c.writeBW)}
		irow := []string{fmt.Sprintf("%dB", size), f2(c.insBW)}
		for li := range microLoads {
			frow = append(frow, f2(c.get[li]))
			urow = append(urow, f2(c.put[li]))
			irow = append(irow, f2(c.ins[li]))
		}
		fetch.Rows = append(fetch.Rows, frow)
		update.Rows = append(update.Rows, urow)
		insert.Rows = append(insert.Rows, irow)
	}
	fetch.Notes = append(fetch.Notes,
		"paper: Get up to 1.2x read at load 0.1, parity at 0.4, read wins past 0.7")
	update.Notes = append(update.Notes,
		"paper: Put 6.7-7.9x write below 4KB (read-modify-write cliff); write edges ahead at 4KB")
	insert.Notes = append(insert.Notes,
		"paper: Put close to write below 4KB; write wins at 4KB (hash insert vs array update)")
	return []*Table{fetch, update, insert}
}

// blockBandwidth measures the baseline's MB/s for one op kind.
func blockBandwidth(size, n int, warm, window time.Duration, kind string) float64 {
	r := newBlockRig(microFlash())
	var result float64
	r.eng.Go("main", func() {
		defer r.dev.Close()
		// The paper preconditions the SSD by filling it with random data, so
		// even "inserts" of new records land on mapped LBAs and sub-4KB
		// writes pay read-modify-write. Inserts use a sector per record, so
		// their preconditioned region is wider.
		pre, psize := n, size
		if kind == "insert" {
			pre = 3 * n
			if psize < ftl.SectorSize {
				psize = ftl.SectorSize
			}
		}
		if err := blockPreload(r, pre, psize); err != nil {
			return
		}
		insertCursors := make([]int64, bandwidthWorkers)
		ops := measure(r.eng, bandwidthWorkers, warm, window, func(w int, rng *rand.Rand, _ func() bool) bool {
			buf := make([]byte, ftl.SectorSize)
			switch kind {
			case "fetch":
				return blockRecordIO(r, int64(rng.Intn(n)), size, false, false, buf) == nil
			case "update":
				return blockRecordIO(r, int64(rng.Intn(n)), size, true, false, buf) == nil
			default: // insert: fresh records, one sector region each;
				// workers append into disjoint preconditioned regions as
				// independent streams would.
				insertCursors[w]++
				k := int64(n) + int64(w)*int64(n)/4 + insertCursors[w]
				return blockRecordIO(r, k, size, true, true, buf) == nil
			}
		})
		result = mbps(ops, size, window)
	})
	r.eng.Wait()
	return result
}

// kamlBandwidth measures Get/Put(update)/Put(insert) MB/s at one load.
func kamlBandwidth(size, n int, load float64, warm, window time.Duration) (get, put, insert float64) {
	// Fetch + Update share a preloaded rig.
	r := newKAMLRig(microFlash(), nil)
	r.eng.Go("main", func() {
		defer r.dev.Close()
		ns, keys, err := kamlPreload(r, n, size, load)
		if err != nil {
			return
		}
		val := make([]byte, size)
		ops := measure(r.eng, bandwidthWorkers, warm, window, func(w int, rng *rand.Rand, _ func() bool) bool {
			_, err := r.dev.Get(ns, uint64(rng.Intn(keys)))
			return err == nil
		})
		get = mbps(ops, size, window)
		ops = measure(r.eng, bandwidthWorkers, warm, window, func(w int, rng *rand.Rand, _ func() bool) bool {
			return r.dev.Put([]kamlssd.PutRecord{{Namespace: ns, Key: uint64(rng.Intn(keys)), Value: val}}) == nil
		})
		put = mbps(ops, size, window)
	})
	r.eng.Wait()

	// Insert gets a fresh rig: preload to the target load, then insert new
	// keys (the table keeps filling; the paper's Fig. 5c does the same).
	r2 := newKAMLRig(microFlash(), nil)
	r2.eng.Go("main", func() {
		defer r2.dev.Close()
		// Leave headroom so measurement-window inserts cannot overflow the
		// table (which would abort workers and crater the number).
		capacity := int(float64(n)/load) + 16*n
		ns, err := r2.dev.CreateNamespace(kamlssd.NamespaceAttrs{IndexCapacity: capacity})
		if err != nil {
			return
		}
		val := make([]byte, size)
		// Preload to the target load factor.
		pre := int(load * float64(capacity))
		for k := 0; k < pre; k++ {
			if err := r2.dev.Put([]kamlssd.PutRecord{{Namespace: ns, Key: uint64(k), Value: val}}); err != nil {
				return
			}
		}
		var cursor int64
		ops := measure(r2.eng, bandwidthWorkers, warm, window, func(w int, rng *rand.Rand, _ func() bool) bool {
			cursor++
			k := cursor + int64(pre)
			return r2.dev.Put([]kamlssd.PutRecord{{Namespace: ns, Key: uint64(k), Value: val}}) == nil
		})
		insert = mbps(ops, size, window)
	})
	r2.eng.Wait()
	return get, put, insert
}

// Fig6 reproduces the latency comparison: single thread, load factor 0.4.
func Fig6(s Scale) []*Table {
	n := int(2000 * float64(s))
	if n < 200 {
		n = 200
	}
	iters := int(200 * float64(s))
	if iters < 50 {
		iters = 50
	}

	fetch := &Table{ID: "fig6a", Title: "Fetch latency (us), 1 thread, load 0.4",
		Header: []string{"value", "read(block)", "read p99", "Get", "Get p99"}}
	update := &Table{ID: "fig6b", Title: "Update latency (us), 1 thread, load 0.4",
		Header: []string{"value", "write(block)", "write p99", "Put", "Put p99"}}
	insert := &Table{ID: "fig6c", Title: "Insert latency (us), 1 thread, load 0.4",
		Header: []string{"value", "write(block)", "write p99", "Put", "Put p99"}}

	type sizeCell struct {
		br, bw, bi, kg, kp, ki *stats.Histogram
	}
	cells := make([]sizeCell, len(microSizes))
	var jobs cellJobs
	for si := range microSizes {
		si, size := si, microSizes[si]
		c := &cells[si]
		jobs = append(jobs,
			func() { c.br = blockLatency(size, n, iters, "fetch") },
			func() { c.bw = blockLatency(size, n, iters, "update") },
			func() { c.bi = blockLatency(size, n, iters, "insert") },
			func() { c.kg, c.kp, c.ki = kamlLatency(size, n, 0.4, iters) },
		)
	}
	jobs.run()
	for si, size := range microSizes {
		c := &cells[si]
		us := func(d time.Duration) string { return fmt.Sprintf("%.1f", float64(d)/1000) }
		row := func(b, k *stats.Histogram) []string {
			return []string{fmt.Sprintf("%dB", size),
				us(b.Mean()), us(b.Quantile(0.99)),
				us(k.Mean()), us(k.Quantile(0.99))}
		}
		fetch.Rows = append(fetch.Rows, row(c.br, c.kg))
		update.Rows = append(update.Rows, row(c.bw, c.kp))
		insert.Rows = append(insert.Rows, row(c.bi, c.ki))
	}
	fetch.Notes = append(fetch.Notes, "paper: Get ~= read")
	update.Notes = append(update.Notes, "paper: Put ~20% of write below 4KB (RMW), ~parity at 4KB")
	insert.Notes = append(insert.Notes, "paper: Put 63-75% of write below 4KB; 2.9x at 4KB")
	return []*Table{fetch, update, insert}
}

func blockLatency(size, n, iters int, kind string) *stats.Histogram {
	r := newBlockRig(microFlash())
	h := &stats.Histogram{}
	r.eng.Go("main", func() {
		defer r.dev.Close()
		pre, psize := n, size
		if kind == "insert" {
			pre = 2 * n
			if psize < ftl.SectorSize {
				psize = ftl.SectorSize
			}
		}
		if err := blockPreload(r, pre, psize); err != nil {
			return
		}
		rng := rand.New(rand.NewSource(1))
		buf := make([]byte, ftl.SectorSize)
		cursor := int64(n)
		for i := 0; i < iters; i++ {
			start := r.eng.Now()
			switch kind {
			case "fetch":
				_ = blockRecordIO(r, int64(rng.Intn(n)), size, false, false, buf)
			case "update":
				_ = blockRecordIO(r, int64(rng.Intn(n)), size, true, false, buf)
			default:
				cursor++
				_ = blockRecordIO(r, cursor, size, true, true, buf)
			}
			h.Add(r.eng.Now() - start)
		}
		opsDone.Add(int64(iters))
	})
	r.eng.Wait()
	return h
}

func kamlLatency(size, n int, load float64, iters int) (get, put, insert *stats.Histogram) {
	r := newKAMLRig(microFlash(), nil)
	get, put, insert = &stats.Histogram{}, &stats.Histogram{}, &stats.Histogram{}
	r.eng.Go("main", func() {
		defer r.dev.Close()
		ns, keys, err := kamlPreload(r, n, size, load)
		if err != nil {
			return
		}
		rng := rand.New(rand.NewSource(2))
		val := make([]byte, size)
		for i := 0; i < iters; i++ {
			start := r.eng.Now()
			_, _ = r.dev.Get(ns, uint64(rng.Intn(keys)))
			get.Add(r.eng.Now() - start)
		}
		for i := 0; i < iters; i++ {
			start := r.eng.Now()
			_ = r.dev.Put([]kamlssd.PutRecord{{Namespace: ns, Key: uint64(rng.Intn(keys)), Value: val}})
			put.Add(r.eng.Now() - start)
		}
		for i := 0; i < iters; i++ {
			start := r.eng.Now()
			_ = r.dev.Put([]kamlssd.PutRecord{{Namespace: ns, Key: uint64(keys + i), Value: val}})
			insert.Add(r.eng.Now() - start)
		}
		opsDone.Add(3 * int64(iters)) // the Get, Put and insert loops
	})
	r.eng.Wait()
	return get, put, insert
}

// Fig7 reproduces the batch-size sweep: Put throughput for Update and the
// time to populate a namespace to 70% load, at batch sizes 1..8.
func Fig7(s Scale) []*Table {
	warm, window := microWindows(s)
	n := int(2000 * float64(s))
	if n < 200 {
		n = 200
	}
	size := 512
	batches := []int{1, 2, 4, 8}

	up := &Table{ID: "fig7a", Title: "Update bandwidth vs batch size (MB/s)",
		Header: []string{"batch", "MB/s"}}
	pop := &Table{ID: "fig7b", Title: "Time to populate namespace to 70% load",
		Header: []string{"batch", "ms"}}

	bws := make([]float64, len(batches))
	popTimes := make([]time.Duration, len(batches))
	runCells(len(batches), func(bi int) {
		b := batches[bi]
		r := newKAMLRig(microFlash(), nil)
		var bw float64
		var popTime time.Duration
		r.eng.Go("main", func() {
			defer r.dev.Close()
			ns, keys, err := kamlPreload(r, n, size, 0.4)
			if err != nil {
				return
			}
			val := make([]byte, size)
			ops := measure(r.eng, bandwidthWorkers, warm, window, func(w int, rng *rand.Rand, _ func() bool) bool {
				// Distinct keys per batch (a batch may not contain the same
				// key twice; the firmware rejects it).
				recs := make([]kamlssd.PutRecord, 0, b)
				base := rng.Intn(keys)
				for i := 0; i < b; i++ {
					recs = append(recs, kamlssd.PutRecord{
						Namespace: ns, Key: uint64((base + i*97) % keys), Value: val,
					})
				}
				return r.dev.Put(recs) == nil
			})
			bw = mbps(ops*int64(b), size, window)

			// Populate a fresh namespace to 70% of its table with batched
			// inserts, timing the fill.
			ns2, err := r.dev.CreateNamespace(kamlssd.NamespaceAttrs{IndexCapacity: n})
			if err != nil {
				return
			}
			target := int(0.7 * float64(n))
			start := r.eng.Now()
			for base := 0; base < target; base += b {
				recs := make([]kamlssd.PutRecord, 0, b)
				for k := base; k < base+b && k < target; k++ {
					recs = append(recs, kamlssd.PutRecord{Namespace: ns2, Key: uint64(k), Value: val})
				}
				if err := r.dev.Put(recs); err != nil {
					return
				}
			}
			popTime = r.eng.Now() - start
		})
		r.eng.Wait()
		bws[bi] = bw
		popTimes[bi] = popTime
	})
	for bi, b := range batches {
		up.Rows = append(up.Rows, []string{fmt.Sprintf("%d", b), f2(bws[bi])})
		pop.Rows = append(pop.Rows, []string{fmt.Sprintf("%d", b),
			fmt.Sprintf("%.2f", popTimes[bi].Seconds()*1000)})
	}
	up.Notes = append(up.Notes, "paper: batch 1->4 raises Update throughput 1.2-1.3x")
	pop.Notes = append(pop.Notes, "paper: batching cuts population time by ~40%")
	return []*Table{up, pop}
}

// Fig8 reproduces the multi-log sweep: Put throughput as the namespace's
// log count grows from 16 to 64 on the 64-chip device.
func Fig8(s Scale) *Table {
	warm, window := microWindows(s)
	n := int(2000 * float64(s))
	if n < 200 {
		n = 200
	}
	size := 512
	t := &Table{ID: "fig8", Title: "Put throughput vs number of logs (MB/s), 64 threads",
		Header: []string{"logs", "MB/s"}}
	logCounts := []int{16, 32, 64}
	bws := make([]float64, len(logCounts))
	runCells(len(logCounts), func(li int) {
		logs := logCounts[li]
		r := newKAMLRig(microFlash(), func(c *kamlssd.Config) { c.NumLogs = logs })
		var bw float64
		r.eng.Go("main", func() {
			defer r.dev.Close()
			ns, keys, err := kamlPreload(r, n, size, 0.4)
			if err != nil {
				return
			}
			val := make([]byte, size)
			// Plenty of outstanding commands so the append points, not the
			// host, are the bottleneck ("more logs can support more
			// concurrent commands").
			ops := measure(r.eng, 64, warm, window, func(w int, rng *rand.Rand, _ func() bool) bool {
				return r.dev.Put([]kamlssd.PutRecord{{Namespace: ns, Key: uint64(rng.Intn(keys)), Value: val}}) == nil
			})
			bw = mbps(ops, size, window)
		})
		r.eng.Wait()
		bws[li] = bw
	})
	for li, logs := range logCounts {
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", logs), f2(bws[li])})
	}
	t.Notes = append(t.Notes, "paper: 16 -> 64 logs raises throughput ~5.8x")
	return t
}
