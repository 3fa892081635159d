package experiments

import (
	"fmt"
	"math/rand"

	"github.com/kaml-ssd/kaml/internal/kamlssd"
)

// qdDepths is the queue-depth ladder for the pipeline sweep.
var qdDepths = []int{1, 2, 4, 8, 16, 32, 64, 128}

// qdValueSize is the record size every sweep cell reads and writes.
const qdValueSize = 1024

// qdSweepRaw runs the sweep cells and returns per-depth operation counts
// plus the Put cells' coalescer merge rate (records per batch commit).
// Each cell is its own simulation: QD closed-loop workers — QD commands in
// flight — against a fresh device.
func qdSweepRaw(s Scale, depths []int) (getOps, putOps []int64, recsPerBatch []float64) {
	warm, window := microWindows(s)
	n := int(2000 * float64(s))
	if n < 256 {
		n = 256
	}
	getOps = make([]int64, len(depths))
	putOps = make([]int64, len(depths))
	recsPerBatch = make([]float64, len(depths))
	jobs := cellJobs{}
	for i, qd := range depths {
		i, qd := i, qd
		jobs = append(jobs, func() {
			// Get cell: preload, flush to flash, then random reads.
			r := newKAMLRig(microFlash(), nil)
			r.eng.Go("main", func() {
				defer r.dev.Close()
				ns, keys, err := kamlPreload(r, n, qdValueSize, 0.4)
				if err != nil {
					return
				}
				getOps[i] = measure(r.eng, qd, warm, window, func(w int, rng *rand.Rand, _ func() bool) bool {
					_, err := r.dev.Get(ns, uint64(rng.Intn(keys)))
					return err == nil
				})
			})
			r.eng.Wait()
		})
		jobs = append(jobs, func() {
			// Put cell: single-record updates over per-worker key ranges, so
			// any merging comes from concurrency, never from key collisions.
			r := newKAMLRig(microFlash(), nil)
			r.eng.Go("main", func() {
				defer r.dev.Close()
				ns, err := r.dev.CreateNamespace(kamlssd.NamespaceAttrs{IndexCapacity: 8192 * 4})
				if err != nil {
					return
				}
				val := make([]byte, qdValueSize)
				putOps[i] = measure(r.eng, qd, warm, window, func(w int, rng *rand.Rand, _ func() bool) bool {
					k := uint64(w)<<32 | uint64(rng.Intn(4096))
					return r.dev.Put([]kamlssd.PutRecord{{Namespace: ns, Key: k, Value: val}}) == nil
				})
				st := r.dev.Stats()
				if st.CoalescerBatches > 0 {
					recsPerBatch[i] = float64(st.CoalescerRecords) / float64(st.CoalescerBatches)
				}
			})
			r.eng.Wait()
		})
	}
	jobs.run()
	return
}

// QDSweep measures how Get and Put throughput scale with the number of
// commands the host keeps in flight — the experiment the async command
// pipeline exists for. The Put column doubles as the coalescer's showcase:
// concurrent small Puts are exactly the traffic the group commit feeds on,
// and the last column reports how many records shared each NVRAM batch
// commit. The paper's device sustains its bandwidth numbers only at depth
// (§V-B runs eight host threads); this table shows where that scaling
// comes from and where it saturates (controller cores, then flash
// bandwidth).
func QDSweep(s Scale) *Table {
	_, window := microWindows(s)
	getOps, putOps, recsPerBatch := qdSweepRaw(s, qdDepths)

	t := &Table{
		ID:    "qdsweep",
		Title: fmt.Sprintf("queue-depth sweep: %d B values, %v window", qdValueSize, window),
		Header: []string{"qd", "get_kops", "get_speedup", "put_kops", "put_speedup",
			"coalesce_recs_per_batch"},
		Notes: []string{
			"speedups are relative to QD 1; coalesce_recs_per_batch is CoalescerRecords/CoalescerBatches",
		},
	}
	speedup := func(ops, ref int64) string {
		if ref == 0 {
			return "-"
		}
		return f2(float64(ops) / float64(ref))
	}
	kops := func(ops int64) string {
		return f2(float64(ops) / window.Seconds() / 1e3)
	}
	for i, qd := range qdDepths {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", qd),
			kops(getOps[i]), speedup(getOps[i], getOps[0]),
			kops(putOps[i]), speedup(putOps[i], putOps[0]),
			f2(recsPerBatch[i]),
		})
	}
	return t
}
