package kamlssd

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/kaml-ssd/kaml/internal/cmdq"
	"github.com/kaml-ssd/kaml/internal/flash"
	"github.com/kaml-ssd/kaml/internal/nvme"
	"github.com/kaml-ssd/kaml/internal/record"
	"github.com/kaml-ssd/kaml/internal/sim"
)

func testFlashConfig() flash.Config {
	fc := flash.DefaultConfig()
	fc.Channels = 4
	fc.ChipsPerChannel = 2
	fc.BlocksPerChip = 8
	fc.PagesPerBlock = 8
	return fc
}

type rig struct {
	e    *sim.Engine
	arr  *flash.Array
	ctrl *nvme.Controller
	dev  *Device
}

// newRig builds a device on a fresh engine. Every engine draws its actors
// from a PRNG seeded with 1, so virtual-time measurements repeat exactly.
func newRig(fc flash.Config, mod func(*Config)) *rig {
	e := sim.NewEngine()
	arr := flash.New(e, fc)
	ctrl := nvme.New(e, nvme.DefaultConfig())
	cfg := DefaultConfig(fc)
	cfg.NumLogs = 4
	if mod != nil {
		mod(&cfg)
	}
	return &rig{e: e, arr: arr, ctrl: ctrl, dev: New(arr, ctrl, cfg)}
}

// setGCWater gives every device the test builds from here on, by New or by
// Recover, the free-block watermarks low and high in place of gcLowFree and
// gcHighFree.
func setGCWater(t *testing.T, low, high int) {
	t.Helper()
	prev := gcWater
	gcWater = func() (int, int) { return low, high }
	t.Cleanup(func() { gcWater = prev })
}

// collectorsOff keeps the collectors of every device the test builds parked:
// a log out of erased blocks stays out until the test collects a victim
// itself.
func collectorsOff(t *testing.T) { setGCWater(t, 0, 0) }

func withRig(t *testing.T, fc flash.Config, mod func(*Config), fn func(r *rig)) {
	t.Helper()
	r := newRig(fc, mod)
	r.e.Go("test", func() {
		defer r.dev.Close()
		fn(r)
	})
	r.e.Wait()
}

// powerCycle cuts power to dev, waits for its actors to halt, and recovers
// a fresh device from what survives: the flash array and dev's NVRAM. Call
// from a simulation actor.
func powerCycle(dev *Device, arr *flash.Array, ctrl *nvme.Controller) (*Device, error) {
	dev.PowerFail()
	dev.AwaitHalt()
	return Recover(arr, ctrl, dev.Config(), dev.NVRAM())
}

func val(key uint64, size int) []byte {
	v := make([]byte, size)
	for i := range v {
		v[i] = byte(key + uint64(i))
	}
	return v
}

func one(ns uint32, key uint64, v []byte) []PutRecord {
	return []PutRecord{{Namespace: ns, Key: key, Value: v}}
}

func TestPutGetRoundTrip(t *testing.T) {
	withRig(t, testFlashConfig(), nil, func(r *rig) {
		ns, err := r.dev.CreateNamespace(NamespaceAttrs{})
		if err != nil {
			t.Fatal(err)
		}
		for k := uint64(0); k < 50; k++ {
			if err := r.dev.Put(one(ns, k, val(k, 200))); err != nil {
				t.Fatal(err)
			}
		}
		for k := uint64(0); k < 50; k++ {
			got, err := r.dev.Get(ns, k)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, val(k, 200)) {
				t.Fatalf("key %d mismatch", k)
			}
		}
	})
}

func TestGetAfterFlushReadsFlash(t *testing.T) {
	withRig(t, testFlashConfig(), nil, func(r *rig) {
		ns, _ := r.dev.CreateNamespace(NamespaceAttrs{})
		if err := r.dev.Put(one(ns, 7, val(7, 300))); err != nil {
			t.Fatal(err)
		}
		r.dev.Flush()
		st := r.dev.Stats()
		if st.Programs == 0 {
			t.Fatal("flush programmed nothing")
		}
		got, err := r.dev.Get(ns, 7)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, val(7, 300)) {
			t.Fatal("mismatch from flash")
		}
		st = r.dev.Stats()
		if st.NVRAMHits != 0 {
			t.Fatal("expected a flash read, not an NVRAM hit")
		}
	})
}

// An idle Get of a flushed record costs its fixed transport and firmware
// charges plus one flash read of just the ECC sectors that hold the record,
// to the nanosecond: submission + dispatch + probes × ProbeCost +
// ReadLatency + sectors × 2.64 µs + completion. One log packs the records
// in Put order, so they sit where the cases say: within one sector (at and
// past chunk 0), across a sector boundary, and a 4 KB value over five.
func TestIdleGetRunsAtItsRoofline(t *testing.T) {
	fc := testFlashConfig()
	nc := nvme.DefaultConfig()
	sector := fc.TransferTime((fc.PageSize + fc.OOBSize) / (fc.PageSize / flash.ECCSectorSize))
	cases := []struct {
		name           string
		key            uint64
		size           int // value bytes
		chunk, sectors int
	}{
		{"one chunk at chunk 0", 1, 100, 0, 1},
		{"inside the first sector", 2, 5*128 - record.HeaderSize, 1, 1},
		{"across a sector boundary", 3, 512, 6, 2},
		{"a 4 KB value", 4, 4096, 11, 5},
	}
	withRig(t, fc, nil, func(r *rig) {
		ns, _ := r.dev.CreateNamespace(NamespaceAttrs{NumLogs: 1})
		for _, c := range cases {
			if err := r.dev.Put(one(ns, c.key, val(c.key, c.size))); err != nil {
				t.Fatal(err)
			}
		}
		r.dev.Flush()
		root, _ := r.dev.lookupNS(ns)
		for _, c := range cases {
			chain, _ := root.fam.chains.Lookup(c.key)
			raw, _, err := chain.Head().AtOrBefore(noCutoff)
			loc := location(raw)
			if err != nil || !loc.isFlash() || loc.chunk() != c.chunk {
				t.Fatalf("%s: key %d at %#x (%v), want flash chunk %d", c.name, c.key, raw, err, c.chunk)
			}
			before := r.dev.Stats()
			start := r.e.Now()
			got, err := r.dev.Get(ns, c.key)
			took := r.e.Now() - start
			if err != nil || !bytes.Equal(got, val(c.key, c.size)) {
				t.Fatalf("%s: Get = %d bytes, %v; want the value", c.name, len(got), err)
			}
			after := r.dev.Stats()
			probes := after.IndexProbes - before.IndexProbes
			want := nc.HostSoftware + nc.SubmissionLatency + nc.FirmwareFixedCost +
				time.Duration(probes)*nc.ProbeCost + fc.ReadLatency +
				time.Duration(c.sectors)*sector + nc.CompletionLatency
			if took != want || after.NVRAMHits != before.NVRAMHits {
				t.Errorf("%s: idle Get took %v, want %v (%d probes, %d sectors of %v)",
					c.name, took, want, probes, c.sectors, sector)
			}
		}
	})
}

// An idle Put of a key the table holds costs its transfers, the coalescer's
// grace for writers submitted at the same instant, and the firmware's fixed
// dispatch: the NVRAM commit overlaps the index update, and the completion's
// transfer follows the commit without holding the coalescer. At the default
// transport that is 30.10 µs, bench's kamlssd.put_idle_virt_us.
func TestIdlePutRunsAtItsRoofline(t *testing.T) {
	const grace = 100 * time.Nanosecond // cmdq's early cut for a lone writer
	nc := nvme.DefaultConfig()
	want := nc.HostSoftware + nc.SubmissionLatency + grace + nc.FirmwareFixedCost + nc.CompletionLatency
	withRig(t, testFlashConfig(), nil, func(r *rig) {
		ns, _ := r.dev.CreateNamespace(NamespaceAttrs{})
		for i := uint64(0); i < 3; i++ {
			start := r.e.Now()
			if err := r.dev.Put(one(ns, 1, val(i, 512))); err != nil {
				t.Fatal(err)
			}
			if took := r.e.Now() - start; i > 0 && took != want {
				t.Errorf("idle update %d took %v, want %v", i, took, want)
			}
		}
	})
	if want != 30100*time.Nanosecond {
		t.Errorf("the default transport's idle update costs %v; bench's kamlssd.put_idle_virt_us reads 30.10 µs", want)
	}
}

func TestGetFromNVRAMBeforeFlush(t *testing.T) {
	withRig(t, testFlashConfig(), nil, func(r *rig) {
		ns, _ := r.dev.CreateNamespace(NamespaceAttrs{})
		if err := r.dev.Put(one(ns, 1, val(1, 100))); err != nil {
			t.Fatal(err)
		}
		got, err := r.dev.Get(ns, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, val(1, 100)) {
			t.Fatal("mismatch")
		}
		if r.dev.Stats().NVRAMHits != 1 {
			t.Fatal("expected NVRAM hit before flush")
		}
	})
}

func TestUpdateReturnsLatest(t *testing.T) {
	withRig(t, testFlashConfig(), nil, func(r *rig) {
		ns, _ := r.dev.CreateNamespace(NamespaceAttrs{})
		for v := 0; v < 5; v++ {
			if err := r.dev.Put(one(ns, 3, val(uint64(v), 150))); err != nil {
				t.Fatal(err)
			}
			if v == 2 {
				r.dev.Flush()
			}
		}
		got, err := r.dev.Get(ns, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, val(4, 150)) {
			t.Fatal("not latest version")
		}
		r.dev.Flush()
		got, _ = r.dev.Get(ns, 3)
		if !bytes.Equal(got, val(4, 150)) {
			t.Fatal("not latest after flush")
		}
	})
}

func TestGetMissingKey(t *testing.T) {
	withRig(t, testFlashConfig(), nil, func(r *rig) {
		ns, _ := r.dev.CreateNamespace(NamespaceAttrs{})
		if _, err := r.dev.Get(ns, 42); !errors.Is(err, ErrKeyNotFound) {
			t.Fatalf("err=%v", err)
		}
	})
}

func TestNamespaceIsolation(t *testing.T) {
	withRig(t, testFlashConfig(), nil, func(r *rig) {
		ns1, _ := r.dev.CreateNamespace(NamespaceAttrs{})
		ns2, _ := r.dev.CreateNamespace(NamespaceAttrs{})
		r.dev.Put(one(ns1, 5, []byte("one")))
		r.dev.Put(one(ns2, 5, []byte("two")))
		g1, _ := r.dev.Get(ns1, 5)
		g2, _ := r.dev.Get(ns2, 5)
		if string(g1) != "one" || string(g2) != "two" {
			t.Fatalf("isolation broken: %q %q", g1, g2)
		}
		if _, err := r.dev.Get(99, 5); !errors.Is(err, ErrNoNamespace) {
			t.Fatalf("missing ns: %v", err)
		}
	})
}

func TestDeleteNamespace(t *testing.T) {
	withRig(t, testFlashConfig(), nil, func(r *rig) {
		ns, _ := r.dev.CreateNamespace(NamespaceAttrs{})
		r.dev.Put(one(ns, 1, []byte("x")))
		if err := r.dev.DeleteNamespace(ns); err != nil {
			t.Fatal(err)
		}
		if _, err := r.dev.Get(ns, 1); !errors.Is(err, ErrNoNamespace) {
			t.Fatalf("get after delete: %v", err)
		}
		if err := r.dev.DeleteNamespace(ns); !errors.Is(err, ErrNoNamespace) {
			t.Fatalf("double delete: %v", err)
		}
	})
}

func TestBatchPutAtomicVisibility(t *testing.T) {
	withRig(t, testFlashConfig(), nil, func(r *rig) {
		ns, _ := r.dev.CreateNamespace(NamespaceAttrs{})
		batch := make([]PutRecord, 10)
		for i := range batch {
			batch[i] = PutRecord{Namespace: ns, Key: uint64(i), Value: val(uint64(i), 100)}
		}
		if err := r.dev.Put(batch); err != nil {
			t.Fatal(err)
		}
		for i := range batch {
			got, err := r.dev.Get(ns, uint64(i))
			if err != nil || !bytes.Equal(got, batch[i].Value) {
				t.Fatalf("record %d: %v", i, err)
			}
		}
	})
}

// Stats.Puts counts logical Put commands, not batch commits: a group
// commit carrying N merged Puts must add N (CoalescerBatches counts the
// commits themselves).
func TestStatsCountLogicalPutsUnderCoalescing(t *testing.T) {
	withRig(t, testFlashConfig(), nil, func(r *rig) {
		ns, err := r.dev.CreateNamespace(NamespaceAttrs{})
		if err != nil {
			t.Fatal(err)
		}
		// One submitter issues every Put before parking, so the coalescer
		// windows see all of them pending and merging is guaranteed.
		const n = 16
		futs := make([]*cmdq.Future, n)
		for i := 0; i < n; i++ {
			futs[i] = r.dev.SubmitPut(one(ns, uint64(i), val(uint64(i), 64)))
		}
		for i, f := range futs {
			if res := f.Wait(); res.Err != nil {
				t.Fatalf("put %d: %v", i, res.Err)
			}
		}
		st := r.dev.Stats()
		if st.CoalescedPuts == 0 {
			t.Error("no puts coalesced; the merged-commit accounting path was not exercised")
		}
		if st.Puts != n {
			t.Errorf("Stats.Puts=%d, want %d logical commands", st.Puts, n)
		}
		if st.PutRecords != n {
			t.Errorf("Stats.PutRecords=%d, want %d", st.PutRecords, n)
		}
	})
}

// A Put to a read-only snapshot namespace only fails at exec time (host
// validation cannot pre-check namespace state race-free), so when the
// coalescer merges it with innocent concurrent writes the rejection must
// land on its own future alone — every neighbor commits normally.
func TestCoalescedReadOnlyPutFailsAlone(t *testing.T) {
	withRig(t, testFlashConfig(), nil, func(r *rig) {
		ns, err := r.dev.CreateNamespace(NamespaceAttrs{})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.dev.Put(one(ns, 1, []byte("seed"))); err != nil {
			t.Fatal(err)
		}
		snap, err := r.dev.SnapshotNamespace(ns)
		if err != nil {
			t.Fatal(err)
		}
		// Submit the doomed write surrounded by innocent ones, all before
		// parking, so the coalescer very likely merges it with neighbors.
		const n = 24
		bad := r.dev.SubmitPut(one(snap, 1, []byte("x")))
		futs := make([]*cmdq.Future, 0, n)
		for i := 0; i < n; i++ {
			futs = append(futs, r.dev.SubmitPut(one(ns, uint64(100+i), val(uint64(i), 32))))
		}
		if res := bad.Wait(); !errors.Is(res.Err, ErrReadOnly) {
			t.Errorf("snapshot put: %v, want ErrReadOnly", res.Err)
		}
		for i, f := range futs {
			if res := f.Wait(); res.Err != nil {
				t.Errorf("innocent put %d failed: %v", i, res.Err)
			}
		}
		for i := 0; i < n; i++ {
			if _, err := r.dev.Get(ns, uint64(100+i)); err != nil {
				t.Errorf("get %d: %v", i, err)
			}
		}
	})
}

// A batch may name more namespaces than the stack buffers hold, in any
// order. It commits whole, and whether it commits or a read-only namespace
// rejects it, every namespace it marked in flight is released again.
func TestBatchAcrossManyNamespaces(t *testing.T) {
	withRig(t, testFlashConfig(), nil, func(r *rig) {
		const nNS = stackBatch + 4
		ids := make([]uint32, nNS)
		for i := range ids {
			ids[i], _ = r.dev.CreateNamespace(NamespaceAttrs{})
		}
		var batch []PutRecord
		for k := uint64(0); k < 2; k++ {
			for i := nNS - 1; i >= 0; i -= 2 {
				batch = append(batch, PutRecord{Namespace: ids[i], Key: k, Value: val(k, 32)})
			}
			for i := 0; i < nNS; i += 2 {
				batch = append(batch, PutRecord{Namespace: ids[i], Key: k, Value: val(k, 32)})
			}
		}
		// A leaked mark would make snapshot creation wait forever, so check
		// before taking one.
		released := func(when string) {
			for _, id := range ids {
				ns, err := r.dev.lookupNS(id)
				if err != nil {
					t.Fatal(err)
				}
				if n := ns.pendingBatches.Load(); n != 0 {
					t.Fatalf("%s: ns %d still has %d batches marked in flight", when, id, n)
				}
			}
		}
		if err := r.dev.Put(batch); err != nil {
			t.Fatal(err)
		}
		released("after commit")
		for _, rec := range batch {
			got, err := r.dev.Get(rec.Namespace, rec.Key)
			if err != nil || !bytes.Equal(got, rec.Value) {
				t.Fatalf("ns %d key %d: %v", rec.Namespace, rec.Key, err)
			}
		}
		snap, err := r.dev.SnapshotNamespace(ids[0])
		if err != nil {
			t.Fatal(err)
		}
		bad := append(batch[:nNS:nNS], PutRecord{Namespace: snap, Key: 9, Value: []byte("x")})
		if err := r.dev.Put(bad); !errors.Is(err, ErrReadOnly) {
			t.Fatalf("batch naming a snapshot: %v, want ErrReadOnly", err)
		}
		released("after rejection")
	})
}

func TestBatchDuplicateKeyRejected(t *testing.T) {
	withRig(t, testFlashConfig(), nil, func(r *rig) {
		ns, _ := r.dev.CreateNamespace(NamespaceAttrs{})
		batch := []PutRecord{
			{Namespace: ns, Key: 1, Value: []byte("a")},
			{Namespace: ns, Key: 1, Value: []byte("b")},
		}
		if err := r.dev.Put(batch); !errors.Is(err, ErrBadBatch) {
			t.Fatalf("err=%v", err)
		}
	})
}

func TestValueTooLarge(t *testing.T) {
	withRig(t, testFlashConfig(), nil, func(r *rig) {
		ns, _ := r.dev.CreateNamespace(NamespaceAttrs{})
		big := make([]byte, testFlashConfig().PageSize)
		if err := r.dev.Put(one(ns, 1, big)); !errors.Is(err, ErrValueTooLarge) {
			t.Fatalf("err=%v", err)
		}
	})
}

func TestIndexFullRollsBackAtomically(t *testing.T) {
	withRig(t, testFlashConfig(), nil, func(r *rig) {
		ns, _ := r.dev.CreateNamespace(NamespaceAttrs{IndexCapacity: 8})
		// Fill the 8-slot table.
		for k := uint64(0); k < 8; k++ {
			if err := r.dev.Put(one(ns, k, []byte("v"))); err != nil {
				t.Fatal(err)
			}
		}
		// A batch that updates existing key 0 and inserts a new key: the
		// insert fails (table full) and the update must roll back.
		batch := []PutRecord{
			{Namespace: ns, Key: 0, Value: []byte("NEW")},
			{Namespace: ns, Key: 100, Value: []byte("overflow")},
		}
		if err := r.dev.Put(batch); !errors.Is(err, ErrIndexFull) {
			t.Fatalf("err=%v", err)
		}
		got, err := r.dev.Get(ns, 0)
		if err != nil || string(got) != "v" {
			t.Fatalf("rollback failed: %q %v", got, err)
		}
		if _, err := r.dev.Get(ns, 100); !errors.Is(err, ErrKeyNotFound) {
			t.Fatalf("phantom insert: %v", err)
		}
	})
}

func TestVariableSizedValues(t *testing.T) {
	withRig(t, testFlashConfig(), nil, func(r *rig) {
		ns, _ := r.dev.CreateNamespace(NamespaceAttrs{})
		rng := rand.New(rand.NewSource(5))
		sizes := map[uint64]int{}
		for k := uint64(0); k < 60; k++ {
			size := rng.Intn(4000) + 1
			sizes[k] = size
			if err := r.dev.Put(one(ns, k, val(k, size))); err != nil {
				t.Fatal(err)
			}
		}
		r.dev.Flush()
		for k, size := range sizes {
			got, err := r.dev.Get(ns, k)
			if err != nil || !bytes.Equal(got, val(k, size)) {
				t.Fatalf("key %d size %d: %v", k, size, err)
			}
		}
	})
}

func TestGCReclaimsUnderChurn(t *testing.T) {
	fc := testFlashConfig()
	withRig(t, fc, nil, func(r *rig) {
		ns, _ := r.dev.CreateNamespace(NamespaceAttrs{})
		// Values sized so a handful fill a page; churn a small hot set far
		// beyond raw capacity so GC must reclaim superseded versions.
		raw := fc.TotalPages() * fc.PageSize
		valueSize := 1000
		writes := raw/valueSize + raw/valueSize/2
		hot := uint64(40)
		rng := rand.New(rand.NewSource(9))
		latest := map[uint64]uint64{}
		for i := 0; i < writes; i++ {
			k := uint64(rng.Intn(int(hot)))
			ver := uint64(i)
			if err := r.dev.Put(one(ns, k, val(ver, valueSize))); err != nil {
				t.Fatalf("put %d: %v", i, err)
			}
			latest[k] = ver
		}
		r.dev.Flush()
		for k, ver := range latest {
			got, err := r.dev.Get(ns, k)
			if err != nil || !bytes.Equal(got, val(ver, valueSize)) {
				t.Fatalf("key %d after GC churn: %v", k, err)
			}
		}
		if r.dev.Stats().GCErases == 0 {
			t.Fatal("GC never ran")
		}
	})
}

func TestConcurrentPutsAndGets(t *testing.T) {
	fc := testFlashConfig()
	r := newRig(fc, nil)
	r.e.Go("main", func() {
		ns, _ := r.dev.CreateNamespace(NamespaceAttrs{})
		const workers = 6
		const perWorker = 80
		wg := r.e.NewWaitGroup()
		for w := 0; w < workers; w++ {
			w := w
			wg.Add(1)
			r.e.Go(fmt.Sprintf("w%d", w), func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(w)))
				for i := 0; i < perWorker; i++ {
					k := uint64(w*1000 + i)
					if err := r.dev.Put(one(ns, k, val(k, rng.Intn(900)+1))); err != nil {
						t.Errorf("put: %v", err)
						return
					}
					if i%3 == 0 {
						if _, err := r.dev.Get(ns, k); err != nil {
							t.Errorf("get: %v", err)
							return
						}
					}
				}
			})
		}
		wg.Wait()
		r.dev.Flush()
		for w := 0; w < workers; w++ {
			for i := 0; i < perWorker; i++ {
				k := uint64(w*1000 + i)
				if _, err := r.dev.Get(ns, k); err != nil {
					t.Errorf("final get %d: %v", k, err)
				}
			}
		}
		r.dev.Close()
	})
	r.e.Wait()
}

func TestPutLatencyIsNVRAMFast(t *testing.T) {
	// The headline latency result (Fig. 6b): Put of a small record is a
	// logical commit into NVRAM, far faster than a flash program.
	fc := testFlashConfig()
	withRig(t, fc, nil, func(r *rig) {
		ns, _ := r.dev.CreateNamespace(NamespaceAttrs{})
		r.dev.Put(one(ns, 1, val(1, 512))) // warm up
		start := r.e.Now()
		if err := r.dev.Put(one(ns, 2, val(2, 512))); err != nil {
			t.Fatal(err)
		}
		lat := r.e.Now() - start
		if lat >= fc.ProgramLatency {
			t.Fatalf("Put latency %v should be below program latency %v", lat, fc.ProgramLatency)
		}
	})
}

func TestSetNamespaceLogsClamps(t *testing.T) {
	withRig(t, testFlashConfig(), nil, func(r *rig) {
		ns, _ := r.dev.CreateNamespace(NamespaceAttrs{})
		if err := r.dev.SetNamespaceLogs(ns, 1000); err != nil {
			t.Fatal(err)
		}
		if err := r.dev.SetNamespaceLogs(ns, 0); err != nil {
			t.Fatal(err)
		}
		if err := r.dev.SetNamespaceLogs(999, 2); !errors.Is(err, ErrNoNamespace) {
			t.Fatalf("err=%v", err)
		}
		// Still writable after retuning.
		if err := r.dev.Put(one(ns, 1, []byte("x"))); err != nil {
			t.Fatal(err)
		}
	})
}

func TestCrashRecoveryPreservesAckedPuts(t *testing.T) {
	fc := testFlashConfig()
	e := sim.NewEngine()
	arr := flash.New(e, fc)
	ctrl := nvme.New(e, nvme.DefaultConfig())
	cfg := DefaultConfig(fc)
	cfg.NumLogs = 4
	dev := New(arr, ctrl, cfg)
	e.Go("crash-test", func() {
		ns, _ := dev.CreateNamespace(NamespaceAttrs{})
		for k := uint64(0); k < 30; k++ {
			if err := dev.Put(one(ns, k, val(k, 700))); err != nil {
				t.Errorf("put: %v", err)
				return
			}
		}
		// Power cut: nothing flushed (except full pages sealed en route).
		dev2, err := powerCycle(dev, arr, ctrl)
		if err != nil {
			t.Errorf("recover: %v", err)
			return
		}
		defer dev2.Close()
		for k := uint64(0); k < 30; k++ {
			got, err := dev2.Get(ns, k)
			if err != nil || !bytes.Equal(got, val(k, 700)) {
				t.Errorf("key %d lost in crash: %v", k, err)
				return
			}
		}
		// The recovered device keeps working and can drain to flash.
		dev2.Flush()
		for k := uint64(0); k < 30; k++ {
			if _, err := dev2.Get(ns, k); err != nil {
				t.Errorf("key %d after drain: %v", k, err)
				return
			}
		}
	})
	e.Wait()
}

func TestCrashMidFlushReplaysInflight(t *testing.T) {
	fc := testFlashConfig()
	e := sim.NewEngine()
	arr := flash.New(e, fc)
	ctrl := nvme.New(e, nvme.DefaultConfig())
	cfg := DefaultConfig(fc)
	cfg.NumLogs = 2
	dev := New(arr, ctrl, cfg)
	e.Go("crash-test", func() {
		ns, _ := dev.CreateNamespace(NamespaceAttrs{})
		for k := uint64(0); k < 200; k++ {
			if err := dev.Put(one(ns, k, val(k, 900))); err != nil {
				t.Errorf("put: %v", err)
				return
			}
		}
		// Crash while flushers are busy: some pages programmed, some
		// in flight, some still in NVRAM.
		dev2, err := powerCycle(dev, arr, ctrl)
		if err != nil {
			t.Errorf("recover: %v", err)
			return
		}
		defer dev2.Close()
		dev2.Flush()
		for k := uint64(0); k < 200; k++ {
			got, gerr := dev2.Get(ns, k)
			if gerr != nil || !bytes.Equal(got, val(k, 900)) {
				t.Errorf("key %d lost: %v", k, gerr)
				return
			}
		}
	})
	e.Wait()
}

func TestWriteAmplificationTracked(t *testing.T) {
	withRig(t, testFlashConfig(), nil, func(r *rig) {
		ns, _ := r.dev.CreateNamespace(NamespaceAttrs{})
		for k := uint64(0); k < 100; k++ {
			r.dev.Put(one(ns, k, val(k, 500)))
		}
		r.dev.Flush()
		st := r.dev.Stats()
		if st.BytesWritten != 100*500 {
			t.Fatalf("BytesWritten=%d", st.BytesWritten)
		}
		if st.FlashBytesWritten < st.BytesWritten {
			t.Fatalf("flash bytes %d < host bytes %d", st.FlashBytesWritten, st.BytesWritten)
		}
	})
}
