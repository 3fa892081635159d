package kamlssd

import (
	"bytes"
	"errors"
	"testing"
)

// A family mounts exactly one key-indexed structure — the version chains
// over their directory — so that structure's footprint is the namespace's
// whole index DRAM. At load factor 0.4 with one version per key that is an
// 80 B directory share and a 48 B cell holding the key's only node; the
// budget leaves two bytes of slack for arena rounding. (With the second table PR 9 kept beside
// the chains this was 208 B.)
func TestIndexDRAMPerKey(t *testing.T) {
	const (
		slots = 1 << 16
		keys  = slots * 4 / 10
	)
	fc := testFlashConfig()
	fc.BlocksPerChip = 64
	withRig(t, fc, nil, func(r *rig) {
		ns, err := r.dev.CreateNamespace(NamespaceAttrs{IndexCapacity: slots})
		if err != nil {
			t.Fatal(err)
		}
		batch := make([]PutRecord, 0, 8)
		for k := uint64(0); k < keys; k++ {
			batch = append(batch, PutRecord{Namespace: ns, Key: k, Value: []byte("v")})
			if len(batch) == cap(batch) || k == keys-1 {
				if err := r.dev.Put(batch); err != nil {
					t.Fatalf("put: %v", err)
				}
				batch = batch[:0]
			}
		}
		r.dev.Flush()
		lf, err := r.dev.IndexLoadFactor(ns)
		if err != nil || lf < 0.399 || lf > 0.4 {
			t.Fatalf("load factor %.4f (%v), want 0.4", lf, err)
		}
		if k, v, _, _ := r.dev.VersionStats(ns); k != keys || v != keys {
			t.Fatalf("%d keys, %d versions, want %d single-version keys", k, v, keys)
		}
		fam := r.dev.namespaces[ns].fam
		perKey := float64(fam.chains.Load().MemoryBytes()) / keys
		if perKey > 130 {
			t.Fatalf("index DRAM %.1f B/key, budget 130", perKey)
		}
		t.Logf("index DRAM %.1f B/key", perKey)
	})
}

// Swap-out releases the family's whole index — there is no second structure
// left resident — and every kind of access mounts it again: a root Get, a
// snapshot Get, and, once the root is deleted with the table still on flash,
// the surviving snapshot's reads after GC has moved the swapped pages.
func TestSwapOutReleasesWholeIndex(t *testing.T) {
	fc := testFlashConfig()
	withRig(t, fc, func(c *Config) { c.NumLogs = 2 }, func(r *rig) {
		ns, _ := r.dev.CreateNamespace(NamespaceAttrs{IndexCapacity: 256})
		for k := uint64(0); k < 100; k++ {
			r.dev.Put(one(ns, k, val(k, 200)))
		}
		snap, err := r.dev.SnapshotNamespace(ns)
		if err != nil {
			t.Fatal(err)
		}
		for k := uint64(0); k < 100; k += 10 {
			r.dev.Put(one(ns, k, val(k+1000, 200))) // the snapshot keeps the old version
		}
		fam := r.dev.namespaces[ns].fam
		swapOut := func() {
			t.Helper()
			r.dev.Flush()
			if err := r.dev.SwapOutIndex(ns); err != nil {
				t.Fatal(err)
			}
			if fam.chains.Load() != nil {
				t.Fatal("swap-out left the mapping table resident")
			}
		}
		swapOut()
		if v, err := r.dev.Get(snap, 10); err != nil || !bytes.Equal(v, val(10, 200)) {
			t.Fatalf("snapshot read of a swapped family: %v", err)
		}
		if fam.chains.Load() == nil {
			t.Fatal("the read did not mount the table")
		}
		swapOut()
		if v, err := r.dev.Get(ns, 10); err != nil || !bytes.Equal(v, val(1010, 200)) {
			t.Fatalf("root read of a swapped family: %v", err)
		}

		// Delete the root while its table is on flash: the snapshot keeps the
		// family, and with it the swapped pages, alive through GC.
		swapOut()
		if err := r.dev.DeleteNamespace(ns); err != nil {
			t.Fatal(err)
		}
		for _, p := range fam.root.swapPages {
			if !r.dev.indexPageLive(p) {
				t.Fatalf("GC would drop swapped page %d of the deleted root", p)
			}
		}
		hot, _ := r.dev.CreateNamespace(NamespaceAttrs{})
		raw := fc.TotalPages() * fc.PageSize
		for i := 0; i < raw/1000; i++ {
			if err := r.dev.Put(one(hot, uint64(i%20), val(uint64(i), 1000))); err != nil {
				t.Fatalf("churn: %v", err)
			}
		}
		for k := uint64(0); k < 100; k++ {
			if v, err := r.dev.Get(snap, k); err != nil || !bytes.Equal(v, val(k, 200)) {
				t.Fatalf("snapshot key %d after root delete + GC: %v", k, err)
			}
		}
	})
}

// Tree-kind parity for the reads that resolve through the btree directory:
// time travel and snapshots over an IndexTree namespace.
func TestTreeIndexSnapshotAndGetAt(t *testing.T) {
	withRig(t, testFlashConfig(), nil, func(r *rig) {
		ns, err := r.dev.CreateNamespace(NamespaceAttrs{Index: IndexTree})
		if err != nil {
			t.Fatal(err)
		}
		for k := uint64(0); k < 300; k++ {
			if err := r.dev.Put(one(ns, k, val(k, 100))); err != nil {
				t.Fatal(err)
			}
		}
		ts := r.dev.PinCurrent()
		defer r.dev.ReleasePin(ts)
		snap, err := r.dev.SnapshotNamespace(ns)
		if err != nil {
			t.Fatal(err)
		}
		for k := uint64(0); k < 300; k += 7 {
			if err := r.dev.Put(one(ns, k, val(k+5000, 100))); err != nil {
				t.Fatal(err)
			}
		}
		r.dev.Flush()
		for k := uint64(0); k < 300; k += 7 {
			if v, err := r.dev.GetAt(ns, k, ts); err != nil || !bytes.Equal(v, val(k, 100)) {
				t.Fatalf("GetAt key %d @%d: %v", k, ts, err)
			}
			if v, err := r.dev.Get(snap, k); err != nil || !bytes.Equal(v, val(k, 100)) {
				t.Fatalf("snapshot key %d: %v", k, err)
			}
			if v, err := r.dev.Get(ns, k); err != nil || !bytes.Equal(v, val(k+5000, 100)) {
				t.Fatalf("root key %d: %v", k, err)
			}
		}
		keys, err := r.dev.NamespaceKeys(snap)
		if err != nil || len(keys) != 300 || keys[0] != 0 || keys[299] != 299 {
			t.Fatalf("NamespaceKeys(snapshot): %d keys, %v", len(keys), err)
		}
		if lf, err := r.dev.IndexLoadFactor(ns); err != nil || lf != 0 {
			t.Fatalf("tree load factor %v, %v; a tree has none", lf, err)
		}
	})
}

// A Put batch that aborts after staging leaves its already-routed records in
// a packer with no chain node behind them. When swap-out wins the race — the
// abort brought pendingBatches back to zero and left the serialized table
// unchanged — the flusher installs those records against a family whose table
// is on flash: there is nothing to swing, and the install must say so rather
// than dereference the unmounted table.
func TestSwapOutRacesAbortedPut(t *testing.T) {
	r := newRig(testFlashConfig(), func(c *Config) { c.NumLogs = 2 })
	r.e.Go("main", func() {
		defer r.dev.Close()
		ns, _ := r.dev.CreateNamespace(NamespaceAttrs{IndexCapacity: 8})
		for k := uint64(0); k < 8; k++ {
			if err := r.dev.Put(one(ns, k, val(k, 200))); err != nil {
				t.Fatal(err)
			}
		}
		r.dev.Flush()
		wg := r.e.NewWaitGroup()
		wg.Add(2)
		r.e.Go("aborter", func() {
			defer wg.Done()
			// Updating key 0 routes a record to a packer; the insert of a ninth
			// key then finds the table full and the batch rolls back.
			batch := []PutRecord{
				{Namespace: ns, Key: 0, Value: val(99, 200)},
				{Namespace: ns, Key: 100, Value: val(100, 200)},
			}
			for i := 0; i < 400; i++ {
				if err := r.dev.Put(batch); !errors.Is(err, ErrIndexFull) {
					t.Errorf("put %d: %v, want ErrIndexFull", i, err)
					return
				}
			}
		})
		swaps := 0
		r.e.Go("swapper", func() {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				if r.dev.SwapOutIndex(ns) == nil {
					swaps++
				}
				if v, err := r.dev.Get(ns, 0); err != nil || !bytes.Equal(v, val(0, 200)) {
					t.Errorf("get after swap %d: %v", i, err)
					return
				}
			}
		})
		wg.Wait()
		if swaps == 0 {
			t.Error("no swap-out ever won the race; the test exercised nothing")
		}
	})
	r.e.Wait()
}
