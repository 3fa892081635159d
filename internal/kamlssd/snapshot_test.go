package kamlssd

import (
	"bytes"
	"errors"
	"testing"
)

func TestSnapshotIsPointInTime(t *testing.T) {
	withRig(t, testFlashConfig(), nil, func(r *rig) {
		ns, _ := r.dev.CreateNamespace(NamespaceAttrs{})
		for k := uint64(0); k < 20; k++ {
			r.dev.Put(one(ns, k, val(k, 300)))
		}
		snap, err := r.dev.SnapshotNamespace(ns)
		if err != nil {
			t.Fatal(err)
		}
		// Mutate the origin after the snapshot.
		for k := uint64(0); k < 20; k++ {
			r.dev.Put(one(ns, k, val(k+1000, 300)))
		}
		r.dev.Put(one(ns, 99, []byte("new-key")))

		// Snapshot still shows the old world.
		for k := uint64(0); k < 20; k++ {
			v, err := r.dev.Get(snap, k)
			if err != nil || !bytes.Equal(v, val(k, 300)) {
				t.Fatalf("snapshot key %d: %v", k, err)
			}
		}
		if _, err := r.dev.Get(snap, 99); !errors.Is(err, ErrKeyNotFound) {
			t.Fatalf("key created after snapshot visible: %v", err)
		}
		// Origin shows the new world.
		v, _ := r.dev.Get(ns, 5)
		if !bytes.Equal(v, val(1005, 300)) {
			t.Fatal("origin lost its update")
		}
	})
}

func TestSnapshotIsReadOnly(t *testing.T) {
	withRig(t, testFlashConfig(), nil, func(r *rig) {
		ns, _ := r.dev.CreateNamespace(NamespaceAttrs{})
		r.dev.Put(one(ns, 1, []byte("x")))
		snap, _ := r.dev.SnapshotNamespace(ns)
		if err := r.dev.Put(one(snap, 1, []byte("y"))); !errors.Is(err, ErrReadOnly) {
			t.Fatalf("err=%v", err)
		}
	})
}

func TestSnapshotOfMissingNamespace(t *testing.T) {
	withRig(t, testFlashConfig(), nil, func(r *rig) {
		if _, err := r.dev.SnapshotNamespace(404); !errors.Is(err, ErrNoNamespace) {
			t.Fatalf("err=%v", err)
		}
	})
}

func TestSnapshotCapturesNVRAMResidentWrites(t *testing.T) {
	// A Put acknowledged before the snapshot still sits in NVRAM (its page is
	// not full); the snapshot must observe it, and the flusher must swing the
	// snapshot's index entry to flash too.
	withRig(t, testFlashConfig(), nil, func(r *rig) {
		ns, _ := r.dev.CreateNamespace(NamespaceAttrs{})
		r.dev.Put(one(ns, 7, []byte("buffered")))
		snap, err := r.dev.SnapshotNamespace(ns)
		if err != nil {
			t.Fatal(err)
		}
		v, err := r.dev.Get(snap, 7)
		if err != nil || string(v) != "buffered" {
			t.Fatalf("pre-flush: %q %v", v, err)
		}
		r.dev.Flush() // NVRAM drains; index entries swing to flash
		v, err = r.dev.Get(snap, 7)
		if err != nil || string(v) != "buffered" {
			t.Fatalf("post-flush: %q %v", v, err)
		}
	})
}

func TestSnapshotSurvivesGCChurn(t *testing.T) {
	// After heavy churn on the origin, the snapshot's records are garbage
	// from the origin's point of view but must survive GC because the
	// snapshot still references them.
	fc := testFlashConfig()
	withRig(t, fc, func(c *Config) { c.NumLogs = 2 }, func(r *rig) {
		ns, _ := r.dev.CreateNamespace(NamespaceAttrs{})
		for k := uint64(0); k < 30; k++ {
			r.dev.Put(one(ns, k, val(k, 800)))
		}
		r.dev.Flush()
		snap, err := r.dev.SnapshotNamespace(ns)
		if err != nil {
			t.Fatal(err)
		}
		// Churn the origin far beyond raw capacity: GC must run and must
		// preserve the snapshot's versions while collecting the origin's
		// dead ones.
		raw := fc.TotalPages() * fc.PageSize
		writes := raw / 800
		for i := 0; i < writes; i++ {
			k := uint64(i % 30)
			if err := r.dev.Put(one(ns, k, val(k+uint64(i), 800))); err != nil {
				t.Fatalf("churn %d: %v", i, err)
			}
		}
		r.dev.Flush()
		if r.dev.Stats().GCErases == 0 {
			t.Fatal("GC never ran")
		}
		for k := uint64(0); k < 30; k++ {
			v, err := r.dev.Get(snap, k)
			if err != nil || !bytes.Equal(v, val(k, 800)) {
				t.Fatalf("snapshot key %d after churn: %v", k, err)
			}
		}
	})
}

func TestDeleteOriginKeepsSnapshot(t *testing.T) {
	withRig(t, testFlashConfig(), nil, func(r *rig) {
		ns, _ := r.dev.CreateNamespace(NamespaceAttrs{})
		for k := uint64(0); k < 10; k++ {
			r.dev.Put(one(ns, k, val(k, 200)))
		}
		r.dev.Flush()
		snap, _ := r.dev.SnapshotNamespace(ns)
		if err := r.dev.DeleteNamespace(ns); err != nil {
			t.Fatal(err)
		}
		for k := uint64(0); k < 10; k++ {
			v, err := r.dev.Get(snap, k)
			if err != nil || !bytes.Equal(v, val(k, 200)) {
				t.Fatalf("snapshot key %d after origin delete: %v", k, err)
			}
		}
	})
}

// Deleting a namespace releases the flash space of every version no
// surviving snapshot sees — the chain heads included: a deleted root has no
// settled floor to keep them, because nobody can begin a read of it. The
// per-block valid-byte counters GC scores victims by must say so.
func TestDeleteNamespaceDiscountsItsVersions(t *testing.T) {
	withRig(t, testFlashConfig(), nil, func(r *rig) {
		validBytes := func() (n int64) {
			for _, lg := range r.dev.logs {
				lg.mu.Lock()
				for _, lc := range lg.chips {
					for _, b := range lc.blocks {
						n += b.validBytes
					}
				}
				lg.mu.Unlock()
			}
			return n
		}
		ns, _ := r.dev.CreateNamespace(NamespaceAttrs{})
		for k := uint64(0); k < 50; k++ {
			r.dev.Put(one(ns, k, val(k, 200)))
		}
		r.dev.Flush()
		snap, _ := r.dev.SnapshotNamespace(ns)
		for k := uint64(0); k < 10; k++ {
			r.dev.Put(one(ns, k, val(k+100, 200))) // versions only the root sees
		}
		r.dev.Flush()
		perRecord := validBytes() / 60
		if err := r.dev.DeleteNamespace(ns); err != nil {
			t.Fatal(err)
		}
		if got := validBytes(); got != 50*perRecord {
			t.Fatalf("valid bytes after deleting the root: %d, want the snapshot's 50 records (%d)", got, 50*perRecord)
		}
		if err := r.dev.DeleteNamespace(snap); err != nil {
			t.Fatal(err)
		}
		if got := validBytes(); got != 0 {
			t.Fatalf("valid bytes after deleting the whole family: %d", got)
		}
	})
}

func TestDeleteSnapshotReleasesRecords(t *testing.T) {
	fc := testFlashConfig()
	withRig(t, fc, func(c *Config) { c.NumLogs = 2 }, func(r *rig) {
		ns, _ := r.dev.CreateNamespace(NamespaceAttrs{})
		for k := uint64(0); k < 30; k++ {
			r.dev.Put(one(ns, k, val(k, 800)))
		}
		r.dev.Flush()
		snap, _ := r.dev.SnapshotNamespace(ns)
		if err := r.dev.DeleteNamespace(snap); err != nil {
			t.Fatal(err)
		}
		// With the snapshot gone, heavy churn must succeed (its records are
		// collectible again).
		raw := fc.TotalPages() * fc.PageSize
		for i := 0; i < raw/800; i++ {
			k := uint64(i % 30)
			if err := r.dev.Put(one(ns, k, val(uint64(i), 800))); err != nil {
				t.Fatalf("churn after snapshot delete: %v", err)
			}
		}
	})
}

func TestSnapshotOfSnapshot(t *testing.T) {
	withRig(t, testFlashConfig(), nil, func(r *rig) {
		ns, _ := r.dev.CreateNamespace(NamespaceAttrs{})
		r.dev.Put(one(ns, 1, []byte("v1")))
		s1, _ := r.dev.SnapshotNamespace(ns)
		r.dev.Put(one(ns, 1, []byte("v2")))
		s2, err := r.dev.SnapshotNamespace(s1)
		if err != nil {
			t.Fatal(err)
		}
		v, err := r.dev.Get(s2, 1)
		if err != nil || string(v) != "v1" {
			t.Fatalf("snapshot-of-snapshot: %q %v", v, err)
		}
	})
}

func TestSnapshotSurvivesCrash(t *testing.T) {
	fc := testFlashConfig()
	r := newRig(fc, nil)
	r.e.Go("main", func() {
		ns, _ := r.dev.CreateNamespace(NamespaceAttrs{})
		for k := uint64(0); k < 10; k++ {
			r.dev.Put(one(ns, k, val(k, 300)))
		}
		snap, _ := r.dev.SnapshotNamespace(ns)
		r.dev.Put(one(ns, 3, []byte("post-snapshot")))

		dev2, err := powerCycle(r.dev, r.arr, r.ctrl)
		if err != nil {
			t.Errorf("recover: %v", err)
			return
		}
		defer dev2.Close()
		v, err := dev2.Get(snap, 3)
		if err != nil || !bytes.Equal(v, val(3, 300)) {
			t.Errorf("snapshot after crash: %v", err)
		}
		if err := dev2.Put(one(snap, 1, []byte("x"))); !errors.Is(err, ErrReadOnly) {
			t.Errorf("snapshot writable after crash: %v", err)
		}
	})
	r.e.Wait()
}

func TestTreeIndexNamespace(t *testing.T) {
	withRig(t, testFlashConfig(), nil, func(r *rig) {
		ns, err := r.dev.CreateNamespace(NamespaceAttrs{Index: IndexTree})
		if err != nil {
			t.Fatal(err)
		}
		for k := uint64(0); k < 500; k++ {
			if err := r.dev.Put(one(ns, k, val(k, 100))); err != nil {
				t.Fatalf("put %d: %v", k, err)
			}
		}
		r.dev.Flush()
		for k := uint64(0); k < 500; k++ {
			v, err := r.dev.Get(ns, k)
			if err != nil || !bytes.Equal(v, val(k, 100)) {
				t.Fatalf("get %d: %v", k, err)
			}
		}
		if _, err := r.dev.Get(ns, 9999); !errors.Is(err, ErrKeyNotFound) {
			t.Fatalf("missing key: %v", err)
		}
		// No load-factor ceiling: a tree namespace accepts far more keys
		// than any fixed hash capacity.
		for k := uint64(1000); k < 1600; k++ {
			if err := r.dev.Put(one(ns, k, val(k, 100))); err != nil {
				t.Fatalf("tree growth put %d: %v", k, err)
			}
		}
		// Snapshots work on tree namespaces too.
		snap, err := r.dev.SnapshotNamespace(ns)
		if err != nil {
			t.Fatal(err)
		}
		r.dev.Put(one(ns, 42, []byte("mutated")))
		v, err := r.dev.Get(snap, 42)
		if err != nil || !bytes.Equal(v, val(42, 100)) {
			t.Fatalf("tree snapshot: %v", err)
		}
	})
}

func TestTreeIndexCrashRestore(t *testing.T) {
	fc := testFlashConfig()
	r := newRig(fc, nil)
	r.e.Go("main", func() {
		ns, _ := r.dev.CreateNamespace(NamespaceAttrs{Index: IndexTree})
		for k := uint64(0); k < 80; k++ {
			r.dev.Put(one(ns, k, val(k, 250)))
		}
		dev2, err := powerCycle(r.dev, r.arr, r.ctrl)
		if err != nil {
			t.Errorf("recover: %v", err)
			return
		}
		defer dev2.Close()
		for k := uint64(0); k < 80; k++ {
			v, err := dev2.Get(ns, k)
			if err != nil || !bytes.Equal(v, val(k, 250)) {
				t.Errorf("key %d after crash: %v", k, err)
				return
			}
		}
	})
	r.e.Wait()
}
