package kamlssd

import (
	"bytes"
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
		perKey := float64(fam.chains.MemoryBytes()) / keys
		if perKey > 130 {
			t.Fatalf("index DRAM %.1f B/key, budget 130", perKey)
		}
		t.Logf("index DRAM %.1f B/key", perKey)
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
