package kaml_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	kaml "github.com/kaml-ssd/kaml"
)

// withDevice runs fn as a simulation actor on a small device.
func withDevice(t *testing.T, fn func(dev *kaml.Device)) {
	t.Helper()
	dev, err := kaml.Open(kaml.SmallOptions())
	if err != nil {
		t.Fatal(err)
	}
	dev.Go(func() {
		defer dev.Close()
		fn(dev)
	})
	dev.Wait()
}

func TestOpenValidatesConfig(t *testing.T) {
	opts := kaml.DefaultOptions()
	opts.Flash.Channels = 0
	if _, err := kaml.Open(opts); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	withDevice(t, func(dev *kaml.Device) {
		ns, err := dev.CreateNamespace(kaml.NamespaceOptions{ExpectedKeys: 100})
		if err != nil {
			t.Fatal(err)
		}
		if err := dev.Put(ns, 42, []byte("hello")); err != nil {
			t.Fatal(err)
		}
		v, err := dev.Get(ns, 42)
		if err != nil || string(v) != "hello" {
			t.Fatalf("%q %v", v, err)
		}
		if _, err := dev.Get(ns, 43); !errors.Is(err, kaml.ErrKeyNotFound) {
			t.Fatalf("missing key: %v", err)
		}
	})
}

func TestPutBatchAtomic(t *testing.T) {
	withDevice(t, func(dev *kaml.Device) {
		ns1, _ := dev.CreateNamespace(kaml.NamespaceOptions{})
		ns2, _ := dev.CreateNamespace(kaml.NamespaceOptions{})
		batch := []kaml.Record{
			{Namespace: ns1, Key: 1, Value: []byte("a")},
			{Namespace: ns2, Key: 1, Value: []byte("b")},
		}
		if err := dev.PutBatch(batch); err != nil {
			t.Fatal(err)
		}
		v1, _ := dev.Get(ns1, 1)
		v2, _ := dev.Get(ns2, 1)
		if string(v1) != "a" || string(v2) != "b" {
			t.Fatalf("%q %q", v1, v2)
		}
	})
}

func TestNamespaceLifecycle(t *testing.T) {
	withDevice(t, func(dev *kaml.Device) {
		ns, _ := dev.CreateNamespace(kaml.NamespaceOptions{Logs: 2})
		dev.Put(ns, 1, []byte("x"))
		if err := dev.TuneNamespaceLogs(ns, 4); err != nil {
			t.Fatal(err)
		}
		if err := dev.DeleteNamespace(ns); err != nil {
			t.Fatal(err)
		}
		if _, err := dev.Get(ns, 1); !errors.Is(err, kaml.ErrNoNamespace) {
			t.Fatalf("get after delete: %v", err)
		}
	})
}

func TestValueTooLarge(t *testing.T) {
	withDevice(t, func(dev *kaml.Device) {
		ns, _ := dev.CreateNamespace(kaml.NamespaceOptions{})
		big := make([]byte, kaml.SmallOptions().Flash.PageSize+1)
		if err := dev.Put(ns, 1, big); !errors.Is(err, kaml.ErrValueTooLarge) {
			t.Fatalf("err=%v", err)
		}
	})
}

func TestFlushDrainsToFlash(t *testing.T) {
	withDevice(t, func(dev *kaml.Device) {
		ns, _ := dev.CreateNamespace(kaml.NamespaceOptions{})
		for k := uint64(0); k < 30; k++ {
			dev.Put(ns, k, bytes.Repeat([]byte{byte(k)}, 400))
		}
		dev.Flush()
		if dev.Stats().Programs == 0 {
			t.Fatal("nothing programmed after Flush")
		}
		for k := uint64(0); k < 30; k++ {
			v, err := dev.Get(ns, k)
			if err != nil || !bytes.Equal(v, bytes.Repeat([]byte{byte(k)}, 400)) {
				t.Fatalf("key %d: %v", k, err)
			}
		}
	})
}

func TestTransactions(t *testing.T) {
	dev, err := kaml.Open(kaml.SmallOptions())
	if err != nil {
		t.Fatal(err)
	}
	cache := dev.NewCache(kaml.CacheOptions{CapacityBytes: 1 << 20})
	dev.Go(func() {
		defer dev.Close()
		tbl, err := cache.CreateTable("accounts", 100)
		if err != nil {
			t.Error(err)
			return
		}
		tx := cache.Begin()
		tx.Insert(tbl, 1, []byte("100"))
		tx.Insert(tbl, 2, []byte("200"))
		if err := tx.Commit(); err != nil {
			t.Error(err)
			return
		}
		tx.Free()

		// Transfer inside a transaction; abort leaves balances unchanged.
		tx2 := cache.Begin()
		tx2.Update(tbl, 1, []byte("0"))
		tx2.Update(tbl, 2, []byte("300"))
		tx2.Abort()
		tx2.Free()

		tx3 := cache.Begin()
		v1, _ := tx3.Read(tbl, 1)
		v2, _ := tx3.Read(tbl, 2)
		if string(v1) != "100" || string(v2) != "200" {
			t.Errorf("abort leaked: %q %q", v1, v2)
		}
		tx3.Commit()
		tx3.Free()
		if cache.HitRatio() <= 0 {
			t.Error("no cache hits recorded")
		}
	})
	dev.Wait()
}

func TestIsRetryable(t *testing.T) {
	if kaml.IsRetryable(kaml.ErrKeyNotFound) {
		t.Fatal("not-found is not retryable")
	}
	if !kaml.IsRetryable(fmt.Errorf("wrapped: %w", kaml.ErrTxnAborted)) {
		t.Fatal("wrapped abort should be retryable")
	}
}

func TestVirtualClockAdvances(t *testing.T) {
	withDevice(t, func(dev *kaml.Device) {
		ns, _ := dev.CreateNamespace(kaml.NamespaceOptions{})
		before := dev.Now()
		dev.Put(ns, 1, []byte("x"))
		if dev.Now() <= before {
			t.Fatal("Put cost no simulated time")
		}
	})
}

func TestSnapshots(t *testing.T) {
	withDevice(t, func(dev *kaml.Device) {
		ns, _ := dev.CreateNamespace(kaml.NamespaceOptions{})
		dev.Put(ns, 1, []byte("before"))
		snap, err := dev.Snapshot(ns)
		if err != nil {
			t.Fatal(err)
		}
		dev.Put(ns, 1, []byte("after"))
		v, err := dev.Get(snap, 1)
		if err != nil || string(v) != "before" {
			t.Fatalf("snapshot: %q %v", v, err)
		}
		if err := dev.Put(snap, 2, []byte("x")); !errors.Is(err, kaml.ErrReadOnly) {
			t.Fatalf("snapshot writable: %v", err)
		}
		if err := dev.DeleteNamespace(snap); err != nil {
			t.Fatal(err)
		}
	})
}

// TestQuickStartTimeTravel runs README's quick start on its default device:
// after the "newer" overwrite, the snapshot and GetAt at the pinned
// timestamp still read "hello", and every write advances CommitTS.
func TestQuickStartTimeTravel(t *testing.T) {
	dev, err := kaml.Open(kaml.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	dev.Go(func() {
		defer dev.Close()
		users, err := dev.CreateNamespace(kaml.NamespaceOptions{ExpectedKeys: 10_000})
		if err != nil {
			t.Fatal(err)
		}
		ts := dev.CommitTS()
		advanced := func(op string, err error) {
			if err != nil {
				t.Fatalf("%s: %v", op, err)
			}
			if now := dev.CommitTS(); now <= ts {
				t.Errorf("CommitTS after %s = %d, want past %d", op, now, ts)
			}
			ts = dev.CommitTS()
		}
		advanced("Put hello", dev.Put(users, 42, []byte("hello")))
		if v, err := dev.Get(users, 42); err != nil || string(v) != "hello" {
			t.Fatalf("Get = %q, %v; want hello", v, err)
		}
		advanced("PutBatch", dev.PutBatch([]kaml.Record{
			{Namespace: users, Key: 1, Value: []byte("a")},
			{Namespace: users, Key: 2, Value: []byte("b")},
		}))
		snap, err := dev.Snapshot(users)
		if err != nil {
			t.Fatal(err)
		}
		pin := dev.PinCurrent()
		advanced("Put newer", dev.Put(users, 42, []byte("newer")))
		for _, read := range []struct {
			name string
			get  func() ([]byte, error)
			want string
		}{
			{"Get(snap, 42)", func() ([]byte, error) { return dev.Get(snap, 42) }, "hello"},
			{"GetAt(users, 42, pin)", func() ([]byte, error) { return dev.GetAt(users, 42, pin) }, "hello"},
			{"Get(users, 42)", func() ([]byte, error) { return dev.Get(users, 42) }, "newer"},
		} {
			if v, err := read.get(); err != nil || string(v) != read.want {
				t.Errorf("%s = %q, %v; want %q", read.name, v, err, read.want)
			}
		}
		dev.ReleasePin(pin)
	})
	dev.Wait()
}

func TestTreeIndexOption(t *testing.T) {
	withDevice(t, func(dev *kaml.Device) {
		ns, err := dev.CreateNamespace(kaml.NamespaceOptions{TreeIndex: true})
		if err != nil {
			t.Fatal(err)
		}
		for k := uint64(0); k < 300; k++ {
			if err := dev.Put(ns, k, []byte{byte(k)}); err != nil {
				t.Fatal(err)
			}
		}
		v, err := dev.Get(ns, 123)
		if err != nil || v[0] != 123 {
			t.Fatalf("%v %v", v, err)
		}
	})
}

// TestPreloadWriteAmp loads a namespace the way the benchmarks do —
// PutBatch(8) of 512 B values, then Flush — and bounds what that programs.
// A 512 B record is 5 of a page's 64 chunks, so twelve fill a page with 4
// chunks over: 8192 / (12 x 512) = 1.33 flash bytes per user byte. (Dealing
// records round-robin over the logs and programming each log's page on a
// 50 µs timer measured 8.0 here — two records to a page on this 4-log
// device — and 16.5 on the 16-log board's preload.)
func TestPreloadWriteAmp(t *testing.T) {
	withDevice(t, func(dev *kaml.Device) {
		const keys, valueBytes, batch = 4096, 512, 8
		ns, err := dev.CreateNamespace(kaml.NamespaceOptions{ExpectedKeys: keys})
		if err != nil {
			t.Fatal(err)
		}
		val := bytes.Repeat([]byte{0xA5}, valueBytes)
		for base := uint64(0); base < keys; base += batch {
			recs := make([]kaml.Record, batch)
			for i := range recs {
				recs[i] = kaml.Record{Namespace: ns, Key: base + uint64(i), Value: val}
			}
			if err := dev.PutBatch(recs); err != nil {
				t.Fatal(err)
			}
		}
		dev.Flush()
		st := dev.Stats()
		if st.BytesWritten != keys*valueBytes {
			t.Fatalf("BytesWritten = %d, want %d", st.BytesWritten, keys*valueBytes)
		}
		if wa := float64(st.FlashBytesWritten) / float64(st.BytesWritten); wa > 1.5 {
			t.Errorf("preload write amplification %.2f (%d pages for %d records), want <= 1.5",
				wa, st.Programs, keys)
		}
		if st.GCErases != 0 {
			t.Errorf("preloading 2 MiB into a 32 MiB device erased %d blocks", st.GCErases)
		}
		// Flush means flushed: every key is now read from flash.
		before := dev.Stats().NVRAMHits
		for key := uint64(0); key < keys; key += 97 {
			if got, err := dev.Get(ns, key); err != nil || !bytes.Equal(got, val) {
				t.Fatalf("key %d after Flush: %v", key, err)
			}
		}
		if hits := dev.Stats().NVRAMHits - before; hits != 0 {
			t.Errorf("%d reads after Flush were served from NVRAM", hits)
		}
	})
}
