package kaml_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	kaml "github.com/kaml-ssd/kaml"
	"github.com/kaml-ssd/kaml/internal/flash"
	"github.com/kaml-ssd/kaml/internal/kamlssd"
)

// Edge-case tests the model checker's exploration motivated: each pins one
// narrow window of the write path where atomicity or durability could crack
// — the gap between NVRAM commit and flash install, a duplicate-key batch
// racing the coalescer, and a snapshot taken during an in-flight group
// commit.

// reopenRetry crashes the device and reopens it, retrying while a latched
// power cut keeps striking during recovery (same contract as crash_test.go).
func reopenRetry(d *kaml.Device) (*kaml.Device, error) {
	img := d.Crash()
	var err error
	for attempt := 0; attempt < 4; attempt++ {
		var re *kaml.Device
		re, err = kaml.Reopen(img)
		if err == nil {
			return re, nil
		}
	}
	return nil, fmt.Errorf("reopen: %w", err)
}

// TestCutBetweenCommitAndInstall acknowledges writes — single Puts and a
// multi-record batch — and cuts power WITHOUT a Flush, so the cut lands
// after the NVRAM commit markers but before (most of) the flash installs.
// The staging buffers are battery-backed: every acknowledged write must
// survive recovery byte-for-byte, and the batch must survive whole.
func TestCutBetweenCommitAndInstall(t *testing.T) {
	dev, err := kaml.Open(kaml.SmallOptions())
	if err != nil {
		t.Fatal(err)
	}
	var failure error
	dev.Go(func() {
		failure = func() error {
			ns, err := dev.CreateNamespace(kaml.NamespaceOptions{ExpectedKeys: 64})
			if err != nil {
				return err
			}
			expected := make(map[uint64][]byte)
			val := func(key uint64, gen int) []byte {
				return []byte(fmt.Sprintf("cut-test key=%d gen=%d", key, gen))
			}
			for key := uint64(0); key < 20; key++ {
				if err := dev.Put(ns, key, val(key, 0)); err != nil {
					return fmt.Errorf("put %d: %w", key, err)
				}
				expected[key] = val(key, 0)
			}
			batch := make([]kaml.Record, 0, 4)
			for key := uint64(30); key < 34; key++ {
				batch = append(batch, kaml.Record{Namespace: ns, Key: key, Value: val(key, 1)})
			}
			if err := dev.PutBatch(batch); err != nil {
				return fmt.Errorf("batch: %w", err)
			}
			for _, r := range batch {
				expected[r.Key] = r.Value
			}

			// No Flush: acked state may still be NVRAM-only. Cut now.
			dev.PowerCut()
			re, err := reopenRetry(dev)
			if err != nil {
				return err
			}
			defer re.Close()
			for key, want := range expected {
				got, err := re.Get(ns, key)
				if err != nil {
					return fmt.Errorf("acked key %d lost across cut: %w", key, err)
				}
				if !bytes.Equal(got, want) {
					return fmt.Errorf("key %d: got %q want %q", key, got, want)
				}
			}
			if st := re.Stats(); st.RecoveredRecords+st.ReplayedValues == 0 {
				return fmt.Errorf("recovery reports no recovered state (stats %+v)", st)
			}
			return nil
		}()
	})
	dev.Wait()
	if failure != nil {
		t.Fatal(failure)
	}
}

// TestDuplicateBatchRacingMergedCommit races a duplicate-key batch against
// valid writes flowing through the coalescer. The duplicate batch must fail
// with its own verdict — at the host layer (kaml validation) and at the
// device layer (cmdq validation before coalescing) — and must never drag a
// coalesced neighbor down with it or corrupt the key it names twice.
func TestDuplicateBatchRacingMergedCommit(t *testing.T) {
	dev, err := kaml.Open(kaml.SmallOptions())
	if err != nil {
		t.Fatal(err)
	}
	var failure error
	dev.Go(func() {
		failure = func() error {
			ns, err := dev.CreateNamespace(kaml.NamespaceOptions{ExpectedKeys: 64})
			if err != nil {
				return err
			}
			if err := dev.Put(ns, 3, []byte("old-3")); err != nil {
				return err
			}

			// All in flight together so the coalescer can merge the valid
			// traffic while the duplicate batches are being rejected.
			neighbor := dev.AsyncPutBatch([]kaml.Record{
				{Namespace: ns, Key: 1, Value: []byte("new-1")},
				{Namespace: ns, Key: 2, Value: []byte("new-2")},
			})
			hostDup := dev.AsyncPutBatch([]kaml.Record{
				{Namespace: ns, Key: 3, Value: []byte("dup-a")},
				{Namespace: ns, Key: 3, Value: []byte("dup-b")},
			})
			// Bypass host validation to prove the device rejects it too.
			devDup := dev.Raw().SubmitPut([]kamlssd.PutRecord{
				{Namespace: uint32(ns), Key: 3, Value: []byte("dup-c")},
				{Namespace: uint32(ns), Key: 3, Value: []byte("dup-d")},
			})
			single := dev.AsyncPut(ns, 4, []byte("new-4"))

			if err := neighbor.Wait(); err != nil {
				return fmt.Errorf("neighbor batch failed: %w", err)
			}
			if err := hostDup.Wait(); !errors.Is(err, kaml.ErrDuplicateKey) {
				return fmt.Errorf("host-level duplicate batch: got %v, want ErrDuplicateKey", err)
			}
			if res := devDup.Wait(); res.Err == nil {
				return errors.New("device-level duplicate batch was accepted")
			}
			if err := single.Wait(); err != nil {
				return fmt.Errorf("single put failed: %w", err)
			}

			want := map[uint64][]byte{
				1: []byte("new-1"),
				2: []byte("new-2"),
				3: []byte("old-3"), // both duplicate batches must leave it alone
				4: []byte("new-4"),
			}
			for key, w := range want {
				got, err := dev.Get(ns, key)
				if err != nil {
					return fmt.Errorf("key %d: %w", key, err)
				}
				if !bytes.Equal(got, w) {
					return fmt.Errorf("key %d: got %q want %q", key, got, w)
				}
			}
			dev.Close()
			return nil
		}()
	})
	dev.Wait()
	if failure != nil {
		t.Fatal(failure)
	}
}

// TestSnapshotDuringGroupCommit snapshots a namespace while a multi-record
// batch is in flight, repeatedly, so the snapshot lands at varied points of
// the commit. Whatever the interleaving, the snapshot must expose all of
// the batch or none of it.
func TestSnapshotDuringGroupCommit(t *testing.T) {
	dev, err := kaml.Open(kaml.SmallOptions())
	if err != nil {
		t.Fatal(err)
	}
	var failure error
	dev.Go(func() {
		failure = func() error {
			ns, err := dev.CreateNamespace(kaml.NamespaceOptions{ExpectedKeys: 512})
			if err != nil {
				return err
			}
			for round := 0; round < 20; round++ {
				base := uint64(round * 8)
				var batch []kaml.Record
				for i := uint64(0); i < 4; i++ {
					if err := dev.Put(ns, base+i, []byte(fmt.Sprintf("old-%d", base+i))); err != nil {
						return err
					}
					batch = append(batch, kaml.Record{
						Namespace: ns, Key: base + i,
						Value: []byte(fmt.Sprintf("new-%d", base+i)),
					})
				}
				fut := dev.AsyncPutBatch(batch)
				snap, serr := dev.Snapshot(ns)
				if werr := fut.Wait(); werr != nil {
					return fmt.Errorf("round %d: batch: %w", round, werr)
				}
				if serr != nil {
					return fmt.Errorf("round %d: snapshot: %w", round, serr)
				}
				fresh := 0
				for i := uint64(0); i < 4; i++ {
					got, err := dev.Get(snap, base+i)
					if err != nil {
						return fmt.Errorf("round %d: snap get %d: %w", round, base+i, err)
					}
					if bytes.HasPrefix(got, []byte("new-")) {
						fresh++
					}
				}
				if fresh != 0 && fresh != 4 {
					return fmt.Errorf("round %d: snapshot saw %d/4 records of an atomic batch", round, fresh)
				}
				if err := dev.DeleteNamespace(snap); err != nil {
					return fmt.Errorf("round %d: delete snapshot: %w", round, err)
				}
			}
			dev.Close()
			return nil
		}()
	})
	dev.Wait()
	if failure != nil {
		t.Fatal(failure)
	}
}

// TestReopenAfterPowerCutDuringRecovery cuts power a second time while Reopen
// has two readers on each chip. That Reopen must fail with the cut — not
// hang on, or leak, a reader that never heard of it (dev.Wait below would not
// return) — and the image must still be whole: the next Reopen succeeds,
// replays the writes that were in NVRAM at the first cut, and every
// acknowledged value reads back.
func TestReopenAfterPowerCutDuringRecovery(t *testing.T) {
	dev, err := kaml.Open(kaml.SmallOptions())
	if err != nil {
		t.Fatal(err)
	}
	var failure error
	dev.Go(func() {
		failure = func() error {
			ns, err := dev.CreateNamespace(kaml.NamespaceOptions{ExpectedKeys: 1024})
			if err != nil {
				return err
			}
			val := func(key uint64) []byte {
				return bytes.Repeat([]byte{byte(key), byte(key >> 8)}, 500)
			}
			const flushed, keys = 800, 812 // a hundred pages on flash, a page and a half in NVRAM
			for key := uint64(0); key < keys; key++ {
				if key == flushed {
					dev.Flush()
				}
				if err := dev.Put(ns, key, val(key)); err != nil {
					return fmt.Errorf("put %d: %w", key, err)
				}
			}
			img := dev.Crash()
			// A dozen pages per chip take over a millisecond to scan.
			dev.Go(func() {
				dev.Sleep(300 * time.Microsecond)
				dev.TriggerPowerCut(false)
			})
			if re, err := kaml.Reopen(img); !errors.Is(err, flash.ErrPowerCut) {
				if err == nil {
					re.Close()
				}
				return fmt.Errorf("Reopen with power cut mid-scan returned %v, want flash.ErrPowerCut", err)
			}
			re, err := kaml.Reopen(img)
			if err != nil {
				return fmt.Errorf("second Reopen: %w", err)
			}
			defer re.Close()
			if st := re.Stats(); st.ReplayedValues == 0 || st.RecoveredRecords < flushed {
				return fmt.Errorf("second Reopen replayed %d values and rebuilt %d records, want some and at least %d",
					st.ReplayedValues, st.RecoveredRecords, flushed)
			}
			for key := uint64(0); key < keys; key++ {
				if got, err := re.Get(ns, key); err != nil || !bytes.Equal(got, val(key)) {
					return fmt.Errorf("acknowledged key %d lost across the two cuts: %v", key, err)
				}
			}
			return nil
		}()
	})
	dev.Wait()
	if failure != nil {
		t.Fatal(failure)
	}
}
