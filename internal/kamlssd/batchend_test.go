package kamlssd

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"github.com/kaml-ssd/kaml/internal/hashindex"
)

// headState reports where the newest version of key in ns lives: pending
// (its batch has not ended), in NVRAM, or on flash.
func headState(ns *namespace, key uint64) (pending, inNVRAM bool) {
	ch, _ := ns.fam.chains.Lookup(key)
	loc, _, err := ch.Head().AtOrBefore(noCutoff)
	if errors.Is(err, hashindex.ErrPendingVersion) {
		return true, false
	}
	return false, err == nil && !location(loc).isFlash()
}

// A read that meets a pending version and a snapshot that meets a
// half-staged batch wait for the batch's end, and wake at that instant. The
// batch is held mid-staging: every log of its namespace is full, so its
// writer parks for room with the first record's version pending on its
// key's chain. Blocks come back, and the batch commits — or aborts on the
// full mapping table when its second record is a new key. The Get then
// finishes at the commit (or the abort) plus its completion transfer,
// returning the batch's value (or the older one, still in NVRAM), and the
// snapshot at the batch's release of its namespace plus its transfer: after
// the commit's firmware charge, or at the abort.
func TestBatchEndWakesItsWaiters(t *testing.T) {
	for _, abort := range []bool{false, true} {
		name := "commit"
		if abort {
			name = "abort"
		}
		t.Run(name, func(t *testing.T) {
			collectorsOff(t)
			r := newSerialRig(1, testFlashConfig(), func(c *Config) { c.NumLogs = 2 })
			r.e.Go("test", func() {
				d := r.dev
				defer d.Close()
				// stallLogs writes 16 keys: the table is full.
				ns, _ := d.CreateNamespace(NamespaceAttrs{IndexCapacity: 16})
				if !stallLogs(t, r, ns, d.logs) {
					return
				}
				nsp, _ := d.lookupNS(ns)
				key := uint64(16)
				for k := range uint64(16) {
					if _, nv := headState(nsp, k); nv {
						key = k
						break
					}
				}
				if key == 16 {
					t.Errorf("setup: no key has its newest version in NVRAM")
					return
				}
				old, err := d.Get(ns, key)
				if err != nil {
					t.Errorf("setup: %v", err)
					return
				}
				second := (key + 1) % 16
				if abort {
					second = 100
				}
				batch := []PutRecord{
					{Namespace: ns, Key: key, Value: val(key+7, churnValue)},
					{Namespace: ns, Key: second, Value: val(second+7, churnValue)},
				}

				var putDone, getDone, snapDone time.Duration
				var putErr, getErr, snapErr error
				var got []byte
				wg := r.e.NewWaitGroup()
				wg.Add(1)
				r.e.Go("writer", func() {
					defer wg.Done()
					putErr = d.Put(batch)
					putDone = r.e.Now()
				})
				r.e.Sleep(time.Millisecond)
				if pending, _ := headState(nsp, key); putDone != 0 || !pending {
					t.Errorf("setup: the batch ended (%v) or its first version is not pending (%v)", putDone, pending)
					return
				}
				wg.Add(2)
				r.e.Go("reader", func() {
					defer wg.Done()
					got, getErr = d.Get(ns, key)
					getDone = r.e.Now()
				})
				r.e.Go("snapshot", func() {
					defer wg.Done()
					_, snapErr = d.SnapshotNamespace(ns)
					snapDone = r.e.Now()
				})
				r.e.Sleep(time.Millisecond)
				if getDone != 0 || snapDone != 0 {
					t.Errorf("the Get (%v) or the snapshot (%v) finished while the batch was held", getDone, snapDone)
					return
				}
				for _, lg := range d.logs {
					returnBlock(t, d, lg)
				}
				wg.Wait()

				cc := d.ctrl.Config()
				end := putDone - cc.CompletionLatency // the abort, or the commit's release
				commit, want := end, old
				if !abort {
					commit -= cc.FirmwareFixedCost // both keys exist: nothing to insert
					want = batch[0].Value
				}
				switch {
				case abort != errors.Is(putErr, ErrIndexFull):
					t.Errorf("Put: %v", putErr)
				case getErr != nil || !bytes.Equal(got, want):
					t.Errorf("Get: %v, the batch's value: %v", getErr, bytes.Equal(got, batch[0].Value))
				case snapErr != nil:
					t.Errorf("SnapshotNamespace: %v", snapErr)
				}
				if getDone != commit+cc.CompletionLatency || snapDone != end+cc.CompletionLatency {
					t.Errorf("batch end at %v: the Get finished at %v, want %v; the snapshot at %v, want %v",
						commit, getDone, commit+cc.CompletionLatency, snapDone, end+cc.CompletionLatency)
				}
			})
			r.e.Wait()
		})
	}
}
