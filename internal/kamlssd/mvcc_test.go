package kamlssd

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/kaml-ssd/kaml/internal/cmdq"
	"github.com/kaml-ssd/kaml/internal/flash"
	"github.com/kaml-ssd/kaml/internal/nvme"
	"github.com/kaml-ssd/kaml/internal/sim"
)

// Time travel: every overwrite leaves a readable version while a pin (here
// an explicit PinCurrent) protects it, and GetAt resolves each historical
// timestamp to the value that was current then.
func TestGetAtTimeTravel(t *testing.T) {
	withRig(t, testFlashConfig(), nil, func(r *rig) {
		ns, err := r.dev.CreateNamespace(NamespaceAttrs{})
		if err != nil {
			t.Fatal(err)
		}
		// Five generations of key 1, recording the commit TS after each.
		var stamps []uint64
		for gen := 0; gen < 5; gen++ {
			if err := r.dev.Put(one(ns, 1, []byte(fmt.Sprintf("gen-%d", gen)))); err != nil {
				t.Fatal(err)
			}
			ts := r.dev.PinCurrent() // protect the version from pruning
			defer r.dev.ReleasePin(ts)
			stamps = append(stamps, ts)
		}
		for gen, ts := range stamps {
			v, gerr := r.dev.GetAt(ns, 1, ts)
			if gerr != nil {
				t.Fatalf("GetAt gen %d (ts %d): %v", gen, ts, gerr)
			}
			if want := fmt.Sprintf("gen-%d", gen); string(v) != want {
				t.Fatalf("GetAt gen %d: %q, want %q", gen, v, want)
			}
		}
		// Before the first write the key did not exist.
		if _, gerr := r.dev.GetAt(ns, 1, 0); !errors.Is(gerr, ErrKeyNotFound) {
			t.Fatalf("GetAt ts 0: %v, want ErrKeyNotFound", gerr)
		}
		// The head is also reachable through CommitTS.
		v, gerr := r.dev.GetAt(ns, 1, r.dev.CommitTS())
		if gerr != nil || string(v) != "gen-4" {
			t.Fatalf("GetAt now: %q %v", v, gerr)
		}
	})
}

// Unpinned overwrites are pruned promptly: after heavy overwriting with no
// snapshot or transaction pin, every chain collapses back to length 1, and
// the dead versions show up in the counters.
func TestChainsCollapseWithoutPins(t *testing.T) {
	withRig(t, testFlashConfig(), nil, func(r *rig) {
		ns, err := r.dev.CreateNamespace(NamespaceAttrs{})
		if err != nil {
			t.Fatal(err)
		}
		for gen := 0; gen < 10; gen++ {
			for k := uint64(0); k < 8; k++ {
				if err := r.dev.Put(one(ns, k, val(k, 64))); err != nil {
					t.Fatal(err)
				}
			}
		}
		r.dev.Flush()
		keys, versions, maxChain, verr := r.dev.VersionStats(ns)
		if verr != nil {
			t.Fatal(verr)
		}
		if keys != 8 {
			t.Fatalf("keys = %d, want 8", keys)
		}
		// Overwrite-time pruning keeps unpinned chains at their head only.
		if maxChain != 1 || versions != keys {
			t.Fatalf("versions=%d maxChain=%d, want chains collapsed to heads", versions, maxChain)
		}
		if st := r.dev.Stats(); st.VersionsPruned < int64(8*9) {
			t.Fatalf("VersionsPruned = %d, want >= 72", st.VersionsPruned)
		}
	})
}

// A pinned snapshot holds its versions through overwrites and GC-cycle
// pruning; releasing the pin lets the next prune collapse the chains.
func TestPinProtectsVersionsUntilRelease(t *testing.T) {
	withRig(t, testFlashConfig(), nil, func(r *rig) {
		ns, err := r.dev.CreateNamespace(NamespaceAttrs{})
		if err != nil {
			t.Fatal(err)
		}
		for k := uint64(0); k < 4; k++ {
			if err := r.dev.Put(one(ns, k, []byte{byte(k), 1})); err != nil {
				t.Fatal(err)
			}
		}
		pin := r.dev.PinCurrent()
		for gen := 2; gen < 6; gen++ {
			for k := uint64(0); k < 4; k++ {
				if err := r.dev.Put(one(ns, k, []byte{byte(k), byte(gen)})); err != nil {
					t.Fatal(err)
				}
			}
		}
		r.dev.Flush()
		_, versions, _, verr := r.dev.VersionStats(ns)
		if verr != nil {
			t.Fatal(verr)
		}
		// Each key keeps the pinned version and the head; the intermediate
		// generations are prunable and mostly gone already.
		if versions < 8 {
			t.Fatalf("versions = %d, want >= 8 (pinned + head per key)", versions)
		}
		for k := uint64(0); k < 4; k++ {
			v, gerr := r.dev.GetAt(ns, k, pin)
			if gerr != nil || !bytes.Equal(v, []byte{byte(k), 1}) {
				t.Fatalf("pinned read key %d: %v %v", k, v, gerr)
			}
		}
		r.dev.ReleasePin(pin)
		// One more overwrite per key triggers post-commit pruning with no
		// pins left.
		for k := uint64(0); k < 4; k++ {
			if err := r.dev.Put(one(ns, k, []byte{byte(k), 9})); err != nil {
				t.Fatal(err)
			}
		}
		r.dev.Flush()
		_, versions, maxChain, verr := r.dev.VersionStats(ns)
		if verr != nil {
			t.Fatal(verr)
		}
		if maxChain != 1 || versions != 4 {
			t.Fatalf("after release: versions=%d maxChain=%d, want 4/1", versions, maxChain)
		}
	})
}

// GetAt against a snapshot namespace clamps to the snapshot's cutoff: the
// snapshot's view cannot be moved forward past its creation point.
func TestGetAtClampsToSnapshotCutoff(t *testing.T) {
	withRig(t, testFlashConfig(), nil, func(r *rig) {
		ns, err := r.dev.CreateNamespace(NamespaceAttrs{})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.dev.Put(one(ns, 1, []byte("old"))); err != nil {
			t.Fatal(err)
		}
		snap, err := r.dev.SnapshotNamespace(ns)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.dev.Put(one(ns, 1, []byte("new"))); err != nil {
			t.Fatal(err)
		}
		now := r.dev.CommitTS()
		v, gerr := r.dev.GetAt(snap, 1, now)
		if gerr != nil || string(v) != "old" {
			t.Fatalf("snapshot GetAt(now): %q %v, want old", v, gerr)
		}
		v, gerr = r.dev.GetAt(ns, 1, now)
		if gerr != nil || string(v) != "new" {
			t.Fatalf("root GetAt(now): %q %v, want new", v, gerr)
		}
	})
}

// The pin-floor regression. While an older batch is still unsettled,
// PinCurrent returns a timestamp below a newer, already committed overwrite
// of a key — and the version that timestamp sees must have survived the
// overwrite's own prune. Before the settled floor became an implicit pin the
// overwrite pruned it (no pin was registered yet), and the read below found
// no version at all: the "key not found on hot rows" SI failure.
func TestPinFloorKeepsVersionBehindUnsettledBatch(t *testing.T) {
	fc := testFlashConfig()
	e := sim.NewEngine()
	arr := flash.New(e, fc)
	ctrl := nvme.New(e, nvme.DefaultConfig())
	cfg := DefaultConfig(fc)
	cfg.NumLogs = 4
	dev := New(arr, ctrl, cfg)
	e.Go("main", func() {
		defer dev.Close()
		slow, err := dev.CreateNamespace(NamespaceAttrs{NumLogs: 1})
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		hot, err := dev.CreateNamespace(NamespaceAttrs{})
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		if err := dev.Put(one(hot, 7, []byte("old"))); err != nil {
			t.Errorf("put old: %v", err)
			return
		}
		// Sixteen half-page records on a single log outrun its sealed-page
		// queue and the page its flusher dequeues, so the batch parks
		// mid-stage — its timestamps reserved, its commit marker unwritten —
		// until a flash program completes.
		batch := make([]PutRecord, 16)
		for i := range batch {
			batch[i] = PutRecord{Namespace: slow, Key: uint64(i), Value: val(uint64(i), 3500)}
		}
		done := e.NewWaitGroup()
		done.Add(1)
		e.Go("slow-batch", func() {
			defer done.Done()
			if err := dev.Put(batch); err != nil {
				t.Errorf("slow batch: %v", err)
			}
		})
		defer done.Wait()
		for i := 0; ; i++ {
			ts := dev.PinCurrent()
			dev.ReleasePin(ts)
			if ts < dev.CommitTS() {
				break // a batch is in flight: the settled timestamp trails
			}
			if i > 10000 {
				t.Error("setup: the slow batch never parked unsettled")
				return
			}
			e.Sleep(time.Microsecond)
		}
		// The overwrite lands on the hot namespace's next log, which is idle.
		if err := dev.Put(one(hot, 7, []byte("new"))); err != nil {
			t.Errorf("put new: %v", err)
			return
		}
		ts := dev.PinCurrent()
		defer dev.ReleasePin(ts)
		if newSeq, _ := dev.LatestCommittedSeq(hot, 7); ts >= newSeq {
			t.Errorf("setup: pinned %d, not below the overwrite at %d", ts, newSeq)
			return
		}
		v, err := dev.GetAt(hot, 7, ts)
		if err != nil || string(v) != "old" {
			t.Errorf("GetAt(ts %d) = %q, %v; want the version the pin sees, \"old\"", ts, v, err)
		}
	})
	e.Wait()
}

// A completion names the commit seq of what it carries, as an NVMe CQE's
// result dword would: a lone Put its record's, a Get the version it returned
// (from NVRAM and from flash alike), and a merged group commit its newest
// record's, which is at least each merged record's own.
func TestCompletionCarriesTheCommitSeq(t *testing.T) {
	r := newRig(testFlashConfig(), nil)
	r.e.Go("test", func() {
		defer r.dev.Close()
		ns, err := r.dev.CreateNamespace(NamespaceAttrs{})
		if err != nil {
			t.Fatal(err)
		}
		res := r.dev.SubmitPut(one(ns, 1, val(1, 100))).Wait()
		latest, err := r.dev.LatestCommittedSeq(ns, 1)
		if res.Err != nil || err != nil || res.Seq == 0 || res.Seq != latest {
			t.Fatalf("lone Put: Result.Seq %d (%v), latest committed %d (%v)", res.Seq, res.Err, latest, err)
		}
		get := func(where string, nvram bool) {
			hits := r.dev.Stats().NVRAMHits
			v, seq, err := r.dev.GetVersion(ns, 1, Latest)
			if err != nil || !bytes.Equal(v, val(1, 100)) || seq != latest {
				t.Fatalf("Get from %s: seq %d, %v; want seq %d and the value", where, seq, err, latest)
			}
			if fromNVRAM := r.dev.Stats().NVRAMHits > hits; fromNVRAM != nvram {
				t.Fatalf("Get from %s: served from NVRAM = %v", where, fromNVRAM)
			}
		}
		get("NVRAM", true)
		r.dev.Flush()
		get("flash", false)

		// Eight single-record Puts submitted together merge into group
		// commits on the coalescer shards.
		futs := make([]*cmdq.Future, 8)
		for i := range futs {
			k := uint64(10 + i)
			futs[i] = r.dev.SubmitPut(one(ns, k, val(k, 100)))
		}
		merged := false
		for i, f := range futs {
			res := f.Wait()
			own, err := r.dev.LatestCommittedSeq(ns, uint64(10+i))
			if res.Err != nil || err != nil || res.Seq < own {
				t.Fatalf("merged Put of key %d: Result.Seq %d (%v), its record's seq %d (%v)",
					10+i, res.Seq, res.Err, own, err)
			}
			merged = merged || res.Seq > own
		}
		if !merged {
			t.Fatal("no Put shared a group commit: the merged case went untested")
		}
	})
	r.e.Wait()
}

// GetAt is a Get at a timestamp: one OpGet command through the pipeline, so
// it takes a pipeline slot and pays the completion transfer as a Get does,
// differing only in what its index walk charges (chain hops, not directory
// probes).
func TestGetAtRunsAsAGet(t *testing.T) {
	nc := nvme.DefaultConfig()
	r := newRig(testFlashConfig(), nil)
	r.e.Go("test", func() {
		defer r.dev.Close()
		ns, err := r.dev.CreateNamespace(NamespaceAttrs{})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.dev.Put(one(ns, 1, val(1, 100))); err != nil {
			t.Fatal(err)
		}
		r.dev.Flush()
		ts := r.dev.PinCurrent()
		defer r.dev.ReleasePin(ts)
		var took [2]time.Duration
		for i, read := range []func() ([]byte, error){
			func() ([]byte, error) { return r.dev.Get(ns, 1) },
			func() ([]byte, error) { return r.dev.GetAt(ns, 1, ts) },
		} {
			before, start := r.dev.Stats(), r.e.Now()
			v, err := read()
			after := r.dev.Stats()
			if err != nil || !bytes.Equal(v, val(1, 100)) {
				t.Fatalf("read %d: %v", i, err)
			}
			if after.PipelineSubmitted != before.PipelineSubmitted+1 ||
				after.PipelineCompleted != before.PipelineCompleted+1 {
				t.Fatalf("read %d: pipeline submitted %d -> %d, completed %d -> %d; want one command",
					i, before.PipelineSubmitted, after.PipelineSubmitted, before.PipelineCompleted, after.PipelineCompleted)
			}
			probes := after.IndexProbes - before.IndexProbes
			took[i] = r.e.Now() - start - time.Duration(probes)*nc.ProbeCost
		}
		if took[0] != took[1] {
			t.Fatalf("idle Get %v, idle GetAt %v (index charge aside); want equal", took[0], took[1])
		}
	})
	r.e.Wait()
}
