package cmdq

import (
	"errors"
	"slices"
	"testing"
	"time"

	"github.com/kaml-ssd/kaml/internal/sim"
)

// execRecorder is a stub firmware: it sleeps a fixed cost per command and
// remembers every batch size it was handed.
type execRecorder struct {
	eng     *sim.Engine
	cost    time.Duration
	mu      *sim.Mutex
	batches [][]Record
	calls   int64
}

func newRecorder(eng *sim.Engine, cost time.Duration) *execRecorder {
	return &execRecorder{eng: eng, cost: cost, mu: eng.NewMutex("rec")}
}

func (r *execRecorder) exec(cmd *Command) Result {
	r.calls++
	if r.cost > 0 {
		r.eng.Sleep(r.cost)
	}
	if cmd.Op == OpPutBatch {
		r.mu.Lock()
		r.batches = append(r.batches, append([]Record(nil), cmd.Records...))
		r.mu.Unlock()
	}
	return Result{Value: []byte{byte(cmd.Key)}}
}

func TestFutureResolvesWithResult(t *testing.T) {
	eng := sim.NewEngine()
	rec := newRecorder(eng, 10*time.Microsecond)
	p := New(eng, Config{Depth: 4}, rec.exec)
	eng.Go("main", func() {
		defer p.Close()
		fut := p.Submit(&Command{Op: OpGet, Namespace: 1, Key: 7})
		res := fut.Wait()
		if res.Err != nil || len(res.Value) != 1 || res.Value[0] != 7 {
			t.Errorf("res=%+v", res)
		}
		if !fut.Ready() {
			t.Error("future not ready after Wait")
		}
	})
	eng.Wait()
}

func TestBackpressureBoundsOccupancy(t *testing.T) {
	eng := sim.NewEngine()
	rec := newRecorder(eng, 100*time.Microsecond)
	p := New(eng, Config{Depth: 2}, rec.exec)
	wg := eng.NewWaitGroup()
	eng.Go("main", func() {
		wg.Add(6)
		for i := 0; i < 6; i++ {
			i := i
			eng.Go("sub", func() {
				defer wg.Done()
				res := p.Submit(&Command{Op: OpGet, Key: uint64(i)}).Wait()
				if res.Err != nil {
					t.Errorf("cmd %d: %v", i, res.Err)
				}
			})
		}
		wg.Wait()
		st := p.Stats()
		if st.MaxOccupancy > 2 {
			t.Errorf("max occupancy %d > depth 2", st.MaxOccupancy)
		}
		if st.Submitted != 6 || st.Completed != 6 {
			t.Errorf("submitted=%d completed=%d", st.Submitted, st.Completed)
		}
		p.Close()
	})
	eng.Wait()
}

func TestCoalescerMergesConcurrentPuts(t *testing.T) {
	eng := sim.NewEngine()
	rec := newRecorder(eng, 20*time.Microsecond)
	p := New(eng, Config{
		Depth:           32,
		CoalesceWindow:  10 * time.Microsecond,
		MaxBatchRecords: 16,
	}, rec.exec)
	wg := eng.NewWaitGroup()
	eng.Go("main", func() {
		wg.Add(8)
		for i := 0; i < 8; i++ {
			i := i
			eng.Go("put", func() {
				defer wg.Done()
				res := p.Submit(&Command{Op: OpPut, Records: []Record{
					{Namespace: 1, Key: uint64(i), Value: []byte("v")},
				}}).Wait()
				if res.Err != nil {
					t.Errorf("put %d: %v", i, res.Err)
				}
			})
		}
		wg.Wait()
		st := p.Stats()
		if st.BatchCommits == 0 {
			t.Fatal("no batch commits")
		}
		if mean := float64(st.BatchRecords) / float64(st.BatchCommits); mean < 2 {
			t.Errorf("mean batch size %.2f, want >= 2 (commits=%d records=%d)",
				mean, st.BatchCommits, st.BatchRecords)
		}
		if st.CoalescedPuts == 0 {
			t.Error("no puts were coalesced")
		}
		p.Close()
	})
	eng.Wait()
}

// A failed group commit must not fail its innocent coalesced neighbors:
// the coalescer re-executes each merged command individually so every
// future gets its own verdict (the firmware's merged commit is
// all-or-nothing, and exec-time failures like a read-only or deleted
// namespace cannot be pre-checked race-free at submission).
func TestMergedCommitFailureIsolated(t *testing.T) {
	errBad := errors.New("read-only namespace")
	const badKey = 666
	eng := sim.NewEngine()
	var sawMerged bool
	exec := func(cmd *Command) Result {
		if len(cmd.Records) > 1 {
			sawMerged = true
		}
		for _, r := range cmd.Records {
			if r.Key == badKey {
				return Result{Err: errBad}
			}
		}
		return Result{}
	}
	p := New(eng, Config{
		Depth: 8, CoalesceWindow: 10 * time.Microsecond,
		MaxBatchRecords: 16, CoalesceShards: 1,
	}, exec)
	eng.Go("main", func() {
		defer p.Close()
		// One submitter issues both before parking, so the coalescer cannot
		// cut between them (the clock only advances once it parks in Wait).
		good := p.Submit(&Command{Op: OpPut, Records: []Record{
			{Namespace: 1, Key: 1, Value: []byte("a")},
		}})
		bad := p.Submit(&Command{Op: OpPut, Records: []Record{
			{Namespace: 9, Key: badKey, Value: []byte("b")},
		}})
		if res := good.Wait(); res.Err != nil {
			t.Errorf("innocent neighbor failed: %v", res.Err)
		}
		if res := bad.Wait(); !errors.Is(res.Err, errBad) {
			t.Errorf("bad command: %v, want errBad", res.Err)
		}
	})
	eng.Wait()
	if !sawMerged {
		t.Fatal("commands never shared a batch; the failure path was not exercised")
	}
	if st := p.Stats(); st.Completed != 2 {
		t.Errorf("completed=%d, want 2", st.Completed)
	}
}

// Back-to-back cuts share the shard's buffers — its task list, merged batch,
// results and batch command — and every Submit below reuses one Command and
// one records slice of the caller's. Still, each exec call sees exactly the
// records of its own round, and each future gets the result of the call that
// committed it: whether the cut before merged, stood alone or failed and was
// re-executed command by command.
func TestCoalescerCutsDoNotLeakIntoEachOther(t *testing.T) {
	errBad := errors.New("read-only namespace")
	const badKey = 666
	eng := sim.NewEngine()
	var calls [][]Record // the records of every exec call, copied
	exec := func(cmd *Command) Result {
		calls = append(calls, slices.Clone(cmd.Records))
		for _, r := range cmd.Records {
			if r.Key == badKey {
				return Result{Err: errBad}
			}
		}
		return Result{Namespace: uint32(len(calls))} // names the call
	}
	p := New(eng, Config{
		Depth: 16, CoalesceWindow: 10 * time.Microsecond,
		MaxBatchRecords: 16, CoalesceShards: 1,
	}, exec)
	rounds := []struct {
		keys  []uint64
		calls int // exec calls the round makes
	}{
		{[]uint64{1, 2, 3, 4}, 1},      // a merge
		{[]uint64{5}, 1},               // a lone cut after it
		{[]uint64{6, badKey, 7, 8}, 5}, // a failing merge, then each command alone
		{[]uint64{9, 10}, 1},           // a merge after the failure
		{[]uint64{11, 12, 13}, 1},      // a longer merge after a shorter one
	}
	eng.Go("main", func() {
		defer p.Close()
		var cmd Command
		recs := make([]Record, 1)
		for round, rd := range rounds {
			first := len(calls)
			// One submitter issues the round before parking, so it lands in one
			// cut (the clock only advances once it parks in Wait).
			futs := make([]*Future, len(rd.keys))
			for i, k := range rd.keys {
				recs[0] = Record{Namespace: 1, Key: k, Value: []byte{byte(round), byte(k)}}
				cmd = Command{Op: OpPut, Records: recs}
				futs[i] = p.Submit(&cmd)
			}
			for _, f := range futs {
				f.Wait()
			}
			got := calls[first:]
			if len(got) != rd.calls || len(got[0]) != len(rd.keys) {
				t.Fatalf("round %d: exec calls %v, want %d with the first carrying all %d records",
					round, got, rd.calls, len(rd.keys))
			}
			committedBy := map[uint64]uint32{}
			for c, recs := range got {
				for _, r := range recs {
					if !slices.Contains(rd.keys, r.Key) || !slices.Equal(r.Value, []byte{byte(round), byte(r.Key)}) {
						t.Errorf("round %d: exec call %d carries %+v, not a record of this round", round, c, r)
					}
					committedBy[r.Key] = uint32(first + c + 1)
				}
			}
			for i, k := range rd.keys {
				res := futs[i].Wait()
				switch {
				case k == badKey && !errors.Is(res.Err, errBad):
					t.Errorf("round %d: the bad command got %+v, want errBad", round, res)
				case k != badKey && (res.Err != nil || res.Namespace != committedBy[k]):
					t.Errorf("round %d key %d: result %+v, want that of exec call %d", round, k, res, committedBy[k])
				}
			}
		}
	})
	eng.Wait()
}

// A lone synchronous writer must not pay the full group-commit window: when
// every outstanding command is already pending on the shard, the batch cuts
// after a grace tick instead of holding the window open for writers that
// cannot arrive.
func TestLoneWriterSkipsCoalesceWindow(t *testing.T) {
	const window = 5 * time.Millisecond
	eng := sim.NewEngine()
	rec := newRecorder(eng, 0)
	p := New(eng, Config{Depth: 8, CoalesceWindow: window}, rec.exec)
	var elapsed time.Duration
	eng.Go("main", func() {
		defer p.Close()
		start := eng.Now()
		if res := p.Submit(&Command{Op: OpPut, Records: []Record{
			{Namespace: 1, Key: 1, Value: []byte("v")},
		}}).Wait(); res.Err != nil {
			t.Errorf("put: %v", res.Err)
		}
		elapsed = eng.Now() - start
	})
	eng.Wait()
	if elapsed > 10*time.Microsecond {
		t.Errorf("lone Put took %v, want ~%v (never the %v window)",
			elapsed, earlyCutGrace, window)
	}
}

// Two writes to the same key must never land in one firmware batch (the
// atomic batch rejects duplicate keys); the coalescer cuts between them.
func TestCoalescerSplitsDuplicateKeys(t *testing.T) {
	eng := sim.NewEngine()
	rec := newRecorder(eng, 0)
	p := New(eng, Config{
		Depth: 8, CoalesceWindow: 10 * time.Microsecond, MaxBatchRecords: 16,
	}, rec.exec)
	wg := eng.NewWaitGroup()
	eng.Go("main", func() {
		wg.Add(3)
		for i := 0; i < 3; i++ {
			eng.Go("put", func() {
				defer wg.Done()
				if res := p.Submit(&Command{Op: OpPut, Records: []Record{
					{Namespace: 1, Key: 42, Value: []byte("same")},
				}}).Wait(); res.Err != nil {
					t.Errorf("put: %v", res.Err)
				}
			})
		}
		wg.Wait()
		for _, b := range rec.batches {
			seen := map[uint64]bool{}
			for _, r := range b {
				if seen[r.Key] {
					t.Fatalf("duplicate key %d within one batch", r.Key)
				}
				seen[r.Key] = true
			}
		}
		if len(rec.batches) != 3 {
			t.Errorf("batches=%d want 3 (same key never merges)", len(rec.batches))
		}
		p.Close()
	})
	eng.Wait()
}

// A submitted batch above MaxBatchRecords commits alone: atomicity forbids
// splitting it, and nothing merges on top.
func TestOversizedBatchCommitsAlone(t *testing.T) {
	eng := sim.NewEngine()
	rec := newRecorder(eng, 0)
	p := New(eng, Config{
		Depth: 8, CoalesceWindow: 10 * time.Microsecond, MaxBatchRecords: 4,
	}, rec.exec)
	eng.Go("main", func() {
		big := make([]Record, 6)
		for i := range big {
			big[i] = Record{Namespace: 1, Key: uint64(i), Value: []byte("v")}
		}
		if res := p.Submit(&Command{Op: OpPutBatch, Records: big}).Wait(); res.Err != nil {
			t.Errorf("big batch: %v", res.Err)
		}
		if len(rec.batches) != 1 || len(rec.batches[0]) != 6 {
			t.Errorf("batches=%v", rec.batches)
		}
		p.Close()
	})
	eng.Wait()
}

func TestCloseDrainsThenRejects(t *testing.T) {
	eng := sim.NewEngine()
	rec := newRecorder(eng, 50*time.Microsecond)
	p := New(eng, Config{Depth: 8, CoalesceWindow: 5 * time.Microsecond}, rec.exec)
	eng.Go("main", func() {
		fut := p.Submit(&Command{Op: OpPut, Records: []Record{{Namespace: 1, Key: 1}}})
		p.Close() // must execute the queued write, not drop it
		if res := fut.Wait(); res.Err != nil {
			t.Errorf("drained command failed: %v", res.Err)
		}
		if res := p.Submit(&Command{Op: OpGet, Key: 2}).Wait(); !errors.Is(res.Err, ErrClosed) {
			t.Errorf("post-close submit: %v, want ErrClosed", res.Err)
		}
	})
	eng.Wait()
}

// Fail poisons the writes still pending on a shard: the one its coalescer
// is executing completes, the ones behind it fail with the poison, and so
// does every later submission, direct or not.
func TestFailPoisonsQueuedCommands(t *testing.T) {
	boom := errors.New("power lost")
	eng := sim.NewEngine()
	rec := newRecorder(eng, time.Millisecond)
	p := New(eng, Config{Depth: 8, CoalesceShards: 1, MaxBatchRecords: 1}, rec.exec)
	futs := make([]*Future, 3)
	eng.Go("main", func() {
		for i := range futs {
			futs[i] = p.Submit(&Command{Op: OpPut, Records: []Record{
				{Namespace: 1, Key: uint64(i), Value: []byte("v")},
			}})
		}
		eng.Sleep(10 * time.Microsecond) // let the shard start command 0
		p.Fail(boom)
		p.Join()
		if res := futs[0].Wait(); res.Err != nil {
			t.Errorf("in-flight command: %v, want success", res.Err)
		}
		for i := 1; i < 3; i++ {
			if res := futs[i].Wait(); !errors.Is(res.Err, boom) {
				t.Errorf("queued command %d: %v, want poison", i, res.Err)
			}
		}
		if res := p.Submit(&Command{Op: OpGet}).Wait(); !errors.Is(res.Err, boom) {
			t.Errorf("post-fail submit: %v, want poison", res.Err)
		}
		if res := p.Submit(&Command{Op: OpPut, Records: []Record{{Namespace: 1, Key: 9}}}).Wait(); !errors.Is(res.Err, boom) {
			t.Errorf("post-fail write: %v, want poison", res.Err)
		}
	})
	eng.Wait()
	if rec.calls != 1 {
		t.Errorf("exec ran %d times, want 1 (only the command in flight at Fail)", rec.calls)
	}
}

// A direct command runs on the actor that submits it, so concurrent readers
// are bound by Depth alone: 64 Gets of 100µs each, submitted at once into a
// pipeline of Depth 128, all finish 100µs later. An executor pool smaller
// than the readers would make them take turns.
func TestDirectCommandsBoundOnlyByDepth(t *testing.T) {
	const readers, cost = 64, 100 * time.Microsecond
	eng := sim.NewEngine()
	rec := newRecorder(eng, cost)
	p := New(eng, Config{Depth: 128}, rec.exec)
	done := make([]time.Duration, readers)
	eng.Go("main", func() {
		// Spawned by one actor, so all of them start before the clock moves.
		wg := eng.NewWaitGroup()
		for i := range done {
			wg.Add(1)
			eng.Go("get", func() {
				defer wg.Done()
				if res := p.Submit(&Command{Op: OpGet, Key: uint64(i)}).Wait(); res.Err != nil || res.Value[0] != byte(i) {
					t.Errorf("get %d: %+v", i, res)
				}
				done[i] = eng.Now()
			})
		}
		wg.Wait()
		p.Close()
		if st := p.Stats(); st.MaxOccupancy != readers {
			t.Errorf("max occupancy %d, want %d", st.MaxOccupancy, readers)
		}
	})
	eng.Wait()
	for i, at := range done {
		if at != cost {
			t.Errorf("get %d finished at %v, want %v", i, at, cost)
		}
	}
}

// A write's completion entry reaches the host a transfer after its commit,
// but the shard that ran the commit does not wait out the transfer. Of two
// back-to-back batches on one shard — the second submitted while the first
// commits — the second's exec starts at the first's commit, and each future
// opens a transfer after its own commit.
func TestCoalescerCutsTheNextBatchAtTheCommit(t *testing.T) {
	const cost, cqe = 20 * time.Microsecond, 8 * time.Microsecond
	eng := sim.NewEngine()
	var starts, commits []time.Duration // only the shard's actor appends
	p := New(eng, Config{Depth: 8, CoalesceShards: 1}, func(cmd *Command) Result {
		starts = append(starts, eng.Now())
		eng.Sleep(cost)
		commits = append(commits, eng.Now())
		return Result{Due: eng.Now() + cqe}
	})
	put := func(key uint64) *Command {
		return &Command{Op: OpPut, Records: []Record{{Namespace: 1, Key: key, Value: []byte("v")}}}
	}
	eng.Go("main", func() {
		defer p.Close()
		a := p.Submit(put(1))
		eng.Sleep(cost / 2) // a is committing
		b := p.Submit(put(2))
		eng.Sleep(cost/2 + cqe/2) // a has committed; its completion is in transfer
		if a.Ready() {
			t.Errorf("a's future is open %v after its commit, before its completion's transfer of %v", cqe/2, cqe)
		}
		if res := a.Wait(); res.Err != nil || len(commits) == 0 || eng.Now() != commits[0]+cqe {
			t.Errorf("a completed at %v (%v), want its commit + %v", eng.Now(), res.Err, cqe)
		}
		if res := b.Wait(); res.Err != nil || len(commits) != 2 || eng.Now() != commits[1]+cqe {
			t.Errorf("b completed at %v (%v), want its commit + %v", eng.Now(), res.Err, cqe)
		}
		if len(starts) != 2 || starts[1] != commits[0] {
			t.Errorf("the batches ran from %v and committed at %v: the second should start at the first's commit",
				starts, commits)
		}
	})
	eng.Wait()
}
