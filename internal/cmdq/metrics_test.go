package cmdq

import (
	"testing"
	"time"

	"github.com/kaml-ssd/kaml/internal/sim"
	"github.com/kaml-ssd/kaml/internal/telemetry"
)

// TestStageHistogramsTraceLifecycle drives direct and coalesced commands
// through an instrumented pipeline and checks every lifecycle stage was
// recorded the right number of times, with total >= exec (a stage is a
// slice of the whole).
func TestStageHistogramsTraceLifecycle(t *testing.T) {
	const (
		gets = 12
		puts = 8
	)
	eng := sim.NewEngine()
	rec := newRecorder(eng, 25*time.Microsecond)
	reg := telemetry.NewRegistry()
	p := New(eng, Config{
		Depth:           32,
		CoalesceWindow:  10 * time.Microsecond,
		MaxBatchRecords: 16,
		Registry:        reg,
	}, rec.exec)
	wg := eng.NewWaitGroup()
	eng.Go("main", func() {
		wg.Add(gets + puts)
		for i := 0; i < gets; i++ {
			i := i
			eng.Go("get", func() {
				defer wg.Done()
				if res := p.Submit(&Command{Op: OpGet, Key: uint64(i)}).Wait(); res.Err != nil {
					t.Errorf("get %d: %v", i, res.Err)
				}
			})
		}
		for i := 0; i < puts; i++ {
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
		p.Close()

		m := p
		check := func(op Op, st int, want int64) {
			t.Helper()
			if got := m.stage[op][st].Count(); got != want {
				t.Errorf("%v/%s count = %d, want %d", op, stageNames[st], got, want)
			}
		}
		// Direct commands pass through exec+total, never coalesce.
		check(OpGet, stageExec, gets)
		check(OpGet, stageTotal, gets)
		check(OpGet, stageCoalesce, 0)
		// Coalesced writes pass through coalesce+exec+total.
		check(OpPut, stageCoalesce, puts)
		check(OpPut, stageExec, puts)
		check(OpPut, stageTotal, puts)

		// total spans submit→completion, so its mass dominates exec's.
		sumExec := m.stage[OpGet][stageExec].Sum() + m.stage[OpPut][stageExec].Sum()
		sumTotal := m.stage[OpGet][stageTotal].Sum() + m.stage[OpPut][stageTotal].Sum()
		if sumTotal < sumExec {
			t.Errorf("total stage mass %d < exec mass %d", sumTotal, sumExec)
		}

		// The coalescer committed at least once and merged at least two
		// same-instant writers into one batch.
		if m.batchCommits.Value() == 0 {
			t.Error("no batch commits recorded")
		}
		if m.batchRecords.Count() != m.batchCommits.Value() {
			t.Errorf("batch size histogram count %d != commit counter %d",
				m.batchRecords.Count(), m.batchCommits.Value())
		}
		// All done: the occupancy gauge must be back to zero.
		if d := m.depth.Value(); d != 0 {
			t.Errorf("occupancy gauge = %d after drain, want 0", d)
		}
	})
	eng.Wait()
}

// TestBackpressureCounter: a Depth-1 pipeline with concurrent submitters
// must park at least one of them and count it.
func TestBackpressureCounter(t *testing.T) {
	eng := sim.NewEngine()
	rec := newRecorder(eng, 50*time.Microsecond)
	reg := telemetry.NewRegistry()
	p := New(eng, Config{Depth: 1, Registry: reg}, rec.exec)
	wg := eng.NewWaitGroup()
	eng.Go("main", func() {
		wg.Add(4)
		for i := 0; i < 4; i++ {
			i := i
			eng.Go("sub", func() {
				defer wg.Done()
				if res := p.Submit(&Command{Op: OpGet, Key: uint64(i)}).Wait(); res.Err != nil {
					t.Errorf("get %d: %v", i, res.Err)
				}
			})
		}
		wg.Wait()
		p.Close()
		if p.backpressure.Value() == 0 {
			t.Error("no backpressure waits recorded at depth 1 with 4 submitters")
		}
	})
	eng.Wait()
}
