package lockmgr

import (
	"errors"
	"testing"
	"time"

	"github.com/kaml-ssd/kaml/internal/sim"
	"github.com/kaml-ssd/kaml/internal/telemetry"
)

// TestOneCellPerEvent checks that each event the manager counts is one cell:
// the series Instrument lists are the manager's cells, so they read the
// counts from before the call too, and Backoffs reads the backoff cell.
func TestOneCellPerEvent(t *testing.T) {
	e := sim.NewEngine()
	m := New(e, 1)
	reg := telemetry.NewRegistry()
	e.Go("test", func() {
		older, younger := m.NewTxn(1), m.NewTxn(2)
		if err := m.Acquire(older, 0, 1, Exclusive); err != nil {
			t.Error(err)
		}
		if err := m.Acquire(younger, 0, 1, Exclusive); !errors.Is(err, ErrDie) {
			t.Errorf("younger requester: %v, want ErrDie", err)
		}
		m.Backoff()
		m.Instrument(reg)

		// The older transaction waits once for a younger holder.
		if err := m.Acquire(younger, 0, 2, Exclusive); err != nil {
			t.Error(err)
		}
		wg := e.NewWaitGroup()
		wg.Add(1)
		e.Go("older", func() {
			defer wg.Done()
			if err := m.Acquire(older, 0, 2, Shared); err != nil {
				t.Error(err)
			}
		})
		e.Sleep(time.Microsecond)
		m.ReleaseAll(younger)
		wg.Wait()
		m.ReleaseAll(older)
	})
	e.Wait()
	for _, ev := range []struct {
		series string
		cell   *telemetry.Counter
		want   int64
	}{
		{"kaml_lockmgr_acquires_total", &m.acquires, 4},
		{"kaml_lockmgr_waits_total", &m.waits, 1},
		{"kaml_lockmgr_dies_total", &m.dies, 1},
		{"kaml_lockmgr_backoffs_total", &m.backoffs, 1},
	} {
		if got := reg.Counter(ev.series); got != ev.cell {
			t.Errorf("%s is not the manager's cell", ev.series)
		}
		if got := ev.cell.Value(); got != ev.want {
			t.Errorf("%s = %d, want %d", ev.series, got, ev.want)
		}
	}
	if got := m.Backoffs(); got != 1 {
		t.Errorf("Backoffs() = %d, want 1", got)
	}
}
