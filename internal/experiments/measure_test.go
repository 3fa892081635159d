package experiments

import (
	"math/rand"
	"testing"
	"time"

	"github.com/kaml-ssd/kaml/internal/sim"
)

// measure counts an op exactly when open, read after the op returns, says
// the window is open: sisweep counts its aborts through open and relies on
// that instant to agree with measure's own count. An op that returns false
// stops only its own worker and is not counted, and every counted op
// reaches OpsCompleted.
func TestMeasureCountsWhatOpenSees(t *testing.T) {
	const workers, stopAfter = 4, 3
	eng := sim.NewEngine()
	started := make([]int64, workers)
	seen := make([]int64, workers)
	before := OpsCompleted()
	var got int64
	eng.Go("main", func() {
		got = measure(eng, workers, time.Millisecond, 5*time.Millisecond,
			func(w int, rng *rand.Rand, open func() bool) bool {
				started[w]++
				eng.Sleep(time.Duration(1+rng.Intn(50)) * time.Microsecond)
				if !open() {
					// Stop once the window has closed, so that only the
					// op astride its opening is counted by one reading
					// of the window and not by the other.
					return seen[w] == 0 && (w != 0 || started[w] < stopAfter)
				}
				seen[w]++
				return true
			})
	})
	eng.Wait()

	var counted, ran int64
	for w := range seen {
		counted += seen[w]
		ran += started[w]
	}
	if got == 0 || got != counted {
		t.Fatalf("measure counted %d ops; open() saw %d after its ops", got, counted)
	}
	if ran <= got {
		t.Errorf("%d ops ran and all %d were counted: the warm-up counted too", ran, got)
	}
	if started[0] != stopAfter || seen[0] != 0 {
		t.Errorf("worker 0 ran %d ops (%d in the window) after stopping at op %d",
			started[0], seen[0], stopAfter)
	}
	if d := OpsCompleted() - before; d != got {
		t.Errorf("OpsCompleted rose by %d; measure counted %d", d, got)
	}
}
