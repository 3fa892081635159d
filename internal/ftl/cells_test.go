package ftl

import (
	"math/rand"
	"testing"

	"github.com/kaml-ssd/kaml/internal/sim"
	"github.com/kaml-ssd/kaml/internal/telemetry"
)

// TestOneCellPerEvent checks that the GC's two counted events are one cell
// each: the registry's series are the device's cells, and after churn over
// cold data, which makes the collector both erase and copy, Stats() reads
// the same non-zero values.
func TestOneCellPerEvent(t *testing.T) {
	withDevice(t, testFlashConfig(), func(e *sim.Engine, d *Device) {
		hot := d.Capacity() / 8
		for lba := hot; lba < d.Capacity()/2; lba++ {
			if err := d.WriteSector(lba, sectorFor(lba, 0)); err != nil {
				t.Errorf("cold write %d: %v", lba, err)
				return
			}
		}
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 2*d.Capacity(); i++ {
			lba := rng.Intn(hot)
			if err := d.WriteSector(lba, sectorFor(lba, byte(i))); err != nil {
				t.Errorf("write %d: %v", i, err)
				return
			}
		}
		d.Drain()
		st := d.Stats()
		for _, ev := range []struct {
			name, series string
			cell         *telemetry.Counter
			stats        int64
		}{
			{"GCErases", "ftl_gc_erases_total", &d.gcErases, st.GCErases},
			{"GCCopies", "ftl_gc_copied_sectors_total", &d.gcCopies, st.GCCopies},
		} {
			if d.tel.Counter(ev.series) != ev.cell {
				t.Errorf("%s is not the device's cell", ev.series)
			}
			if ev.stats == 0 {
				t.Errorf("Stats().%s = 0: the workload never produced the event", ev.name)
			}
			if got := ev.cell.Value(); got != ev.stats {
				t.Errorf("%s: Stats() says %d, its registry series %d", ev.name, ev.stats, got)
			}
		}
	})
}
