package ftl

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"github.com/kaml-ssd/kaml/internal/flash"
	"github.com/kaml-ssd/kaml/internal/nvme"
	"github.com/kaml-ssd/kaml/internal/sim"
)

func testFlashConfig() flash.Config {
	fc := flash.DefaultConfig()
	fc.Channels = 4
	fc.ChipsPerChannel = 2
	fc.BlocksPerChip = 8
	fc.PagesPerBlock = 8
	return fc
}

func newTestDevice(fc flash.Config) (*sim.Engine, *Device) {
	e := sim.NewEngine()
	arr := flash.New(e, fc)
	ctrl := nvme.New(e, nvme.DefaultConfig())
	d := New(arr, ctrl)
	return e, d
}

// withDevice runs fn as an actor and closes the device afterwards.
func withDevice(t *testing.T, fc flash.Config, fn func(e *sim.Engine, d *Device)) {
	t.Helper()
	e, d := newTestDevice(fc)
	e.Go("test", func() {
		defer d.Close()
		fn(e, d)
	})
	e.Wait()
}

func sectorFor(lba int, tag byte) []byte {
	s := make([]byte, SectorSize)
	binary.LittleEndian.PutUint64(s, uint64(lba))
	s[8] = tag
	return s
}

func TestWriteReadRoundTrip(t *testing.T) {
	withDevice(t, testFlashConfig(), func(e *sim.Engine, d *Device) {
		for lba := 0; lba < 10; lba++ {
			if err := d.WriteSector(lba, sectorFor(lba, 1)); err != nil {
				t.Fatal(err)
			}
		}
		buf := make([]byte, SectorSize)
		for lba := 0; lba < 10; lba++ {
			if err := d.ReadSector(lba, buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, sectorFor(lba, 1)) {
				t.Fatalf("lba %d mismatch", lba)
			}
		}
	})
}

func TestReadAfterFlushHitsFlash(t *testing.T) {
	withDevice(t, testFlashConfig(), func(e *sim.Engine, d *Device) {
		if err := d.WriteSector(3, sectorFor(3, 7)); err != nil {
			t.Fatal(err)
		}
		d.Drain()
		st := d.Stats()
		if st.Programs == 0 {
			t.Fatal("flush did not program flash")
		}
		buf := make([]byte, SectorSize)
		if err := d.ReadSector(3, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, sectorFor(3, 7)) {
			t.Fatal("mismatch after flush")
		}
	})
}

func TestOverwriteReturnsLatest(t *testing.T) {
	withDevice(t, testFlashConfig(), func(e *sim.Engine, d *Device) {
		for v := byte(1); v <= 5; v++ {
			if err := d.WriteSector(9, sectorFor(9, v)); err != nil {
				t.Fatal(err)
			}
			if v == 3 {
				d.Drain()
			}
		}
		buf := make([]byte, SectorSize)
		if err := d.ReadSector(9, buf); err != nil {
			t.Fatal(err)
		}
		if buf[8] != 5 {
			t.Fatalf("tag=%d want 5", buf[8])
		}
	})
}

func TestReadUnmappedFails(t *testing.T) {
	withDevice(t, testFlashConfig(), func(e *sim.Engine, d *Device) {
		buf := make([]byte, SectorSize)
		if err := d.ReadSector(100, buf); !errors.Is(err, ErrUnmapped) {
			t.Fatalf("err=%v", err)
		}
	})
}

func TestBadArguments(t *testing.T) {
	withDevice(t, testFlashConfig(), func(e *sim.Engine, d *Device) {
		buf := make([]byte, SectorSize)
		if err := d.ReadSector(-1, buf); !errors.Is(err, ErrBadLBA) {
			t.Fatalf("read -1: %v", err)
		}
		if err := d.ReadSector(d.Capacity(), buf); !errors.Is(err, ErrBadLBA) {
			t.Fatalf("read cap: %v", err)
		}
		if err := d.WriteSector(0, make([]byte, 100)); !errors.Is(err, ErrBadSize) {
			t.Fatalf("short write: %v", err)
		}
		if err := d.WritePartial(0, SectorSize-10, make([]byte, 20)); !errors.Is(err, ErrBadSize) {
			t.Fatalf("overflowing partial: %v", err)
		}
	})
}

func TestPartialWriteMergesWithFlash(t *testing.T) {
	withDevice(t, testFlashConfig(), func(e *sim.Engine, d *Device) {
		if err := d.WriteSector(4, sectorFor(4, 1)); err != nil {
			t.Fatal(err)
		}
		d.Drain()
		patch := []byte{0xEE, 0xEE, 0xEE}
		if err := d.WritePartial(4, 100, patch); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, SectorSize)
		if err := d.ReadSector(4, buf); err != nil {
			t.Fatal(err)
		}
		want := sectorFor(4, 1)
		copy(want[100:], patch)
		if !bytes.Equal(buf, want) {
			t.Fatal("merge mismatch")
		}
		if d.Stats().RMWReads != 1 {
			t.Fatalf("RMWReads=%d want 1", d.Stats().RMWReads)
		}
	})
}

func TestPartialWriteOnUnmappedLBA(t *testing.T) {
	withDevice(t, testFlashConfig(), func(e *sim.Engine, d *Device) {
		if err := d.WritePartial(8, 0, []byte{1, 2, 3}); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, SectorSize)
		if err := d.ReadSector(8, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != 1 || buf[1] != 2 || buf[2] != 3 || buf[100] != 0 {
			t.Fatal("partial on unmapped: bad contents")
		}
		if d.Stats().RMWReads != 0 {
			t.Fatal("unmapped partial should not read flash")
		}
	})
}

func TestSmallWriteLatencyIncludesRMW(t *testing.T) {
	// The paper's small-write cliff: a sub-4KB update of a flash-resident
	// sector must take at least a flash read longer than an aligned write.
	withDevice(t, testFlashConfig(), func(e *sim.Engine, d *Device) {
		if err := d.WriteSector(2, sectorFor(2, 1)); err != nil {
			t.Fatal(err)
		}
		d.Drain()
		start := e.Now()
		if err := d.WriteSector(2, sectorFor(2, 2)); err != nil {
			t.Fatal(err)
		}
		aligned := e.Now() - start
		d.Drain()
		start = e.Now()
		if err := d.WritePartial(2, 0, make([]byte, 512)); err != nil {
			t.Fatal(err)
		}
		partial := e.Now() - start
		fc := testFlashConfig()
		if partial < aligned+fc.ReadLatency {
			t.Fatalf("partial %v should exceed aligned %v by >= read latency %v",
				partial, aligned, fc.ReadLatency)
		}
	})
}

func TestGCReclaimsSpaceUnderChurn(t *testing.T) {
	fc := testFlashConfig()
	e, d := newTestDevice(fc)
	// Working set is small; overwrite it far more times than raw capacity
	// so the device must garbage collect to survive.
	raw := fc.TotalPages() * (fc.PageSize / SectorSize)
	hot := raw / 8
	writes := raw * 3
	e.Go("churn", func() {
		defer d.Close()
		rng := rand.New(rand.NewSource(1))
		latest := make(map[int]byte)
		for i := 0; i < writes; i++ {
			lba := rng.Intn(hot)
			tag := byte(i)
			if err := d.WriteSector(lba, sectorFor(lba, tag)); err != nil {
				t.Errorf("write %d: %v", i, err)
				return
			}
			latest[lba] = tag
		}
		d.Drain()
		buf := make([]byte, SectorSize)
		for lba, tag := range latest {
			if err := d.ReadSector(lba, buf); err != nil {
				t.Errorf("read %d: %v", lba, err)
				return
			}
			if buf[8] != tag {
				t.Errorf("lba %d tag=%d want %d", lba, buf[8], tag)
				return
			}
		}
		st := d.Stats()
		if st.GCErases == 0 {
			t.Error("GC never ran despite churn")
		}
	})
	e.Wait()
}

func TestGCSurvivesEraseFailure(t *testing.T) {
	fc := testFlashConfig()
	e := sim.NewEngine()
	arr := flash.New(e, fc)
	ctrl := nvme.New(e, nvme.DefaultConfig())
	d := New(arr, ctrl)
	// Poison a handful of blocks: their next erase fails and the FTL must
	// retire them and keep serving I/O.
	for b := 0; b < 3; b++ {
		arr.InjectEraseFailure(arr.BlockPPN(0, 0, b, 0))
	}
	raw := fc.TotalPages() * (fc.PageSize / SectorSize)
	hot := raw / 8
	e.Go("churn", func() {
		defer d.Close()
		rng := rand.New(rand.NewSource(2))
		for i := 0; i < raw*2; i++ {
			lba := rng.Intn(hot)
			if err := d.WriteSector(lba, sectorFor(lba, byte(i))); err != nil {
				t.Errorf("write: %v", err)
				return
			}
		}
	})
	e.Wait()
}

func TestAlignedWriteAckIsFast(t *testing.T) {
	// A 4KB write must be acknowledged without any flash program in the
	// critical path (NV-DRAM ack), i.e. well under the program latency.
	withDevice(t, testFlashConfig(), func(e *sim.Engine, d *Device) {
		start := e.Now()
		if err := d.WriteSector(0, sectorFor(0, 1)); err != nil {
			t.Fatal(err)
		}
		lat := e.Now() - start
		if lat >= testFlashConfig().ProgramLatency {
			t.Fatalf("aligned write ack %v not faster than program %v",
				lat, testFlashConfig().ProgramLatency)
		}
	})
}

func TestConcurrentWritersMakeProgress(t *testing.T) {
	fc := testFlashConfig()
	e, d := newTestDevice(fc)
	const workers = 8
	const perWorker = 100
	wg := e.NewWaitGroup()
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		w := w
		e.Go("writer", func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				lba := w*perWorker + i
				if err := d.WriteSector(lba, sectorFor(lba, byte(w))); err != nil {
					t.Errorf("w%d: %v", w, err)
					return
				}
			}
		})
	}
	e.Go("join", func() {
		wg.Wait()
		buf := make([]byte, SectorSize)
		for w := 0; w < workers; w++ {
			for i := 0; i < perWorker; i++ {
				lba := w*perWorker + i
				if err := d.ReadSector(lba, buf); err != nil {
					t.Errorf("read %d: %v", lba, err)
					return
				}
				if buf[8] != byte(w) {
					t.Errorf("lba %d tag %d want %d", lba, buf[8], w)
					return
				}
			}
		}
		d.Close()
	})
	e.Wait()
}

func TestCloseIsIdempotent(t *testing.T) {
	e, d := newTestDevice(testFlashConfig())
	e.Go("test", func() {
		d.Close()
		d.Close()
	})
	e.Wait()
}

func TestWriteBufferCoalescing(t *testing.T) {
	b := newWriteBuffer(8)
	b.put(1, []byte{1})
	b.put(1, []byte{2})
	if b.len() != 1 {
		t.Fatalf("len=%d", b.len())
	}
	got, _ := b.get(1)
	if got[0] != 2 {
		t.Fatal("coalesce lost newest data")
	}
}

func TestWriteBufferDrainRace(t *testing.T) {
	// A put during drain must supersede the drained version.
	b := newWriteBuffer(8)
	b.put(1, []byte{1})
	lbas, _, seqs := b.take(4)
	if len(lbas) != 1 {
		t.Fatal("take failed")
	}
	b.put(1, []byte{9}) // host rewrite mid-drain
	if b.finish(lbas[0], seqs[0]) {
		t.Fatal("stale drain reported current")
	}
	got, ok := b.get(1)
	if !ok || got[0] != 9 {
		t.Fatal("newest version lost")
	}
	// The rewrite is queued again for the flusher.
	lbas, _, seqs = b.take(4)
	if len(lbas) != 1 {
		t.Fatal("rewrite not requeued")
	}
	if !b.finish(lbas[0], seqs[0]) {
		t.Fatal("fresh drain reported stale")
	}
	if b.has(1) {
		t.Fatal("entry not removed after clean finish")
	}
}

func TestReadLatencyBudget(t *testing.T) {
	// A cold read costs transport + range lock + flash sensing + the transfer
	// of the four ECC sectors that hold its 4 KB sector (half the page), to
	// the nanosecond: no hidden stall, and no whole-page transfer.
	withDevice(t, testFlashConfig(), func(e *sim.Engine, d *Device) {
		if err := d.WriteSector(1, sectorFor(1, 1)); err != nil {
			t.Fatal(err)
		}
		d.Drain()
		buf := make([]byte, SectorSize)
		start := e.Now()
		if err := d.ReadSector(1, buf); err != nil {
			t.Fatal(err)
		}
		lat := e.Now() - start
		fc := testFlashConfig()
		nc := nvme.DefaultConfig()
		xfer := fc.TransferTime((fc.PageSize + fc.OOBSize) / 2) // 4 of 8 codewords
		want := nc.HostSoftware + nc.SubmissionLatency + rangeLockCost +
			fc.ReadLatency + xfer + nc.CompletionLatency
		if lat != want {
			t.Fatalf("read latency %v, want %v (transfer %v)", lat, want, xfer)
		}
	})
}

func TestFlushIsCheapDrainIsStrong(t *testing.T) {
	// Flush models fsync on a battery-backed buffer: a command round trip,
	// far cheaper than waiting for flash programs. Drain really waits.
	withDevice(t, testFlashConfig(), func(e *sim.Engine, d *Device) {
		for lba := 0; lba < 8; lba++ {
			if err := d.WriteSector(lba, sectorFor(lba, 1)); err != nil {
				t.Fatal(err)
			}
		}
		start := e.Now()
		d.Flush()
		flushTime := e.Now() - start
		if flushTime >= testFlashConfig().ProgramLatency {
			t.Fatalf("Flush took %v — it must not wait for programs", flushTime)
		}
		d.Drain()
		if d.Stats().Programs == 0 {
			t.Fatal("Drain did not push data to flash")
		}
	})
}

func TestWritePartialTooLong(t *testing.T) {
	withDevice(t, testFlashConfig(), func(e *sim.Engine, d *Device) {
		if err := d.WritePartial(0, 0, make([]byte, SectorSize+1)); !errors.Is(err, ErrBadSize) {
			t.Fatalf("err=%v", err)
		}
	})
}
