package flash

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
	"time"

	"github.com/kaml-ssd/kaml/internal/sim"
)

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Channels = 2
	cfg.ChipsPerChannel = 2
	cfg.BlocksPerChip = 4
	cfg.PagesPerBlock = 8
	return cfg
}

// run executes fn as the sole actor on a fresh engine and array.
func run(t *testing.T, cfg Config, fn func(e *sim.Engine, a *Array)) {
	t.Helper()
	e := sim.NewEngine()
	a := New(e, cfg)
	e.Go("test", func() { fn(e, a) })
	e.Wait()
}

func TestProgramReadRoundTrip(t *testing.T) {
	run(t, smallConfig(), func(e *sim.Engine, a *Array) {
		p := a.BlockPPN(0, 0, 0, 0)
		data := bytes.Repeat([]byte{0xAB}, 100)
		oob := []byte{1, 2, 3}
		if err := a.ProgramPage(p, data, oob); err != nil {
			t.Fatal(err)
		}
		got, gotOOB, err := a.ReadPage(p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[:100], data) {
			t.Error("data mismatch")
		}
		if len(got) != a.Config().PageSize {
			t.Errorf("page padded to %d, want %d", len(got), a.Config().PageSize)
		}
		if !bytes.Equal(gotOOB[:3], oob) {
			t.Error("oob mismatch")
		}
	})
}

func TestReadUnwrittenFails(t *testing.T) {
	run(t, smallConfig(), func(e *sim.Engine, a *Array) {
		_, _, err := a.ReadPage(5)
		if !errors.Is(err, ErrPageNotWritten) {
			t.Fatalf("err=%v", err)
		}
	})
}

func TestProgramTwiceFails(t *testing.T) {
	run(t, smallConfig(), func(e *sim.Engine, a *Array) {
		p := a.BlockPPN(0, 0, 0, 0)
		if err := a.ProgramPage(p, []byte{1}, nil); err != nil {
			t.Fatal(err)
		}
		if err := a.ProgramPage(p, []byte{2}, nil); !errors.Is(err, ErrPageWritten) {
			t.Fatalf("err=%v", err)
		}
	})
}

func TestProgramOrderEnforced(t *testing.T) {
	run(t, smallConfig(), func(e *sim.Engine, a *Array) {
		if err := a.ProgramPage(a.BlockPPN(0, 0, 0, 2), []byte{1}, nil); !errors.Is(err, ErrProgramOrder) {
			t.Fatalf("err=%v", err)
		}
		// Sequential order succeeds.
		for i := 0; i < 3; i++ {
			if err := a.ProgramPage(a.BlockPPN(0, 0, 0, i), []byte{byte(i)}, nil); err != nil {
				t.Fatal(err)
			}
		}
	})
}

func TestEraseResetsBlock(t *testing.T) {
	run(t, smallConfig(), func(e *sim.Engine, a *Array) {
		p0 := a.BlockPPN(0, 0, 1, 0)
		if err := a.ProgramPage(p0, []byte{7}, nil); err != nil {
			t.Fatal(err)
		}
		if err := a.EraseBlock(p0); err != nil {
			t.Fatal(err)
		}
		if _, _, err := a.ReadPage(p0); !errors.Is(err, ErrPageNotWritten) {
			t.Fatalf("read after erase: %v", err)
		}
		if a.EraseCount(p0) != 1 {
			t.Fatalf("erase count %d", a.EraseCount(p0))
		}
		// Reprogrammable from page 0.
		if err := a.ProgramPage(p0, []byte{8}, nil); err != nil {
			t.Fatal(err)
		}
	})
}

func TestOutOfRange(t *testing.T) {
	run(t, smallConfig(), func(e *sim.Engine, a *Array) {
		bad := PPN(a.Config().TotalPages())
		if _, _, err := a.ReadPage(bad); !errors.Is(err, ErrOutOfRange) {
			t.Fatalf("err=%v", err)
		}
		if err := a.ProgramPage(bad, nil, nil); !errors.Is(err, ErrOutOfRange) {
			t.Fatalf("err=%v", err)
		}
		if err := a.EraseBlock(bad); !errors.Is(err, ErrOutOfRange) {
			t.Fatalf("err=%v", err)
		}
	})
}

func TestOversizeProgramRejected(t *testing.T) {
	run(t, smallConfig(), func(e *sim.Engine, a *Array) {
		big := make([]byte, a.Config().PageSize+1)
		if err := a.ProgramPage(0, big, nil); err == nil {
			t.Fatal("oversize program accepted")
		}
	})
}

func TestEnduranceLimit(t *testing.T) {
	cfg := smallConfig()
	cfg.EraseEndurance = 3
	run(t, cfg, func(e *sim.Engine, a *Array) {
		p := a.BlockPPN(0, 0, 0, 0)
		for i := 0; i < 3; i++ {
			if err := a.EraseBlock(p); err != nil {
				t.Fatal(err)
			}
		}
		if err := a.EraseBlock(p); !errors.Is(err, ErrWornOut) {
			t.Fatalf("err=%v", err)
		}
		if err := a.ProgramPage(p, []byte{1}, nil); !errors.Is(err, ErrWornOut) {
			t.Fatalf("program on worn block: %v", err)
		}
	})
}

func TestInjectedEraseFailure(t *testing.T) {
	run(t, smallConfig(), func(e *sim.Engine, a *Array) {
		p := a.BlockPPN(1, 0, 2, 0)
		a.InjectEraseFailure(p)
		if err := a.EraseBlock(p); !errors.Is(err, ErrInjectedFailure) {
			t.Fatalf("err=%v", err)
		}
		// Failure is one-shot.
		if err := a.EraseBlock(p); err != nil {
			t.Fatalf("second erase: %v", err)
		}
	})
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cfg := smallConfig()
	e := sim.NewEngine()
	a := New(e, cfg)
	f := func(raw uint32) bool {
		p := PPN(raw % uint32(cfg.TotalPages()))
		addr := a.Decode(p)
		if addr.Channel < 0 || addr.Channel >= cfg.Channels ||
			addr.Chip < 0 || addr.Chip >= cfg.ChipsPerChannel ||
			addr.Block < 0 || addr.Block >= cfg.BlocksPerChip ||
			addr.Page < 0 || addr.Page >= cfg.PagesPerBlock {
			return false
		}
		return a.Encode(addr) == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestChipSerializationTiming(t *testing.T) {
	// Two programs to the same chip serialize; to different channels overlap.
	cfg := smallConfig()
	e := sim.NewEngine()
	a := New(e, cfg)
	var sameChip, diffChan time.Duration
	e.Go("same-chip", func() {
		wg := e.NewWaitGroup()
		start := e.Now()
		for i := 0; i < 2; i++ {
			i := i
			wg.Add(1)
			e.Go("w", func() {
				defer wg.Done()
				if err := a.ProgramPage(a.BlockPPN(0, 0, i, 0), []byte{1}, nil); err != nil {
					t.Error(err)
				}
			})
		}
		wg.Wait()
		sameChip = e.Now() - start

		start = e.Now()
		wg2 := e.NewWaitGroup()
		for c := 0; c < 2; c++ {
			c := c
			wg2.Add(1)
			e.Go("w", func() {
				defer wg2.Done()
				if err := a.ProgramPage(a.BlockPPN(c, 0, 2, 0), []byte{1}, nil); err != nil {
					t.Error(err)
				}
			})
		}
		wg2.Wait()
		diffChan = e.Now() - start
	})
	e.Wait()
	if sameChip <= diffChan {
		t.Fatalf("same-chip %v should exceed cross-channel %v", sameChip, diffChan)
	}
	// Cross-channel programs should cost ~one program + one transfer.
	oneOp := cfg.ProgramLatency + cfg.TransferTime(cfg.PageSize+cfg.OOBSize)
	if diffChan > oneOp+time.Microsecond {
		t.Fatalf("cross-channel %v exceeds single op %v", diffChan, oneOp)
	}
}

func TestStatsCount(t *testing.T) {
	run(t, smallConfig(), func(e *sim.Engine, a *Array) {
		p := a.BlockPPN(0, 0, 0, 0)
		_ = a.ProgramPage(p, []byte{1}, nil)
		_, _, _ = a.ReadPage(p)
		_ = a.EraseBlock(p)
		s := a.Stats()
		if s.Programs != 1 || s.Reads != 1 || s.Erases != 1 {
			t.Fatalf("stats=%+v", s)
		}
	})
}

// ReadRange senses the page like ReadPage and then moves only the ECC
// sectors its bytes touch: 1 056 B each (a 1 KiB codeword and its 32 B share
// of the spare area), 2.64 µs on a 400 MB/s channel. Its failures are
// ReadPage's, and what it returns is a view of the page that an append
// cannot write through.
func TestReadRangeChargesTheSectorsItTouches(t *testing.T) {
	run(t, smallConfig(), func(e *sim.Engine, a *Array) {
		fc := a.Config()
		sector := 2640 * time.Nanosecond
		if got := fc.TransferTime((fc.PageSize + fc.OOBSize) / 8); got != sector {
			t.Fatalf("a sector transfers in %v, want %v", got, sector)
		}
		page := make([]byte, fc.PageSize)
		for i := range page {
			page[i] = byte(i * 7)
		}
		p := a.BlockPPN(0, 0, 0, 0)
		if err := a.ProgramPage(p, bytes.Clone(page), []byte{1}); err != nil {
			t.Fatal(err)
		}
		timed := func(off, n int) ([]byte, time.Duration) {
			t.Helper()
			start := e.Now()
			got, err := a.ReadRange(p, off, n)
			if err != nil {
				t.Fatalf("ReadRange(%d, %d): %v", off, n, err)
			}
			if !bytes.Equal(got, page[off:off+n]) {
				t.Fatalf("ReadRange(%d, %d) returned the wrong bytes", off, n)
			}
			return got, e.Now() - start
		}
		for _, c := range []struct {
			name    string
			off, n  int
			sectors int
		}{
			{"inside one sector", 3 * 128, 128, 1},
			{"straddling a boundary", ECCSectorSize - 64, 128, 2},
			{"one whole sector", 2 * ECCSectorSize, ECCSectorSize, 1},
			{"a 4 KB half page", fc.PageSize / 2, 4096, 4},
		} {
			if _, took := timed(c.off, c.n); took != fc.ReadLatency+time.Duration(c.sectors)*sector {
				t.Errorf("%s: %v, want ReadLatency + %d × %v", c.name, took, c.sectors, sector)
			}
		}
		start := e.Now()
		if _, _, err := a.ReadPage(p); err != nil {
			t.Fatal(err)
		}
		whole := e.Now() - start
		if _, took := timed(0, fc.PageSize); took != whole || whole != fc.ReadLatency+8*sector {
			t.Errorf("[0, PageSize) takes %v, ReadPage %v; want both ReadLatency + 8 × %v", took, whole, sector)
		}

		// A returned range is capacity-capped: appending copies it away
		// instead of writing into the page behind it.
		got, _ := timed(128, 128)
		if cap(got) != len(got) {
			t.Errorf("range has capacity %d beyond its %d bytes", cap(got), len(got))
		}
		_ = append(got, 0xff)
		if stored, _, _ := a.ReadPage(p); stored[256] != page[256] {
			t.Error("an append to a returned range wrote into the page")
		}

		for _, bad := range [][2]int{{0, 0}, {0, -1}, {-1, 128}, {fc.PageSize - 64, 128}, {fc.PageSize, 1}} {
			if _, err := a.ReadRange(p, bad[0], bad[1]); !errors.Is(err, ErrOutOfRange) {
				t.Errorf("ReadRange(%d, %d): err=%v, want ErrOutOfRange", bad[0], bad[1], err)
			}
		}

		// Failures are ReadPage's, and a read counts once.
		reads := a.Stats().Reads
		if _, err := a.ReadRange(a.BlockPPN(0, 0, 0, 1), 0, 128); !errors.Is(err, ErrPageNotWritten) {
			t.Errorf("unwritten page: err=%v", err)
		}
		a.SetInjector(&scriptInjector{op: OpRead, plan: []Verdict{VerdictFail, VerdictPowerCut}})
		start = e.Now()
		if _, err := a.ReadRange(p, 0, 128); !errors.Is(err, ErrInjectedFailure) || e.Now()-start != fc.ReadLatency {
			t.Errorf("injected failure: err=%v after %v, want ErrInjectedFailure after the sensing", err, e.Now()-start)
		}
		if _, err := a.ReadRange(p, 0, 128); !errors.Is(err, ErrPowerCut) || a.Powered() {
			t.Errorf("injected power cut: err=%v, powered=%v", err, a.Powered())
		}
		if _, err := a.ReadRange(p, 0, 128); !errors.Is(err, ErrPowerCut) {
			t.Errorf("read while off: err=%v", err)
		}
		a.PowerOn()
		if s := a.Stats(); s.Reads != reads {
			t.Errorf("failed reads counted: %d reads, want %d", s.Reads, reads)
		}
		timed(0, 128)
		if s := a.Stats(); s.Reads != reads+1 {
			t.Errorf("a range read counts %d reads, want 1", s.Reads-reads)
		}
	})
}

// A full page is kept, not copied: ReadPage returns the very buffer
// ProgramPage was handed, and the OOB as long as it was programmed. A short
// page is padded into a page of its own, leaving the caller's slice alone.
func TestProgramKeepsTheCallersPage(t *testing.T) {
	run(t, smallConfig(), func(e *sim.Engine, a *Array) {
		full := bytes.Repeat([]byte{0x5e}, a.Config().PageSize)
		oob := []byte{9, 8, 7}
		p := a.BlockPPN(0, 0, 0, 0)
		if err := a.ProgramPage(p, full, oob); err != nil {
			t.Fatal(err)
		}
		got, gotOOB, err := a.ReadPage(p)
		if err != nil {
			t.Fatal(err)
		}
		if &got[0] != &full[0] || len(got) != len(full) || cap(got) != len(full) {
			t.Error("ReadPage does not return the programmed page itself")
		}
		if !bytes.Equal(gotOOB, oob) {
			t.Errorf("OOB reads back as %v, want %v as programmed", gotOOB, oob)
		}
		short := make([]byte, 10, a.Config().PageSize)
		if err := a.ProgramPage(p+1, short, nil); err != nil {
			t.Fatal(err)
		}
		padded, _, err := a.ReadPage(p + 1)
		if err != nil || len(padded) != a.Config().PageSize || &padded[0] == &short[0] {
			t.Errorf("a short page is not padded into a page of its own (%v)", err)
		}
	})
}
