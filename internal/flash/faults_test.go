package flash

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"github.com/kaml-ssd/kaml/internal/sim"
)

// scriptInjector fails operations per a fixed script: verdicts[i] decides
// the i-th operation of the matching kind; anything past the script is OK.
type scriptInjector struct {
	op    Op
	calls int
	plan  []Verdict
}

func (s *scriptInjector) Decide(op Op, _ PPN, _ time.Duration) Verdict {
	if op != s.op {
		return VerdictOK
	}
	s.calls++
	if s.calls-1 < len(s.plan) {
		return s.plan[s.calls-1]
	}
	return VerdictOK
}

func TestInjectedProgramFailureConsumesPage(t *testing.T) {
	run(t, smallConfig(), func(e *sim.Engine, a *Array) {
		a.SetInjector(&scriptInjector{op: OpProgram, plan: []Verdict{VerdictFail}})
		p0 := a.BlockPPN(0, 0, 0, 0)
		payload := bytes.Repeat([]byte{0xEE}, 64)
		if err := a.ProgramPage(p0, payload, []byte{9}); !errors.Is(err, ErrInjectedFailure) {
			t.Fatalf("err=%v, want injected failure", err)
		}
		// The failed program consumed the page: it reads back as written
		// but holds garbage (all zeros), and the block's program pointer
		// moved on, so the rewrite must land on the next page.
		data, oob, err := a.ReadPage(p0)
		if err != nil {
			t.Fatalf("read of consumed page: %v", err)
		}
		if !bytes.Equal(data, make([]byte, a.Config().PageSize)) || !bytes.Equal(oob, make([]byte, a.Config().OOBSize)) {
			t.Fatal("consumed page should hold zeroed data and OOB")
		}
		if n := a.ProgrammedPages(p0); n != 1 {
			t.Fatalf("ProgrammedPages=%d, want 1", n)
		}
		if err := a.ProgramPage(p0, payload, nil); !errors.Is(err, ErrPageWritten) {
			t.Fatalf("reprogram of consumed page: %v", err)
		}
		p1 := a.BlockPPN(0, 0, 0, 1)
		if err := a.ProgramPage(p1, payload, []byte{9}); err != nil {
			t.Fatalf("rewrite to next page: %v", err)
		}
		got, _, err := a.ReadPage(p1)
		if err != nil || !bytes.Equal(got[:len(payload)], payload) {
			t.Fatalf("rewrite readback: %v", err)
		}
	})
}

func TestInjectedReadFailureIsTransient(t *testing.T) {
	run(t, smallConfig(), func(e *sim.Engine, a *Array) {
		p := a.BlockPPN(0, 0, 0, 0)
		payload := bytes.Repeat([]byte{0x5A}, 128)
		if err := a.ProgramPage(p, payload, []byte{1, 2}); err != nil {
			t.Fatal(err)
		}
		a.SetInjector(&scriptInjector{op: OpRead, plan: []Verdict{VerdictFail, VerdictFail}})
		for i := 0; i < 2; i++ {
			if _, _, err := a.ReadPage(p); !errors.Is(err, ErrInjectedFailure) {
				t.Fatalf("read %d: err=%v, want injected failure", i, err)
			}
		}
		// The medium is untouched: a retry succeeds with the data intact.
		data, oob, err := a.ReadPage(p)
		if err != nil || !bytes.Equal(data[:len(payload)], payload) || oob[0] != 1 {
			t.Fatalf("retry after injected read errors: %v", err)
		}
	})
}

func TestPowerCutProgramLeavesPageUnwritten(t *testing.T) {
	run(t, smallConfig(), func(e *sim.Engine, a *Array) {
		a.SetInjector(&scriptInjector{op: OpProgram, plan: []Verdict{VerdictPowerCut}})
		p := a.BlockPPN(0, 0, 0, 0)
		if err := a.ProgramPage(p, []byte{1}, nil); !errors.Is(err, ErrPowerCut) {
			t.Fatalf("err=%v, want power cut", err)
		}
		if a.Powered() {
			t.Fatal("array still powered after cut")
		}
		// Every operation fails until power returns.
		if _, _, err := a.ReadPage(p); !errors.Is(err, ErrPowerCut) {
			t.Fatalf("read while off: %v", err)
		}
		a.PowerOn()
		if n := a.ProgrammedPages(p); n != 0 {
			t.Fatalf("ProgrammedPages=%d after clean cut, want 0", n)
		}
		if err := a.ProgramPage(p, []byte{1}, nil); err != nil {
			t.Fatalf("program after power on: %v", err)
		}
	})
}

func TestPowerCutTornProgram(t *testing.T) {
	run(t, smallConfig(), func(e *sim.Engine, a *Array) {
		a.SetInjector(&scriptInjector{op: OpProgram, plan: []Verdict{VerdictPowerCutTorn}})
		p := a.BlockPPN(0, 0, 0, 0)
		payload := bytes.Repeat([]byte{0xAA}, 100)
		if err := a.ProgramPage(p, payload, []byte{7}); !errors.Is(err, ErrPowerCut) {
			t.Fatalf("err=%v, want power cut", err)
		}
		a.PowerOn()
		// A torn page was consumed: half the payload, zeroed OOB.
		if n := a.ProgrammedPages(p); n != 1 {
			t.Fatalf("ProgrammedPages=%d after torn cut, want 1", n)
		}
		data, oob, err := a.ReadPage(p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data[:50], payload[:50]) || !bytes.Equal(data[50:100], make([]byte, 50)) {
			t.Fatal("torn page should hold the first half of the payload")
		}
		if !bytes.Equal(oob, make([]byte, a.Config().OOBSize)) {
			t.Fatal("torn page OOB should be zeroed")
		}
	})
}

// A program that fails — injected failure, power cut, torn power cut — never
// takes the caller's buffers: they come back untouched, the consumed page
// (if any) does not share them, and the same buffers program cleanly on the
// next page. The flusher's re-queue path depends on this: it retries the
// very page image whose program just failed.
func TestFailedProgramLeavesBuffersReusable(t *testing.T) {
	for _, v := range []Verdict{VerdictFail, VerdictPowerCut, VerdictPowerCutTorn} {
		run(t, smallConfig(), func(e *sim.Engine, a *Array) {
			fc := a.Config()
			payload := bytes.Repeat([]byte{0x3c}, fc.PageSize)
			oob := []byte{1, 2, 3, 4}
			wantData, wantOOB := bytes.Clone(payload), bytes.Clone(oob)
			a.SetInjector(&scriptInjector{op: OpProgram, plan: []Verdict{v}})
			p := a.BlockPPN(0, 0, 0, 0)
			if err := a.ProgramPage(p, payload, oob); err == nil {
				t.Fatalf("verdict %d: program succeeded", v)
			}
			a.PowerOn()
			if !bytes.Equal(payload, wantData) || !bytes.Equal(oob, wantOOB) {
				t.Fatalf("verdict %d: the failed program changed the caller's buffers", v)
			}
			if a.ProgrammedPages(p) == 1 {
				if stored, _, err := a.ReadPage(p); err != nil || &stored[0] == &payload[0] {
					t.Fatalf("verdict %d: the consumed page shares the caller's buffer (%v)", v, err)
				}
				p++
			}
			if err := a.ProgramPage(p, payload, oob); err != nil {
				t.Fatalf("verdict %d: reprogramming the same buffers: %v", v, err)
			}
			if got, gotOOB, err := a.ReadPage(p); err != nil || !bytes.Equal(got, wantData) || !bytes.Equal(gotOOB, wantOOB) {
				t.Fatalf("verdict %d: the retried page reads back wrong (%v)", v, err)
			}
		})
	}
}
