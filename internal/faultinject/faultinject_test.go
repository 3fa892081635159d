package faultinject

import (
	"testing"
	"time"

	"github.com/kaml-ssd/kaml/internal/flash"
)

func TestCutAfterPrograms(t *testing.T) {
	p := New(Config{CutAfterPrograms: 3})
	for i := 0; i < 2; i++ {
		if v := p.Decide(flash.OpProgram, 0, 0); v != flash.VerdictOK {
			t.Fatalf("program %d: verdict %v", i, v)
		}
	}
	if v := p.Decide(flash.OpProgram, 0, 0); v != flash.VerdictPowerCut {
		t.Fatalf("3rd program: verdict %v, want power cut", v)
	}
	// The cut fires once; later ops are OK from the plan's point of view
	// (the array itself stays powered off until PowerOn).
	if v := p.Decide(flash.OpProgram, 0, 0); v != flash.VerdictOK {
		t.Fatalf("post-cut program: verdict %v", v)
	}
}

func TestCutAtTime(t *testing.T) {
	p := New(Config{CutAtTime: time.Millisecond})
	if v := p.Decide(flash.OpRead, 0, 500*time.Microsecond); v != flash.VerdictOK {
		t.Fatalf("pre-deadline read: %v", v)
	}
	if v := p.Decide(flash.OpRead, 0, time.Millisecond); v != flash.VerdictPowerCut {
		t.Fatalf("post-deadline read: %v", v)
	}
}

func TestTornPageOnCut(t *testing.T) {
	p := New(Config{CutAfterPrograms: 1, TornPageOnCut: true})
	if v := p.Decide(flash.OpProgram, 0, 0); v != flash.VerdictPowerCutTorn {
		t.Fatalf("verdict %v, want torn power cut", v)
	}
}

func TestSeededProbabilitiesAreDeterministic(t *testing.T) {
	run := func() []flash.Verdict {
		p := New(Config{Seed: 42, ProgramFailProb: 0.3})
		var out []flash.Verdict
		for i := 0; i < 100; i++ {
			out = append(out, p.Decide(flash.OpProgram, flash.PPN(i), 0))
		}
		return out
	}
	a, b := run(), run()
	fails := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs between identical plans", i)
		}
		if a[i] == flash.VerdictFail {
			fails++
		}
	}
	if fails == 0 || fails == 100 {
		t.Fatalf("expected a mix of verdicts at p=0.3, got %d/100 failures", fails)
	}
}

func TestSetProbsRetargetsAtRuntime(t *testing.T) {
	p := New(Config{Seed: 7})
	for i := 0; i < 200; i++ {
		if v := p.Decide(flash.OpRead, 0, 0); v != flash.VerdictOK {
			t.Fatalf("benign plan injected %v", v)
		}
	}
	p.SetProbs(1.0, 0, 0)
	if v := p.Decide(flash.OpRead, 0, 0); v != flash.VerdictFail {
		t.Fatalf("read at p=1.0: verdict %v, want fail", v)
	}
	if v := p.Decide(flash.OpProgram, 0, 0); v != flash.VerdictOK {
		t.Fatalf("program untouched by read prob: verdict %v", v)
	}
	p.SetProbs(0, 0, 0)
	for i := 0; i < 200; i++ {
		if v := p.Decide(flash.OpRead, 0, 0); v != flash.VerdictOK {
			t.Fatalf("reset plan injected %v", v)
		}
	}
}

func TestCutNowInterruptsNextOpAndRearms(t *testing.T) {
	p := New(Config{})
	p.CutNow(false)
	if v := p.Decide(flash.OpRead, 0, 0); v != flash.VerdictPowerCut {
		t.Fatalf("armed cut: verdict %v", v)
	}
	if !p.cut {
		t.Fatalf("cut not latched")
	}
	if v := p.Decide(flash.OpProgram, 0, 0); v != flash.VerdictOK {
		t.Fatalf("cut delivered twice: %v", v)
	}
	// Re-arming after a delivered cut works (multi-crash scenarios).
	p.CutNow(true)
	if v := p.Decide(flash.OpProgram, 0, 0); v != flash.VerdictPowerCutTorn {
		t.Fatalf("re-armed torn cut: verdict %v", v)
	}
	if v := p.Decide(flash.OpRead, 0, 0); v != flash.VerdictOK {
		t.Fatalf("re-armed cut delivered twice: %v", v)
	}
}

func TestZeroConfigNeverInjects(t *testing.T) {
	p := New(Config{})
	for i := 0; i < 1000; i++ {
		if v := p.Decide(flash.OpProgram, 0, time.Duration(i)); v != flash.VerdictOK {
			t.Fatalf("zero config injected %v", v)
		}
	}
}
