// Package faultinject provides deterministic, seeded fault plans for the
// flash array simulator. A Plan implements flash.Injector and generalizes
// the array's original one-shot erase-failure hook into a full fault model:
// per-operation failure probabilities (read errors, program failures, erase
// failures) drawn from a seeded PRNG, plus a power cut triggered either at
// a chosen virtual time or after a chosen number of program attempts.
//
// Count-based cuts are exactly reproducible regardless of actor scheduling;
// probability draws are reproducible given the same sequence of operations.
// The kamlssd crash-consistency torture test sweeps seeds over both.
package faultinject

import (
	"math/rand"
	"time"

	"github.com/kaml-ssd/kaml/internal/flash"
)

// Config describes one fault plan.
type Config struct {
	// Seed initializes the plan's PRNG for probability draws.
	Seed int64

	// Per-operation failure probabilities in [0, 1]. A failed program
	// consumes the page with garbage (the firmware must rewrite the payload
	// to a fresh page); failed reads and erases leave the medium untouched.
	ReadFailProb    float64
	ProgramFailProb float64
	EraseFailProb   float64

	// CutAfterPrograms, when > 0, cuts power on the Nth program attempt
	// (the Nth program never takes effect). Deterministic under any actor
	// schedule because it counts operations, not time.
	CutAfterPrograms int

	// CutAtTime, when > 0, cuts power at the first operation issued at or
	// after the given virtual time.
	CutAtTime time.Duration

	// TornPageOnCut makes a program-triggered power cut leave a torn page
	// (partial data, zeroed OOB) instead of an unwritten one, exercising
	// the recovery scanner's corruption detection.
	TornPageOnCut bool
}

// Plan is a live fault plan; install it with flash.Array.SetInjector.
// Like the array, it is used only by the actors of the array's engine,
// which run one at a time, so it needs no lock.
type Plan struct {
	cfg      Config
	rng      *rand.Rand
	programs int  // program attempts seen so far
	cut      bool // power cut already delivered
	cutNow   bool // CutNow armed: next operation cuts power
	cutTorn  bool // CutNow torn-page variant
}

// New builds a plan from cfg.
func New(cfg Config) *Plan {
	return &Plan{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// SetProbs retargets the per-operation failure probabilities at run time.
// The traffic simulator uses this to model flash aging: error rates ramp
// up over a scenario's virtual lifetime instead of being fixed at Open.
// Probability draws keep consuming the same seeded PRNG stream, so two
// runs applying the same SetProbs schedule stay deterministic.
func (p *Plan) SetProbs(read, program, erase float64) {
	p.cfg.ReadFailProb = read
	p.cfg.ProgramFailProb = program
	p.cfg.EraseFailProb = erase
}

// CutNow arms an immediate power cut: the next flash operation the plan
// sees is interrupted (torn leaves a partially-programmed page when that
// operation is a program). Unlike the count/time cuts configured at New,
// CutNow is triggered by an actor at a chosen point in virtual time —
// the traffic simulator's scripted power-cut events use it.
// Each call arms exactly one cut: a plan that already delivered a cut
// (scripted or configured) is re-armed, so a scenario can crash a device
// repeatedly across recoveries.
func (p *Plan) CutNow(torn bool) {
	p.cut = false
	p.cutNow, p.cutTorn = true, torn
}

// Decide implements flash.Injector.
func (p *Plan) Decide(op flash.Op, ppn flash.PPN, now time.Duration) flash.Verdict {
	if !p.cut && p.cutNow {
		p.cut, p.cutNow = true, false
		if op == flash.OpProgram && p.cutTorn {
			return flash.VerdictPowerCutTorn
		}
		return flash.VerdictPowerCut
	}
	if !p.cut && p.cfg.CutAtTime > 0 && now >= p.cfg.CutAtTime {
		p.cut = true
		if op == flash.OpProgram && p.cfg.TornPageOnCut {
			return flash.VerdictPowerCutTorn
		}
		return flash.VerdictPowerCut
	}
	if op == flash.OpProgram {
		p.programs++
		if !p.cut && p.cfg.CutAfterPrograms > 0 && p.programs >= p.cfg.CutAfterPrograms {
			p.cut = true
			if p.cfg.TornPageOnCut {
				return flash.VerdictPowerCutTorn
			}
			return flash.VerdictPowerCut
		}
	}
	prob := 0.0
	switch op {
	case flash.OpRead:
		prob = p.cfg.ReadFailProb
	case flash.OpProgram:
		prob = p.cfg.ProgramFailProb
	case flash.OpErase:
		prob = p.cfg.EraseFailProb
	}
	if prob > 0 && p.rng.Float64() < prob {
		return flash.VerdictFail
	}
	return flash.VerdictOK
}

// Programs returns how many program attempts the plan has observed.
func (p *Plan) Programs() int {
	return p.programs
}

// Cut reports whether the plan has delivered its power cut.
func (p *Plan) Cut() bool {
	return p.cut
}
