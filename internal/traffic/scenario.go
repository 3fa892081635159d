// Package traffic is the production traffic simulator and acceptance
// suite: it composes the pieces the repository already has — the KAML
// device, the sharded cluster, workload key choosers, deterministic fault
// injection, the internal/check history recorder, and telemetry — into
// long-horizon, declaratively-scripted scenarios on the virtual clock.
//
// A Scenario is a JSON document describing phases over virtual time
// (diurnal load curves, hot-key storms with a moving hot set, mix shifts,
// flash aging, scripted power cuts and node kills, slow and partitioned
// clients) plus a declarative assertion block: per-phase SLOs and
// end-state invariants. Run executes a scenario on a serialized
// simulation engine — same scenario + seed means a byte-identical Report
// — and Report.Evaluate names every failed assertion. See DESIGN.md §15
// and `kamlbench -scenario`.
package traffic

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"
)

// Target kinds and the spellings the schema accepts.
const (
	TargetDevice  = "device"  // one KAML SSD (+ cache for SI transactions)
	TargetCluster = "cluster" // internal/cluster: sharded, replicated devices
)

// Scenario is one declarative traffic scenario. The zero value is not
// runnable; Parse and Validate enforce the schema.
type Scenario struct {
	Name        string     `json:"name"`
	Description string     `json:"description,omitempty"`
	Seed        int64      `json:"seed"`
	Target      Target     `json:"target"`
	Keyspace    Keyspace   `json:"keyspace"`
	Phases      []Phase    `json:"phases"`
	Assert      Assertions `json:"assertions"`
}

// Target selects the system under test.
type Target struct {
	Kind string `json:"kind"` // "device" | "cluster"

	// Cluster shape (cluster kind only).
	Nodes       int  `json:"nodes,omitempty"`
	Shards      int  `json:"shards,omitempty"`
	Replication int  `json:"replication,omitempty"`
	HedgedReads bool `json:"hedged_reads,omitempty"`
}

// Keyspace describes the working set.
type Keyspace struct {
	// Keys is the plain-op keyspace size; keys are 0..Keys-1.
	Keys uint64 `json:"keys"`
	// ValueSize is the written value size in bytes (min 10: the check
	// package's tag header).
	ValueSize int `json:"value_size"`
	// Preload writes every key once before phase 0 so reads hit and
	// migrations have a frozen set to copy.
	Preload bool `json:"preload"`
	// SampleEvery is the history-tap key sampling modulus: operations on
	// keys divisible by it are recorded for the end-of-run checkers, the
	// rest are not retained. 1 records everything. Sampling is by key, so
	// every recorded key's history is complete — the property the
	// linearizability and SI checkers need.
	SampleEvery uint64 `json:"sample_every"`
	// TxnKeys sizes the dedicated SI-transaction table (device target
	// only; required when any phase has an si_txn mix fraction). SI
	// transactions get their own namespace so the SI axioms never observe
	// plain-op writes.
	TxnKeys uint64 `json:"txn_keys,omitempty"`
}

// Phase is one window of virtual time with its own load curve, mix, key
// distribution, fault ramp, and scripted events.
type Phase struct {
	Name string `json:"name"`
	// StartMS, when non-zero, places the phase at an absolute virtual
	// time (must not overlap the previous phase; a gap is idle time).
	// Zero means "immediately after the previous phase".
	StartMS    int64      `json:"start_ms,omitempty"`
	DurationMS int64      `json:"duration_ms"`
	Arrival    Arrival    `json:"arrival"`
	Mix        Mix        `json:"mix"`
	Keys       KeyDist    `json:"keys"`
	Faults     *FaultRamp `json:"faults,omitempty"`
	Events     []Event    `json:"events,omitempty"`
}

// Arrival shapes. Arrivals are open-loop: seeded exponential gaps at a
// rate that follows the shape over the phase, regardless of how the
// system keeps up.
const (
	ShapeFlat    = "flat"    // rate = start_rate
	ShapeRamp    = "ramp"    // linear start_rate -> end_rate
	ShapeSpike   = "spike"   // triangle: start -> end (peak at midpoint) -> start
	ShapeDiurnal = "diurnal" // half-cosine: start -> end -> start, smooth
)

// Arrival is a phase's open-loop arrival-rate curve, in ops per second of
// virtual time.
type Arrival struct {
	Shape     string  `json:"shape"`
	StartRate float64 `json:"start_rate"`
	EndRate   float64 `json:"end_rate,omitempty"`
}

// rateAt evaluates the curve at progress p in [0, 1].
func (a Arrival) rateAt(p float64) float64 {
	switch a.Shape {
	case ShapeRamp:
		return a.StartRate + (a.EndRate-a.StartRate)*p
	case ShapeSpike:
		tri := 1 - 2*abs(p-0.5)
		return a.StartRate + (a.EndRate-a.StartRate)*tri
	case ShapeDiurnal:
		return a.StartRate + (a.EndRate-a.StartRate)*0.5*(1-cos2pi(p))
	default: // flat
		return a.StartRate
	}
}

// Mix is the per-phase operation mix. Fractions must be non-negative and
// sum to 1.
type Mix struct {
	Get   float64 `json:"get"`
	Put   float64 `json:"put"`
	RMW   float64 `json:"rmw,omitempty"`    // non-transactional Get+Put
	SITxn float64 `json:"si_txn,omitempty"` // snapshot-isolation RMW txn (device)
}

// Key distributions.
const (
	DistUniform = "uniform"
	DistZipf    = "zipf"
	DistLatest  = "latest" // favors recently-written keys
)

// KeyDist selects the phase's key distribution. A zipf distribution's hot
// set sits at HotOffset and, with ShiftEveryMS > 0, advances by ShiftStep
// keys every interval — a deterministic function of virtual time.
type KeyDist struct {
	Dist         string  `json:"dist"`
	Theta        float64 `json:"theta,omitempty"`
	HotOffset    uint64  `json:"hot_offset,omitempty"`
	ShiftEveryMS int64   `json:"shift_every_ms,omitempty"`
	ShiftStep    uint64  `json:"shift_step,omitempty"`
}

// FaultRamp linearly interpolates flash fault probabilities over the
// phase in Steps discrete steps — the flash-aging knob. Probabilities
// persist after the phase ends until another ramp changes them.
type FaultRamp struct {
	ReadFailStart    float64 `json:"read_fail_start,omitempty"`
	ReadFailEnd      float64 `json:"read_fail_end,omitempty"`
	ProgramFailStart float64 `json:"program_fail_start,omitempty"`
	ProgramFailEnd   float64 `json:"program_fail_end,omitempty"`
	Steps            int     `json:"steps,omitempty"` // default 8
}

// Event kinds.
const (
	// EventPowerCut cuts power. Device target: the flash array loses
	// power mid-operation (torn optionally leaves a torn page), the
	// device is crashed, recovered, and traffic resumes on the reopened
	// device — ops in the outage window fail with power-loss errors.
	// Cluster target: the resolved node is power-cut and failed out of
	// the topology (the cluster has no per-node restart; recovery is
	// failover to surviving replicas).
	EventPowerCut = "power_cut"
	// EventKillNode force-fails a cluster node (power cut + topology
	// eviction), exactly cluster.KillNode.
	EventKillNode = "kill_node"
	// EventMigrateShard live-migrates a shard from its current primary to
	// the lowest-numbered live node not already holding it.
	EventMigrateShard = "migrate_shard"
	// EventClientStall models a slow client cohort: ops arriving in the
	// window are held client-side and released in one burst at window
	// end. Latency is measured from intended arrival (no coordinated
	// omission), so the backlog shows up in the phase's tail.
	EventClientStall = "client_stall"
	// EventClientPartition models clients cut off from the service: a
	// fraction of ops arriving in the window fail fast client-side and
	// are retried (counted) after the window with per-attempt backoff.
	EventClientPartition = "client_partition"
)

// Event is one scripted occurrence inside a phase, at AtMS after the
// phase starts.
type Event struct {
	AtMS int64  `json:"at_ms"`
	Kind string `json:"kind"`

	// power_cut / kill_node: the node to hit. -1 resolves to the current
	// primary of Shard at trigger time (cluster). Ignored for device.
	Node int `json:"node,omitempty"`
	// migrate_shard / node resolution: the shard involved.
	Shard int `json:"shard,omitempty"`
	// power_cut (device): leave a torn page for the recovery scanner.
	Torn bool `json:"torn,omitempty"`
	// client_stall / client_partition: window length and (partition) the
	// affected fraction of arrivals.
	DurationMS int64   `json:"duration_ms,omitempty"`
	Fraction   float64 `json:"fraction,omitempty"`
}

// Assertions is the declarative acceptance block evaluated after the run.
type Assertions struct {
	Phases []PhaseSLO `json:"phases,omitempty"`
	Final  Final      `json:"final"`
}

// PhaseSLO is one phase's service-level objectives. Latencies cover every
// op issued in the phase, measured from intended arrival to completion in
// virtual time. Zero-valued budgets are unchecked; pointer budgets
// distinguish "absent" from "zero allowed".
type PhaseSLO struct {
	Phase        string   `json:"phase"`
	MinOps       int64    `json:"min_ops,omitempty"`
	MaxP95US     int64    `json:"max_p95_us,omitempty"`
	MaxP99US     int64    `json:"max_p99_us,omitempty"`
	MaxErrorRate *float64 `json:"max_error_rate,omitempty"` // hard failures / completed
	MaxAbortRate *float64 `json:"max_abort_rate,omitempty"` // txn aborts / txns finished
	MaxFailovers *int64   `json:"max_failovers,omitempty"`  // cluster failovers in phase
	MaxHedges    *int64   `json:"max_hedges,omitempty"`     // hedged reads issued in phase
}

// Final is the end-state invariant block.
type Final struct {
	// Linearizable runs check.CheckHistory over the sampled plain-op
	// history (including crash/recovery markers and the final read-back).
	Linearizable bool `json:"linearizable,omitempty"`
	// SIAxioms runs check.CheckHistorySI over the sampled transactional
	// history.
	SIAxioms bool `json:"si_axioms,omitempty"`
	// NoLostAckedWrites verifies from the sampled history that no
	// acknowledged write was lost (see verify.go for the exact rule).
	NoLostAckedWrites bool `json:"no_lost_acked_writes,omitempty"`
	// RecoveryClean requires every scripted power cut to end in a
	// successful recovery (device) and every shard to have a live
	// primary with a clean final read-back (cluster).
	RecoveryClean bool `json:"recovery_clean,omitempty"`
	// TelemetryMonotone requires every counter to be non-decreasing
	// across phase-boundary snapshots (within one device generation) and
	// no negative gauge named *_bytes at the end.
	TelemetryMonotone bool   `json:"telemetry_monotone,omitempty"`
	MaxFailovers      *int64 `json:"max_failovers,omitempty"`
	MinAckedWrites    int64  `json:"min_acked_writes,omitempty"`
	// MinProgramRetries and MinTornPages (device target) require the
	// scenario's flash faults to have actually fired: that many failed
	// programs rewritten, that many torn pages met by a recovery scan. A
	// fault ramp multiplies per-program probabilities by how many pages the
	// workload programs, and the firmware programs a page only when it is
	// full — without these floors a retuned workload can leave the ramp
	// with nothing to bite and the scenario passing vacuously.
	MinProgramRetries int64 `json:"min_program_retries,omitempty"`
	MinTornPages      int64 `json:"min_torn_pages,omitempty"`
	// MaxRecoveryMS (device target) bounds the outage the scenario's power
	// cuts cause: the virtual time spent inside kaml.Reopen, summed over
	// every recovery — the report's recovery_ms. Recovery reads every
	// programmed page, two readers per chip; a budget of a few times what
	// the scenario measures fails the run if that ever becomes one actor
	// reading chip after chip again.
	MaxRecoveryMS float64 `json:"max_recovery_ms,omitempty"`
}

// Parse decodes a scenario strictly: unknown fields are rejected so a
// typo'd knob fails loudly instead of silently doing nothing.
func Parse(data []byte) (*Scenario, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var sc Scenario
	if err := dec.Decode(&sc); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("scenario %q: trailing data after document", sc.Name)
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return &sc, nil
}

// Canonical renders the scenario in its normalized byte form: two-space
// indented JSON plus a trailing newline. Checked-in scenario files are
// stored in this form, so parse -> Canonical round-trips byte-identically
// (the golden-file parser test enforces it).
func (sc *Scenario) Canonical() []byte {
	blob, err := json.MarshalIndent(sc, "", "  ")
	if err != nil {
		panic(fmt.Sprintf("traffic: marshal scenario %q: %v", sc.Name, err))
	}
	return append(blob, '\n')
}

// phaseStarts resolves each phase's absolute start on the virtual clock
// and the scenario end. Call only on validated scenarios.
func (sc *Scenario) phaseStarts() (starts []time.Duration, end time.Duration) {
	cursor := time.Duration(0)
	for _, ph := range sc.Phases {
		if s := time.Duration(ph.StartMS) * time.Millisecond; s > cursor {
			cursor = s
		}
		starts = append(starts, cursor)
		cursor += time.Duration(ph.DurationMS) * time.Millisecond
	}
	return starts, cursor
}

// Validate checks the schema and reports the first problem with its
// position (phase index and name, event index, assertion index).
func (sc *Scenario) Validate() error {
	fail := func(format string, args ...interface{}) error {
		return fmt.Errorf("scenario %q: %s", sc.Name, fmt.Sprintf(format, args...))
	}
	if sc.Name == "" {
		return fmt.Errorf("scenario: missing name")
	}
	cluster := false
	switch sc.Target.Kind {
	case TargetDevice:
		if sc.Target.Nodes != 0 || sc.Target.Shards != 0 || sc.Target.Replication != 0 {
			return fail("target: device target takes no cluster shape (nodes/shards/replication)")
		}
	case TargetCluster:
		cluster = true
		if sc.Target.Replication > sc.Target.Nodes {
			return fail("target: replication %d exceeds nodes %d", sc.Target.Replication, sc.Target.Nodes)
		}
	default:
		return fail("target: unknown kind %q (want %q or %q)", sc.Target.Kind, TargetDevice, TargetCluster)
	}
	if sc.Keyspace.Keys == 0 {
		return fail("keyspace: keys must be positive")
	}
	if sc.Keyspace.ValueSize < 10 {
		return fail("keyspace: value_size %d below the 10-byte tag header", sc.Keyspace.ValueSize)
	}
	if sc.Keyspace.SampleEvery == 0 {
		return fail("keyspace: sample_every must be >= 1 (1 samples every key)")
	}
	if len(sc.Phases) == 0 {
		return fail("no phases")
	}

	usesTxns, cutsPower := false, false
	cursor := int64(0) // absolute virtual ms
	for i := range sc.Phases {
		ph := &sc.Phases[i]
		at := func(format string, args ...interface{}) error {
			return fail("phase %d (%q): %s", i, ph.Name, fmt.Sprintf(format, args...))
		}
		if ph.Name == "" {
			return fail("phase %d: missing name", i)
		}
		for j := 0; j < i; j++ {
			if sc.Phases[j].Name == ph.Name {
				return at("duplicate phase name (also phase %d)", j)
			}
		}
		if ph.DurationMS <= 0 {
			return at("duration_ms %d must be positive", ph.DurationMS)
		}
		if ph.StartMS < 0 {
			return at("start_ms %d is negative", ph.StartMS)
		}
		if ph.StartMS > 0 {
			if ph.StartMS < cursor {
				return at("start_ms %d overlaps previous phase (ends at %dms)", ph.StartMS, cursor)
			}
			cursor = ph.StartMS
		}
		cursor += ph.DurationMS

		switch ph.Arrival.Shape {
		case ShapeFlat, ShapeRamp, ShapeSpike, ShapeDiurnal:
		default:
			return at("arrival: unknown shape %q", ph.Arrival.Shape)
		}
		if ph.Arrival.StartRate < 0 || ph.Arrival.EndRate < 0 {
			return at("arrival: negative rate (start %.1f, end %.1f)", ph.Arrival.StartRate, ph.Arrival.EndRate)
		}
		if ph.Arrival.StartRate == 0 && (ph.Arrival.Shape == ShapeFlat || ph.Arrival.EndRate == 0) {
			return at("arrival: rate curve is zero everywhere")
		}

		m := ph.Mix
		if m.Get < 0 || m.Put < 0 || m.RMW < 0 || m.SITxn < 0 {
			return at("mix: negative fraction")
		}
		if sum := m.Get + m.Put + m.RMW + m.SITxn; sum < 0.999 || sum > 1.001 {
			return at("mix: fractions sum to %.3f, want 1", sum)
		}
		if m.SITxn > 0 {
			usesTxns = true
			if cluster {
				return at("mix: si_txn requires the device target (the cluster serves plain KV only)")
			}
		}

		switch ph.Keys.Dist {
		case DistUniform, DistLatest:
		case DistZipf:
			if ph.Keys.Theta <= 0 || ph.Keys.Theta >= 2 {
				return at("keys: zipf theta %.2f out of range (0, 2)", ph.Keys.Theta)
			}
		default:
			return at("keys: unknown dist %q", ph.Keys.Dist)
		}
		if ph.Keys.ShiftEveryMS < 0 {
			return at("keys: shift_every_ms %d is negative", ph.Keys.ShiftEveryMS)
		}

		if f := ph.Faults; f != nil {
			for _, p := range []float64{f.ReadFailStart, f.ReadFailEnd, f.ProgramFailStart, f.ProgramFailEnd} {
				if p < 0 || p > 1 {
					return at("faults: probability %.3f outside [0, 1]", p)
				}
			}
			if f.Steps < 0 {
				return at("faults: steps %d is negative", f.Steps)
			}
		}

		for j := range ph.Events {
			ev := &ph.Events[j]
			atEv := func(format string, args ...interface{}) error {
				return at("event %d (%s): %s", j, ev.Kind, fmt.Sprintf(format, args...))
			}
			if ev.AtMS < 0 || ev.AtMS > ph.DurationMS {
				return atEv("at_ms %d outside the phase's [0, %d]ms window", ev.AtMS, ph.DurationMS)
			}
			switch ev.Kind {
			case EventPowerCut:
				cutsPower = true
				if cluster && ev.Node < -1 {
					return atEv("node %d invalid (-1 = primary of shard)", ev.Node)
				}
			case EventKillNode:
				if !cluster {
					return atEv("requires the cluster target")
				}
				if ev.Node < -1 {
					return atEv("node %d invalid (-1 = primary of shard)", ev.Node)
				}
			case EventMigrateShard:
				if !cluster {
					return atEv("requires the cluster target")
				}
				if ev.Shard < 0 {
					return atEv("shard %d invalid", ev.Shard)
				}
			case EventClientStall:
				if ev.DurationMS <= 0 {
					return atEv("duration_ms %d must be positive", ev.DurationMS)
				}
			case EventClientPartition:
				if ev.DurationMS <= 0 {
					return atEv("duration_ms %d must be positive", ev.DurationMS)
				}
				if ev.Fraction <= 0 || ev.Fraction > 1 {
					return atEv("fraction %.2f outside (0, 1]", ev.Fraction)
				}
			default:
				return atEv("unknown event kind")
			}
		}
	}
	if usesTxns && sc.Keyspace.TxnKeys == 0 {
		return fail("keyspace: txn_keys required when any phase mixes si_txn")
	}

	for i := range sc.Assert.Phases {
		slo := &sc.Assert.Phases[i]
		found := false
		for j := range sc.Phases {
			if sc.Phases[j].Name == slo.Phase {
				found = true
				break
			}
		}
		if !found {
			return fail("assertions: phase SLO %d references unknown phase %q", i, slo.Phase)
		}
		if slo.MaxErrorRate != nil && (*slo.MaxErrorRate < 0 || *slo.MaxErrorRate > 1) {
			return fail("assertions: phase SLO %d (%q): max_error_rate %.3f outside [0, 1]", i, slo.Phase, *slo.MaxErrorRate)
		}
		if slo.MaxAbortRate != nil && (*slo.MaxAbortRate < 0 || *slo.MaxAbortRate > 1) {
			return fail("assertions: phase SLO %d (%q): max_abort_rate %.3f outside [0, 1]", i, slo.Phase, *slo.MaxAbortRate)
		}
	}
	if sc.Assert.Final.SIAxioms && !usesTxns {
		return fail("assertions: final.si_axioms set but no phase mixes si_txn")
	}
	if ms := sc.Assert.Final.MaxRecoveryMS; ms < 0 {
		return fail("assertions: final.max_recovery_ms %g is negative", ms)
	} else if ms > 0 && (cluster || !cutsPower) {
		return fail("assertions: final.max_recovery_ms set but nothing is recovered (needs the device target and a power_cut event)")
	}
	return nil
}
