package traffic

import (
	"fmt"
	"sort"
	"strings"
	"time"

	kaml "github.com/kaml-ssd/kaml"
	"github.com/kaml-ssd/kaml/internal/check"
)

const maxViolationDetails = 5

// runCheckers fills the Report's final-invariant section. Only checks
// the assertion block asks for are run (a checker's field stays -1 when
// skipped), so cheap smoke scenarios don't pay for history search.
func (r *runner) runCheckers(rep *Report, events []check.Event, tele []teleSnap) {
	f := &r.sc.Assert.Final
	rep.Final.LinearizabilityViolations = -1
	rep.Final.SIViolations = -1
	rep.Final.LostAckedWrites = -1
	rep.Final.TelemetryRegressions = -1

	keys := map[[2]uint64]bool{}
	for _, ev := range events {
		for _, rec := range ev.Recs {
			keys[[2]uint64{uint64(rec.NS), rec.Key}] = true
		}
	}
	rep.Final.SampledKeys = len(keys)

	addDetail := func(prefix string, msgs ...string) {
		for _, m := range msgs {
			if len(rep.Final.ViolationDetails) >= maxViolationDetails {
				return
			}
			rep.Final.ViolationDetails = append(rep.Final.ViolationDetails, prefix+": "+m)
		}
	}

	if f.Linearizable {
		// Plain (non-transactional) ops only: the serializability search
		// inside CheckHistory assumes SS2PL, and our transactions run
		// under snapshot isolation — CheckHistorySI judges those.
		plain := events[:0:0]
		for _, ev := range events {
			if ev.Txn == 0 {
				plain = append(plain, ev)
			}
		}
		vs := check.CheckHistory(plain)
		rep.Final.LinearizabilityViolations = len(vs)
		for _, v := range vs {
			addDetail("linearizability", firstLine(v.Detail))
		}
	}
	if f.SIAxioms {
		vs := check.CheckHistorySI(events)
		rep.Final.SIViolations = len(vs)
		for _, v := range vs {
			addDetail("si", firstLine(v.Detail))
		}
	}
	if f.NoLostAckedWrites {
		n, msgs := lostAckedWrites(events)
		rep.Final.LostAckedWrites = n
		addDetail("lost-write", msgs...)
	}
	if f.TelemetryMonotone {
		n, msgs := telemetryRegressions(tele)
		rep.Final.TelemetryRegressions = n
		addDetail("telemetry", msgs...)
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// lostAckedWrites scans the sampled plain-op history for acknowledged
// writes that vanished. Per key, with A = the last acked write to finish
// and R = the last completed read (the quiesce read-back when the target
// survived to the end):
//
//   - R returning a tagged value must return a tag some issued write
//     (acked or maybe-applied) actually wrote — anything else is a
//     foreign value.
//   - If R started after A finished: R must not report not-found, and
//     must not return the tag of a write that completed strictly before
//     A began (a state A provably overwrote).
//
// Keys whose last read ran concurrently with (or before) later writes
// are skipped as inconclusive — the full linearizability checker judges
// those interleavings. This check exists to give "zero lost acked
// writes" its own named, cheap, always-explainable verdict.
func lostAckedWrites(events []check.Event) (int, []string) {
	type nsKey struct {
		ns  uint32
		key uint64
	}
	type write struct {
		tag   uint64
		start time.Duration
		end   time.Duration // <0: pending
		acked bool
	}
	writes := map[nsKey][]write{}
	lastRead := map[nsKey]check.Event{}
	for _, ev := range events {
		if ev.Txn != 0 {
			continue
		}
		switch ev.Op {
		case kaml.OpPut, kaml.OpPutBatch:
			acked := ev.End >= 0 && ev.Err == check.ErrNone
			maybe := ev.End < 0 || ev.Err == check.ErrPower
			if !acked && !maybe {
				continue // cleanly rejected: never applied
			}
			for _, rec := range ev.Recs {
				if rec.Tag == 0 {
					continue
				}
				k := nsKey{rec.NS, rec.Key}
				writes[k] = append(writes[k], write{rec.Tag, ev.Start, ev.End, acked})
			}
		case kaml.OpGet:
			if len(ev.Recs) != 1 || ev.End < 0 {
				continue
			}
			k := nsKey{ev.Recs[0].NS, ev.Recs[0].Key}
			if prev, ok := lastRead[k]; !ok || ev.Start > prev.Start {
				lastRead[k] = ev
			}
		}
	}

	violations := 0
	var msgs []string
	flag := func(format string, args ...interface{}) {
		violations++
		if len(msgs) < maxViolationDetails {
			msgs = append(msgs, fmt.Sprintf(format, args...))
		}
	}
	ordered := make([]nsKey, 0, len(lastRead))
	for k := range lastRead {
		ordered = append(ordered, k)
	}
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].ns != ordered[j].ns {
			return ordered[i].ns < ordered[j].ns
		}
		return ordered[i].key < ordered[j].key
	})
	for _, k := range ordered {
		read := lastRead[k]
		if read.Err != check.ErrNone && read.Err != check.ErrNotFound {
			continue // read itself failed (power cut, dead device)
		}
		ws := writes[k]
		if read.Err == check.ErrNone && read.Tagged {
			known := false
			for _, w := range ws {
				if w.tag == read.RetTag {
					known = true
					break
				}
			}
			if !known {
				flag("ns%d key %d: final read returned tag %d no issued write wrote", k.ns, k.key, read.RetTag)
				continue
			}
		}
		var last *write
		for i := range ws {
			w := &ws[i]
			if w.acked && (last == nil || w.end > last.end) {
				last = w
			}
		}
		if last == nil || read.Start < last.end {
			continue // no acked writes, or read raced later writes
		}
		if read.Err == check.ErrNotFound {
			flag("ns%d key %d: acked write (tag %d) lost — final read found nothing", k.ns, k.key, last.tag)
			continue
		}
		if !read.Tagged {
			continue
		}
		for _, w := range ws {
			if w.tag == read.RetTag && w.end >= 0 && w.end < last.start && w.tag != last.tag {
				flag("ns%d key %d: final read returned stale tag %d overwritten by acked tag %d", k.ns, k.key, w.tag, last.tag)
			}
		}
	}
	return violations, msgs
}

// telemetryRegressions checks that no counter moves backwards between
// consecutive phase-boundary snapshots of the same device generation (a
// Reopen starts a fresh registry, so cross-generation comparisons are
// meaningless), and that no *_bytes gauge is negative at the end —
// memory accounting must settle.
func telemetryRegressions(tele []teleSnap) (int, []string) {
	violations := 0
	var msgs []string
	flag := func(format string, args ...interface{}) {
		violations++
		if len(msgs) < maxViolationDetails {
			msgs = append(msgs, fmt.Sprintf(format, args...))
		}
	}
	for i := 1; i < len(tele); i++ {
		if tele[i].gen != tele[i-1].gen {
			continue
		}
		prev := map[string]int64{}
		for _, m := range tele[i-1].snap.Metrics {
			if m.Kind == "counter" {
				prev[metricKey(m.Name, m.Labels)] = m.Value
			}
		}
		for _, m := range tele[i].snap.Metrics {
			if m.Kind != "counter" {
				continue
			}
			if old, ok := prev[metricKey(m.Name, m.Labels)]; ok && m.Value < old {
				flag("counter %s went backwards: %d -> %d (snapshot %d)", m.Name, old, m.Value, i)
			}
		}
	}
	if len(tele) > 0 {
		last := tele[len(tele)-1].snap
		for _, m := range last.Metrics {
			if m.Kind == "gauge" && strings.HasSuffix(m.Name, "_bytes") && m.Value < 0 {
				flag("gauge %s negative at end: %d", m.Name, m.Value)
			}
		}
	}
	return violations, msgs
}

func metricKey(name string, labels map[string]string) string {
	if len(labels) == 0 {
		return name
	}
	ks := make([]string, 0, len(labels))
	for k := range labels {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	var b strings.Builder
	b.WriteString(name)
	for _, k := range ks {
		b.WriteByte('{')
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(labels[k])
		b.WriteByte('}')
	}
	return b.String()
}

// evaluate runs the scenario's declarative assertion block against the
// measured report, appending one named AssertionResult per budget.
func evaluate(sc *Scenario, rep *Report) {
	add := func(name string, passed bool, detail string) {
		rep.Assertions = append(rep.Assertions, AssertionResult{Name: name, Passed: passed, Detail: detail})
	}
	phaseByName := map[string]*PhaseReport{}
	for i := range rep.Phases {
		phaseByName[rep.Phases[i].Name] = &rep.Phases[i]
	}

	for _, slo := range sc.Assert.Phases {
		pr := phaseByName[slo.Phase]
		name := func(what string) string { return fmt.Sprintf("phase[%s].%s", slo.Phase, what) }
		if slo.MinOps > 0 {
			add(name("min_ops"), pr.OpsIssued >= slo.MinOps,
				fmt.Sprintf("issued %d, floor %d", pr.OpsIssued, slo.MinOps))
		}
		if slo.MaxP95US > 0 {
			add(name("p95_us"), pr.LatencyUS.P95 <= slo.MaxP95US,
				fmt.Sprintf("p95 %dµs, budget %dµs", pr.LatencyUS.P95, slo.MaxP95US))
		}
		if slo.MaxP99US > 0 {
			add(name("p99_us"), pr.LatencyUS.P99 <= slo.MaxP99US,
				fmt.Sprintf("p99 %dµs, budget %dµs", pr.LatencyUS.P99, slo.MaxP99US))
		}
		if slo.MaxErrorRate != nil {
			rate := 0.0
			if pr.OpsCompleted > 0 {
				rate = float64(pr.Errors) / float64(pr.OpsCompleted)
			}
			add(name("error_rate"), rate <= *slo.MaxErrorRate,
				fmt.Sprintf("%d errors / %d ops = %.4f, budget %.4f", pr.Errors, pr.OpsCompleted, rate, *slo.MaxErrorRate))
		}
		if slo.MaxAbortRate != nil {
			rate := 0.0
			if n := pr.TxnsCommitted + pr.TxnsAborted; n > 0 {
				rate = float64(pr.TxnsAborted) / float64(n)
			}
			add(name("abort_rate"), rate <= *slo.MaxAbortRate,
				fmt.Sprintf("%d aborts / %d txns = %.4f, budget %.4f", pr.TxnsAborted, pr.TxnsCommitted+pr.TxnsAborted, rate, *slo.MaxAbortRate))
		}
		if slo.MaxFailovers != nil {
			got := int64(0)
			if pr.Cluster != nil {
				got = pr.Cluster.Failovers
			}
			add(name("failovers"), got <= *slo.MaxFailovers,
				fmt.Sprintf("%d failovers, budget %d", got, *slo.MaxFailovers))
		}
		if slo.MaxHedges != nil {
			got := int64(0)
			if pr.Cluster != nil {
				got = pr.Cluster.HedgesIssued
			}
			add(name("hedges"), got <= *slo.MaxHedges,
				fmt.Sprintf("%d hedged reads, budget %d", got, *slo.MaxHedges))
		}
	}

	f := &sc.Assert.Final
	fr := &rep.Final
	if f.Linearizable {
		add("final.linearizable", fr.LinearizabilityViolations == 0,
			fmt.Sprintf("%d violations over %d sampled events", fr.LinearizabilityViolations, fr.SampledEvents))
	}
	if f.SIAxioms {
		add("final.si_axioms", fr.SIViolations == 0,
			fmt.Sprintf("%d violations", fr.SIViolations))
	}
	if f.NoLostAckedWrites {
		add("final.no_lost_acked_writes", fr.LostAckedWrites == 0,
			fmt.Sprintf("%d lost acked writes across %d sampled keys", fr.LostAckedWrites, fr.SampledKeys))
	}
	if f.RecoveryClean {
		passed := fr.RecoveryFailures == 0
		detail := fmt.Sprintf("%d power cuts, %d recoveries, %d failures", fr.PowerCuts, fr.Recoveries, fr.RecoveryFailures)
		if rep.Target == TargetDevice {
			passed = passed && fr.Recoveries == fr.PowerCuts
		} else {
			passed = passed && fr.ShardsLive == fr.ShardsTotal
			detail += fmt.Sprintf("; %d/%d shards live", fr.ShardsLive, fr.ShardsTotal)
		}
		add("final.recovery_clean", passed, detail)
	}
	if f.TelemetryMonotone {
		add("final.telemetry_monotone", fr.TelemetryRegressions == 0,
			fmt.Sprintf("%d counter/gauge regressions", fr.TelemetryRegressions))
	}
	if f.MaxFailovers != nil {
		add("final.max_failovers", fr.Failovers <= *f.MaxFailovers,
			fmt.Sprintf("%d failovers, budget %d", fr.Failovers, *f.MaxFailovers))
	}
	if f.MinAckedWrites > 0 {
		add("final.min_acked_writes", fr.AckedWrites >= f.MinAckedWrites,
			fmt.Sprintf("%d acked writes, floor %d", fr.AckedWrites, f.MinAckedWrites))
	}
	if f.MinProgramRetries > 0 {
		add("final.min_program_retries", fr.ProgramRetries >= f.MinProgramRetries,
			fmt.Sprintf("%d program retries, floor %d", fr.ProgramRetries, f.MinProgramRetries))
	}
	if f.MinTornPages > 0 {
		add("final.min_torn_pages", fr.TornPages >= f.MinTornPages,
			fmt.Sprintf("%d torn pages skipped, floor %d", fr.TornPages, f.MinTornPages))
	}
	if f.MaxRecoveryMS > 0 {
		add("final.max_recovery_ms", fr.RecoveryMS <= f.MaxRecoveryMS,
			fmt.Sprintf("%.3f ms in recovery, budget %.3f", fr.RecoveryMS, f.MaxRecoveryMS))
	}

	rep.Passed = true
	for _, a := range rep.Assertions {
		if !a.Passed {
			rep.Passed = false
			break
		}
	}
}
