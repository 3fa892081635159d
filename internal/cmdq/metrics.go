package cmdq

import (
	"time"

	"github.com/kaml-ssd/kaml/internal/telemetry"
)

// Lifecycle stages traced per command. A command is timestamped at Submit
// and at each transition; the deltas land in per-(op, stage) histograms:
//
//	coalesce — submit → group-commit cut (writes: the window wait)
//	exec     — the exec function's runtime; for writes this is the NVRAM
//	           batch commit (flash install is asynchronous and measured by
//	           the firmware's flusher, see kamlssd metrics)
//	total    — submit → future open; for a write, up to its completion's
//	           Due instant; for a direct command, which runs on its caller
//	           as soon as it is accepted, the same as exec
const (
	stageCoalesce = iota
	stageExec
	stageTotal
	numStages
)

var stageNames = [numStages]string{"coalesce", "exec", "total"}

// numOps sizes the per-op instrument tables (Op values start at 1).
const numOps = int(OpSnapshot) + 1

// export lists the pipeline's cells in r under their series names and
// resolves the histograms, which exist only while a registry does: with
// Config.Registry nil the counters still count (Stats reads them) but
// nothing is traced — every timestamp read is behind p.reg != nil.
func (p *Pipeline) export(r *telemetry.Registry) {
	r.Help("kaml_cmdq_occupancy", "Commands submitted but not yet completed.")
	r.Help("kaml_cmdq_backpressure_waits_total", "Submit calls that parked because the pipeline was at Depth.")
	r.Help("kaml_cmdq_batch_records", "Records per coalescer group commit.")
	r.Help("kaml_cmdq_batch_commits_total", "Group commits issued by the coalescer.")
	r.Help("kaml_cmdq_coalesced_puts_total", "Write commands that shared a batch commit with at least one other.")
	r.Help("kaml_cmdq_completion_batches_total", "Completion deliveries; each releases one drained batch's occupancy with a single queue-space wakeup.")
	r.Help("kaml_cmdq_stage_seconds", "Per-stage command latency (virtual time) by op and lifecycle stage.")
	r.AdoptGauge(&p.depth, "kaml_cmdq_occupancy")
	r.AdoptCounter(&p.backpressure, "kaml_cmdq_backpressure_waits_total")
	p.batchRecords = r.Histogram("kaml_cmdq_batch_records", telemetry.UnitNone)
	r.AdoptCounter(&p.batchCommits, "kaml_cmdq_batch_commits_total")
	r.AdoptCounter(&p.coalescedPuts, "kaml_cmdq_coalesced_puts_total")
	r.AdoptCounter(&p.completionFlocks, "kaml_cmdq_completion_batches_total")
	p.reg = r
	for op := OpGet; int(op) < numOps; op++ {
		for st := 0; st < numStages; st++ {
			p.stage[op][st] = r.Histogram("kaml_cmdq_stage_seconds", telemetry.UnitSeconds,
				"op", op.String(), "stage", stageNames[st])
		}
	}
}

// observeStage records one stage latency. Callers hold p.reg != nil — it
// guards their timestamp reads.
func (p *Pipeline) observeStage(op Op, st int, d time.Duration) {
	p.stage[op][st].ObserveDuration(d)
}
