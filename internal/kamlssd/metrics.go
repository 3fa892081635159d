package kamlssd

import (
	"strconv"
	"time"

	"github.com/kaml-ssd/kaml/internal/telemetry"
)

// counters is every event the firmware counts, one cell per event. The
// device owns the cells and bumps them directly whether or not anything is
// exported; Stats() is a view of them, and the cells with a series name are
// the ones the registry lists (export). The per-log cells — GC erases and
// copied bytes, wear spread, sealed pages by cause, hot pages, rerouted
// records — live on their logState.
type counters struct {
	gets, puts, putRecords   telemetry.Counter
	nvramHits                telemetry.Counter
	programs, gcCopies       telemetry.Counter
	indexProbes              telemetry.Counter
	bytesWritten, flashBytes telemetry.Counter
	programRetries           telemetry.Counter
	readRetries              telemetry.Counter
	blocksRetired            telemetry.Counter
	versionsPruned           telemetry.Counter // MVCC versions reclaimed (no snapshot/txn sees them)
	pinnedReads              telemetry.Counter

	// Recovery: what Recover found and did on the way to this device (all
	// zero on a device that New built).
	recoveredRecords, replayedValues     telemetry.Counter
	droppedUncommitted, tornPagesSkipped telemetry.Counter
	scannedPages                         telemetry.Counter

	nvramStaged  telemetry.Gauge // values resident in battery-backed NVRAM
	indexEntries telemetry.Gauge // live mapping-table entries, all namespaces
	gcActive     telemetry.Gauge // collectors out of their wait: pruning or reclaiming

	// Victims collected, by whether a host stream of their log had its open
	// block on their chip when the collector picked them (victim).
	gcVictimsHost, gcVictimsOther telemetry.Counter

	// Host-stream takes at a log's reserve (nextPPN): covered blocks opened,
	// and pages shared. Counted only while telemetry is on.
	reserveCovered, reserveShared telemetry.Counter
}

// export lists the firmware's cells in r and resolves its histograms.
// Everything is registered eagerly at device startup — including one series
// per log — so a scrape taken before any traffic still shows the full
// metric surface (the CI smoke test depends on that). The histograms exist
// only while a registry does: with Config.DisableTelemetry they stay nil
// (a nil histogram drops its samples) and the timestamp reads feeding them
// are skipped behind d.tel != nil (telNow, since, and installFlashLoc /
// flusherLoop).
//
// Command latencies (Get/Put/Snapshot, per lifecycle stage) are recorded
// by the pipeline itself — kaml_cmdq_stage_seconds{op,stage} — because the
// pipeline owns the submit and completion edges; the firmware records what
// only it can see: NVRAM occupancy, index population, the NVRAM→flash
// install lag, and per-log GC/wear state.
func (d *Device) export(r *telemetry.Registry) {
	r.Help("kaml_ssd_nvram_staged_values", "Values staged in battery-backed NVRAM awaiting flash install.")
	r.Help("kaml_ssd_index_entries", "Live mapping-table entries across all namespaces.")
	r.Help("kaml_ssd_flash_install_seconds", "Per-record latency from NVRAM staging to the flash index swing (virtual time).")
	r.Help("kaml_ssd_pages_sealed_total", "Record pages that left the NVRAM packer for the program queue, per log and cause (full, nofit, drain, close).")
	r.Help("kaml_ssd_sealed_page_chunks", "Chunks holding records in each sealed page (of PageSize/ChunkSize).")
	r.Help("kaml_ssd_free_block_wait_seconds", "Time a log's flusher waited for its collector to return an erased block for the page it dequeued (virtual time).")
	r.Help("kaml_ssd_program_wait_seconds", "Time a log's flusher spent on a page program beyond ProgramLatency and the page's transfer, by the other job of its log on the page's chip: the victim its collector was collecting, the GC stream's open block, or neither (virtual time).")
	r.Help("kaml_ssd_reserve_takes_total", "Host-stream takes at a log's free-block reserve: \"covered\" counts blocks opened from the reserve's second block while the victim being collected fits in the GC stream's open block, \"shared\" counts pages placed in the other host stream's open block.")
	r.Help("kaml_ssd_log_full_wait_seconds", "Time a writer that met every log of its namespace with a full sealed queue waited for a flusher to make room in one (virtual time).")
	r.Help("kaml_ssd_hot_pages_total", "Pages sealed from the log's hot host stream (records whose key was rewritten within a hot block's lifetime), per log.")
	r.Help("kaml_ssd_records_rerouted_total", "Records a full sealed queue sent on from this log to their namespace's next log, per log.")
	r.Help("kaml_recovery_seconds", "Duration of the power-failure recovery that built this device, log scan to actors started (virtual time; no sample on a device that never crashed).")
	r.Help("kaml_recovery_scanned_pages_total", "Programmed flash pages the recovery scan read.")
	r.Help("kaml_recovery_torn_pages_total", "Pages the recovery scan skipped: OOB magic/CRC mismatch, or unreadable after every retry.")
	r.Help("kaml_recovery_records_total", "Record versions recovery rebuilt into the mapping tables from the flash scan.")
	r.Help("kaml_recovery_replayed_values_total", "Committed NVRAM values recovery re-staged for programming.")
	r.Help("kaml_recovery_dropped_uncommitted_total", "NVRAM values recovery discarded because their batch never committed.")
	r.Help("kaml_gc_pause_seconds", "Duration of one GC victim collection (virtual time).")
	r.Help("kaml_gc_phase_seconds", "One relocated GC victim's phases: scan, pick to its last page read; relocate, what relocation took after the scan (the tail the pipeline did not hide); erase (virtual time).")
	r.Help("kaml_gc_victims_total", "GC victims collected, by chip: \"host\" when one of the log's host streams had its open block on the victim's chip, \"other\" when none did.")
	r.Help("kaml_gc_collectors_active", "Per-log collectors currently pruning or reclaiming (the rest wait for their log to run low).")
	r.Help("kaml_mvcc_versions_pruned_total", "Dead MVCC versions unlinked from the version chains.")
	r.Help("kaml_mvcc_chain_length", "Per-key version-chain length observed at each pruning pass.")
	r.Help("kaml_gc_copied_bytes_total", "Valid bytes relocated out of GC victim blocks, per log.")
	r.Help("kaml_gc_erases_total", "GC block erases, per log.")
	r.Help("kaml_wear_erase_min", "Minimum block erase count observed in the log at the last victim scan.")
	r.Help("kaml_wear_erase_max", "Maximum block erase count observed in the log at the last victim scan.")
	r.AdoptGauge(&d.ctr.nvramStaged, "kaml_ssd_nvram_staged_values")
	r.AdoptGauge(&d.ctr.indexEntries, "kaml_ssd_index_entries")
	d.flashInstall = r.Histogram("kaml_ssd_flash_install_seconds", telemetry.UnitSeconds)
	d.freeBlockWait = r.Histogram("kaml_ssd_free_block_wait_seconds", telemetry.UnitSeconds)
	d.logFullWait = r.Histogram("kaml_ssd_log_full_wait_seconds", telemetry.UnitSeconds)
	r.AdoptCounter(&d.ctr.reserveCovered, "kaml_ssd_reserve_takes_total", "how", "covered")
	r.AdoptCounter(&d.ctr.reserveShared, "kaml_ssd_reserve_takes_total", "how", "shared")
	for c := range d.programWait {
		d.programWait[c] = r.Histogram("kaml_ssd_program_wait_seconds", telemetry.UnitSeconds, "cause", waitCauseNames[c])
	}
	d.recoveryTime = r.Histogram("kaml_recovery_seconds", telemetry.UnitSeconds)
	r.AdoptCounter(&d.ctr.scannedPages, "kaml_recovery_scanned_pages_total")
	r.AdoptCounter(&d.ctr.tornPagesSkipped, "kaml_recovery_torn_pages_total")
	r.AdoptCounter(&d.ctr.recoveredRecords, "kaml_recovery_records_total")
	r.AdoptCounter(&d.ctr.replayedValues, "kaml_recovery_replayed_values_total")
	r.AdoptCounter(&d.ctr.droppedUncommitted, "kaml_recovery_dropped_uncommitted_total")
	d.gcPause = r.Histogram("kaml_gc_pause_seconds", telemetry.UnitSeconds)
	for p := range d.gcPhase {
		d.gcPhase[p] = r.Histogram("kaml_gc_phase_seconds", telemetry.UnitSeconds, "phase", gcPhaseNames[p])
	}
	r.AdoptGauge(&d.ctr.gcActive, "kaml_gc_collectors_active")
	r.AdoptCounter(&d.ctr.gcVictimsHost, "kaml_gc_victims_total", "chip", "host")
	r.AdoptCounter(&d.ctr.gcVictimsOther, "kaml_gc_victims_total", "chip", "other")
	r.AdoptCounter(&d.ctr.versionsPruned, "kaml_mvcc_versions_pruned_total")
	d.chainLen = r.Histogram("kaml_mvcc_chain_length", telemetry.UnitNone)
	d.sealedChunks = r.Histogram("kaml_ssd_sealed_page_chunks", telemetry.UnitNone)
	for _, lg := range d.logs {
		lbl := strconv.Itoa(lg.id)
		r.AdoptCounter(&lg.gcCopiedBytes, "kaml_gc_copied_bytes_total", "log", lbl)
		r.AdoptCounter(&lg.gcErases, "kaml_gc_erases_total", "log", lbl)
		r.AdoptGauge(&lg.wearMin, "kaml_wear_erase_min", "log", lbl)
		r.AdoptGauge(&lg.wearMax, "kaml_wear_erase_max", "log", lbl)
		r.AdoptCounter(&lg.rerouted, "kaml_ssd_records_rerouted_total", "log", lbl)
		r.AdoptCounter(&lg.hotPages, "kaml_ssd_hot_pages_total", "log", lbl)
		for c := range lg.sealed {
			r.AdoptCounter(&lg.sealed[c], "kaml_ssd_pages_sealed_total", "log", lbl, "cause", sealCauseNames[c])
		}
	}
}

// telNow is the virtual time while telemetry is on, unread and zero while it
// is off: the start of a span that since observes.
func (d *Device) telNow() time.Duration {
	if d.tel == nil {
		return 0
	}
	return d.eng.NowCheap()
}

// since observes in h the virtual time from start, while telemetry is on.
func (d *Device) since(h *telemetry.Histogram, start time.Duration) {
	if d.tel != nil {
		h.ObserveDuration(d.eng.NowCheap() - start)
	}
}
