package main

// This file is the benchmark's normative vocabulary: the workloads, the
// end-to-end metrics with their regression bounds, and the per-layer
// metrics with the end-to-end metric each is expected to move. Later
// issues name their claims against these names; BENCHMARK.json at the repo
// root is generated from these tables (`-contract`) and a test keeps the
// two identical.

// nominalSeconds is the measuring time one run is sized for on the
// reference box (2 cores). Phases are sized by op COUNT, never by wall
// time, so virtual metrics stay deterministic; -seconds only scales the
// counts (seconds/nominalSeconds) and any scale other than 1 stamps the
// result non-comparable.
const nominalSeconds = 20

// The ladder is six open-loop rungs R1..R6 at frozen absolute rates
// (README "Ladder calibration"). refRung indexes R2, the reference rung
// the pooled latency metrics are read at.
const (
	refRung      = 1
	rungArrivals = 30000 // per rung at scale 1: 30 samples in the slowest 0.1%
	peakSegments = 16    // equal-op segments of the closed-loop peak phase
)

// metricDef is one row of a metric table.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	Source string  // per-layer only: probe, window, span or diff
	Moves  string  // per-layer only: the end-to-end metric(s) it should move, and where
}

// endToEnd lists what a user of the system sees. Every workload reports
// every one of them (the builder's contract has one flat list), which is
// why ISSUE 11's wall_p50_us (wire-only) and failed_share (always 0 on a
// correct build) live elsewhere: as kvproto.wall_p50_us in the per-layer
// ledger and as the result's attempted/failed counts. One bound per metric
// has to hold on all four workloads, so each comes from the noisiest of
// them in the noise study in README.md: at least three times the widest
// seed-to-seed spread seen, capped at the contract's 25%.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "virt_body_us", Unit: "us", Better: "lower", Bound: 0.03},
	{Name: "virt_tail_us", Unit: "us", Better: "lower", Bound: 0.10},
	{Name: "virt_rate_at_slo_ops", Unit: "1/s", Better: "higher", Bound: 0.08}, // under the smallest rung step (9.3%): any lost rung
	{Name: "virt_peak_ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.20},
	{Name: "host_ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "host_allocs_per_op", Unit: "allocs/op", Better: "lower", Bound: 0.25},
	{Name: "host_bytes_per_op", Unit: "B/op", Better: "lower", Bound: 0.08},
	{Name: "host_live_heap_mb", Unit: "MiB", Better: "lower", Bound: 0.05},
	{Name: "write_amp", Unit: "ratio", Better: "lower", Bound: 0.03},
	{Name: "recover_virt_ms", Unit: "ms", Better: "lower", Bound: 0.06},
}

// perLayer is the per-layer ledger. Source: probe = the layer's public
// functions called in isolation; window = exported counters/histograms
// differenced across ladder+peak; span = the traced run; diff = a control
// run subtracted. A metric with no value on a workload is reported as 0
// and flagged "na" in the result file.
var perLayer = []metricDef{
	{Name: "bench.gen_lag_p99_us", Unit: "us", Better: "lower", Source: "span", Moves: "validity of every open-loop number; not a target"},
	{Name: "bench.driver_self_ns_per_op", Unit: "ns", Better: "lower", Source: "span", Moves: "validity of host_ops_per_s; not a target"},
	{Name: "bench.trace_overhead_pct", Unit: "pct", Better: "lower", Source: "diff", Moves: "validity of the traced run; not a target"},
	{Name: "bench.keygen_ns", Unit: "ns", Better: "lower", Source: "span", Moves: "validity of host_ops_per_s; not a target"},
	{Name: "bench.failed_share", Unit: "share", Better: "lower", Source: "window", Moves: "must be 0: errors, mismatches and lost acked writes over attempted"},
	{Name: "bench.virt_worst_us", Unit: "us", Better: "lower", Source: "window", Moves: "mean of the slowest 0.1% at R2: ISSUE 11's virt_p999_us, demoted because 30 samples of GC stalls spread by 20-200% from seed to seed"},
	{Name: "bench.flash_fills", Unit: "ratio", Better: "higher", Source: "window", Moves: "validity of write_amp: device capacities programmed over ladder+peak"},

	{Name: "sim.sleep_wake_ns", Unit: "ns", Better: "lower", Source: "probe", Moves: "host_ops_per_s -> all (every op parks >= 3 times)"},
	{Name: "sim.sleep_wake_allocs", Unit: "allocs/op", Better: "lower", Source: "probe", Moves: "host_allocs_per_op -> all"},
	{Name: "sim.mutex_handoff_ns", Unit: "ns", Better: "lower", Source: "probe", Moves: "host_ops_per_s -> all"},
	{Name: "sim.spawn_ns", Unit: "ns", Better: "lower", Source: "probe", Moves: "host_ops_per_s -> wire-cluster, every open-loop phase (an actor per op)"},

	{Name: "nvme.submit_host_ns", Unit: "ns", Better: "lower", Source: "probe", Moves: "host_ops_per_s -> get-flash"},
	{Name: "nvme.cmd_virt_us", Unit: "us", Better: "lower", Source: "probe", Moves: "virt_body_us -> get-flash"},

	{Name: "cmdq.submit_wait_ns", Unit: "ns", Better: "lower", Source: "probe", Moves: "host_ops_per_s -> put-churn"},
	{Name: "cmdq.submit_wait_allocs", Unit: "allocs/op", Better: "lower", Source: "probe", Moves: "host_allocs_per_op -> put-churn"},
	{Name: "cmdq.rundirect_ns", Unit: "ns", Better: "lower", Source: "probe", Moves: "host_ops_per_s -> get-flash"},
	{Name: "cmdq.put_queue_virt_p99_us", Unit: "us", Better: "lower", Source: "window", Moves: "virt_tail_us -> put-churn; no movement on get-flash"},
	{Name: "cmdq.put_coalesce_virt_p50_us", Unit: "us", Better: "lower", Source: "window", Moves: "virt_body_us -> put-churn; no movement on get-flash"},
	{Name: "cmdq.put_exec_virt_p50_us", Unit: "us", Better: "lower", Source: "window", Moves: "virt_body_us, virt_peak_ops_per_s -> put-churn"},
	{Name: "cmdq.get_exec_virt_p50_us", Unit: "us", Better: "lower", Source: "window", Moves: "virt_body_us -> get-flash"},
	{Name: "cmdq.records_per_commit", Unit: "count", Better: "higher", Source: "window", Moves: "virt_peak_ops_per_s -> put-churn"},
	{Name: "cmdq.coalesced_put_share", Unit: "share", Better: "higher", Source: "window", Moves: "virt_peak_ops_per_s -> put-churn"},
	{Name: "cmdq.backpressure_waits_per_kop", Unit: "1/kop", Better: "lower", Source: "window", Moves: "virt_tail_us -> put-churn"},
	{Name: "cmdq.mean_occupancy", Unit: "count", Better: "lower", Source: "window", Moves: "virt_body_us -> put-churn (queueing)"},

	{Name: "hashindex.get_ns", Unit: "ns", Better: "lower", Source: "probe", Moves: "host_ops_per_s -> get-flash"},
	{Name: "hashindex.upsert_ns", Unit: "ns", Better: "lower", Source: "probe", Moves: "host_ops_per_s -> put-churn"},
	{Name: "hashindex.chain_push_ns", Unit: "ns", Better: "lower", Source: "probe", Moves: "host_ops_per_s -> put-churn"},
	{Name: "hashindex.chain_push_allocs", Unit: "allocs/op", Better: "lower", Source: "probe", Moves: "host_allocs_per_op -> put-churn"},
	{Name: "hashindex.chain_prune_ns", Unit: "ns", Better: "lower", Source: "probe", Moves: "host_ops_per_s -> put-churn"},
	{Name: "hashindex.probes_per_op", Unit: "count", Better: "lower", Source: "window", Moves: "virt_body_us (18 us per probed slot) -> get-flash, put-churn"},
	{Name: "hashindex.read_retries_per_kget", Unit: "1/kop", Better: "lower", Source: "window", Moves: "virt_tail_us -> txn-mixed"},
	{Name: "hashindex.bytes_per_key", Unit: "B", Better: "lower", Source: "window", Moves: "host_live_heap_mb -> all"},

	{Name: "record.pack_ns", Unit: "ns", Better: "lower", Source: "probe", Moves: "host_ops_per_s -> put-churn"},
	{Name: "record.pack_allocs", Unit: "allocs/op", Better: "lower", Source: "probe", Moves: "host_bytes_per_op -> put-churn"},
	{Name: "record.parse_ns", Unit: "ns", Better: "lower", Source: "probe", Moves: "host_ops_per_s (GC copy cost) -> put-churn"},

	{Name: "kamlssd.get_idle_virt_us", Unit: "us", Better: "lower", Source: "span", Moves: "floor of virt_body_us -> get-flash"},
	{Name: "kamlssd.put_idle_virt_us", Unit: "us", Better: "lower", Source: "span", Moves: "floor of virt_body_us -> put-churn"},
	{Name: "kamlssd.nvram_hit_share", Unit: "share", Better: "higher", Source: "window", Moves: "virt_body_us -> txn-mixed"},
	{Name: "kamlssd.page_fill_share", Unit: "share", Better: "higher", Source: "window", Moves: "write_amp (= 1/page fill + GC copies) -> put-churn, txn-mixed"},
	{Name: "kamlssd.gc_copy_bytes_per_user_byte", Unit: "ratio", Better: "lower", Source: "window", Moves: "write_amp -> put-churn, txn-mixed"},
	{Name: "kamlssd.gc_erases_per_kput", Unit: "1/kop", Better: "lower", Source: "window", Moves: "write_amp -> put-churn"},
	{Name: "kamlssd.gc_pause_virt_p99_us", Unit: "us", Better: "lower", Source: "window", Moves: "bench.virt_worst_us -> put-churn"},
	{Name: "kamlssd.flash_install_virt_p50_us", Unit: "us", Better: "lower", Source: "window", Moves: "kamlssd.nvram_hit_share -> txn-mixed"},
	{Name: "kamlssd.versions_pruned_per_put", Unit: "count", Better: "lower", Source: "window", Moves: "host_ops_per_s -> put-churn"},
	{Name: "kamlssd.max_chain_len", Unit: "count", Better: "lower", Source: "window", Moves: "host_live_heap_mb -> put-churn, txn-mixed"},
	{Name: "kamlssd.program_retries", Unit: "count", Better: "lower", Source: "window", Moves: "expect 0 (no fault plan)"},
	{Name: "kamlssd.read_retries", Unit: "count", Better: "lower", Source: "window", Moves: "expect 0 (no fault plan)"},
	{Name: "kamlssd.recover_host_ms", Unit: "ms", Better: "lower", Source: "span", Moves: "recover_virt_ms -> put-churn"},
	{Name: "kamlssd.recovered_records", Unit: "count", Better: "lower", Source: "window", Moves: "recover_virt_ms -> put-churn"},
	{Name: "kamlssd.replayed_values", Unit: "count", Better: "lower", Source: "window", Moves: "recover_virt_ms -> put-churn"},

	{Name: "flash.read_host_ns", Unit: "ns", Better: "lower", Source: "probe", Moves: "host_ops_per_s -> get-flash"},
	{Name: "flash.program_host_ns", Unit: "ns", Better: "lower", Source: "probe", Moves: "host_ops_per_s -> put-churn"},
	{Name: "flash.read_virt_us", Unit: "us", Better: "lower", Source: "probe", Moves: "floor of virt_body_us -> get-flash"},
	{Name: "flash.program_virt_us", Unit: "us", Better: "lower", Source: "probe", Moves: "virt_peak_ops_per_s -> put-churn"},
	{Name: "flash.reads_per_get", Unit: "count", Better: "lower", Source: "window", Moves: "virt_body_us -> get-flash"},
	{Name: "flash.programs_per_kput", Unit: "1/kop", Better: "lower", Source: "window", Moves: "write_amp, virt_peak_ops_per_s -> put-churn"},
	{Name: "flash.chip_busy_share", Unit: "share", Better: "lower", Source: "window", Moves: "virt_peak_ops_per_s, virt_rate_at_slo_ops -> get-flash, put-churn: latency rises before peak stops rising as this nears 1"},

	{Name: "cache.hit_share", Unit: "share", Better: "higher", Source: "window", Moves: "virt_body_us -> txn-mixed only"},
	{Name: "cache.evictions_per_kop", Unit: "1/kop", Better: "lower", Source: "window", Moves: "host_ops_per_s -> txn-mixed only"},
	{Name: "cache.abort_share", Unit: "share", Better: "lower", Source: "window", Moves: "virt_peak_ops_per_s -> txn-mixed only"},
	{Name: "cache.attempts_per_txn", Unit: "count", Better: "lower", Source: "window", Moves: "virt_tail_us, host_ops_per_s -> txn-mixed only"},
	{Name: "cache.si_validation_fail_share", Unit: "share", Better: "lower", Source: "window", Moves: "virt_tail_us -> txn-mixed only"},
	{Name: "cache.commit_virt_p50_us", Unit: "us", Better: "lower", Source: "span", Moves: "virt_body_us -> txn-mixed only"},
	{Name: "cache.read_miss_virt_p50_us", Unit: "us", Better: "lower", Source: "span", Moves: "virt_body_us -> txn-mixed only"},
	{Name: "cache.si_lost_reads_per_ktxn", Unit: "1/kop", Better: "lower", Source: "window", Moves: "must be 0 and is not on the seed: SI reads answered key-not-found, retried (README finding 6)"},

	{Name: "lockmgr.acquire_release_ns", Unit: "ns", Better: "lower", Source: "probe", Moves: "host_ops_per_s -> txn-mixed only"},
	{Name: "lockmgr.waits_per_ktxn", Unit: "1/kop", Better: "lower", Source: "window", Moves: "virt_tail_us -> txn-mixed only"},
	{Name: "lockmgr.dies_per_ktxn", Unit: "1/kop", Better: "lower", Source: "window", Moves: "virt_tail_us, host_ops_per_s -> txn-mixed only"},

	{Name: "kvproto.host_us_per_op", Unit: "us", Better: "lower", Source: "diff", Moves: "host_ops_per_s -> wire-cluster only"},
	{Name: "kvproto.allocs_per_op", Unit: "allocs/op", Better: "lower", Source: "diff", Moves: "host_allocs_per_op -> wire-cluster only"},
	{Name: "kvproto.idle_roundtrip_us", Unit: "us", Better: "lower", Source: "span", Moves: "kvproto.wall_p50_us -> wire-cluster only"},
	{Name: "kvproto.wall_p50_us", Unit: "us", Better: "lower", Source: "span", Moves: "the wire user's latency (ISSUE 11's wall_p50_us) -> wire-cluster only"},
	{Name: "kvproto.wall_p99_us", Unit: "us", Better: "lower", Source: "span", Moves: "the wire user's tail -> wire-cluster only"},
	{Name: "kvproto.srv_inflight_max", Unit: "count", Better: "lower", Source: "window", Moves: "kvproto.wall_p99_us -> wire-cluster only"},
	{Name: "kvproto.writer_queue_max", Unit: "count", Better: "lower", Source: "window", Moves: "kvproto.wall_p99_us -> wire-cluster only"},
	{Name: "kvproto.retryable_errors", Unit: "count", Better: "lower", Source: "window", Moves: "expect 0 (no node dies)"},
	{Name: "kvproto.moved_redirects", Unit: "count", Better: "lower", Source: "window", Moves: "expect 0 (topology is static)"},

	{Name: "cluster.host_us_per_op", Unit: "us", Better: "lower", Source: "diff", Moves: "host_ops_per_s -> wire-cluster only"},
	{Name: "cluster.allocs_per_op", Unit: "allocs/op", Better: "lower", Source: "diff", Moves: "host_allocs_per_op -> wire-cluster only"},
	{Name: "cluster.get_virt_p50_us", Unit: "us", Better: "lower", Source: "window", Moves: "virt_body_us -> wire-cluster only"},
	{Name: "cluster.get_virt_p99_us", Unit: "us", Better: "lower", Source: "window", Moves: "virt_tail_us -> wire-cluster only"},
	{Name: "cluster.put_virt_p50_us", Unit: "us", Better: "lower", Source: "window", Moves: "virt_body_us -> wire-cluster only"},
	{Name: "cluster.put_virt_p99_us", Unit: "us", Better: "lower", Source: "window", Moves: "virt_tail_us -> wire-cluster only"},
	{Name: "cluster.hedges_per_kget", Unit: "1/kop", Better: "lower", Source: "window", Moves: "host_ops_per_s -> wire-cluster only"},
	{Name: "cluster.hedge_win_share", Unit: "share", Better: "higher", Source: "window", Moves: "virt_tail_us -> wire-cluster only"},
	{Name: "cluster.retries_per_kop", Unit: "1/kop", Better: "lower", Source: "window", Moves: "expect 0 (no node dies)"},
	{Name: "cluster.failovers", Unit: "count", Better: "lower", Source: "window", Moves: "expect 0"},
	{Name: "cluster.replica_lag_max", Unit: "count", Better: "lower", Source: "window", Moves: "hedging stays enabled -> wire-cluster only"},

	{Name: "telemetry.counter_add_ns", Unit: "ns", Better: "lower", Source: "probe", Moves: "host_ops_per_s -> all"},
	{Name: "telemetry.hist_observe_ns", Unit: "ns", Better: "lower", Source: "probe", Moves: "host_ops_per_s -> all"},
	{Name: "telemetry.overhead_pct", Unit: "pct", Better: "lower", Source: "diff", Moves: "host_ops_per_s -> all; PR 6's < 3 % budget"},

	{Name: "kaml.get_virt_p50_us", Unit: "us", Better: "lower", Source: "span", Moves: "per-op split of virt_body_us -> get-flash"},
	{Name: "kaml.get_virt_p99_us", Unit: "us", Better: "lower", Source: "span", Moves: "per-op split of virt_tail_us -> get-flash"},
	{Name: "kaml.put_virt_p50_us", Unit: "us", Better: "lower", Source: "span", Moves: "per-op split of virt_body_us -> put-churn"},
	{Name: "kaml.put_virt_p99_us", Unit: "us", Better: "lower", Source: "span", Moves: "per-op split of virt_tail_us -> put-churn"},
	{Name: "kaml.putbatch_virt_p50_us", Unit: "us", Better: "lower", Source: "span", Moves: "per-op split of virt_body_us -> put-churn"},
	{Name: "kaml.putbatch_virt_p99_us", Unit: "us", Better: "lower", Source: "span", Moves: "per-op split of virt_tail_us -> put-churn"},
	{Name: "kaml.get_host_ns", Unit: "ns", Better: "lower", Source: "span", Moves: "per-op split of host_ops_per_s -> get-flash"},
	{Name: "kaml.put_host_ns", Unit: "ns", Better: "lower", Source: "span", Moves: "per-op split of host_ops_per_s -> put-churn"},
}

// workloadSpec is one frozen row of the workload table. Rates and the
// latency limit were calibrated once on the seed (README "Ladder
// calibration") and must not be edited by a change that claims a gain.
type workloadSpec struct {
	Name string
	Why  string // one line, copied into BENCHMARK.json

	Keys      int // preloaded keys at scale 1
	ValueSize int
	Clients   int // closed-loop clients of the peak phase

	Rates   [6]float64 // ladder rungs R1..R6, ops/s on the workload's virtual clock
	LimitUS float64    // p99 limit of virt_rate_at_slo_ops: 3 x the seed's R2 p99, 2 s.f.

	WarmOps int // closed-loop warm-up ops inside setup
	PeakOps int // closed-loop ops of the peak phase at scale 1

	SpansPerOp int // spans a traced request records: sizes the span slice
	// load creates the workload's table on the open device and returns its
	// request stream. nil for wire-cluster, which drives a cluster of its own.
	load func(r *runner) (loadSpec, error)
}

var workloads = []workloadSpec{
	{
		Name: "get-flash",
		Why:  "100% uniform Get of flushed 512 B values: only the read path works (nvme, RunDirect, index probe, flash read); a write-path change must show no movement here",
		Keys: 200000, ValueSize: 512, Clients: 8,
		Rates:   [6]float64{16000, 27000, 38000, 44000, 49000, 54000},
		LimitUS: 630,
		WarmOps: 20000, PeakOps: 1200000,
		SpansPerOp: 4, load: (*runner).getFlashLoad, // root, keygen, the call, verify
	},
	{
		Name: "put-churn",
		Why:  "100% writes (zipf overwrites, fresh keys, atomic batches) past device capacity: coalescer, NVRAM commit, packing, version chains, flusher and GC do all the work; ends in a power cut",
		Keys: 200000, ValueSize: 512, Clients: 16,
		Rates:   [6]float64{600, 1000, 1400, 1700, 2000, 2800},
		LimitUS: 300,
		WarmOps: 10000, PeakOps: 320000,
		SpansPerOp: 4, load: (*runner).putChurnLoad,
	},
	{
		Name: "txn-mixed",
		Why:  "SS2PL and SI transactions through internal/cache at 25% cache: Get misses beside batch commits, so a Put gain paid for by Gets shows here and nowhere else",
		Keys: 100000, ValueSize: 1024, Clients: 16,
		Rates:   [6]float64{1900, 3200, 4500, 5400, 6400, 8000},
		LimitUS: 1000,
		WarmOps: 40000, PeakOps: 128000,
		SpansPerOp: 32, load: (*runner).txnMixedLoad, // begin/read/verify/update/commit per attempt, five attempts at peak
	},
	{
		Name: "wire-cluster",
		Why:  "2 nodes x 4 shards x RF 2, 70/30 Get/Put: measured in-process on the virtual clock, then over loopback through kvproto (frame codec, server pump, cluster client) on the wall clock",
		Keys: 50000, ValueSize: 256, Clients: 32,
		Rates:   [6]float64{3900, 6500, 9100, 11000, 13000, 16000},
		LimitUS: 800,
		WarmOps: 8000, PeakOps: 64000,
		SpansPerOp: 4,
	},
}

// Wire-phase sizes of wire-cluster at scale 1 (the in-process phases use
// the workload row like every other workload).
const (
	wireOpenRate  = 5900.0 // ops/s wall: ~40% of the seed's 32-client closed-loop rate
	wireOpenOps   = 24000
	wireInprocOps = 64000 // in-process closed-loop peak: virt_peak_ops_per_s and the cluster-vs-wire diff base
	wireIdleOps   = 2000  // QD-1 round trips (traced run)
)

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
