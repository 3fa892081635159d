package cluster

import (
	"strconv"
	"time"

	"github.com/kaml-ssd/kaml/internal/telemetry"
)

// metrics holds every cluster instrument, resolved once at construction
// (telemetry's contract: lookups are locked, recording is atomic).
// Per-shard series are label-addressed slices indexed by shard ID.
type metrics struct {
	getAll *telemetry.Histogram // kaml_cluster_get_seconds{shard="all"}
	putAll *telemetry.Histogram // kaml_cluster_put_seconds{shard="all"}

	getShard []*telemetry.Histogram // kaml_cluster_get_seconds{shard="N"}

	hedgesIssued *telemetry.Counter
	hedgesWon    *telemetry.Counter
	failovers    *telemetry.Counter
	migrations   *telemetry.Counter
	retries      *telemetry.Counter

	lag         []*telemetry.Gauge // kaml_cluster_replica_lag{shard="N"}
	migProgress []*telemetry.Gauge // kaml_cluster_migration_progress{shard="N"}
	epoch       *telemetry.Gauge
}

func (c *Cluster) initMetrics() {
	r := c.reg
	r.Help("kaml_cluster_get_seconds", "Cluster Get latency (virtual time), per shard plus the 'all' aggregate the hedging policy derives its delay from.")
	r.Help("kaml_cluster_put_seconds", "Cluster Put latency (virtual time) to quorum acknowledgment.")
	r.Help("kaml_cluster_hedged_reads_issued_total", "Hedged reads actually sent to a secondary replica.")
	r.Help("kaml_cluster_hedged_reads_won_total", "Hedged reads that beat the primary to a usable result.")
	r.Help("kaml_cluster_failovers_total", "Shard primary promotions caused by node failure.")
	r.Help("kaml_cluster_migrations_total", "Live shard migrations completed.")
	r.Help("kaml_cluster_retries_total", "Operations re-routed after a replica failure.")
	r.Help("kaml_cluster_replica_lag", "Acked writes not yet applied on the shard's slowest replica (permanent lag disables hedging for the shard).")
	r.Help("kaml_cluster_migration_progress", "Percent of the shard's frozen key set copied by the active (or last) migration.")
	r.Help("kaml_cluster_epoch", "Current topology epoch.")

	c.met.getAll = r.Histogram("kaml_cluster_get_seconds", telemetry.UnitSeconds, "shard", "all")
	c.met.putAll = r.Histogram("kaml_cluster_put_seconds", telemetry.UnitSeconds, "shard", "all")
	c.met.hedgesIssued = r.Counter("kaml_cluster_hedged_reads_issued_total")
	c.met.hedgesWon = r.Counter("kaml_cluster_hedged_reads_won_total")
	c.met.failovers = r.Counter("kaml_cluster_failovers_total")
	c.met.migrations = r.Counter("kaml_cluster_migrations_total")
	c.met.retries = r.Counter("kaml_cluster_retries_total")
	c.met.epoch = r.Gauge("kaml_cluster_epoch")
	for s := 0; s < c.cfg.Shards; s++ {
		id := strconv.Itoa(s)
		c.met.getShard = append(c.met.getShard, r.Histogram("kaml_cluster_get_seconds", telemetry.UnitSeconds, "shard", id))
		c.met.lag = append(c.met.lag, r.Gauge("kaml_cluster_replica_lag", "shard", id))
		c.met.migProgress = append(c.met.migProgress, r.Gauge("kaml_cluster_migration_progress", "shard", id))
	}
}

// observeGet records one successful read and periodically re-derives the
// hedge delay from the aggregate latency histogram's p95 — the
// telemetry-driven half of the hedging policy. Recomputation is amortized
// (every hedgeRefreshEvery reads) because a histogram snapshot walks every
// bucket.
func (c *Cluster) observeGet(shardID int, d time.Duration) {
	c.met.getAll.ObserveDuration(d)
	c.met.getShard[shardID].ObserveDuration(d)
	if !c.cfg.Hedge.Enabled {
		return
	}
	if c.reads++; c.reads%hedgeRefreshEvery == 0 {
		snap := c.met.getAll.Snapshot()
		if snap.N < hedgeMinSamples {
			return
		}
		delay := time.Duration(snap.Quantile(0.95))
		if delay < hedgeMinDelay {
			delay = hedgeMinDelay
		}
		if delay > hedgeMaxDelay {
			delay = hedgeMaxDelay
		}
		c.hedgeDelayNs = int64(delay)
	}
}

// hedgeDelay returns the current hedge trigger delay.
func (c *Cluster) hedgeDelay() time.Duration {
	if v := c.hedgeDelayNs; v > 0 {
		return time.Duration(v)
	}
	return c.cfg.Hedge.InitDelay
}

// updateLagLocked recomputes the shard's replica-lag gauge: how many
// acknowledged writes its slowest replica has yet to apply. Caller holds
// sh.mu.
func (c *Cluster) updateLagLocked(sh *shard) {
	var lag int64
	for _, r := range sh.replicas {
		if d := sh.acked - sh.applied[r.node]; d > lag {
			lag = d
		}
	}
	c.met.lag[sh.id].Set(lag)
}
