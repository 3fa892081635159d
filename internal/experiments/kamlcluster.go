package experiments

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	kaml "github.com/kaml-ssd/kaml"
	"github.com/kaml-ssd/kaml/internal/check"
	"github.com/kaml-ssd/kaml/internal/cluster"
	"github.com/kaml-ssd/kaml/internal/telemetry"
)

// The kamlcluster experiment: a sharded, replicated KAML cluster under an
// open-loop, read-heavy, zipf-skewed load, stressed with one live shard
// migration and one forced primary failover mid-run — once with hedged
// reads off, once on. The report is the per-shard Get latency SLO
// (p50/p95/p99) side by side, the tail-at-scale claim being that hedging
// buys back the p99 the stragglers cost. Every client op is recorded
// through a history tap and the run fails loudly if the linearizability
// checker finds a violation.

const (
	kcNodes  = 4
	kcShards = 8
	kcRF     = 2
	kcSeed   = 20170207 // HPCA 2017

	kcValueSize = 256
	kcReadFrac  = 0.92 // read-heavy serving mix
)

// kcCell is one cluster run's harvest. The open-loop ops that bump its
// counters are actors of one engine, which run one at a time.
type kcCell struct {
	hedged     bool
	getAll     telemetry.HistSnapshot
	getShard   []telemetry.HistSnapshot
	status     cluster.Status
	violations []check.Violation
	gets, puts int64
	maybes     int64 // power-class ("maybe applied") write outcomes
	failures   int64 // any other op failure
}

// kamlClusterCell runs one full scenario on a fresh virtual clock.
func kamlClusterCell(s Scale, hedged bool) *kcCell {
	keys := int(4096 * float64(s))
	if keys < 512 {
		keys = 512
	}
	ops := int(24000 * float64(s))
	if ops < 1500 {
		ops = 1500
	}
	// Open-loop arrival rate: comfortably below the 4-device capacity so
	// queues form from skew and disruption, not saturation.
	interArrival := 50 * time.Microsecond

	cfg := cluster.DefaultConfig()
	cfg.Nodes, cfg.Shards, cfg.ReplicationFactor = kcNodes, kcShards, kcRF
	cfg.Seed = kcSeed
	cfg.ExpectedKeysPerShard = 4 * keys / kcShards
	cfg.Hedge.Enabled = hedged
	c, err := cluster.New(cfg)
	if err != nil {
		panic(fmt.Sprintf("kamlcluster: %v", err))
	}
	rec := check.NewRecorder(c.Engine().Now)
	c.SetHistoryTap(rec)

	cell := &kcCell{hedged: hedged}
	c.Go(func() {
		defer c.Close()

		// Preload the keyspace so reads hit and the migration has a frozen
		// set to copy.
		for k := 0; k < keys; k++ {
			if err := c.Put(uint64(k), check.EncodeValue(uint64(k)+1, kcValueSize)); err != nil {
				cell.failures++
			}
		}

		// The disruption actor: after a third of the run, migrate shard 0
		// live; once that completes, kill the then-primary of shard 1.
		// Sequencing both in one actor keeps the scenario deterministic.
		chaos := c.Engine().NewWaitGroup()
		chaos.Add(1)
		c.Go(func() {
			defer chaos.Done()
			c.Engine().Sleep(time.Duration(ops/3) * interArrival)
			topo := c.Topology()
			from := topo.Shards[0].Replicas[0]
			holds := map[int]bool{}
			for _, n := range topo.Shards[0].Replicas {
				holds[n] = true
			}
			for to := 0; to < c.NumNodes(); to++ {
				if !holds[to] {
					if err := c.Migrate(0, from, to); err != nil {
						cell.failures++
					}
					break
				}
			}
			c.Engine().Sleep(time.Duration(ops/3) * interArrival)
			c.KillNode(c.Topology().Shards[1].Primary)
		})

		// Open-loop load: seeded exponential arrivals, each op its own
		// actor, zipf-skewed keys, read-heavy mix. Writers tag values so
		// the checker can match reads to writes.
		arrRng := rand.New(rand.NewSource(kcSeed + 1))
		keyRng := rand.New(rand.NewSource(kcSeed + 2))
		zipf := rand.NewZipf(keyRng, 1.2, 8, uint64(keys-1))
		inflight := c.Engine().NewWaitGroup()
		var tag uint64 = uint64(keys) + 1
		for i := 0; i < ops; i++ {
			c.Engine().Sleep(time.Duration(arrRng.ExpFloat64() * float64(interArrival)))
			key := zipf.Uint64()
			isRead := keyRng.Float64() < kcReadFrac
			opTag := tag
			if !isRead {
				tag++
			}
			inflight.Add(1)
			c.Go(func() {
				defer inflight.Done()
				if isRead {
					if _, err := c.Get(key); err == nil || errors.Is(err, kaml.ErrKeyNotFound) {
						cell.gets++
					} else {
						cell.failures++
					}
					return
				}
				switch err := c.Put(key, check.EncodeValue(opTag, kcValueSize)); {
				case err == nil:
					cell.puts++
				case errors.Is(err, kaml.ErrPowerLoss):
					cell.maybes++
				default:
					cell.failures++
				}
			})
		}
		inflight.Wait()
		chaos.Wait()

		cell.status = c.Status()
		reg := c.Telemetry()
		cell.getAll = reg.Histogram("kaml_cluster_get_seconds", telemetry.UnitSeconds, "shard", "all").Snapshot()
		for sh := 0; sh < kcShards; sh++ {
			cell.getShard = append(cell.getShard,
				reg.Histogram("kaml_cluster_get_seconds", telemetry.UnitSeconds, "shard", strconv.Itoa(sh)).Snapshot())
		}
	})
	c.Wait()
	cell.violations = check.CheckHistory(rec.Events())
	return cell
}

// KamlCluster reproduces the cluster SLO experiment. Two cells, identical
// seeds and disruption schedule, differing only in hedged reads.
func KamlCluster(s Scale) *Table {
	cells := make([]*kcCell, 2)
	jobs := cellJobs{
		func() { cells[0] = kamlClusterCell(s, false) },
		func() { cells[1] = kamlClusterCell(s, true) },
	}
	jobs.run()
	off, on := cells[0], cells[1]

	us := func(snap telemetry.HistSnapshot, q float64) string {
		return fmt.Sprintf("%.0f", float64(snap.Quantile(q))/1e3)
	}
	t := &Table{
		ID:    "kamlcluster",
		Title: fmt.Sprintf("cluster Get latency SLO (µs): %d nodes, %d shards, RF-%d, live migration + forced failover", kcNodes, kcShards, kcRF),
		Header: []string{"shard", "gets",
			"p50", "p95", "p99",
			"p50(hedged)", "p95(hedged)", "p99(hedged)"},
	}
	for sh := 0; sh < kcShards; sh++ {
		o, h := off.getShard[sh], on.getShard[sh]
		t.Rows = append(t.Rows, []string{
			strconv.Itoa(sh), strconv.FormatInt(h.N, 10),
			us(o, 0.50), us(o, 0.95), us(o, 0.99),
			us(h, 0.50), us(h, 0.95), us(h, 0.99),
		})
	}
	t.Rows = append(t.Rows, []string{
		"all", strconv.FormatInt(on.getAll.N, 10),
		us(off.getAll, 0.50), us(off.getAll, 0.95), us(off.getAll, 0.99),
		us(on.getAll, 0.50), us(on.getAll, 0.95), us(on.getAll, 0.99),
	})

	for _, cell := range cells {
		mode := "hedge=off"
		if cell.hedged {
			mode = "hedge=on"
		}
		t.Notes = append(t.Notes, fmt.Sprintf(
			"%s: gets=%d puts=%d maybe-writes=%d failures=%d; hedges issued=%d won=%d; failovers=%d migrations=%d retries=%d epoch=%d; linearizability violations=%d",
			mode, cell.gets, cell.puts, cell.maybes, cell.failures,
			cell.status.HedgesIssued, cell.status.HedgesWon,
			cell.status.Failovers, cell.status.Migrations, cell.status.Retries,
			cell.status.Epoch, len(cell.violations)))
		for i, v := range cell.violations {
			if i == 3 {
				t.Notes = append(t.Notes, fmt.Sprintf("%s: ... %d more violations", mode, len(cell.violations)-i))
				break
			}
			t.Notes = append(t.Notes, fmt.Sprintf("%s: VIOLATION %v", mode, v))
		}
	}
	p99Off := float64(off.getAll.Quantile(0.99)) / 1e3
	p99On := float64(on.getAll.Quantile(0.99)) / 1e3
	if p99On > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf("aggregate p99: %.0fµs unhedged vs %.0fµs hedged (%.2fx)", p99Off, p99On, p99Off/p99On))
	}
	return t
}
