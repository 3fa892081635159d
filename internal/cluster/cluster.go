// Package cluster scales the single simulated KAML device out into a
// sharded, replicated key-value cluster — the "building block for
// large-scale storage services" deployment the paper's introduction
// motivates, reproduced on one deterministic virtual clock.
//
// N kaml.Devices share a sim.Engine and stand behind a router:
//
//   - the keyspace is hash-partitioned into shards; each shard is served
//     by a replica set of ReplicationFactor devices chosen by rendezvous
//     hashing, with replicas[0] acting as primary;
//   - a Put fans out to every replica and is acknowledged only when a
//     quorum (majority) has committed it to NVRAM — and, because an acked
//     write must land on every replica that stays in the set, any replica
//     that failed the write is failed out of the topology before the ack;
//   - a Get is served by the primary, with an optional hedged second read
//     to the first secondary after a delay derived from the cluster's own
//     observed p95 read latency (The Tail at Scale's "hedged requests");
//   - a shard can be migrated live between devices: the firmware's
//     snapshot machinery freezes the source, the copier streams the frozen
//     keys, and concurrent writes are dual-written, so the move never
//     blocks the write path except for one bounded cutover drain.
//
// Config chooses the topology, the device template and whether to hedge;
// the network hop, the retry budget and the hedge delay's clamps are
// constants of the router.
//
// Topology changes (failover, migration cutover) bump an epoch counter
// and publish an immutable Topology snapshot through an atomic.Value, so
// network servers and admin endpoints read routing state without touching
// a simulation lock. internal/kvproto exposes the epoch in its KVP2
// handshake and redirects misrouted commands with a MOVED status.
//
// Lock hierarchy: Cluster.mu (topology RWMutex) > shard.mu. Every
// mutation of a shard's replica set or migration pointer holds BOTH;
// readers may hold either one. Actors never hold a lock across device
// I/O.
package cluster

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	kaml "github.com/kaml-ssd/kaml"
	"github.com/kaml-ssd/kaml/internal/sim"
	"github.com/kaml-ssd/kaml/internal/telemetry"
)

// Errors surfaced by the cluster API.
var (
	// ErrShardUnavailable reports an operation on a shard with no live
	// replicas — every device holding it has failed.
	ErrShardUnavailable = errors.New("cluster: no live replica for shard")
	// ErrClusterClosed reports an operation after Close.
	ErrClusterClosed = errors.New("cluster: closed")
	// ErrMigrating reports a Migrate on a shard that is already moving.
	ErrMigrating = errors.New("cluster: shard already migrating")
	// ErrNotReplica reports a Migrate whose source does not hold the shard
	// or whose destination already does.
	ErrNotReplica = errors.New("cluster: bad migration endpoints")
)

// ErrIndeterminate reports a write whose outcome is unknown: at least one
// replica (or the migration destination) may have committed it before
// another failed, so the value can surface on later reads even though the
// write was never acknowledged. It unwraps to kaml.ErrPowerLoss so the
// linearizability checker classifies it as a "maybe" operation
// (internal/check), exactly like a single device's power-cut Put.
var ErrIndeterminate error = &indeterminateError{}

type indeterminateError struct{}

func (*indeterminateError) Error() string {
	return "cluster: write outcome indeterminate (partial replication)"
}

func (*indeterminateError) Unwrap() error { return kaml.ErrPowerLoss }

// HedgeConfig tunes hedged reads.
type HedgeConfig struct {
	// Enabled turns hedging on.
	Enabled bool
	// InitDelay is the hedge delay used until hedgeMinSamples reads have
	// been observed. Default 500µs.
	InitDelay time.Duration
}

// Router constants. A read's hedge delay is the p95 of observed reads,
// recomputed every hedgeRefreshEvery reads once hedgeMinSamples exist and
// clamped to [hedgeMinDelay, hedgeMaxDelay].
const (
	netHop       = 10 * time.Microsecond // one-way router <-> device latency
	maxAttempts  = 4                     // routing tries per command after replica failures
	retryBackoff = 50 * time.Microsecond // base backoff between tries, times the attempt number

	hedgeMinDelay     = 20 * time.Microsecond
	hedgeMaxDelay     = 5 * time.Millisecond
	hedgeRefreshEvery = 256
	hedgeMinSamples   = 64
)

// Config describes a cluster.
type Config struct {
	// Nodes is the device count. Default 4.
	Nodes int
	// Shards is the hash-partition count. Default 8.
	Shards int
	// ReplicationFactor is the replica count per shard. Default 2; must
	// not exceed Nodes.
	ReplicationFactor int
	// Device is the per-device template (Engine is overridden with the
	// cluster's shared clock; AutoGrowIndex is forced on so hash imbalance
	// can never fail one replica of an acknowledged write with a full
	// index). A zero value means kaml.SmallOptions().
	Device kaml.Options
	// DeviceFaults optionally installs a fault plan per node (indexed by
	// node ID; nil entries mean no faults). The failover tests use this to
	// cut power to a chosen device mid-workload.
	DeviceFaults []*kaml.FaultPlan
	// Hedge tunes hedged reads.
	Hedge HedgeConfig
	// ExpectedKeysPerShard sizes each shard namespace's mapping table.
	ExpectedKeysPerShard int
	// Seed perturbs rendezvous placement.
	Seed int64
	// Engine, when non-nil, runs the cluster on an existing virtual clock.
	Engine *sim.Engine
}

// DefaultConfig returns a 4-node, 8-shard, RF-2 cluster of small devices.
func DefaultConfig() Config {
	return Config{
		Nodes:             4,
		Shards:            8,
		ReplicationFactor: 2,
		Device:            kaml.SmallOptions(),
	}
}

func (cfg *Config) fillDefaults() error {
	if cfg.Nodes == 0 {
		cfg.Nodes = 4
	}
	if cfg.Shards == 0 {
		cfg.Shards = 8
	}
	if cfg.ReplicationFactor == 0 {
		cfg.ReplicationFactor = 2
	}
	if cfg.Device.Flash.Channels == 0 {
		cfg.Device = kaml.SmallOptions()
	}
	if cfg.Hedge.InitDelay == 0 {
		cfg.Hedge.InitDelay = 500 * time.Microsecond
	}
	if cfg.Nodes < 1 || cfg.Shards < 1 {
		return fmt.Errorf("cluster: need at least one node and one shard (have %d/%d)", cfg.Nodes, cfg.Shards)
	}
	if cfg.ReplicationFactor > cfg.Nodes {
		return fmt.Errorf("cluster: replication factor %d exceeds node count %d", cfg.ReplicationFactor, cfg.Nodes)
	}
	return nil
}

// Node is one simulated device in the cluster.
type Node struct {
	ID   int
	Dev  *kaml.Device
	down atomic.Bool
}

// Down reports whether the node has been failed out of the topology.
func (n *Node) Down() bool { return n.down.Load() }

// replica is one shard copy: the node holding it and the namespace the
// shard's records live in on that node's device.
type replica struct {
	node int
	ns   kaml.Namespace
}

// shard is one hash partition. mu protects every field below it; the
// replica slice and mig pointer are additionally only MUTATED while the
// cluster topology lock is held exclusively, so topology snapshots may
// read them under Cluster.mu alone.
type shard struct {
	id   int
	mu   *sim.Mutex
	cond *sim.Cond // drain changes, gate open, copy-exclusion release

	replicas []replica
	mig      *migration // nil when not migrating
	gate     bool       // cutover: new writes wait

	inflightPre  int // writes issued outside a migration
	inflightDual int // writes dual-written during a migration

	acked   int64         // total acknowledged writes
	applied map[int]int64 // node -> writes applied there

	// tainted latches when a write landed on SOME live replica without
	// being acknowledged (a partial failure that was not a clean node
	// death): the replicas may now disagree, so hedged reads — which
	// would let the divergence flip-flop into client-visible state — stay
	// off for this shard until it is migrated or its node fails over.
	tainted bool
}

// migration is the live-rebalance state machine for one shard move.
type migration struct {
	from, to int
	srcNS    kaml.Namespace      // shard namespace on from
	destNS   kaml.Namespace      // shard namespace being built on to
	written  map[uint64]struct{} // keys dual-written: fresher than the snapshot
	copying  map[uint64]struct{} // keys mid-copy: writers wait (per-key exclusion)
	failed   bool
}

// NodeInfo is one node's row in a Topology snapshot.
type NodeInfo struct {
	ID   int  `json:"id"`
	Live bool `json:"live"`
}

// ShardInfo is one shard's row in a Topology snapshot.
type ShardInfo struct {
	ID        int   `json:"id"`
	Replicas  []int `json:"replicas"` // node IDs, [0] = primary
	Primary   int   `json:"primary"`  // -1 when the shard has no live replica
	Migrating bool  `json:"migrating,omitempty"`
}

// Topology is an immutable routing snapshot published at every epoch
// bump. Safe to read from any goroutine.
type Topology struct {
	Epoch  uint64      `json:"epoch"`
	Nodes  []NodeInfo  `json:"nodes"`
	Shards []ShardInfo `json:"shards"`
}

// Cluster is a sharded, replicated set of simulated KAML devices.
type Cluster struct {
	cfg    Config
	eng    *sim.Engine
	nodes  []*Node
	shards []*shard

	mu    *sim.RWMutex // topology lock; see package comment for hierarchy
	epoch atomic.Uint64
	topo  atomic.Value // *Topology

	reg *telemetry.Registry
	met metrics
	tap kaml.HistoryTap

	hedgeDelayNs atomic.Int64 // cached clamp(p95); 0 = use InitDelay
	reads        atomic.Int64

	closed atomic.Bool
}

// New builds and initializes a cluster: it opens every device on one
// shared virtual clock, places shards with rendezvous hashing, and
// creates each replica's namespace. Safe to call from a plain goroutine.
func New(cfg Config) (*Cluster, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	eng := cfg.Engine
	if eng == nil {
		eng = sim.NewEngine()
	}
	c := &Cluster{cfg: cfg, eng: eng, reg: telemetry.NewRegistry()}
	c.mu = eng.NewRWMutex("cluster-topo")
	for i := 0; i < cfg.Nodes; i++ {
		opts := cfg.Device
		opts.Engine = eng
		opts.Firmware.AutoGrowIndex = true
		if i < len(cfg.DeviceFaults) {
			opts.Faults = cfg.DeviceFaults[i]
		}
		dev, err := kaml.Open(opts)
		if err != nil {
			return nil, fmt.Errorf("cluster: opening node %d: %w", i, err)
		}
		c.nodes = append(c.nodes, &Node{ID: i, Dev: dev})
	}
	for s := 0; s < cfg.Shards; s++ {
		mu := eng.NewMutex(fmt.Sprintf("cluster-shard%d", s))
		c.shards = append(c.shards, &shard{
			id: s, mu: mu, cond: eng.NewCond(mu),
			applied: make(map[int]int64),
		})
	}
	c.initMetrics()

	// Namespace creation must run on a simulation actor; the initial
	// topology publish rides on the same actor so no cluster operation can
	// observe an epoch-zero state.
	var setupErr error
	c.runSync(func() {
		for _, sh := range c.shards {
			for _, n := range rendezvous(cfg.Seed, sh.id, cfg.Nodes, cfg.ReplicationFactor) {
				ns, err := c.nodes[n].Dev.CreateNamespace(kaml.NamespaceOptions{
					ExpectedKeys: cfg.ExpectedKeysPerShard,
				})
				if err != nil {
					setupErr = fmt.Errorf("cluster: creating shard %d namespace on node %d: %w", sh.id, n, err)
					return
				}
				sh.replicas = append(sh.replicas, replica{node: n, ns: ns})
				sh.applied[n] = 0
			}
		}
		c.mu.Lock()
		c.bumpEpochLocked()
		c.mu.Unlock()
	})
	if setupErr != nil {
		c.runSync(c.Close)
		return nil, setupErr
	}
	return c, nil
}

// mix64 is the splitmix64 finalizer: a cheap, well-distributed 64-bit
// mixer for key→shard and rendezvous scores.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// rendezvous ranks every node by a per-(shard, node) hash and returns the
// top rf — highest-random-weight placement, so adding a node reshuffles
// only the shards it wins rather than rehashing the world.
func rendezvous(seed int64, shard, nodes, rf int) []int {
	type scored struct {
		node  int
		score uint64
	}
	ranked := make([]scored, nodes)
	for n := 0; n < nodes; n++ {
		ranked[n] = scored{
			node:  n,
			score: mix64(uint64(shard+1)*0x9e3779b97f4a7c15 ^ mix64(uint64(n+1)^uint64(seed))),
		}
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].score != ranked[j].score {
			return ranked[i].score > ranked[j].score
		}
		return ranked[i].node < ranked[j].node
	})
	out := make([]int, rf)
	for i := 0; i < rf; i++ {
		out[i] = ranked[i].node
	}
	return out
}

// ShardOfKey maps a key to its shard in an N-shard cluster. Exported so
// network clients (internal/kvproto's cluster client) route with the same
// function the cluster itself uses.
func ShardOfKey(key uint64, shards int) int {
	return int(mix64(key) % uint64(shards))
}

// ShardOf maps a key to its shard.
func (c *Cluster) ShardOf(key uint64) int {
	return ShardOfKey(key, len(c.shards))
}

// runSync runs fn on a fresh simulation actor and blocks the (non-actor)
// caller until it returns. Closing a real channel from an actor never
// parks it, so this cannot stall the virtual clock.
func (c *Cluster) runSync(fn func()) {
	done := make(chan struct{})
	c.eng.Go("cluster-admin", func() {
		defer close(done)
		fn()
	})
	<-done
}

// Go runs fn as a simulation actor; all cluster operations must happen
// inside one.
func (c *Cluster) Go(fn func()) { c.eng.Go("cluster-app", fn) }

// Wait blocks the (real-world) caller until every actor has finished.
func (c *Cluster) Wait() { c.eng.Wait() }

// Engine exposes the shared simulation engine.
func (c *Cluster) Engine() *sim.Engine { return c.eng }

// Telemetry returns the cluster's metrics registry (the devices each keep
// their own).
func (c *Cluster) Telemetry() *telemetry.Registry { return c.reg }

// SetHistoryTap installs (or removes) a history tap observing every
// cluster-level Get and Put. Internal traffic — replication fan-out,
// migration copies — is deliberately NOT tapped: the tap records the
// client-visible history that the linearizability checker judges.
// Install before issuing operations.
func (c *Cluster) SetHistoryTap(t kaml.HistoryTap) { c.tap = t }

// NumNodes returns the node count (live or not).
func (c *Cluster) NumNodes() int { return len(c.nodes) }

// Node returns a node by ID.
func (c *Cluster) Node(id int) *Node { return c.nodes[id] }

// Epoch returns the current topology epoch.
func (c *Cluster) Epoch() uint64 { return c.epoch.Load() }

// Topology returns the latest published routing snapshot. Lock-free; safe
// from any goroutine (admin HTTP, network servers).
func (c *Cluster) Topology() *Topology { return c.topo.Load().(*Topology) }

// PrimaryFor returns the shard and primary node serving key, plus the
// epoch of the snapshot that answered. ok is false when the shard
// currently has no live replica. Lock-free.
func (c *Cluster) PrimaryFor(key uint64) (shardID, node int, epoch uint64, ok bool) {
	t := c.Topology()
	shardID = c.ShardOf(key)
	si := t.Shards[shardID]
	return shardID, si.Primary, t.Epoch, si.Primary >= 0
}

// bumpEpochLocked advances the epoch and publishes a fresh Topology
// snapshot. Caller holds c.mu exclusively (which is what makes reading
// every shard's replica set and migration pointer safe).
func (c *Cluster) bumpEpochLocked() {
	e := c.epoch.Add(1)
	t := &Topology{Epoch: e}
	for _, n := range c.nodes {
		t.Nodes = append(t.Nodes, NodeInfo{ID: n.ID, Live: !n.down.Load()})
	}
	for _, sh := range c.shards {
		si := ShardInfo{ID: sh.id, Primary: -1, Migrating: sh.mig != nil}
		for _, r := range sh.replicas {
			si.Replicas = append(si.Replicas, r.node)
		}
		if len(si.Replicas) > 0 {
			si.Primary = si.Replicas[0]
		}
		t.Shards = append(t.Shards, si)
	}
	c.topo.Store(t)
	c.met.epoch.Set(int64(e))
}

// markDown fails a node out of every replica set: surviving replicas are
// promoted, shards that lose their last copy become unavailable, and any
// migration touching the node is doomed. Idempotent; call from an actor
// holding NO cluster or shard locks.
func (c *Cluster) markDown(node int) {
	n := c.nodes[node]
	if n.down.Load() {
		return
	}
	c.mu.Lock()
	if n.down.Swap(true) {
		c.mu.Unlock()
		return
	}
	for _, sh := range c.shards {
		sh.mu.Lock()
		if sh.mig != nil && (sh.mig.from == node || sh.mig.to == node) {
			sh.mig.failed = true
		}
		kept := sh.replicas[:0:0]
		lostPrimary := false
		for i, r := range sh.replicas {
			if r.node == node {
				if i == 0 {
					lostPrimary = true
				}
				continue
			}
			kept = append(kept, r)
		}
		if len(kept) != len(sh.replicas) {
			sh.replicas = kept
			delete(sh.applied, node)
			if lostPrimary && len(kept) > 0 {
				c.met.failovers.Inc()
			}
			c.updateLagLocked(sh)
		}
		sh.cond.Broadcast()
		sh.mu.Unlock()
	}
	c.bumpEpochLocked()
	c.mu.Unlock()
}

// KillNode cuts power to a node's device and immediately fails it out of
// the topology — the forced-failover lever used by tests and the
// kamlcluster experiment. (Without the explicit markDown the cluster
// would still converge: the first operation to hit the dead device
// observes its power-loss error and fails the node out organically.)
// Call from a simulation actor.
func (c *Cluster) KillNode(node int) {
	c.nodes[node].Dev.PowerCut()
	c.markDown(node)
}

// isNodeDown classifies device errors that mean "this device is gone",
// as opposed to per-key outcomes like ErrKeyNotFound.
func isNodeDown(err error) bool {
	return errors.Is(err, kaml.ErrPowerLoss) || errors.Is(err, kaml.ErrClosed)
}

// Close shuts down every device that is still live. Call from a
// simulation actor (powered-down nodes have already halted and are
// skipped).
func (c *Cluster) Close() {
	if c.closed.Swap(true) {
		return
	}
	for _, n := range c.nodes {
		if !n.down.Load() {
			n.Dev.Close()
		}
	}
}

// ShardStatus is one shard's row in a Status report.
type ShardStatus struct {
	ID          int   `json:"id"`
	Replicas    []int `json:"replicas"`
	Primary     int   `json:"primary"`
	Migrating   bool  `json:"migrating,omitempty"`
	ProgressPct int64 `json:"migration_progress_pct"`
	ReplicaLag  int64 `json:"replica_lag"`
}

// Status is a lock-free operational snapshot for admin surfaces.
type Status struct {
	Epoch        uint64        `json:"epoch"`
	Nodes        []NodeInfo    `json:"nodes"`
	Shards       []ShardStatus `json:"shards"`
	HedgesIssued int64         `json:"hedged_reads_issued"`
	HedgesWon    int64         `json:"hedged_reads_won"`
	Failovers    int64         `json:"failovers"`
	Migrations   int64         `json:"migrations"`
	Retries      int64         `json:"retries"`
}

// Status assembles the published topology and the cluster counters. Reads
// only atomics; safe from any goroutine.
func (c *Cluster) Status() Status {
	t := c.Topology()
	st := Status{
		Epoch:        t.Epoch,
		Nodes:        t.Nodes,
		HedgesIssued: c.met.hedgesIssued.Value(),
		HedgesWon:    c.met.hedgesWon.Value(),
		Failovers:    c.met.failovers.Value(),
		Migrations:   c.met.migrations.Value(),
		Retries:      c.met.retries.Value(),
	}
	for _, si := range t.Shards {
		st.Shards = append(st.Shards, ShardStatus{
			ID: si.ID, Replicas: si.Replicas, Primary: si.Primary,
			Migrating:   si.Migrating,
			ProgressPct: c.met.migProgress[si.ID].Value(),
			ReplicaLag:  c.met.lag[si.ID].Value(),
		})
	}
	return st
}
