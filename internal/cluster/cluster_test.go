package cluster

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	kaml "github.com/kaml-ssd/kaml"
	"github.com/kaml-ssd/kaml/internal/check"
)

// withCluster runs fn as a simulation actor on a fresh cluster and shuts
// the cluster down when it returns. The test idiom mirrors the device
// tests: one root actor drives the scenario, spawning sub-actors with
// c.Go and joining them on a sim WaitGroup.
func withCluster(t *testing.T, cfg Config, fn func(c *Cluster)) {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Go(func() {
		defer c.Close()
		fn(c)
	})
	c.Wait()
}

func TestRendezvousPlacement(t *testing.T) {
	// Deterministic, distinct, and every shard gets exactly rf nodes.
	for shard := 0; shard < 32; shard++ {
		a := rendezvous(7, shard, 5, 3)
		b := rendezvous(7, shard, 5, 3)
		if len(a) != 3 {
			t.Fatalf("shard %d: got %d replicas, want 3", shard, len(a))
		}
		seen := map[int]bool{}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("shard %d: placement not deterministic: %v vs %v", shard, a, b)
			}
			if seen[a[i]] {
				t.Fatalf("shard %d: duplicate node in %v", shard, a)
			}
			seen[a[i]] = true
		}
	}
	// Growing the node set must not move shards that the new node does not
	// win — the rendezvous minimal-disruption property.
	moved := 0
	for shard := 0; shard < 64; shard++ {
		before := rendezvous(7, shard, 5, 1)[0]
		after := rendezvous(7, shard, 6, 1)[0]
		if before != after && after != 5 {
			t.Fatalf("shard %d moved %d -> %d, but the new node is 5", shard, before, after)
		}
		if before != after {
			moved++
		}
	}
	if moved == 64 {
		t.Fatal("every shard moved when one node was added")
	}
}

func TestClusterRoundTrip(t *testing.T) {
	withCluster(t, DefaultConfig(), func(c *Cluster) {
		const n = 512
		for k := uint64(0); k < n; k++ {
			if err := c.Put(k, check.EncodeValue(k+1, 64)); err != nil {
				t.Fatalf("put %d: %v", k, err)
			}
		}
		for k := uint64(0); k < n; k++ {
			v, err := c.Get(k)
			if err != nil {
				t.Fatalf("get %d: %v", k, err)
			}
			if tag, ok := check.DecodeTag(v); !ok || tag != k+1 {
				t.Fatalf("get %d: tag %d ok=%v, want %d", k, tag, ok, k+1)
			}
		}
		if _, err := c.Get(1 << 40); !errors.Is(err, kaml.ErrKeyNotFound) {
			t.Fatalf("missing key: err %v, want ErrKeyNotFound", err)
		}

		st := c.Status()
		if st.Epoch == 0 {
			t.Fatal("epoch never advanced past zero")
		}
		if len(st.Shards) != len(c.shards) {
			t.Fatalf("status has %d shards, want %d", len(st.Shards), len(c.shards))
		}
		for _, sh := range st.Shards {
			if len(sh.Replicas) != 2 {
				t.Fatalf("shard %d has %d replicas, want 2", sh.ID, len(sh.Replicas))
			}
			if sh.Primary != sh.Replicas[0] {
				t.Fatalf("shard %d: primary %d != replicas[0] %d", sh.ID, sh.Primary, sh.Replicas[0])
			}
		}
	})
}

// ackLog tracks, per key, the highest tag whose Put was acknowledged.
// Guarded by a plain mutex: critical sections are tiny and never park, the
// same pattern check.Recorder uses.
type ackLog struct {
	mu    sync.Mutex
	acked map[uint64]uint64
}

func (a *ackLog) record(key, tag uint64) {
	a.mu.Lock()
	if tag > a.acked[key] {
		a.acked[key] = tag
	}
	a.mu.Unlock()
}

// runWriters spawns one writer actor per key range, each writing `rounds`
// tagged generations over its keys, and joins them. Returned errors other
// than power-class ("maybe") failures are fatal.
func runWriters(t *testing.T, c *Cluster, a *ackLog, writers, keysEach, rounds int) {
	wg := c.Engine().NewWaitGroup()
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		c.Go(func() {
			defer wg.Done()
			base := uint64(w * 1000)
			for r := 0; r < rounds; r++ {
				for i := 0; i < keysEach; i++ {
					key := base + uint64(i)
					tag := uint64(r)*1000 + uint64(w*keysEach+i) + 1
					err := c.Put(key, check.EncodeValue(tag, 48))
					switch {
					case err == nil:
						a.record(key, tag)
					case errors.Is(err, kaml.ErrPowerLoss):
						// Indeterminate: may or may not have applied.
					default:
						t.Errorf("writer %d key %d: unexpected error %v", w, key, err)
						return
					}
				}
			}
		})
	}
	wg.Wait()
}

// verifyAcked asserts every acknowledged write survived: the key is
// present and carries a tag at least as new as the newest acked one (a
// newer "maybe" write is allowed to have applied).
func verifyAcked(t *testing.T, c *Cluster, a *ackLog) {
	a.mu.Lock()
	acked := make(map[uint64]uint64, len(a.acked))
	for k, v := range a.acked {
		acked[k] = v
	}
	a.mu.Unlock()
	if len(acked) == 0 {
		t.Fatal("no write was ever acknowledged")
	}
	for key, tag := range acked {
		v, err := c.Get(key)
		if err != nil {
			t.Fatalf("acked key %d (tag %d) lost: %v", key, tag, err)
		}
		got, ok := check.DecodeTag(v)
		if !ok || got < tag {
			t.Fatalf("acked key %d: read tag %d (ok=%v), want >= %d", key, got, ok, tag)
		}
	}
}

func checkHistory(t *testing.T, rec *check.Recorder) {
	t.Helper()
	vs := check.CheckHistory(rec.Events())
	for _, v := range vs {
		t.Errorf("linearizability violation: %v", v)
	}
}

// TestFailoverSurvivesPrimaryKill is the replication-under-faults test:
// the primary of shard 0 is power-cut mid-workload. Every acknowledged
// write must survive the failover, and the full client history must stay
// linearizable.
func TestFailoverSurvivesPrimaryKill(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 42
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := check.NewRecorder(c.Engine().Now)
	c.SetHistoryTap(rec)

	c.Go(func() {
		defer c.Close()
		victim := c.Topology().Shards[0].Primary
		a := &ackLog{acked: make(map[uint64]uint64)}

		chaos := c.Engine().NewWaitGroup()
		chaos.Add(1)
		c.Go(func() {
			defer chaos.Done()
			c.Engine().Sleep(2 * time.Millisecond)
			c.KillNode(victim)
		})
		runWriters(t, c, a, 4, 64, 6)
		chaos.Wait()

		st := c.Status()
		if st.Failovers == 0 {
			t.Error("killing shard 0's primary caused no failover")
		}
		for _, n := range st.Nodes {
			if n.ID == victim && n.Live {
				t.Error("victim still marked live")
			}
		}
		verifyAcked(t, c, a)
	})
	c.Wait()
	checkHistory(t, rec)
}

// TestFailoverOrganicFault lets a device die on its own via the fault
// injector (a power cut after a programmed page count) instead of an
// explicit KillNode: the router must detect the dead node from its write
// errors, fail it out, and keep every acknowledged write readable.
func TestFailoverOrganicFault(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 7
	// Pages leave NVRAM only when full, and a 48 B value is one of a page's
	// 64 chunks: fault-free, this workload makes the four nodes program
	// 14 / 3 / 22 / 18 pages (seed 7 hashes few keys to node 1). The victim
	// is the busiest node and the cut its 10th program, so it dies with more
	// than half of its writes still to come.
	const victim = 2
	cfg.DeviceFaults = make([]*kaml.FaultPlan, cfg.Nodes)
	cfg.DeviceFaults[victim] = &kaml.FaultPlan{Seed: 7, CutAfterPrograms: 10}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := check.NewRecorder(c.Engine().Now)
	c.SetHistoryTap(rec)

	c.Go(func() {
		defer c.Close()
		a := &ackLog{acked: make(map[uint64]uint64)}
		runWriters(t, c, a, 4, 64, 8)
		if !c.Node(victim).Down() {
			t.Errorf("node %d never died despite its fault plan (%d pages programmed)",
				victim, c.Node(victim).Dev.Stats().Programs)
		}
		verifyAcked(t, c, a)
	})
	c.Wait()
	checkHistory(t, rec)
}

// TestMigrationDuringWrites moves a shard between devices while writers
// hammer it. Afterwards: the topology shows the new placement, the
// destination namespace holds exactly the shard's key set, every
// acknowledged write is readable, and the history is linearizable.
func TestMigrationDuringWrites(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 3
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := check.NewRecorder(c.Engine().Now)
	c.SetHistoryTap(rec)

	const shardID = 0
	var migErr error
	c.Go(func() {
		defer c.Close()

		// Pick the move: first replica of shard 0 to a node not holding it.
		topo := c.Topology()
		from := topo.Shards[shardID].Replicas[0]
		holds := map[int]bool{}
		for _, n := range topo.Shards[shardID].Replicas {
			holds[n] = true
		}
		to := -1
		for n := 0; n < c.NumNodes(); n++ {
			if !holds[n] {
				to = n
				break
			}
		}
		if to < 0 {
			t.Fatal("no free node to migrate to")
		}

		// Collect keys that land on the target shard so the workload
		// actually exercises the dual-write and copy paths.
		var shardKeys []uint64
		for k := uint64(0); len(shardKeys) < 96; k++ {
			if c.ShardOf(k) == shardID {
				shardKeys = append(shardKeys, k)
			}
		}

		// Preload half the keys so the copier has a frozen set to stream.
		a := &ackLog{acked: make(map[uint64]uint64)}
		for i, k := range shardKeys[:48] {
			tag := uint64(i) + 1
			if err := c.Put(k, check.EncodeValue(tag, 48)); err != nil {
				t.Fatalf("preload %d: %v", k, err)
			}
			a.record(k, tag)
		}

		mover := c.Engine().NewWaitGroup()
		mover.Add(1)
		c.Go(func() {
			defer mover.Done()
			c.Engine().Sleep(500 * time.Microsecond)
			migErr = c.Migrate(shardID, from, to)
		})

		// Concurrent writers over the shard's keys while the copy runs.
		wg := c.Engine().NewWaitGroup()
		for w := 0; w < 3; w++ {
			w := w
			wg.Add(1)
			c.Go(func() {
				defer wg.Done()
				for r := 0; r < 8; r++ {
					for i, k := range shardKeys {
						if i%3 != w {
							continue
						}
						tag := uint64(1000*(r+1) + i)
						if err := c.Put(k, check.EncodeValue(tag, 48)); err != nil {
							t.Errorf("migration-time put %d: %v", k, err)
							return
						}
						a.record(k, tag)
					}
				}
			})
		}
		wg.Wait()
		mover.Wait()
		if migErr != nil {
			t.Fatalf("migration failed: %v", migErr)
		}

		topo = c.Topology()
		holdsNow := map[int]bool{}
		for _, n := range topo.Shards[shardID].Replicas {
			holdsNow[n] = true
		}
		if holdsNow[from] || !holdsNow[to] {
			t.Fatalf("post-migration replicas %v: want %d gone and %d present",
				topo.Shards[shardID].Replicas, from, to)
		}
		if c.Status().Migrations != 1 {
			t.Fatalf("migrations counter = %d, want 1", c.Status().Migrations)
		}
		verifyAcked(t, c, a)

		// Keyset completeness on the destination namespace: exactly the
		// shard's written keys — nothing lost, nothing duplicated, nothing
		// leaked from other shards. (All writes were acknowledged, so the
		// expected set is exact.) The replica slice is stable here: no
		// other actor is running.
		var destNS kaml.Namespace
		found := false
		for _, r := range c.shards[shardID].replicas {
			if r.node == to {
				destNS, found = r.ns, true
			}
		}
		if !found {
			t.Fatal("destination replica not in shard replica slice")
		}
		keys, err := c.Node(to).Dev.NamespaceKeys(destNS)
		if err != nil {
			t.Fatalf("NamespaceKeys(dest): %v", err)
		}
		got := map[uint64]bool{}
		for _, k := range keys {
			if got[k] {
				t.Fatalf("duplicate key %d in destination namespace", k)
			}
			got[k] = true
		}
		for _, k := range shardKeys {
			if _, everAcked := a.acked[k]; everAcked && !got[k] {
				t.Errorf("key %d lost by migration", k)
			}
			delete(got, k)
		}
		for k := range got {
			t.Errorf("key %d in destination namespace was never written to shard %d", k, shardID)
		}
	})
	c.Wait()
	checkHistory(t, rec)
}

func TestMigrateValidation(t *testing.T) {
	withCluster(t, DefaultConfig(), func(c *Cluster) {
		topo := c.Topology()
		reps := topo.Shards[0].Replicas
		if err := c.Migrate(0, reps[0], reps[1]); !errors.Is(err, ErrNotReplica) {
			t.Errorf("migrate onto existing replica: err %v, want ErrNotReplica", err)
		}
		free := -1
		holds := map[int]bool{}
		for _, n := range reps {
			holds[n] = true
		}
		for n := 0; n < c.NumNodes(); n++ {
			if !holds[n] {
				free = n
				break
			}
		}
		if err := c.Migrate(0, free, reps[1]); !errors.Is(err, ErrNotReplica) {
			t.Errorf("migrate from non-holder: err %v, want ErrNotReplica", err)
		}
		if err := c.Migrate(0, 2, 2); !errors.Is(err, ErrNotReplica) {
			t.Errorf("migrate from==to: err %v, want ErrNotReplica", err)
		}
	})
}

// TestHedgedReads checks the hedging machinery end to end: with a hedge
// delay far below the device's read latency every read hedges, the
// counters move, and results stay correct; with hedging disabled the
// counters stay at zero.
func TestHedgedReads(t *testing.T) {
	run := func(enabled bool) Status {
		cfg := DefaultConfig()
		cfg.Hedge = HedgeConfig{Enabled: enabled, InitDelay: time.Microsecond}
		var st Status
		withCluster(t, cfg, func(c *Cluster) {
			const n = 256
			for k := uint64(0); k < n; k++ {
				if err := c.Put(k, check.EncodeValue(k+1, 64)); err != nil {
					t.Fatalf("put: %v", err)
				}
			}
			for k := uint64(0); k < n; k++ {
				v, err := c.Get(k)
				if err != nil {
					t.Fatalf("get: %v", err)
				}
				if tag, ok := check.DecodeTag(v); !ok || tag != k+1 {
					t.Fatalf("get %d: tag %d, want %d", k, tag, k+1)
				}
			}
			st = c.Status()
		})
		return st
	}

	off := run(false)
	if off.HedgesIssued != 0 || off.HedgesWon != 0 {
		t.Fatalf("hedging disabled but issued=%d won=%d", off.HedgesIssued, off.HedgesWon)
	}
	on := run(true)
	if on.HedgesIssued == 0 {
		t.Fatal("hedging enabled with a 1µs delay but no hedge was ever issued")
	}
	if on.HedgesWon > on.HedgesIssued {
		t.Fatalf("hedges won (%d) exceeds hedges issued (%d)", on.HedgesWon, on.HedgesIssued)
	}
}

// TestTopologySnapshotStable ensures Topology/Status are usable lock-free
// while the cluster is under load (the admin-surface contract).
func TestTopologySnapshotStable(t *testing.T) {
	cfg := DefaultConfig()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var snapErr error
	var probeWG sync.WaitGroup
	probeWG.Add(1)
	go func() {
		// A real goroutine, deliberately outside the simulation: this is
		// how the admin HTTP handler reads the cluster.
		defer probeWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			topo := c.Topology()
			if topo.Epoch == 0 || len(topo.Shards) != cfg.Shards {
				snapErr = fmt.Errorf("bad topology snapshot: epoch=%d shards=%d", topo.Epoch, len(topo.Shards))
				return
			}
			_ = c.Status()
		}
	}()
	c.Go(func() {
		defer c.Close()
		a := &ackLog{acked: make(map[uint64]uint64)}
		chaos := c.Engine().NewWaitGroup()
		chaos.Add(1)
		c.Go(func() {
			defer chaos.Done()
			c.Engine().Sleep(time.Millisecond)
			c.KillNode(c.Topology().Shards[0].Primary)
		})
		runWriters(t, c, a, 2, 32, 4)
		chaos.Wait()
		verifyAcked(t, c, a)
	})
	c.Wait()
	close(stop)
	probeWG.Wait()
	if snapErr != nil {
		t.Fatal(snapErr)
	}
}
