package kaml_test

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"testing"
	"time"

	kaml "github.com/kaml-ssd/kaml"
	"github.com/kaml-ssd/kaml/internal/cluster"
	"github.com/kaml-ssd/kaml/internal/sim"
)

// The engines kaml.Open and cluster.New make when no Engine is passed are
// serialized: their actors run one at a time in a seeded order, so the same
// workload ends the same way on every run.

// runEnd is what a run leaves that depends on the order its actors ran in.
type runEnd struct {
	now    time.Duration
	stats  []kaml.Stats
	status *cluster.Status
	reads  uint64 // mixedLoad's digest of what its Gets returned
}

// store is the part of a device or a cluster the workload drives.
type store struct {
	put func(key uint64, v []byte) error
	get func(key uint64) ([]byte, error)
}

// mixedLoad runs actors on eng that each Put and Get keys of one shared,
// small key space, waits for them, and returns an FNV-64 of what their Gets
// returned. Call it on an actor.
func mixedLoad(eng *sim.Engine, s store) uint64 {
	const actors, ops, keys = 16, 150, 8
	got := make([][]string, actors)
	wg := eng.NewWaitGroup()
	for a := 0; a < actors; a++ {
		wg.Add(1)
		eng.Go("load", func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(a + 1)))
			for i := 0; i < ops; i++ {
				key := uint64(rng.Intn(keys))
				if rng.Intn(3) == 0 {
					if err := s.put(key, []byte(fmt.Sprintf("a%d-%d", a, i))); err != nil {
						got[a] = append(got[a], "put "+err.Error())
					}
					continue
				}
				v, err := s.get(key)
				got[a] = append(got[a], fmt.Sprintf("get %d %q %v", key, v, err))
			}
		})
	}
	wg.Wait()
	h := fnv.New64()
	for a, reads := range got {
		for _, r := range reads {
			fmt.Fprintf(h, "%d %s\n", a, r)
		}
	}
	return h.Sum64()
}

func deviceRun(t *testing.T) runEnd {
	dev, err := kaml.Open(kaml.SmallOptions())
	if err != nil {
		t.Fatal(err)
	}
	var end runEnd
	dev.Go(func() {
		ns, err := dev.CreateNamespace(kaml.NamespaceOptions{ExpectedKeys: 64})
		if err != nil {
			t.Error(err)
			return
		}
		s := store{
			put: func(k uint64, v []byte) error { return dev.Put(ns, k, v) },
			get: func(k uint64) ([]byte, error) { return dev.Get(ns, k) },
		}
		end.reads = mixedLoad(dev.Engine(), s)
		dev.Flush()
		dev.Close()
		end.now = dev.Now()
		end.stats = []kaml.Stats{dev.Stats()}
	})
	dev.Wait()
	return end
}

func clusterRun(t *testing.T) runEnd {
	cfg := cluster.DefaultConfig()
	cfg.Hedge.Enabled = true
	cfg.Seed = 3
	cl, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var end runEnd
	cl.Go(func() {
		end.reads = mixedLoad(cl.Engine(), store{put: cl.Put, get: cl.Get})
		st := cl.Status()
		end.status = &st
		for i := 0; i < cl.NumNodes(); i++ {
			end.stats = append(end.stats, cl.Node(i).Dev.Stats())
		}
		cl.Close()
		end.now = cl.Engine().Now()
	})
	cl.Wait()
	return end
}

// The same workload of concurrent actors, run twice on each default engine,
// ends at the same virtual instant with the same counters, cluster status
// and reads.
func TestDefaultEnginesAreSerialized(t *testing.T) {
	for _, c := range []struct {
		name string
		run  func(*testing.T) runEnd
	}{{"kaml.Open", deviceRun}, {"cluster.New", clusterRun}} {
		t.Run(c.name, func(t *testing.T) {
			first, second := c.run(t), c.run(t)
			if first.now == 0 || first.reads == 0 {
				t.Fatalf("the workload did not run: %+v", first)
			}
			if !reflect.DeepEqual(first, second) {
				t.Errorf("two runs differ:\n first %+v\nsecond %+v", first, second)
			}
		})
	}
}

// One Get of a flushed key on an otherwise idle device costs the scheduler
// a fixed number of parks, draws and coroutine switches; a change that adds
// a park to the read path moves them.
func TestIdleGetSchedulerCounts(t *testing.T) {
	dev, err := kaml.Open(kaml.SmallOptions())
	if err != nil {
		t.Fatal(err)
	}
	var got sim.Counts
	dev.Go(func() {
		defer dev.Close()
		ns, _ := dev.CreateNamespace(kaml.NamespaceOptions{})
		want := bytes.Repeat([]byte("v"), 512)
		if err := dev.Put(ns, 7, want); err != nil {
			t.Error(err)
			return
		}
		dev.Flush()
		eng := dev.Engine()
		before, hits := eng.Counts(), dev.Stats().NVRAMHits
		v, err := dev.Get(ns, 7)
		after := eng.Counts()
		if err != nil || !bytes.Equal(v, want) || dev.Stats().NVRAMHits != hits {
			t.Errorf("Get = %d bytes, %v; want the value from flash", len(v), err)
		}
		got = sim.Counts{
			Parks:      after.Parks - before.Parks,
			Dispatches: after.Dispatches - before.Dispatches,
			Switches:   after.Switches - before.Switches,
		}
	})
	dev.Wait()
	if want := (sim.Counts{Parks: 5, Dispatches: 5, Switches: 0}); got != want {
		t.Errorf("an idle Get cost %+v, want %+v", got, want)
	}
}
