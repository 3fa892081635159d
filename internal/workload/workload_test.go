package workload

import (
	"math"
	"math/rand"
	"testing"

	"github.com/kaml-ssd/kaml/internal/blockdev"
	"github.com/kaml-ssd/kaml/internal/cache"
	"github.com/kaml-ssd/kaml/internal/flash"
	"github.com/kaml-ssd/kaml/internal/ftl"
	"github.com/kaml-ssd/kaml/internal/kamlssd"
	"github.com/kaml-ssd/kaml/internal/nvme"
	"github.com/kaml-ssd/kaml/internal/shoremt"
	"github.com/kaml-ssd/kaml/internal/sim"
	"github.com/kaml-ssd/kaml/internal/storage"
)

func smallFlash() flash.Config {
	fc := flash.DefaultConfig()
	fc.Channels = 4
	fc.ChipsPerChannel = 2
	fc.BlocksPerChip = 32
	fc.PagesPerBlock = 16
	return fc
}

// eachEngine runs fn once on the KAML caching layer and once on Shore-MT,
// proving both engines execute identical workloads.
func eachEngine(t *testing.T, fn func(t *testing.T, e *sim.Engine, eng storage.Engine)) {
	t.Helper()
	t.Run("kaml", func(t *testing.T) {
		e := sim.NewEngine()
		arr := flash.New(e, smallFlash())
		ctrl := nvme.New(e, nvme.DefaultConfig())
		kcfg := kamlssd.DefaultConfig(smallFlash())
		kcfg.NumLogs = 4
		dev := kamlssd.New(arr, ctrl, kcfg)
		eng := cache.New(dev, cache.Config{CapacityBytes: 8 << 20, RecordsPerLock: 1})
		e.Go("test", func() {
			defer eng.Close()
			fn(t, e, eng)
		})
		e.Wait()
	})
	t.Run("shoremt", func(t *testing.T) {
		e := sim.NewEngine()
		arr := flash.New(e, smallFlash())
		ctrl := nvme.New(e, nvme.DefaultConfig())
		dev := blockdev.New(ftl.New(arr, ctrl))
		cfg := shoremt.DefaultConfig()
		cfg.LogPages = 128
		cfg.PoolFrames = 512
		eng := shoremt.New(dev, e, cfg)
		e.Go("test", func() {
			defer eng.Close()
			fn(t, e, eng)
		})
		e.Wait()
	})
}

func TestZipfianSkew(t *testing.T) {
	z := NewZipfian(1000, YCSBTheta)
	rng := rand.New(rand.NewSource(1))
	counts := make([]int, 1000)
	for i := 0; i < 100000; i++ {
		k := z.Next(rng)
		if k >= 1000 {
			t.Fatalf("out of range: %d", k)
		}
		counts[k]++
	}
	if counts[0] < counts[500]*10 {
		t.Fatalf("not skewed: head=%d mid=%d", counts[0], counts[500])
	}
}

func TestScrambledZipfianCoversSpace(t *testing.T) {
	s := NewScrambledZipfian(1000)
	rng := rand.New(rand.NewSource(2))
	seen := map[uint64]bool{}
	for i := 0; i < 50000; i++ {
		k := s.Next(rng)
		if k >= 1000 {
			t.Fatalf("out of range: %d", k)
		}
		seen[k] = true
	}
	if len(seen) < 400 {
		t.Fatalf("hot keys not scattered: %d distinct", len(seen))
	}
}

func TestRotatingMovesTheHotSet(t *testing.T) {
	var offset uint64
	r := Rotating{Inner: NewZipfian(1000, YCSBTheta), N: 1000, Offset: func() uint64 { return offset }}
	rng := rand.New(rand.NewSource(3))
	hottest := func() uint64 {
		counts := make(map[uint64]int)
		for i := 0; i < 20000; i++ {
			k := r.Next(rng)
			if k >= 1000 {
				t.Fatalf("out of range: %d", k)
			}
			counts[k]++
		}
		best, n := uint64(0), 0
		for k, c := range counts {
			if c > n {
				best, n = k, c
			}
		}
		return best
	}
	if h := hottest(); h != 0 {
		t.Fatalf("offset 0: hottest key %d, want 0", h)
	}
	offset = 700
	if h := hottest(); h != 700 {
		t.Fatalf("offset 700: hottest key %d, want 700", h)
	}
}

func TestLatestFavorsRecent(t *testing.T) {
	l := NewLatest(1000)
	rng := rand.New(rand.NewSource(3))
	recent := 0
	const n = 20000
	for i := 0; i < n; i++ {
		k := l.Next(rng)
		if k >= 1000 {
			t.Fatalf("out of range: %d", k)
		}
		if k >= 900 {
			recent++
		}
	}
	if float64(recent)/n < 0.5 {
		t.Fatalf("latest not skewed to recent: %.2f", float64(recent)/n)
	}
	l.SetMax(2000)
	k := l.Next(rng)
	if k >= 2000 {
		t.Fatalf("after SetMax: %d", k)
	}
}

func TestUniformIsRoughlyFlat(t *testing.T) {
	u := Uniform{N: 100}
	rng := rand.New(rand.NewSource(4))
	counts := make([]int, 100)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[u.Next(rng)]++
	}
	for k, c := range counts {
		if math.Abs(float64(c)-n/100) > n/100*0.3 {
			t.Fatalf("key %d count %d deviates", k, c)
		}
	}
}

func TestYCSBMixesSumToOne(t *testing.T) {
	for w, m := range YCSBMixes {
		sum := m.Read + m.Update + m.Insert + m.RMW
		if math.Abs(sum-1.0) > 1e-9 {
			t.Errorf("workload %c mix sums to %f", w, sum)
		}
	}
}

func TestYCSBRunsOnBothEngines(t *testing.T) {
	eachEngine(t, func(t *testing.T, e *sim.Engine, eng storage.Engine) {
		cfg := YCSBConfig{Workload: 'a', Records: 200, ValueSize: 256}
		y, err := NewYCSB(eng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		if err := y.Load(rng, 32); err != nil {
			t.Fatal(err)
		}
		kinds := map[string]int{}
		for i := 0; i < 200; i++ {
			kind, err := y.Op(rng)
			if err != nil {
				t.Fatalf("op %d (%s): %v", i, kind, err)
			}
			kinds[kind]++
		}
		if kinds["read"] == 0 || kinds["update"] == 0 {
			t.Fatalf("mix not exercised: %v", kinds)
		}
	})
}

func TestYCSBWorkloadDInserts(t *testing.T) {
	eachEngine(t, func(t *testing.T, e *sim.Engine, eng storage.Engine) {
		cfg := YCSBConfig{Workload: 'd', Records: 100, ValueSize: 128}
		y, err := NewYCSB(eng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(8))
		if err := y.Load(rng, 32); err != nil {
			t.Fatal(err)
		}
		inserts := 0
		for i := 0; i < 300; i++ {
			kind, err := y.Op(rng)
			if err != nil {
				t.Fatalf("op: %v", err)
			}
			if kind == "insert" {
				inserts++
			}
		}
		if inserts == 0 {
			t.Fatal("no inserts in workload d")
		}
	})
}

func TestTPCBConservation(t *testing.T) {
	eachEngine(t, func(t *testing.T, e *sim.Engine, eng storage.Engine) {
		cfg := TPCBConfig{Branches: 2, TellersPerBranch: 4, AccountsPerBranch: 50, ValueSize: 128}
		b, err := NewTPCB(eng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Load(); err != nil {
			t.Fatal(err)
		}
		wg := e.NewWaitGroup()
		for w := 0; w < 4; w++ {
			w := w
			wg.Add(1)
			e.Go("worker", func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(w)))
				for i := 0; i < 20; i++ {
					if err := b.AccountUpdate(rng); err != nil {
						t.Errorf("txn: %v", err)
						return
					}
				}
			})
		}
		wg.Wait()
		// TPC-B invariant: sum(accounts) == sum(tellers) == sum(branches).
		aSum, err := b.totalBalance(b.acct, b.Accounts())
		if err != nil {
			t.Fatal(err)
		}
		tSum, err := b.totalBalance(b.tell, cfg.Branches*cfg.TellersPerBranch)
		if err != nil {
			t.Fatal(err)
		}
		brSum, err := b.totalBalance(b.brch, cfg.Branches)
		if err != nil {
			t.Fatal(err)
		}
		if aSum != tSum || tSum != brSum {
			t.Fatalf("invariant broken: accounts=%d tellers=%d branches=%d", aSum, tSum, brSum)
		}
	})
}

func TestTPCCNewOrderAndPayment(t *testing.T) {
	eachEngine(t, func(t *testing.T, e *sim.Engine, eng storage.Engine) {
		cfg := DefaultTPCCConfig()
		cfg.Warehouses = 1
		cfg.CustomersPerDist = 20
		cfg.Items = 100
		cfg.StockPerWarehouse = 100
		c, err := NewTPCC(eng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Load(); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < 15; i++ {
			if err := c.NewOrder(rng); err != nil {
				t.Fatalf("NewOrder %d: %v", i, err)
			}
			if err := c.Payment(rng); err != nil {
				t.Fatalf("Payment %d: %v", i, err)
			}
		}
		// Orders exist.
		tx := eng.Begin()
		if _, err := tx.Read(c.orders, 1); err != nil {
			t.Fatalf("order 1 missing: %v", err)
		}
		tx.Commit()
		tx.Free()
	})
}

func TestBadConfigsRejected(t *testing.T) {
	eachEngine(t, func(t *testing.T, e *sim.Engine, eng storage.Engine) {
		if _, err := NewYCSB(eng, YCSBConfig{Workload: 'z', Records: 10, ValueSize: 10}); err == nil {
			t.Error("unknown workload accepted")
		}
		if _, err := NewYCSB(eng, YCSBConfig{Workload: 'a'}); err == nil {
			t.Error("zero records accepted")
		}
		if _, err := NewTPCB(eng, TPCBConfig{}); err == nil {
			t.Error("empty TPC-B config accepted")
		}
		if _, err := NewTPCC(eng, TPCCConfig{}); err == nil {
			t.Error("empty TPC-C config accepted")
		}
	})
}
