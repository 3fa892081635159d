package cache

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"github.com/kaml-ssd/kaml/internal/flash"
	"github.com/kaml-ssd/kaml/internal/kamlssd"
	"github.com/kaml-ssd/kaml/internal/nvme"
	"github.com/kaml-ssd/kaml/internal/sim"
	"github.com/kaml-ssd/kaml/internal/storage"
)

func newCache(capacity int64, gran int) (*sim.Engine, *Cache) {
	return newCacheOver(capacity, gran, nil)
}

// newCacheOver is newCache with a hook to adjust the firmware config.
func newCacheOver(capacity int64, gran int, mod func(*kamlssd.Config)) (*sim.Engine, *Cache) {
	e := sim.NewEngine()
	return e, newCacheOn(e, capacity, gran, mod)
}

// newCacheOn is newCacheOver on a given engine.
func newCacheOn(e *sim.Engine, capacity int64, gran int, mod func(*kamlssd.Config)) *Cache {
	fc := flash.DefaultConfig()
	fc.Channels = 4
	fc.ChipsPerChannel = 2
	fc.BlocksPerChip = 16
	fc.PagesPerBlock = 16
	arr := flash.New(e, fc)
	ctrl := nvme.New(e, nvme.DefaultConfig())
	cfg := kamlssd.DefaultConfig(fc)
	cfg.NumLogs = 4
	if mod != nil {
		mod(&cfg)
	}
	dev := kamlssd.New(arr, ctrl, cfg)
	return New(dev, Config{CapacityBytes: capacity, RecordsPerLock: gran})
}

func withCache(t *testing.T, capacity int64, gran int, fn func(e *sim.Engine, c *Cache)) {
	t.Helper()
	e, c := newCache(capacity, gran)
	e.Go("test", func() {
		defer c.Close()
		fn(e, c)
	})
	e.Wait()
}

func TestCommitThenRead(t *testing.T) {
	withCache(t, 1<<20, 1, func(e *sim.Engine, c *Cache) {
		tbl, err := c.CreateTable("t", storage.TableHint{ExpectedRows: 100})
		if err != nil {
			t.Fatal(err)
		}
		tx := c.Begin()
		if err := tx.Insert(tbl, 1, []byte("hello")); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		tx.Free()

		tx2 := c.Begin()
		v, err := tx2.Read(tbl, 1)
		if err != nil || string(v) != "hello" {
			t.Fatalf("read: %q %v", v, err)
		}
		tx2.Commit()
		tx2.Free()
	})
}

func TestReadYourOwnWrites(t *testing.T) {
	withCache(t, 1<<20, 1, func(e *sim.Engine, c *Cache) {
		tbl, _ := c.CreateTable("t", storage.TableHint{ExpectedRows: 10})
		tx := c.Begin()
		tx.Insert(tbl, 1, []byte("v1"))
		v, err := tx.Read(tbl, 1)
		if err != nil || string(v) != "v1" {
			t.Fatalf("own write invisible: %q %v", v, err)
		}
		tx.Update(tbl, 1, []byte("v2"))
		v, _ = tx.Read(tbl, 1)
		if string(v) != "v2" {
			t.Fatalf("own update invisible: %q", v)
		}
		tx.Commit()
		tx.Free()
	})
}

func TestAbortDiscardsWrites(t *testing.T) {
	withCache(t, 1<<20, 1, func(e *sim.Engine, c *Cache) {
		tbl, _ := c.CreateTable("t", storage.TableHint{ExpectedRows: 10})
		tx := c.Begin()
		tx.Insert(tbl, 9, []byte("ghost"))
		tx.Abort()
		tx.Free()
		tx2 := c.Begin()
		if _, err := tx2.Read(tbl, 9); !errors.Is(err, storage.ErrNotFound) {
			t.Fatalf("aborted write visible: %v", err)
		}
		tx2.Commit()
		tx2.Free()
	})
}

func TestAbortRestoresOldValue(t *testing.T) {
	withCache(t, 1<<20, 1, func(e *sim.Engine, c *Cache) {
		tbl, _ := c.CreateTable("t", storage.TableHint{ExpectedRows: 10})
		tx := c.Begin()
		tx.Insert(tbl, 1, []byte("old"))
		tx.Commit()
		tx.Free()

		tx2 := c.Begin()
		tx2.Update(tbl, 1, []byte("new"))
		tx2.Abort()
		tx2.Free()

		tx3 := c.Begin()
		v, err := tx3.Read(tbl, 1)
		if err != nil || string(v) != "old" {
			t.Fatalf("abort leaked: %q %v", v, err)
		}
		tx3.Commit()
		tx3.Free()
	})
}

func TestTxnStateMachine(t *testing.T) {
	withCache(t, 1<<20, 1, func(e *sim.Engine, c *Cache) {
		tbl, _ := c.CreateTable("t", storage.TableHint{ExpectedRows: 10})
		tx := c.Begin()
		tx.Commit()
		if err := tx.Commit(); !errors.Is(err, storage.ErrTxnDone) {
			t.Fatalf("double commit: %v", err)
		}
		if err := tx.Update(tbl, 1, []byte("x")); !errors.Is(err, storage.ErrTxnDone) {
			t.Fatalf("update after commit: %v", err)
		}
		if _, err := tx.Read(tbl, 1); !errors.Is(err, storage.ErrTxnDone) {
			t.Fatalf("read after commit: %v", err)
		}
		tx.Free()
		// Free on an active transaction aborts it.
		tx2 := c.Begin()
		tx2.Insert(tbl, 2, []byte("y"))
		tx2.Free()
		tx3 := c.Begin()
		if _, err := tx3.Read(tbl, 2); !errors.Is(err, storage.ErrNotFound) {
			t.Fatalf("freed-active write visible: %v", err)
		}
		tx3.Commit()
		tx3.Free()
	})
}

func TestCacheHitAvoidsDevice(t *testing.T) {
	withCache(t, 1<<20, 1, func(e *sim.Engine, c *Cache) {
		tbl, _ := c.CreateTable("t", storage.TableHint{ExpectedRows: 10})
		tx := c.Begin()
		tx.Insert(tbl, 1, []byte("cached"))
		tx.Commit()
		tx.Free()
		c.Device().Flush()

		before := c.Device().Stats().Gets
		for i := 0; i < 5; i++ {
			tx := c.Begin()
			if _, err := tx.Read(tbl, 1); err != nil {
				t.Fatal(err)
			}
			tx.Commit()
			tx.Free()
		}
		if got := c.Device().Stats().Gets; got != before {
			t.Fatalf("cache hits issued %d device Gets", got-before)
		}
		if c.Stats().Hits < 5 {
			t.Fatalf("hits=%d", c.Stats().Hits)
		}
	})
}

func TestEvictionBoundsMemoryAndMissesRefill(t *testing.T) {
	// Tiny cache: inserting many records must evict, and re-reads must
	// fetch from the device (miss) with correct values.
	withCache(t, 4096, 1, func(e *sim.Engine, c *Cache) {
		tbl, _ := c.CreateTable("t", storage.TableHint{ExpectedRows: 100})
		const n = 50
		for k := uint64(0); k < n; k++ {
			tx := c.Begin()
			tx.Insert(tbl, k, bytes.Repeat([]byte(fmt.Sprintf("value-%03d", k)), 30))
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			tx.Free()
		}
		if c.Stats().Evictions == 0 {
			t.Fatal("no evictions from tiny cache")
		}
		for k := uint64(0); k < n; k++ {
			tx := c.Begin()
			v, err := tx.Read(tbl, k)
			want := bytes.Repeat([]byte(fmt.Sprintf("value-%03d", k)), 30)
			if err != nil || !bytes.Equal(v, want) {
				t.Fatalf("key %d: %q %v", k, v, err)
			}
			tx.Commit()
			tx.Free()
		}
		if c.Device().Stats().Gets == 0 {
			t.Fatal("expected device Gets after eviction")
		}
	})
}

func TestConflictingWritersSerialize(t *testing.T) {
	e, c := newCache(1<<20, 1)
	e.Go("main", func() {
		defer c.Close()
		tbl, _ := c.CreateTable("t", storage.TableHint{ExpectedRows: 10})
		seed := c.Begin()
		seed.Insert(tbl, 0, []byte{0})
		seed.Commit()
		seed.Free()

		const workers = 4
		const increments = 25
		wg := e.NewWaitGroup()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			e.Go("incr", func() {
				defer wg.Done()
				for i := 0; i < increments; i++ {
					err := storage.RunTxn(c, func(tx storage.Tx) error {
						v, err := tx.Read(tbl, 0)
						if err != nil {
							return err
						}
						v2 := append([]byte(nil), v...)
						v2[0]++
						if err := tx.Update(tbl, 0, v2); err != nil {
							return err
						}
						return tx.Commit()
					})
					if err != nil {
						t.Errorf("increment: %v", err)
						return
					}
				}
			})
		}
		wg.Wait()
		tx := c.Begin()
		v, err := tx.Read(tbl, 0)
		if err != nil {
			t.Error(err)
		} else if v[0] != byte(workers*increments) {
			t.Errorf("counter=%d want %d (lost updates)", v[0], workers*increments)
		}
		tx.Commit()
		tx.Free()
	})
	e.Wait()
}

func TestCoarseGranularityBlocksNeighbors(t *testing.T) {
	// With 16 records per lock, writers to different keys in the same unit
	// conflict; with granularity 1 they don't. Count wait-die aborts.
	run := func(gran int) int64 {
		e, c := newCache(1<<20, gran)
		var dies int64
		e.Go("main", func() {
			defer c.Close()
			tbl, _ := c.CreateTable("t", storage.TableHint{ExpectedRows: 64})
			for k := uint64(0); k < 16; k++ {
				tx := c.Begin()
				tx.Insert(tbl, k, bytes.Repeat([]byte{1}, 64))
				tx.Commit()
				tx.Free()
			}
			wg := e.NewWaitGroup()
			for w := 0; w < 8; w++ {
				w := w
				wg.Add(1)
				e.Go("w", func() {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w)))
					for i := 0; i < 30; i++ {
						tx := c.Begin()
						k := uint64(rng.Intn(16))
						if err := tx.Update(tbl, k, bytes.Repeat([]byte{2}, 64)); err != nil {
							tx.Free()
							continue
						}
						if err := tx.Commit(); err == nil {
							_ = err
						}
						tx.Free()
					}
				})
			}
			wg.Wait()
			dies = c.Stats().Dies
		})
		e.Wait()
		return dies
	}
	fine := run(1)
	coarse := run(16)
	if coarse <= fine {
		t.Fatalf("coarse locking should cause more wait-die aborts: fine=%d coarse=%d", fine, coarse)
	}
}

func TestCommittedDataSurvivesDeviceFlushAndColdCache(t *testing.T) {
	withCache(t, 1<<20, 1, func(e *sim.Engine, c *Cache) {
		tbl, _ := c.CreateTable("t", storage.TableHint{ExpectedRows: 100})
		want := map[uint64][]byte{}
		for k := uint64(0); k < 40; k++ {
			tx := c.Begin()
			v := bytes.Repeat([]byte{byte(k)}, 100+int(k))
			tx.Insert(tbl, k, v)
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			tx.Free()
			want[k] = v
		}
		c.Device().Flush()
		// Simulate a cold cache by building a second caching layer over the
		// same device.
		c2 := New(c.Device(), Config{CapacityBytes: 1 << 20, RecordsPerLock: 1})
		for k, v := range want {
			tx := c2.Begin()
			got, err := tx.Read(tbl, k)
			if err != nil || !bytes.Equal(got, v) {
				t.Fatalf("cold read %d: %v", k, err)
			}
			tx.Commit()
			tx.Free()
		}
	})
}
