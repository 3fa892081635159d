package shoremt

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"github.com/kaml-ssd/kaml/internal/blockdev"
	"github.com/kaml-ssd/kaml/internal/flash"
	"github.com/kaml-ssd/kaml/internal/ftl"
	"github.com/kaml-ssd/kaml/internal/nvme"
	"github.com/kaml-ssd/kaml/internal/sim"
	"github.com/kaml-ssd/kaml/internal/storage"
)

func newEngine(mod func(*Config)) (*sim.Engine, *Engine) {
	fc := flash.DefaultConfig()
	fc.Channels = 4
	fc.ChipsPerChannel = 2
	fc.BlocksPerChip = 16
	fc.PagesPerBlock = 16
	e := sim.NewEngine()
	arr := flash.New(e, fc)
	ctrl := nvme.New(e, nvme.DefaultConfig())
	dev := blockdev.New(ftl.New(arr, ctrl))
	cfg := DefaultConfig()
	cfg.PoolFrames = 64
	cfg.LogPages = 64
	if mod != nil {
		mod(&cfg)
	}
	return e, New(dev, e, cfg)
}

func withEngine(t *testing.T, mod func(*Config), fn func(e *sim.Engine, eng *Engine)) {
	t.Helper()
	e, eng := newEngine(mod)
	e.Go("test", func() {
		defer eng.Close()
		fn(e, eng)
	})
	e.Wait()
}

func TestInsertCommitRead(t *testing.T) {
	withEngine(t, nil, func(e *sim.Engine, eng *Engine) {
		tbl, err := eng.CreateTable("accounts", storage.TableHint{})
		if err != nil {
			t.Fatal(err)
		}
		tx := eng.Begin()
		if err := tx.Insert(tbl, 1, []byte("balance=100")); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		tx.Free()
		tx2 := eng.Begin()
		v, err := tx2.Read(tbl, 1)
		if err != nil || string(v) != "balance=100" {
			t.Fatalf("%q %v", v, err)
		}
		tx2.Commit()
		tx2.Free()
	})
}

func TestUpdateAndReadLatest(t *testing.T) {
	withEngine(t, nil, func(e *sim.Engine, eng *Engine) {
		tbl, _ := eng.CreateTable("t", storage.TableHint{})
		tx := eng.Begin()
		tx.Insert(tbl, 5, []byte("v1"))
		tx.Commit()
		tx.Free()
		tx = eng.Begin()
		if err := tx.Update(tbl, 5, []byte("v2-longer")); err != nil {
			t.Fatal(err)
		}
		tx.Commit()
		tx.Free()
		tx = eng.Begin()
		v, err := tx.Read(tbl, 5)
		if err != nil || string(v) != "v2-longer" {
			t.Fatalf("%q %v", v, err)
		}
		tx.Commit()
		tx.Free()
	})
}

func TestReadMissing(t *testing.T) {
	withEngine(t, nil, func(e *sim.Engine, eng *Engine) {
		tbl, _ := eng.CreateTable("t", storage.TableHint{})
		tx := eng.Begin()
		if _, err := tx.Read(tbl, 404); !errors.Is(err, storage.ErrNotFound) {
			t.Fatalf("err=%v", err)
		}
		tx.Commit()
		tx.Free()
	})
}

func TestAbortRollsBackUpdate(t *testing.T) {
	withEngine(t, nil, func(e *sim.Engine, eng *Engine) {
		tbl, _ := eng.CreateTable("t", storage.TableHint{})
		tx := eng.Begin()
		tx.Insert(tbl, 1, []byte("original"))
		tx.Commit()
		tx.Free()

		tx = eng.Begin()
		tx.Update(tbl, 1, []byte("mutated!"))
		// The update is applied in place (steal); abort must restore it.
		tx.Abort()
		tx.Free()

		tx = eng.Begin()
		v, err := tx.Read(tbl, 1)
		if err != nil || string(v) != "original" {
			t.Fatalf("rollback failed: %q %v", v, err)
		}
		tx.Commit()
		tx.Free()
	})
}

func TestAbortRollsBackInsert(t *testing.T) {
	withEngine(t, nil, func(e *sim.Engine, eng *Engine) {
		tbl, _ := eng.CreateTable("t", storage.TableHint{})
		tx := eng.Begin()
		tx.Insert(tbl, 7, []byte("phantom"))
		tx.Abort()
		tx.Free()
		tx = eng.Begin()
		if _, err := tx.Read(tbl, 7); !errors.Is(err, storage.ErrNotFound) {
			t.Fatalf("phantom visible: %v", err)
		}
		tx.Commit()
		tx.Free()
	})
}

func TestMultiRecordTransaction(t *testing.T) {
	withEngine(t, nil, func(e *sim.Engine, eng *Engine) {
		tbl, _ := eng.CreateTable("t", storage.TableHint{})
		tx := eng.Begin()
		for k := uint64(0); k < 20; k++ {
			if err := tx.Insert(tbl, k, bytes.Repeat([]byte{byte(k)}, 512)); err != nil {
				t.Fatal(err)
			}
		}
		tx.Commit()
		tx.Free()
		tx = eng.Begin()
		for k := uint64(0); k < 20; k++ {
			v, err := tx.Read(tbl, k)
			if err != nil || !bytes.Equal(v, bytes.Repeat([]byte{byte(k)}, 512)) {
				t.Fatalf("key %d: %v", k, err)
			}
		}
		tx.Commit()
		tx.Free()
	})
}

func TestRecordGrowthRelocates(t *testing.T) {
	withEngine(t, nil, func(e *sim.Engine, eng *Engine) {
		tbl, _ := eng.CreateTable("t", storage.TableHint{})
		// Fill a page with mid-size rows, then grow one beyond its page.
		tx := eng.Begin()
		for k := uint64(0); k < 12; k++ {
			tx.Insert(tbl, k, bytes.Repeat([]byte{1}, 600))
		}
		tx.Commit()
		tx.Free()
		tx = eng.Begin()
		big := bytes.Repeat([]byte{9}, 3000)
		if err := tx.Update(tbl, 3, big); err != nil {
			t.Fatal(err)
		}
		tx.Commit()
		tx.Free()
		tx = eng.Begin()
		v, err := tx.Read(tbl, 3)
		if err != nil || !bytes.Equal(v, big) {
			t.Fatalf("grown row: %d bytes %v", len(v), err)
		}
		// Neighbors intact.
		for k := uint64(0); k < 12; k++ {
			if k == 3 {
				continue
			}
			if _, err := tx.Read(tbl, k); err != nil {
				t.Fatalf("neighbor %d: %v", k, err)
			}
		}
		tx.Commit()
		tx.Free()
	})
}

func TestManyPagesSpill(t *testing.T) {
	withEngine(t, nil, func(e *sim.Engine, eng *Engine) {
		tbl, _ := eng.CreateTable("t", storage.TableHint{})
		const n = 300
		row := bytes.Repeat([]byte{7}, 512)
		for k := uint64(0); k < n; k++ {
			tx := eng.Begin()
			if err := tx.Insert(tbl, k, row); err != nil {
				t.Fatalf("insert %d: %v", k, err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatalf("commit %d: %v", k, err)
			}
			tx.Free()
		}
		tx := eng.Begin()
		for k := uint64(0); k < n; k += 17 {
			if _, err := tx.Read(tbl, k); err != nil {
				t.Fatalf("read %d: %v", k, err)
			}
		}
		tx.Commit()
		tx.Free()
	})
}

func TestConcurrentTransfersConserveMoney(t *testing.T) {
	e, eng := newEngine(func(c *Config) { c.CheckpointEvery = 10 * time.Millisecond })
	e.Go("main", func() {
		defer eng.Close()
		tbl, _ := eng.CreateTable("bank", storage.TableHint{})
		const accounts = uint64(20)
		const initial = 1000
		tx := eng.Begin()
		for a := uint64(0); a < accounts; a++ {
			tx.Insert(tbl, a, []byte(fmt.Sprintf("%08d", initial)))
		}
		tx.Commit()
		tx.Free()

		wg := e.NewWaitGroup()
		for w := 0; w < 4; w++ {
			w := w
			wg.Add(1)
			e.Go("xfer", func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(w)))
				for i := 0; i < 30; i++ {
					from := uint64(rng.Intn(int(accounts)))
					to := uint64(rng.Intn(int(accounts)))
					if from == to {
						to = (to + 1) % accounts
					}
					err := storage.RunTxn(eng, func(tx storage.Tx) error {
						fv, err := tx.Read(tbl, from)
						if err != nil {
							return err
						}
						tv, err := tx.Read(tbl, to)
						if err != nil {
							return err
						}
						var fb, tb int
						fmt.Sscanf(string(fv), "%d", &fb)
						fmt.Sscanf(string(tv), "%d", &tb)
						if err := tx.Update(tbl, from, []byte(fmt.Sprintf("%08d", fb-1))); err != nil {
							return err
						}
						if err := tx.Update(tbl, to, []byte(fmt.Sprintf("%08d", tb+1))); err != nil {
							return err
						}
						return tx.Commit()
					})
					if err != nil {
						t.Errorf("transfer: %v", err)
						return
					}
				}
			})
		}
		wg.Wait()
		total := 0
		tx = eng.Begin()
		for a := uint64(0); a < accounts; a++ {
			v, err := tx.Read(tbl, a)
			if err != nil {
				t.Errorf("read %d: %v", a, err)
				return
			}
			var b int
			fmt.Sscanf(string(v), "%d", &b)
			total += b
		}
		tx.Commit()
		tx.Free()
		if total != int(accounts)*initial {
			t.Errorf("money not conserved: %d != %d", total, int(accounts)*initial)
		}
	})
	e.Wait()
}

func TestCrashWritesNothingAfterPowerFailure(t *testing.T) {
	// A crash is a power failure: the background checkpointer, asleep when
	// it strikes, must not wake to flush the buffer pool to the device.
	e, eng := newEngine(nil)
	if eng.cfg.CheckpointEvery == 0 {
		t.Fatal("the default config must run the checkpointer")
	}
	e.Go("main", func() {
		defer eng.dev.Close()
		tbl, err := eng.CreateTable("t", storage.TableHint{})
		if err != nil {
			t.Error(err)
			return
		}
		for k := uint64(0); k < 20; k++ {
			tx := eng.Begin()
			tx.Insert(tbl, k, []byte(fmt.Sprintf("committed-%d", k)))
			if err := tx.Commit(); err != nil {
				t.Errorf("commit: %v", err)
				return
			}
			tx.Free()
		}
		before := eng.dev.FTL().Stats().Writes
		eng.crash()
		if after := eng.dev.FTL().Stats().Writes; after != before {
			t.Errorf("the device took %d sector writes after the power failure", after-before)
		}
	})
	e.Wait()
}

func TestCrashRecoveryCommittedSurvivesLoserRollsBack(t *testing.T) {
	fc := flash.DefaultConfig()
	fc.Channels = 4
	fc.ChipsPerChannel = 2
	fc.BlocksPerChip = 16
	fc.PagesPerBlock = 16
	e := sim.NewEngine()
	arr := flash.New(e, fc)
	ctrl := nvme.New(e, nvme.DefaultConfig())
	dev := blockdev.New(ftl.New(arr, ctrl))
	cfg := DefaultConfig()
	cfg.PoolFrames = 16 // small pool: dirty evictions exercise WAL rule
	cfg.LogPages = 64
	cfg.CheckpointEvery = 0 // manual checkpoints for determinism
	eng := New(dev, e, cfg)
	e.Go("main", func() {
		defer dev.Close()
		tbl, err := eng.CreateTable("t", storage.TableHint{})
		if err != nil {
			t.Error(err)
			return
		}
		// Committed data.
		for k := uint64(0); k < 50; k++ {
			tx := eng.Begin()
			tx.Insert(tbl, k, []byte(fmt.Sprintf("committed-%d", k)))
			if err := tx.Commit(); err != nil {
				t.Errorf("commit: %v", err)
				return
			}
			tx.Free()
		}
		if err := eng.Checkpoint(); err != nil {
			t.Errorf("checkpoint: %v", err)
			return
		}
		// More committed work after the checkpoint.
		for k := uint64(50); k < 80; k++ {
			tx := eng.Begin()
			tx.Insert(tbl, k, []byte(fmt.Sprintf("committed-%d", k)))
			tx.Commit()
			tx.Free()
		}
		// A loser: updates applied in place, then crash before commit.
		loser := eng.Begin()
		loser.Update(tbl, 10, []byte("UNCOMMITTED"))
		loser.Insert(tbl, 999, []byte("UNCOMMITTED-INSERT"))
		// Force the loser's dirt to disk via eviction pressure so redo/undo
		// both have work: flush everything, simulating steal.
		eng.pool.FlushAll()

		eng.crash()
		eng2, err := restart(dev, e, cfg)
		if err != nil {
			t.Errorf("recover: %v", err)
			return
		}
		tx := eng2.Begin()
		for k := uint64(0); k < 80; k++ {
			want := fmt.Sprintf("committed-%d", k)
			v, err := tx.Read(tbl, k)
			if err != nil || string(v) != want {
				t.Errorf("key %d after recovery: %q %v", k, v, err)
				return
			}
		}
		if _, err := tx.Read(tbl, 999); !errors.Is(err, storage.ErrNotFound) {
			t.Errorf("loser insert visible: %v", err)
		}
		tx.Commit()
		tx.Free()
		// The recovered engine accepts new work.
		tx = eng2.Begin()
		if err := tx.Insert(tbl, 2000, []byte("after-recovery")); err != nil {
			t.Errorf("post-recovery insert: %v", err)
		}
		tx.Commit()
		tx.Free()
		eng2.mu.Lock()
		eng2.closed = true
		eng2.mu.Unlock()
		eng2.stopped.Wait()
	})
	e.Wait()
}

func TestCommitLatencyIncludesLogForce(t *testing.T) {
	withEngine(t, nil, func(e *sim.Engine, eng *Engine) {
		tbl, _ := eng.CreateTable("t", storage.TableHint{})
		tx := eng.Begin()
		tx.Insert(tbl, 1, []byte("x"))
		start := e.Now()
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		lat := e.Now() - start
		tx.Free()
		// A commit must at least pay a device write (log force) round trip.
		if lat < 20*time.Microsecond {
			t.Fatalf("commit suspiciously fast: %v", lat)
		}
		_, forces, _ := eng.log.Stats()
		if forces == 0 {
			t.Fatal("commit did not force the log")
		}
	})
}

func TestReadOnlyCommitSkipsForce(t *testing.T) {
	withEngine(t, nil, func(e *sim.Engine, eng *Engine) {
		tbl, _ := eng.CreateTable("t", storage.TableHint{})
		tx := eng.Begin()
		tx.Insert(tbl, 1, []byte("x"))
		tx.Commit()
		tx.Free()
		_, before, _ := eng.log.Stats()
		ro := eng.Begin()
		ro.Read(tbl, 1)
		ro.Commit()
		ro.Free()
		_, after, _ := eng.log.Stats()
		if after != before {
			t.Fatal("read-only txn forced the log")
		}
	})
}

func TestLogFullSurfacesError(t *testing.T) {
	// A tiny log region with the checkpointer disabled: commits must fail
	// with an error once the log fills, not corrupt state or panic.
	e, eng := newEngine(func(c *Config) {
		c.LogPages = 4
		c.CheckpointEvery = 0
	})
	e.Go("main", func() {
		defer eng.Close()
		tbl, err := eng.CreateTable("t", storage.TableHint{})
		if err != nil {
			t.Error(err)
			return
		}
		row := bytes.Repeat([]byte{1}, 1024)
		sawError := false
		for k := uint64(0); k < 100; k++ {
			tx := eng.Begin()
			if err := tx.Insert(tbl, k, row); err != nil {
				sawError = true
				tx.Free()
				break
			}
			if err := tx.Commit(); err != nil {
				sawError = true
			}
			tx.Free()
			if sawError {
				break
			}
		}
		if !sawError {
			t.Error("log never filled / error never surfaced")
		}
	})
	e.Wait()
}

func TestManualCheckpointTruncatesLog(t *testing.T) {
	e, eng := newEngine(func(c *Config) {
		c.LogPages = 8
		c.CheckpointEvery = 0
	})
	e.Go("main", func() {
		defer eng.Close()
		tbl, _ := eng.CreateTable("t", storage.TableHint{})
		row := bytes.Repeat([]byte{1}, 512)
		// Interleave commits with checkpoints: far more log traffic than
		// the region holds, kept alive by truncation.
		for k := uint64(0); k < 120; k++ {
			tx := eng.Begin()
			if err := tx.Insert(tbl, k, row); err != nil {
				t.Errorf("insert %d: %v", k, err)
				return
			}
			if err := tx.Commit(); err != nil {
				t.Errorf("commit %d: %v", k, err)
				return
			}
			tx.Free()
			if k%10 == 9 {
				if err := eng.Checkpoint(); err != nil {
					t.Errorf("checkpoint: %v", err)
					return
				}
			}
		}
		tx := eng.Begin()
		if _, err := tx.Read(tbl, 119); err != nil {
			t.Errorf("read back: %v", err)
		}
		tx.Commit()
		tx.Free()
	})
	e.Wait()
}

// A fuzzy checkpoint reads every active transaction's first and last LSN
// while the transactions keep logging — inserts, updates and the CLRs of a
// rollback. Run under -race: the LSNs a transaction notes must be written
// under the engine lock the checkpoint reads them under.
func TestCheckpointReadsActiveTxnsUnderTheEngineLock(t *testing.T) {
	e, eng := newEngine(func(c *Config) { c.CheckpointEvery = 0 })
	e.Go("main", func() {
		defer eng.Close()
		tbl, _ := eng.CreateTable("t", storage.TableHint{})
		row := bytes.Repeat([]byte{7}, 64)
		done := e.NewWaitGroup()
		var stop atomic.Bool
		for w := 0; w < 4; w++ {
			done.Add(1)
			e.Go("txn", func() {
				defer done.Done()
				for i := 0; i < 40; i++ {
					k := uint64(w*1000 + i)
					tx := eng.Begin()
					if err := tx.Insert(tbl, k, row); err != nil {
						t.Errorf("insert %d: %v", k, err)
						return
					}
					if err := tx.Update(tbl, k, row[:32]); err != nil {
						t.Errorf("update %d: %v", k, err)
						return
					}
					if i%2 == 0 {
						tx.Abort()
					} else if err := tx.Commit(); err != nil {
						t.Errorf("commit %d: %v", k, err)
						return
					}
					tx.Free()
				}
			})
		}
		e.Go("checkpointer", func() {
			for !stop.Load() {
				if err := eng.Checkpoint(); err != nil {
					t.Errorf("checkpoint: %v", err)
					return
				}
				e.Sleep(5 * time.Microsecond)
			}
		})
		done.Wait()
		stop.Store(true)
		e.Sleep(time.Millisecond) // let the checkpointer see stop
	})
	e.Wait()
}
