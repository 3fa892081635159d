package wal

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"github.com/kaml-ssd/kaml/internal/blockdev"
	"github.com/kaml-ssd/kaml/internal/flash"
	"github.com/kaml-ssd/kaml/internal/ftl"
	"github.com/kaml-ssd/kaml/internal/nvme"
	"github.com/kaml-ssd/kaml/internal/sim"
)

func newLog(pages int) (*sim.Engine, *blockdev.Device, *Log) {
	fc := flash.DefaultConfig()
	fc.Channels = 2
	fc.ChipsPerChannel = 2
	fc.BlocksPerChip = 16
	fc.PagesPerBlock = 16
	e := sim.NewEngine()
	arr := flash.New(e, fc)
	ctrl := nvme.New(e, nvme.DefaultConfig())
	dev := blockdev.New(ftl.New(arr, ctrl))
	return e, dev, New(dev, e, Config{StartPage: 0, NumPages: pages})
}

func withLog(t *testing.T, pages int, fn func(e *sim.Engine, l *Log)) {
	t.Helper()
	e, dev, l := newLog(pages)
	e.Go("test", func() {
		defer dev.Close()
		fn(e, l)
	})
	e.Wait()
}

func TestMarshalRoundTrip(t *testing.T) {
	f := func(typ uint8, txn uint64, prev uint64, table uint32, key uint64, before, after, payload []byte) bool {
		r := Record{
			Type: Type(typ%8 + 1), TxnID: txn, PrevLSN: LSN(prev),
			Table: table, Key: key, Before: before, After: after, Payload: payload,
		}
		got, n, err := Unmarshal(r.Marshal())
		if err != nil || n != len(r.Marshal()) {
			return false
		}
		return got.Type == r.Type && got.TxnID == txn && got.PrevLSN == LSN(prev) &&
			got.Table == table && got.Key == key &&
			bytes.Equal(got.Before, before) && bytes.Equal(got.After, after) &&
			bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptRecordDetected(t *testing.T) {
	r := Record{Type: TypeUpdate, TxnID: 1, After: []byte("data")}
	enc := r.Marshal()
	enc[20] ^= 0xFF
	if _, _, err := Unmarshal(enc); err == nil {
		t.Fatal("corruption not detected")
	}
}

func TestAppendForceIterate(t *testing.T) {
	withLog(t, 64, func(e *sim.Engine, l *Log) {
		var lsns []LSN
		for i := 0; i < 20; i++ {
			r := &Record{Type: TypeUpdate, TxnID: uint64(i), Table: 1, Key: uint64(i),
				After: bytes.Repeat([]byte{byte(i)}, 100)}
			lsn, err := l.Append(r)
			if err != nil {
				t.Fatal(err)
			}
			lsns = append(lsns, lsn)
		}
		if err := l.Force(lsns[len(lsns)-1]); err != nil {
			t.Fatal(err)
		}
		var got []Record
		if err := l.Iterate(0, func(r Record) bool {
			got = append(got, r)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if len(got) != 20 {
			t.Fatalf("iterated %d records", len(got))
		}
		for i, r := range got {
			if r.TxnID != uint64(i) || r.LSN != lsns[i] {
				t.Fatalf("record %d: txn=%d lsn=%d want lsn=%d", i, r.TxnID, r.LSN, lsns[i])
			}
		}
	})
}

func TestLSNsMonotonic(t *testing.T) {
	withLog(t, 64, func(e *sim.Engine, l *Log) {
		prev := LSN(0)
		for i := 0; i < 500; i++ {
			r := &Record{Type: TypeUpdate, After: bytes.Repeat([]byte{1}, 300)}
			lsn, err := l.Append(r)
			if err != nil {
				t.Fatal(err)
			}
			if lsn <= prev {
				t.Fatalf("LSN %d not monotonic after %d", lsn, prev)
			}
			prev = lsn
		}
	})
}

func TestRecordsSpanPages(t *testing.T) {
	withLog(t, 64, func(e *sim.Engine, l *Log) {
		// Records of ~3KB: two per page, forcing page transitions.
		var lsns []LSN
		for i := 0; i < 10; i++ {
			r := &Record{Type: TypeUpdate, TxnID: uint64(i), After: bytes.Repeat([]byte{byte(i)}, 3000)}
			lsn, err := l.Append(r)
			if err != nil {
				t.Fatal(err)
			}
			lsns = append(lsns, lsn)
		}
		l.Force(lsns[len(lsns)-1])
		n := 0
		l.Iterate(0, func(r Record) bool {
			if r.TxnID != uint64(n) {
				t.Errorf("record %d out of order (txn %d)", n, r.TxnID)
			}
			n++
			return true
		})
		if n != 10 {
			t.Fatalf("iterated %d", n)
		}
	})
}

func TestReadAtVolatileAndDurable(t *testing.T) {
	withLog(t, 64, func(e *sim.Engine, l *Log) {
		r1 := &Record{Type: TypeBegin, TxnID: 7}
		lsn1, _ := l.Append(r1)
		// Volatile read (not forced yet).
		got, err := l.ReadAt(lsn1)
		if err != nil || got.TxnID != 7 || got.Type != TypeBegin {
			t.Fatalf("volatile ReadAt: %+v %v", got, err)
		}
		// Fill past a page so it becomes durable, then read again.
		for i := 0; i < 5; i++ {
			l.Append(&Record{Type: TypeUpdate, After: bytes.Repeat([]byte{1}, 3000)})
		}
		l.Force(l.TailLSN())
		got, err = l.ReadAt(lsn1)
		if err != nil || got.TxnID != 7 {
			t.Fatalf("durable ReadAt: %+v %v", got, err)
		}
	})
}

func TestForceDurabilityHorizon(t *testing.T) {
	withLog(t, 64, func(e *sim.Engine, l *Log) {
		lsn, _ := l.Append(&Record{Type: TypeCommit, TxnID: 1})
		if l.FlushedLSN() > lsn {
			t.Fatal("flushed before force")
		}
		l.Force(lsn)
		if l.FlushedLSN() <= lsn {
			t.Fatalf("flushed=%d <= lsn=%d", l.FlushedLSN(), lsn)
		}
	})
}

func TestLogFullAndTruncate(t *testing.T) {
	withLog(t, 2, func(e *sim.Engine, l *Log) {
		var lastErr error
		appended := 0
		for i := 0; i < 100; i++ {
			_, err := l.Append(&Record{Type: TypeUpdate, After: bytes.Repeat([]byte{1}, 1000)})
			if err != nil {
				lastErr = err
				break
			}
			appended++
		}
		if lastErr == nil {
			t.Fatal("log never filled")
		}
		// Truncation reopens space.
		l.Truncate(LSN(appended/2) * 1100)
		if _, err := l.Append(&Record{Type: TypeUpdate, After: bytes.Repeat([]byte{1}, 1000)}); err != nil {
			t.Fatalf("append after truncate: %v", err)
		}
	})
}

func TestForceSerializesCommitters(t *testing.T) {
	// Two committers forcing concurrently must serialize on the global log
	// mutex: total time ~2x one force, not 1x (the §V-D.1 bottleneck).
	e, dev, l := newLog(64)
	var solo, duo time.Duration
	e.Go("test", func() {
		defer dev.Close()
		lsn, _ := l.Append(&Record{Type: TypeCommit, TxnID: 1})
		start := e.Now()
		l.Force(lsn)
		solo = e.Now() - start

		wg := e.NewWaitGroup()
		start = e.Now()
		for i := 0; i < 2; i++ {
			i := i
			wg.Add(1)
			e.Go("committer", func() {
				defer wg.Done()
				lsn, _ := l.Append(&Record{Type: TypeCommit, TxnID: uint64(10 + i),
					After: bytes.Repeat([]byte{1}, 100)})
				l.Force(lsn)
			})
		}
		wg.Wait()
		duo = e.Now() - start
	})
	e.Wait()
	if duo < solo+solo/2 {
		t.Fatalf("concurrent forces did not serialize: solo=%v duo=%v", solo, duo)
	}
}

func TestIterateFromMidpoint(t *testing.T) {
	withLog(t, 64, func(e *sim.Engine, l *Log) {
		var lsns []LSN
		for i := 0; i < 10; i++ {
			lsn, _ := l.Append(&Record{Type: TypeUpdate, TxnID: uint64(i), After: []byte("x")})
			lsns = append(lsns, lsn)
		}
		l.Force(lsns[9])
		n := 0
		l.Iterate(lsns[5], func(r Record) bool {
			if r.TxnID < 5 {
				t.Errorf("record before midpoint: txn %d", r.TxnID)
			}
			n++
			return true
		})
		if n != 5 {
			t.Fatalf("iterated %d from midpoint", n)
		}
	})
}

func TestConvoyCoalescesForces(t *testing.T) {
	// A sustained commit stream must cost far fewer device page writes than
	// commits: a Force whose LSN is already durable returns immediately, so
	// with zero-cost appends in the simulator the log-mutex convoy batches
	// the committers queued behind one flush.
	fc := flash.DefaultConfig()
	fc.Channels = 2
	fc.ChipsPerChannel = 2
	fc.BlocksPerChip = 16
	fc.PagesPerBlock = 16
	e := sim.NewEngine()
	arr := flash.New(e, fc)
	ctrl := nvme.New(e, nvme.DefaultConfig())
	dev := blockdev.New(ftl.New(arr, ctrl))
	l := New(dev, e, Config{StartPage: 0, NumPages: 64})
	var writes int64
	e.Go("main", func() {
		defer dev.Close()
		wg := e.NewWaitGroup()
		// Each worker repeatedly appends its own record and forces it, like
		// transactions committing.
		for i := 0; i < 8; i++ {
			i := i
			wg.Add(1)
			e.Go("committer", func() {
				defer wg.Done()
				for r := 0; r < 25; r++ {
					lsn, err := l.Append(&Record{Type: TypeCommit,
						TxnID: uint64(i*100 + r), After: bytes.Repeat([]byte{1}, 64)})
					if err != nil {
						t.Error(err)
						return
					}
					if err := l.Force(lsn); err != nil {
						t.Error(err)
						return
					}
				}
			})
		}
		wg.Wait()
		_, _, writes = l.Stats()
	})
	e.Wait()
	if writes >= 200 {
		t.Fatalf("no batching: %d page writes for 200 commits", writes)
	}
}

func TestConcurrentForcesAllDurable(t *testing.T) {
	// Records forced by concurrent committers, most of them riding on
	// another's flush, are all readable via Iterate.
	fc := flash.DefaultConfig()
	fc.Channels = 2
	fc.ChipsPerChannel = 2
	fc.BlocksPerChip = 16
	fc.PagesPerBlock = 16
	e := sim.NewEngine()
	arr := flash.New(e, fc)
	ctrl := nvme.New(e, nvme.DefaultConfig())
	dev := blockdev.New(ftl.New(arr, ctrl))
	l := New(dev, e, Config{StartPage: 0, NumPages: 64})
	e.Go("main", func() {
		defer dev.Close()
		wg := e.NewWaitGroup()
		for i := 0; i < 24; i++ {
			i := i
			wg.Add(1)
			e.Go("committer", func() {
				defer wg.Done()
				lsn, _ := l.Append(&Record{Type: TypeCommit, TxnID: uint64(i)})
				l.Force(lsn)
			})
		}
		wg.Wait()
		seen := map[uint64]bool{}
		l.Iterate(0, func(r Record) bool {
			if r.Type == TypeCommit {
				seen[r.TxnID] = true
			}
			return true
		})
		if len(seen) != 24 {
			t.Errorf("only %d of 24 commits durable", len(seen))
		}
	})
	e.Wait()
}
