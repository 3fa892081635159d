package bufferpool

import (
	"testing"

	"github.com/kaml-ssd/kaml/internal/blockdev"
	"github.com/kaml-ssd/kaml/internal/flash"
	"github.com/kaml-ssd/kaml/internal/ftl"
	"github.com/kaml-ssd/kaml/internal/heapfile"
	"github.com/kaml-ssd/kaml/internal/nvme"
	"github.com/kaml-ssd/kaml/internal/sim"
)

func newPool(frames int, force ForceFunc) (*sim.Engine, *blockdev.Device, *Pool) {
	fc := flash.DefaultConfig()
	fc.Channels = 2
	fc.ChipsPerChannel = 2
	fc.BlocksPerChip = 16
	fc.PagesPerBlock = 16
	e := sim.NewEngine()
	arr := flash.New(e, fc)
	ctrl := nvme.New(e, nvme.DefaultConfig())
	dev := blockdev.New(ftl.New(arr, ctrl))
	return e, dev, New(dev, e, frames, force)
}

func withPool(t *testing.T, frames int, force ForceFunc, fn func(e *sim.Engine, dev *blockdev.Device, p *Pool)) {
	t.Helper()
	e, dev, p := newPool(frames, force)
	e.Go("test", func() {
		defer dev.Close()
		fn(e, dev, p)
	})
	e.Wait()
}

func TestNewPageModifyEvictRefetch(t *testing.T) {
	withPool(t, 2, nil, func(e *sim.Engine, dev *blockdev.Device, p *Pool) {
		f, err := p.NewPage(10)
		if err != nil {
			t.Fatal(err)
		}
		slot, _ := heapfile.Insert(f.Data, []byte("persisted"))
		p.MarkDirty(f, 1)
		p.Unpin(f)
		// Fill the pool to force eviction of page 10.
		for pg := 20; pg < 24; pg++ {
			g, err := p.NewPage(pg)
			if err != nil {
				t.Fatal(err)
			}
			p.Unpin(g)
		}
		f2, err := p.Fetch(10)
		if err != nil {
			t.Fatal(err)
		}
		v, err := heapfile.Read(f2.Data, slot)
		if err != nil || string(v) != "persisted" {
			t.Fatalf("%q %v", v, err)
		}
		p.Unpin(f2)
		if _, _, wb := p.stats(); wb == 0 {
			t.Fatal("no writebacks despite eviction of dirty page")
		}
	})
}

func TestWALRuleForcesLogBeforeWriteback(t *testing.T) {
	var forcedLSNs []uint64
	force := func(lsn uint64) error {
		forcedLSNs = append(forcedLSNs, lsn)
		return nil
	}
	withPool(t, 1, force, func(e *sim.Engine, dev *blockdev.Device, p *Pool) {
		f, _ := p.NewPage(5)
		heapfile.Insert(f.Data, []byte("x"))
		p.MarkDirty(f, 777)
		p.Unpin(f)
		g, _ := p.NewPage(6) // evicts page 5
		p.Unpin(g)
		found := false
		for _, l := range forcedLSNs {
			if l == 777 {
				found = true
			}
		}
		if !found {
			t.Fatalf("log not forced through page LSN before writeback: %v", forcedLSNs)
		}
	})
}

func TestPinPreventsEviction(t *testing.T) {
	withPool(t, 2, nil, func(e *sim.Engine, dev *blockdev.Device, p *Pool) {
		f1, _ := p.NewPage(1)
		f2, _ := p.NewPage(2)
		// Both pinned: a third page cannot get a frame.
		if _, err := p.NewPage(3); err != ErrNoFrames {
			t.Fatalf("err=%v", err)
		}
		p.Unpin(f1)
		if _, err := p.NewPage(3); err != nil {
			t.Fatalf("after unpin: %v", err)
		}
		p.Unpin(f2)
	})
}

func TestFetchHitVsMiss(t *testing.T) {
	withPool(t, 4, nil, func(e *sim.Engine, dev *blockdev.Device, p *Pool) {
		f, _ := p.NewPage(1)
		p.MarkDirty(f, 1)
		p.Unpin(f)
		f, _ = p.Fetch(1)
		p.Unpin(f)
		hits, misses, _ := p.stats()
		if hits != 1 || misses != 0 {
			t.Fatalf("hits=%d misses=%d", hits, misses)
		}
	})
}

func TestConcurrentFetchersOfSamePage(t *testing.T) {
	e, dev, p := newPool(4, nil)
	e.Go("main", func() {
		defer dev.Close()
		f, _ := p.NewPage(7)
		heapfile.Insert(f.Data, []byte("shared"))
		p.MarkDirty(f, 1)
		p.Unpin(f)
		_, err := p.FlushAll()
		if err != nil {
			t.Error(err)
		}
		// Evict it so the fetchers race on a cold page.
		for pg := 30; pg < 36; pg++ {
			g, _ := p.NewPage(pg)
			p.Unpin(g)
		}
		wg := e.NewWaitGroup()
		for i := 0; i < 4; i++ {
			wg.Add(1)
			e.Go("fetcher", func() {
				defer wg.Done()
				f, err := p.Fetch(7)
				if err != nil {
					t.Errorf("fetch: %v", err)
					return
				}
				v, err := heapfile.Read(f.Data, 0)
				if err != nil || string(v) != "shared" {
					t.Errorf("read: %q %v", v, err)
				}
				p.Unpin(f)
			})
		}
		wg.Wait()
	})
	e.Wait()
}

func TestFlushAllCleansDirtyPages(t *testing.T) {
	withPool(t, 8, nil, func(e *sim.Engine, dev *blockdev.Device, p *Pool) {
		for pg := 0; pg < 4; pg++ {
			f, _ := p.NewPage(pg)
			heapfile.Insert(f.Data, []byte{byte(pg)})
			p.MarkDirty(f, uint64(pg+1))
			p.Unpin(f)
		}
		min, err := p.FlushAll()
		if err != nil {
			t.Fatal(err)
		}
		if min != ^uint64(0) {
			t.Fatalf("dirty pages remain, minRecLSN=%d", min)
		}
		// All pages durable: a direct device read shows the data.
		buf := make([]byte, blockdev.PageSize)
		dev.Flush()
		for pg := 0; pg < 4; pg++ {
			if err := dev.ReadPage(pg, buf); err != nil {
				t.Fatalf("device read %d: %v", pg, err)
			}
			v, err := heapfile.Read(buf, 0)
			if err != nil || v[0] != byte(pg) {
				t.Fatalf("page %d content: %v", pg, err)
			}
		}
	})
}

// A checkpoint writes its pages back in ascending page order, whatever
// order they were dirtied in: the writebacks (and the WAL forces before
// them) are then the same from run to run.
func TestFlushAllWritesInPageOrder(t *testing.T) {
	const pages = 20
	pageOf := map[uint64]int{} // page LSN -> page number
	var order []int
	force := func(lsn uint64) error {
		order = append(order, pageOf[lsn])
		return nil
	}
	withPool(t, pages, force, func(e *sim.Engine, dev *blockdev.Device, p *Pool) {
		for i := 0; i < pages; i++ {
			pg := (i * 7) % pages   // dirtied out of order
			lsn := uint64(1000 - i) // and with LSNs that fall as they go
			pageOf[lsn] = pg
			f, err := p.NewPage(pg)
			if err != nil {
				t.Fatal(err)
			}
			heapfile.Insert(f.Data, []byte{byte(pg)})
			p.MarkDirty(f, lsn)
			p.Unpin(f)
		}
		if _, err := p.FlushAll(); err != nil {
			t.Fatal(err)
		}
	})
	if len(order) != pages {
		t.Fatalf("FlushAll forced the log %d times, want %d", len(order), pages)
	}
	for i, pg := range order {
		if pg != i {
			t.Fatalf("writeback order %v, want pages 0..%d ascending", order, pages-1)
		}
	}
}

func TestDropAllLosesUnflushed(t *testing.T) {
	withPool(t, 8, nil, func(e *sim.Engine, dev *blockdev.Device, p *Pool) {
		f, _ := p.NewPage(3)
		heapfile.Insert(f.Data, []byte("volatile"))
		p.MarkDirty(f, 1)
		p.Unpin(f)
		p.DropAll()
		// The page never reached the device: a fetch fails (unmapped).
		if _, err := p.Fetch(3); err == nil {
			t.Fatal("expected unmapped read after drop")
		}
	})
}
