package kamlssd

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"
	"time"
)

// Tests for the hot and cold host streams (log.go): a record whose key was
// rewritten within the lifetime of its log's last collected hot block goes
// to the log's hot open page, so the rewrites die together in hot blocks and
// the collector copies less; and the split survives the fill the one-stream
// log survived.

// skewChurn writes keys 0..keys-1 once each, then overwrites keys drawn from a
// Zipf(1.1) distribution, one Put at a time; last holds each key's newest
// value tag (val(tag, churnValue)).
type skewChurn struct {
	t    *testing.T
	ns   uint32
	zipf *rand.Zipf
	last []uint64
	tag  uint64
}

func newSkewChurn(t *testing.T, d *Device, keys uint64) *skewChurn {
	t.Helper()
	ns, err := d.CreateNamespace(NamespaceAttrs{})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	c := &skewChurn{t: t, ns: ns, last: make([]uint64, keys),
		zipf: rand.NewZipf(rand.New(rand.NewSource(7)), 1.1, 1, keys-1)}
	for k := range c.last {
		if !c.put(d, uint64(k)) {
			break
		}
	}
	return c
}

func (c *skewChurn) put(d *Device, key uint64) bool {
	c.t.Helper()
	c.tag++
	if err := d.Put(one(c.ns, key, val(c.tag, churnValue))); err != nil {
		c.t.Errorf("put %d (key %d): %v", c.tag, key, err)
		return false
	}
	c.last[key] = c.tag
	return true
}

func (c *skewChurn) overwrite(d *Device, n int) bool {
	for i := 0; i < n; i++ {
		if !c.put(d, c.zipf.Uint64()) {
			return false
		}
	}
	return true
}

// check reads every key back from d.
func (c *skewChurn) check(d *Device) {
	c.t.Helper()
	for k, tag := range c.last {
		if v, err := d.Get(c.ns, uint64(k)); err != nil || string(v) != string(val(tag, churnValue)) {
			c.t.Errorf("key %d does not read its last value (put %d): %v", k, tag, err)
			return
		}
	}
}

// hotOpen reports whether some log's hot open page holds records that only a
// drain will seal: the page is not full.
func hotOpen(d *Device) bool {
	for _, lg := range d.logs {
		lg.mu.Lock()
		p := lg.open[streamHot].packer
		partial := p.Count() > 0 && p.FreeChunks() > 0
		lg.mu.Unlock()
		if partial {
			return true
		}
	}
	return false
}

// The skewed churn learns a hot block's lifetime, sends its rewrites to the
// hot pages, and copies less than one host stream per log did (11 820 copies
// at 1 600 keys; the split measures 9 570). A drain empties both open pages,
// and the layout recovers.
func TestRewritesGoHotAndDieThere(t *testing.T) {
	r := newSerialRig(1, testFlashConfig(), nil)
	r.e.Go("test", func() {
		live := r.dev // the device to close on the way out
		defer func() {
			if live != nil {
				live.Close()
			}
		}()
		c := newSkewChurn(t, r.dev, 1600)
		if !c.overwrite(r.dev, 30000) {
			return
		}
		st := r.dev.Stats()
		if st.HotPages == 0 {
			t.Errorf("no page went hot under a Zipf churn")
		}
		if st.GCCopies > 10600 {
			t.Errorf("%d GC copies, want at most 10 600: rewrites are not dying in hot blocks", st.GCCopies)
		}
		var hot int64
		for _, lg := range r.dev.logs {
			hot += r.dev.Telemetry().Counter("kaml_ssd_hot_pages_total", "log", strconv.Itoa(lg.id)).Value()
		}
		if hot != st.HotPages {
			t.Errorf("kaml_ssd_hot_pages_total sums to %d, Stats says %d", hot, st.HotPages)
		}
		t.Logf("%d GC copies, %d hot pages", st.GCCopies, st.HotPages)

		// Leave records in a hot page for the drain to seal: the hottest key's
		// next versions go hot.
		for i := 0; !hotOpen(r.dev); i++ {
			if i == 64 || !c.put(r.dev, 0) {
				t.Errorf("setup: no hot page holds records")
				return
			}
		}
		r.dev.Flush()
		for _, lg := range r.dev.logs {
			lg.mu.Lock()
			for s := range lg.open {
				if n := lg.open[s].packer.Count(); n != 0 {
					t.Errorf("log %d stream %d holds %d records after Flush", lg.id, s, n)
				}
			}
			lg.mu.Unlock()
		}
		live = nil
		dev2, err := powerCycle(r.dev, r.arr, r.ctrl)
		if err != nil {
			t.Errorf("recover: %v", err)
			return
		}
		live = dev2
		c.check(dev2)
		if c.overwrite(dev2, 1000) {
			c.check(dev2)
		}
	})
	r.e.Wait()
}

// At 3 000 keys the logs run at their reserve: a host stream that needs a
// block there shares the other's open block, so the split completes the
// churn that one host stream per log completed.
func TestSplitKeepsTheParentsCapacity(t *testing.T) {
	r := newSerialRig(1, testFlashConfig(), nil)
	r.e.Go("test", func() {
		defer r.dev.Close()
		c := newSkewChurn(t, r.dev, 3000)
		if c.overwrite(r.dev, 30000) {
			c.check(r.dev)
		}
	})
	r.e.Wait()
}

// Sixteen cold writers keep one log's queue full and refill its cold page
// after every dequeue, so the cold page is left for the flusher again and
// again. A hot page left full among them is sealed within two dequeues —
// the flusher seals the page left first, not the cold one every time — and
// does not wait for the cold load to end.
func TestLeftPagesSealInTurn(t *testing.T) {
	const (
		writers   = 16
		perWriter = 60
		hotKey    = 1 << 40
	)
	r := newRig(testFlashConfig(), func(c *Config) { c.NumLogs = 1 })
	lg := r.dev.logs[0]
	r.e.Go("test", func() {
		defer r.dev.Close()
		ns, _ := r.dev.CreateNamespace(NamespaceAttrs{})
		if err := r.dev.Put(one(ns, hotKey, val(0, churnValue))); err != nil {
			t.Errorf("put: %v", err)
			return
		}
		lg.mu.Lock()
		lg.hotLife, lg.hotLearned = 1<<62, true // every rewrite goes hot
		lg.mu.Unlock()
		wg := r.e.NewWaitGroup()
		done := false
		for w := 0; w < writers; w++ {
			wg.Add(1)
			r.e.Go(fmt.Sprintf("cold-%d", w), func() {
				defer wg.Done()
				for i := 0; i < perWriter; i++ {
					key := uint64(w*perWriter + i) // never rewritten: cold
					if err := r.dev.Put(one(ns, key, val(key, churnValue))); err != nil {
						t.Errorf("writer %d: %v", w, err)
						return
					}
				}
			})
		}
		r.e.Go("waiter", func() { wg.Wait(); done = true })

		// Rewrite the hot key until a hot page fills behind a full queue and is
		// left for the flusher: 8 records to a page.
		r.e.Sleep(2 * time.Millisecond) // let the cold writers fill the queue
		var left bool
		var at, hot int64 // seals and hot seals before the hot page was left
		for i := 1; !left; i++ {
			if i > 64 {
				t.Errorf("setup: no hot page was left for the flusher")
				return
			}
			if err := r.dev.Put(one(ns, hotKey, val(uint64(i), churnValue))); err != nil {
				t.Errorf("hot put %d: %v", i, err)
				return
			}
			lg.mu.Lock()
			left, at, hot = lg.open[streamHot].sealWanted, sealedPages(lg), lg.hotPages.Value()
			lg.mu.Unlock()
		}
		for lg.hotPages.Value() == hot && !done {
			r.e.Sleep(10 * time.Microsecond)
		}
		lg.mu.Lock()
		waited := sealedPages(lg) - at
		lg.mu.Unlock()
		if lg.hotPages.Value() == hot || waited > 2 {
			t.Errorf("the hot page was sealed %d seals after it was left (load over: %v), want within 2", waited, done)
		}
		for !done {
			r.e.Sleep(time.Millisecond)
		}
	})
	r.e.Wait()
}
