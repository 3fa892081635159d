package main

import (
	"errors"
	"math/rand"

	kaml "github.com/kaml-ssd/kaml"
	"github.com/kaml-ssd/kaml/internal/cache"
	"github.com/kaml-ssd/kaml/internal/kamlssd"
	"github.com/kaml-ssd/kaml/internal/storage"
	"github.com/kaml-ssd/kaml/internal/workload"
)

// value returns the request's scratch buffer, at least n bytes long.
func (c *opCtx) value(n int) []byte {
	if len(c.buf) < n {
		c.buf = make([]byte, n)
	}
	return c.buf[:n]
}

// ---- get-flash: 100 % uniform Get ----

// rawTable creates the raw-device workloads' namespace: index load factor
// 0.4 after preload, the paper's Fig. 6 point.
func (r *runner) rawTable() (err error) {
	r.ns, err = r.dev.Raw().CreateNamespace(kamlssd.NamespaceAttrs{IndexCapacity: r.keys * 10 / 4})
	return err
}

func (r *runner) getFlashLoad() (loadSpec, error) {
	return loadSpec{
		draw: func(rng *rand.Rand, o *op) { o.keys[0] = uint64(rng.Int63n(int64(r.keys))) },
		run: func(c *opCtx, o *op) bool {
			key := o.keys[0]
			fl := r.or.floorOf(key)
			s := c.tr.begin(spanKamlGet, c.phase, c.root, c.seq)
			v, err := r.dev.Get(r.ns, key)
			c.tr.end(s)
			s = c.tr.begin(spanVerify, c.phase, c.root, c.seq)
			ok := err == nil && r.or.check(key, fl, v)
			c.tr.end(s)
			return ok
		},
	}, r.rawTable()
}

// ---- put-churn: 75 % overwrite, 5 % fresh key, 20 % atomic PutBatch(4) ----

const (
	putOverwrite uint8 = iota
	putFresh
	putBatch4
)

func (r *runner) putChurnLoad() (loadSpec, error) {
	r.zipf = workload.NewZipfian(uint64(r.keys), workload.YCSBTheta)
	size := r.spec.ValueSize
	// Room for the fresh keys the 5% insert share will add: the expected
	// count plus a wide margin (past it an insert turns into an overwrite,
	// which no seed comes near).
	ops := r.warmOps + len(r.spec.Rates)*r.arrivals + r.peakOps
	r.maxFr = uint64(ops/20+ops/40) + 1024
	return loadSpec{
		valueSize: 4 * size,
		draw: func(rng *rand.Rand, o *op) {
			switch u := rng.Float64(); {
			case u < 0.75:
				o.kind, o.keys[0] = putOverwrite, r.zipfKey(rng)
			case u < 0.80:
				// A fresh key takes the 70 us new-entry path. Keys are handed
				// out in draw order, which a serialized engine replays.
				if f := r.fresh.Add(1); f <= r.maxFr {
					o.kind, o.keys[0] = putFresh, uint64(r.keys)+f-1
				} else {
					o.kind, o.keys[0] = putOverwrite, r.zipfKey(rng)
				}
			default:
				o.kind = putBatch4
				for o.n = 0; o.n < 4; {
					k := r.zipfKey(rng)
					dup := false
					for _, have := range o.keys[:o.n] {
						dup = dup || have == k
					}
					if !dup {
						o.keys[o.n] = k
						o.n++
					}
				}
			}
		},
		run: func(c *opCtx, o *op) bool {
			if o.kind != putBatch4 {
				key := o.keys[0]
				v := c.value(size)
				ver := r.or.begin(key)
				stamp(v, key, ver)
				s := c.tr.begin(spanKamlPut, c.phase, c.root, c.seq)
				err := r.dev.Put(r.ns, key, v)
				c.tr.end(s)
				r.or.finish(key, ver, err == nil)
				return err == nil
			}
			buf := c.value(4 * size)
			var recs [4]kaml.Record
			var vers [4]uint64
			for i, key := range o.keys {
				v := buf[i*size:][:size]
				vers[i] = r.or.begin(key)
				stamp(v, key, vers[i])
				recs[i] = kaml.Record{Namespace: r.ns, Key: key, Value: v}
			}
			s := c.tr.begin(spanKamlPutBatch, c.phase, c.root, c.seq)
			err := r.dev.PutBatch(recs[:])
			c.tr.end(s)
			for i, key := range o.keys {
				r.or.finish(key, vers[i], err == nil)
			}
			return err == nil
		},
	}, r.rawTable()
}

// ---- txn-mixed: 50 % read txn, 40 % SS2PL read-modify-write, 10 % SI ----

const (
	txnRead uint8 = iota
	txnRMW
	txnSI // read 2, update 1
)

func (r *runner) txnMixedLoad() (loadSpec, error) {
	r.zipf = workload.NewZipfian(uint64(r.keys), 0.8)
	size := r.spec.ValueSize
	// The caching layer at a quarter of the data, over a table sized the way
	// the layer sizes its own (load factor 0.75).
	r.cache = cache.New(r.dev.Raw(), cache.Config{
		CapacityBytes:  int64(r.keys) * int64(size) / 4,
		RecordsPerLock: 1,
	})
	var err error
	r.ns, err = r.dev.CreateNamespace(kaml.NamespaceOptions{ExpectedKeys: r.keys})
	return loadSpec{
		valueSize: size,
		draw: func(rng *rand.Rand, o *op) {
			switch u := rng.Float64(); {
			case u < 0.5:
				o.kind = txnRead
			case u < 0.9:
				o.kind = txnRMW
			default:
				o.kind = txnSI
			}
			o.keys[0], o.keys[1] = r.zipfKey(rng), r.zipfKey(rng)
		},
		// One transaction with all its retries is one request: like
		// storage.RunTxn it retries wait-die and first-committer-wins aborts
		// until it commits, inheriting its priority, because a retry cap
		// turns hot-row contention into failures.
		run: func(c *opCtx, o *op) bool {
			var prev storage.Tx
			for {
				tx, err := r.txnAttempt(c, o, prev, c.value(size))
				if err == nil {
					return true
				}
				// Every row was preloaded, so not-found from an SI read is the
				// device losing the version its snapshot should see (README,
				// finding 6). The transaction is retried like an abort so the
				// workload completes, and the event is counted in the ledger.
				if o.kind == txnSI && errors.Is(err, storage.ErrNotFound) {
					r.siLost.Add(1)
				} else if !errors.Is(err, storage.ErrAborted) {
					return false
				}
				prev = tx
			}
		},
	}, err
}

// errMismatch marks a read that failed output checking.
var errMismatch = errors.New("bench: read failed verification")

// txnAttempt runs one attempt of the transaction, returning the handle a
// retry inherits its priority from.
func (r *runner) txnAttempt(c *opCtx, o *op, prev storage.Tx, val []byte) (storage.Tx, error) {
	k1, k2 := o.keys[0], o.keys[1]
	si := o.kind == txnSI
	s := c.tr.begin(spanCacheBegin, c.phase, c.root, c.seq)
	var tx storage.Tx
	switch {
	case si && prev != nil:
		tx = r.cache.BeginSIRetry(prev)
	case si:
		tx = r.cache.BeginSI()
	case prev != nil:
		tx = r.cache.BeginRetry(prev)
	default:
		tx = r.cache.Begin()
	}
	c.tr.end(s)
	defer tx.Free()

	// An SS2PL read holds its lock, so it must see the newest acknowledged
	// write. An SI read sees the snapshot pinned at begin, and the device
	// pins the newest SETTLED commit timestamp, which trails an acknowledged
	// write while a batch with a lower sequence number is still in flight:
	// missing such a write is legal (generalized SI), so an SI read is
	// checked for its key and for a version that was really issued, against
	// an empty floor.
	read := func(key uint64) error {
		var fl floor
		if !si {
			fl = r.or.floorOf(key)
		}
		s := c.tr.begin(spanCacheRead, c.phase, c.root, c.seq)
		v, err := tx.Read(r.ns, key)
		c.tr.end(s)
		if err != nil {
			return err
		}
		s = c.tr.begin(spanVerify, c.phase, c.root, c.seq)
		ok := r.or.check(key, fl, v)
		c.tr.end(s)
		if !ok {
			return errMismatch
		}
		return nil
	}
	if err := read(k1); err != nil {
		return tx, err
	}
	if si {
		if err := read(k2); err != nil {
			return tx, err
		}
	}
	var ver uint64
	if o.kind != txnRead {
		ver = r.or.begin(k1)
		stamp(val, k1, ver)
		s := c.tr.begin(spanCacheUpdate, c.phase, c.root, c.seq)
		err := tx.Update(r.ns, k1, val)
		c.tr.end(s)
		if err != nil {
			r.or.finish(k1, ver, false)
			return tx, err
		}
	}
	s = c.tr.begin(spanCacheCommit, c.phase, c.root, c.seq)
	err := tx.Commit()
	c.tr.end(s)
	if o.kind != txnRead {
		r.or.finish(k1, ver, err == nil)
	}
	return tx, err
}
