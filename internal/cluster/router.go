package cluster

import (
	"errors"
	"time"

	kaml "github.com/kaml-ssd/kaml"
	"github.com/kaml-ssd/kaml/internal/sim"
)

// Get reads the value under key from the shard's primary, hedging to the
// first secondary when configured. Call from a simulation actor.
func (c *Cluster) Get(key uint64) ([]byte, error) {
	t := c.tap
	if t == nil {
		return c.get(key)
	}
	id := t.OpInvoked(kaml.OpGet, 0, []kaml.Record{{Namespace: 0, Key: key}})
	v, err := c.get(key)
	t.OpCompleted(id, 0, v, err)
	return v, err
}

// Put writes key=value to every replica of its shard and acknowledges at
// quorum. Call from a simulation actor.
func (c *Cluster) Put(key uint64, value []byte) error {
	t := c.tap
	if t == nil {
		return c.put(key, value)
	}
	id := t.OpInvoked(kaml.OpPut, 0, []kaml.Record{{Namespace: 0, Key: key, Value: value}})
	err := c.put(key, value)
	t.OpCompleted(id, 0, nil, err)
	return err
}

// retryableRead reports whether a failed read should be retried against
// fresh topology: the replica's device died (failover will promote) or
// its namespace vanished under us (a migration cutover retired the source
// namespace after we captured targets — the next attempt sees the new
// replica set).
func retryableRead(err error) bool {
	return isNodeDown(err) || errors.Is(err, kaml.ErrNoNamespace)
}

func (c *Cluster) get(key uint64) ([]byte, error) {
	if c.closed.Load() {
		return nil, ErrClusterClosed
	}
	shardID := c.ShardOf(key)
	sh := c.shards[shardID]
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			c.met.retries.Inc()
			c.eng.Sleep(retryBackoff * time.Duration(attempt))
		}
		sh.mu.Lock()
		var prim, hedge replica
		hasPrim := len(sh.replicas) > 0
		hasHedge := len(sh.replicas) > 1
		if hasPrim {
			prim = sh.replicas[0]
		}
		if hasHedge {
			hedge = sh.replicas[1]
		}
		// A shard whose replicas may disagree (a partial write that was
		// not a clean node death) must not serve hedged reads: the
		// secondary could return stale state.
		hedgeSafe := !sh.tainted
		sh.mu.Unlock()
		if !hasPrim {
			return nil, ErrShardUnavailable
		}
		start := c.eng.NowCheap()
		v, err, hedgeWon := c.raceRead(prim, hedge, hasHedge && hedgeSafe, key)
		if err == nil || errors.Is(err, kaml.ErrKeyNotFound) {
			c.observeGet(shardID, c.eng.NowCheap()-start)
			if hedgeWon {
				c.met.hedgesWon.Inc()
			}
			return v, err
		}
		lastErr = err
		if !retryableRead(err) {
			return nil, err
		}
	}
	return nil, lastErr
}

// raceRead issues the primary read and, when hedging, arms a timer that
// fires a second read at the secondary after the hedge delay. The first
// usable result (success or a definitive not-found) wins; if every
// attempt fails, the first error is reported. The race state lives on sim
// primitives so the whole dance stays on the virtual clock.
func (c *Cluster) raceRead(prim, hedge replica, hedging bool, key uint64) ([]byte, error, bool) {
	if !hedging || !c.cfg.Hedge.Enabled {
		v, err := c.readFrom(prim, key)
		return v, err, false
	}
	mu := c.eng.NewMutex("cluster-race")
	rr := &raceRead{mu: mu, cond: c.eng.NewCond(mu), pending: 2}
	c.eng.Go("cluster-read-primary", func() {
		v, err := c.readFrom(prim, key)
		rr.settle(v, err, false)
	})
	delay := c.hedgeDelay()
	c.eng.Go("cluster-read-hedge", func() {
		c.eng.Sleep(delay)
		rr.mu.Lock()
		fire := !rr.done
		rr.mu.Unlock()
		if !fire {
			rr.drop()
			return
		}
		c.met.hedgesIssued.Inc()
		v, err := c.readFrom(hedge, key)
		rr.settle(v, err, true)
	})
	return rr.wait()
}

type raceRead struct {
	mu   *sim.Mutex
	cond *sim.Cond

	pending  int // attempts (or armed timers) still outstanding
	done     bool
	val      []byte
	err      error // winning result's error (nil or ErrKeyNotFound)
	firstErr error // fallback when every attempt fails
	hedgeWon bool
}

// settle reports one attempt's result. A success or definitive not-found
// decides the race; errors only surface if nothing better arrives.
func (rr *raceRead) settle(v []byte, err error, hedge bool) {
	rr.mu.Lock()
	rr.pending--
	if !rr.done && (err == nil || errors.Is(err, kaml.ErrKeyNotFound)) {
		rr.done, rr.val, rr.err, rr.hedgeWon = true, v, err, hedge
	} else if err != nil && rr.firstErr == nil {
		rr.firstErr = err
	}
	rr.cond.Broadcast()
	rr.mu.Unlock()
}

// drop retires the timer slot without an attempt (the primary already
// won).
func (rr *raceRead) drop() {
	rr.mu.Lock()
	rr.pending--
	rr.cond.Broadcast()
	rr.mu.Unlock()
}

// wait parks the caller until the race is decided or every attempt has
// failed. The losing attempt may still be in flight when wait returns;
// its eventual settle finds done set and is a no-op.
func (rr *raceRead) wait() ([]byte, error, bool) {
	rr.mu.Lock()
	for !rr.done && rr.pending > 0 {
		rr.cond.Wait()
	}
	v, err, hw := rr.val, rr.err, rr.hedgeWon
	if !rr.done {
		err = rr.firstErr
	}
	rr.mu.Unlock()
	return v, err, hw
}

// readFrom performs one replica read: a network hop, the device Get, and
// failure detection (a dead device fails its node out of the topology).
func (c *Cluster) readFrom(r replica, key uint64) ([]byte, error) {
	c.eng.Sleep(netHop)
	v, err := c.nodes[r.node].Dev.Get(r.ns, key)
	if err != nil && isNodeDown(err) {
		c.markDown(r.node)
	}
	return v, err
}

// putMode records which in-flight counter a write registered under, so
// the completion decrements the matching one even if the shard's
// migration state changed mid-write.
type putMode int

const (
	modePre  putMode = iota // no migration at registration time
	modeDual                // dual-written to old replicas + migration dest
)

func (c *Cluster) put(key uint64, value []byte) error {
	if c.closed.Load() {
		return ErrClusterClosed
	}
	sh := c.shards[c.ShardOf(key)]
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			c.met.retries.Inc()
			c.eng.Sleep(retryBackoff * time.Duration(attempt))
		}
		start := c.eng.NowCheap()
		err, retryable := c.putOnce(sh, key, value)
		if err == nil {
			c.met.putAll.ObserveDuration(c.eng.NowCheap() - start)
			return nil
		}
		if !retryable {
			return err
		}
		lastErr = err
	}
	return lastErr
}

// putOnce runs one replication round: register with the shard (waiting
// out cutover gates and per-key copy exclusion), fan the write out to
// every replica — plus the migration destination when dual-writing —
// and acknowledge only if every replica either committed or is a
// dead-node failure leaving the topology (so no surviving replica is
// stale). The second return reports whether the write definitely did
// not apply anywhere, making a retry safe.
func (c *Cluster) putOnce(sh *shard, key uint64, value []byte) (error, bool) {
	// Registration: decide pre vs dual atomically with the shard's
	// migration state, honoring the cutover gate and per-key copy
	// exclusion (a key mid-copy must not be overwritten at the
	// destination by a stale snapshot value racing a fresh dual write).
	sh.mu.Lock()
	for {
		if sh.gate {
			sh.cond.Wait()
			continue
		}
		if sh.mig != nil && !sh.mig.failed {
			if _, busy := sh.mig.copying[key]; busy {
				sh.cond.Wait()
				continue
			}
		}
		break
	}
	targets := append([]replica(nil), sh.replicas...)
	mode := modePre
	var dual bool
	var dest replica
	if sh.mig != nil && !sh.mig.failed {
		mode = modeDual
		dual = true
		dest = replica{node: sh.mig.to, ns: sh.mig.destNS}
		sh.mig.written[key] = struct{}{}
		sh.inflightDual++
	} else {
		sh.inflightPre++
	}
	sh.mu.Unlock()

	release := func() {
		sh.mu.Lock()
		if mode == modeDual {
			sh.inflightDual--
		} else {
			sh.inflightPre--
		}
		sh.cond.Broadcast()
		sh.mu.Unlock()
	}

	if len(targets) == 0 {
		release()
		return ErrShardUnavailable, false
	}

	// Fan-out: one network hop, then async puts so the replicas commit in
	// parallel.
	c.eng.Sleep(netHop)
	futs := make([]*kaml.PutFuture, len(targets))
	for i, t := range targets {
		futs[i] = c.nodes[t.node].Dev.AsyncPut(t.ns, key, value)
	}
	var destFut *kaml.PutFuture
	if dual {
		destFut = c.nodes[dest.node].Dev.AsyncPut(dest.ns, key, value)
	}

	succ := 0
	downFailed, otherFailed := 0, 0
	var firstErr error
	var downNodes []int
	okNodes := make([]int, 0, len(targets))
	for i, f := range futs {
		err := f.Wait()
		switch {
		case err == nil:
			succ++
			okNodes = append(okNodes, targets[i].node)
		case isNodeDown(err):
			downFailed++
			downNodes = append(downNodes, targets[i].node)
			if firstErr == nil {
				firstErr = err
			}
		default:
			otherFailed++
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	var destErr error
	if destFut != nil {
		destErr = destFut.Wait()
	}

	// Verdict. An acked write must be present on every replica that keeps
	// serving reads, so acknowledgment requires every failed replica to be
	// leaving the topology (dead-node failure — markDown runs below,
	// before the ack reaches the caller) and at least one commit. The
	// surviving committers ARE the shard's whole post-failover replica
	// set, so this is a quorum of everything that still counts.
	var err error
	retryable := false
	switch {
	case succ == len(targets):
		err = nil
	case otherFailed == 0 && succ > 0:
		err = nil
	case succ == 0 && (!dual || destErr != nil):
		// Nothing committed anywhere: a definite failure, safe to retry
		// against post-failover topology when the cause was dead nodes.
		err = firstErr
		retryable = downFailed > 0 && otherFailed == 0
	default:
		err = ErrIndeterminate
	}

	// Bookkeeping under the shard lock, BEFORE any markDown (markDown
	// takes the topology lock, which a cutover drain may hold while
	// waiting for this very write to release).
	sh.mu.Lock()
	if mode == modeDual {
		sh.inflightDual--
	} else {
		sh.inflightPre--
	}
	if err == nil {
		sh.acked++
		for _, n := range okNodes {
			if _, tracked := sh.applied[n]; tracked {
				sh.applied[n]++
			}
		}
		c.updateLagLocked(sh)
	}
	if succ > 0 && otherFailed > 0 {
		// Applied on some live replicas, refused by another that is NOT
		// leaving the topology: the survivors now disagree.
		sh.tainted = true
	}
	if dual && sh.mig != nil && (destErr != nil || err != nil) {
		// The destination missed (or may have missed) a write the old
		// replica set acknowledged: the migration can no longer cut over
		// safely.
		sh.mig.failed = true
	}
	sh.cond.Broadcast()
	sh.mu.Unlock()

	for _, n := range downNodes {
		c.markDown(n)
	}
	return err, retryable
}
