package kaml_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	kaml "github.com/kaml-ssd/kaml"
)

// The crash-consistency torture test: sweep 50 seeded fault plans, each
// cutting power at a different point of a mixed single/batch Put workload
// (some plans also inject program/read failures or leave a torn page at
// the cut). After Reopen, every committed batch must be fully readable and
// no uncommitted batch may be visible, even partially. A second
// crash+recovery round exercises blocks the first recovery resumed.

const (
	tortureKeys  = 100 // key space of the primary namespace
	tortureKeys2 = 20  // key space of the secondary namespace
)

// tortureVal builds a value unique to (seed, batch, key) with a
// deterministic body, 24..~1220 bytes.
func tortureVal(rng *rand.Rand, seed int64, batch int, key uint64) []byte {
	v := make([]byte, 24+rng.Intn(1200))
	binary.LittleEndian.PutUint64(v[0:], uint64(seed))
	binary.LittleEndian.PutUint64(v[8:], uint64(batch))
	binary.LittleEndian.PutUint64(v[16:], key)
	for i := 24; i < len(v); i++ {
		v[i] = byte(i * 7)
	}
	return v
}

// verifyTorture checks that the device serves exactly the committed state:
// every committed key returns its last committed value, every key never
// committed is absent.
func verifyTorture(dev *kaml.Device, keys uint64, ns kaml.Namespace, expected map[uint64][]byte) error {
	for key := uint64(0); key < keys; key++ {
		want, committed := expected[key]
		got, err := dev.Get(ns, key)
		if !committed {
			if !errors.Is(err, kaml.ErrKeyNotFound) {
				return fmt.Errorf("ns %d key %d was never committed, yet Get returned err=%v (%d bytes)",
					ns, key, err, len(got))
			}
			continue
		}
		if err != nil {
			return fmt.Errorf("ns %d key %d (committed): %w", ns, key, err)
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("ns %d key %d: wrong value after recovery (got %d bytes, want %d)",
				ns, key, len(got), len(want))
		}
	}
	return nil
}

// tortureCoverage is what one torture seed's first power cut exercised. The
// sweeps assert totals over all seeds (checkCoverage): pages leave NVRAM
// only when full, so a fault plan written for a busier flusher can quietly
// turn into a test of an idle one — every cut landing on a quiet array with
// everything either on flash or in NVRAM, none in between.
type tortureCoverage struct {
	// midProgram: the fault plan's own cut fired during the workload on a
	// page program (a count-based cut trips on the Nth program attempt), or
	// recovery found a torn page on flash.
	midProgram bool
	// replayed: recovery re-staged at least one committed value from NVRAM.
	replayed bool
}

// coverageTotals accumulates tortureCoverage over a sweep.
type coverageTotals struct{ seeds, midProgram, replayed int }

func (c *coverageTotals) add(cov tortureCoverage) {
	c.seeds++
	if cov.midProgram {
		c.midProgram++
	}
	if cov.replayed {
		c.replayed++
	}
}

// check fails the sweep unless at least minMidProgram cuts landed on a page
// program (or left a torn page) and at least half the seeds replayed NVRAM.
func (c *coverageTotals) check(t *testing.T, minMidProgram int) {
	t.Helper()
	t.Logf("coverage over %d seeds: %d cuts mid-program or torn, %d seeds replayed NVRAM values",
		c.seeds, c.midProgram, c.replayed)
	if c.midProgram < minMidProgram {
		t.Errorf("only %d of %d cuts landed on a page program or left a torn page, want >= %d: retune the fault plans",
			c.midProgram, c.seeds, minMidProgram)
	}
	if 2*c.replayed < c.seeds {
		t.Errorf("only %d of %d seeds replayed a value from NVRAM, want at least half", c.replayed, c.seeds)
	}
}

func TestCrashRecoveryTorture(t *testing.T) {
	var total coverageTotals
	for seed := int64(0); seed < 50; seed++ {
		t.Run(fmt.Sprintf("seed=%02d", seed), func(t *testing.T) {
			total.add(runTortureSeed(t, seed))
		})
	}
	// 42 of the 50 plans are count-based and fire inside the workload; a few
	// time-based ones tear a page as well (46 here; 45 before pages packed).
	total.check(t, 40)
}

func runTortureSeed(t *testing.T, seed int64) tortureCoverage {
	rng := rand.New(rand.NewSource(seed))

	// Vary the fault plan across seeds: cut point, torn page on cut,
	// program failures, read failures, time-based instead of count-based
	// cuts. The workload fills and programs 74-79 pages (values average five
	// chunks, a dozen records to a page), so every count cut lands inside it.
	plan := &kaml.FaultPlan{Seed: seed, CutAfterPrograms: 5 + rng.Intn(60)}
	if seed%3 == 0 {
		plan.TornPageOnCut = true
	}
	if seed%5 == 0 {
		plan.ProgramFailProb = 0.03
	}
	if seed%4 == 0 {
		plan.ReadFailProb = 0.01
	}
	if seed%7 == 0 {
		plan.CutAfterPrograms = 0
		plan.CutAtTime = time.Duration(1+rng.Intn(40)) * time.Millisecond
	}
	opts := kaml.SmallOptions()
	opts.Faults = plan

	dev, err := kaml.Open(opts)
	if err != nil {
		t.Fatal(err)
	}

	expected := make(map[kaml.Namespace]map[uint64][]byte)
	var cov tortureCoverage
	var failure error
	dev.Go(func() {
		cov, failure = tortureRun(dev, rng, seed, plan.CutAfterPrograms > 0, expected)
	})
	dev.Wait()
	if failure != nil {
		t.Fatal(failure)
	}
	return cov
}

// tortureRun is the body of the torture test's single application actor:
// workload until the power cut, then crash, recover, verify, write more,
// crash again, recover again, verify again.
func tortureRun(dev *kaml.Device, rng *rand.Rand, seed int64, countCut bool, expected map[kaml.Namespace]map[uint64][]byte) (cov tortureCoverage, _ error) {
	ns, err := dev.CreateNamespace(kaml.NamespaceOptions{ExpectedKeys: 2 * tortureKeys})
	if err != nil {
		return cov, err
	}
	ns2, err := dev.CreateNamespace(kaml.NamespaceOptions{ExpectedKeys: 2 * tortureKeys2})
	if err != nil {
		return cov, err
	}
	expected[ns] = make(map[uint64][]byte)
	expected[ns2] = make(map[uint64][]byte)

	commit := func(batch []kaml.Record) {
		for _, r := range batch {
			expected[r.Namespace][r.Key] = r.Value
		}
	}

	// Mixed workload: single Puts, multi-record batches, and every tenth
	// batch a cross-namespace batch (the paper's multi-part atomic write
	// spanning namespaces). Only acknowledged batches enter expected.
workload:
	for batchID := 0; batchID < 400; batchID++ {
		var batch []kaml.Record
		switch {
		case batchID%10 == 9: // cross-namespace pair
			k := uint64(rng.Intn(tortureKeys2))
			batch = []kaml.Record{
				{Namespace: ns, Key: k, Value: tortureVal(rng, seed, batchID, k)},
				{Namespace: ns2, Key: k, Value: tortureVal(rng, seed, batchID, k+1)},
			}
		case rng.Intn(2) == 0: // single Put
			k := uint64(rng.Intn(tortureKeys))
			batch = []kaml.Record{{Namespace: ns, Key: k, Value: tortureVal(rng, seed, batchID, k)}}
		default: // batch of 2..5 distinct keys
			n := 2 + rng.Intn(4)
			used := make(map[uint64]bool, n)
			for len(batch) < n {
				k := uint64(rng.Intn(tortureKeys))
				if used[k] {
					continue
				}
				used[k] = true
				batch = append(batch, kaml.Record{
					Namespace: ns, Key: k, Value: tortureVal(rng, seed, batchID, k),
				})
			}
		}
		var err error
		if len(batch) == 1 {
			err = dev.Put(batch[0].Namespace, batch[0].Key, batch[0].Value)
		} else {
			err = dev.PutBatch(batch)
		}
		switch {
		case err == nil:
			commit(batch)
		case errors.Is(err, kaml.ErrPowerLoss):
			cov.midProgram = countCut // the plan's Nth program tripped the cut
			break workload            // unacknowledged: must NOT be visible after recovery
		default:
			return cov, fmt.Errorf("batch %d: %w", batchID, err)
		}
		// Interleave reads so read-fault plans exercise the retry path.
		if batchID%17 == 0 {
			k := uint64(rng.Intn(tortureKeys))
			if _, err := dev.Get(ns, k); err != nil &&
				!errors.Is(err, kaml.ErrKeyNotFound) && !errors.Is(err, kaml.ErrPowerLoss) {
				return cov, fmt.Errorf("get during workload: %w", err)
			}
		}
	}

	// A time-triggered cut that did not fire during the workload is still
	// armed and can strike during (or right after) recovery itself. The
	// cut latches once delivered, so simply running recovery again always
	// clears it — which is exactly what real firmware does when power
	// fails mid-recovery.
	reopen := func(d *kaml.Device) (*kaml.Device, error) {
		img := d.Crash()
		var err error
		for attempt := 0; attempt < 4; attempt++ {
			var re *kaml.Device
			re, err = kaml.Reopen(img)
			if err == nil {
				return re, nil
			}
		}
		return nil, fmt.Errorf("reopen: %w", err)
	}
	verifyAll := func(d *kaml.Device) error {
		if err := verifyTorture(d, tortureKeys, ns, expected[ns]); err != nil {
			return err
		}
		return verifyTorture(d, tortureKeys2, ns2, expected[ns2])
	}
	recoverVerified := func(d *kaml.Device) (*kaml.Device, error) {
		for round := 0; ; round++ {
			re, err := reopen(d)
			if err != nil {
				return nil, err
			}
			verr := verifyAll(re)
			if verr == nil {
				return re, nil
			}
			if !errors.Is(verr, kaml.ErrPowerLoss) || round >= 2 {
				return nil, verr
			}
			d = re // cut struck between recovery and verification; again
		}
	}

	re, err := recoverVerified(dev)
	if err != nil {
		return cov, err
	}
	st := re.Stats()
	cov.midProgram = cov.midProgram || st.TornPagesSkipped > 0
	cov.replayed = st.ReplayedValues > 0
	if n := len(expected[ns]) + len(expected[ns2]); n > 0 {
		if st.RecoveredRecords+st.ReplayedValues == 0 {
			return cov, fmt.Errorf("%d keys committed but recovery found nothing (stats %+v)", n, st)
		}
	}

	// The recovered device must be fully usable: keep writing, then crash
	// and recover a second time (exercises the partial blocks the first
	// recovery left to be resumed).
	for i := 0; i < 40; i++ {
		k := uint64(rng.Intn(tortureKeys))
		val := tortureVal(rng, seed, 1000+i, k)
		err := re.Put(ns, k, val)
		if errors.Is(err, kaml.ErrPowerLoss) {
			if re, err = recoverVerified(re); err != nil {
				return cov, err
			}
			continue // unacknowledged; expected unchanged
		}
		if err != nil {
			return cov, fmt.Errorf("put after recovery: %w", err)
		}
		expected[ns][k] = val
	}
	re2, err := recoverVerified(re)
	if err != nil {
		return cov, fmt.Errorf("second recovery: %w", err)
	}
	re2.Close()
	return cov, nil
}
