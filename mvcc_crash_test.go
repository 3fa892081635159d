package kaml_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	kaml "github.com/kaml-ssd/kaml"
)

// MVCC crash torture: 50 seeded fault plans cut power at arbitrary points
// of an overwrite-heavy workload running above a durable snapshot — before
// a batch's NVRAM commit, between the NVRAM commit and the version-chain
// install, or mid-flash-flush. After every recovery the snapshot must still
// serve exactly its creation-time versions (the chain rebuild must select
// the pre-commit version at the snapshot's pin), and the root namespace
// must serve exactly the last acknowledged value per key.

const mvccTortureKeys = 24

// mvccValSize makes a record five of a page's 64 chunks, so a page seals —
// and a program goes out — every twelve records: the 24-key base generation
// is two pages and the overwrite storm about thirty more. (At 32 bytes a
// record is one chunk, the whole workload is six pages, and a count-based
// cut has almost nothing to land on.)
const mvccValSize = 600

func mvccVal(seed int64, gen int, key uint64) []byte {
	v := make([]byte, mvccValSize)
	v[0], v[1], v[2] = byte(seed), byte(gen), byte(key)
	for i := 3; i < len(v); i++ {
		v[i] = byte(int(key)*31 + gen*7 + i)
	}
	return v
}

func TestMVCCSnapshotCrashTorture(t *testing.T) {
	var total coverageTotals
	for seed := int64(0); seed < 50; seed++ {
		t.Run(fmt.Sprintf("seed=%02d", seed), func(t *testing.T) {
			total.add(runMVCCTortureSeed(t, seed))
		})
	}
	// 42 of the 50 plans are count-based and every one fires inside the
	// workload (see the cut range below).
	total.check(t, 40)
}

func runMVCCTortureSeed(t *testing.T, seed int64) tortureCoverage {
	rng := rand.New(rand.NewSource(seed))

	// Pages are programmed only when full (mvccValSize): the base generation
	// programs one page before the snapshot and seals a second, and the
	// overwrite storm about 29 more (30 or 31 in all, by seed). Every
	// count-based cut therefore fires inside the workload — the first few
	// around the base write and the snapshot, the rest inside the storm,
	// where snapshot-pinned versions are at stake; the time-based plans
	// below cover cuts during recovery.
	plan := &kaml.FaultPlan{Seed: seed, CutAfterPrograms: 1 + rng.Intn(28)}
	if seed%3 == 1 {
		plan.TornPageOnCut = true
	}
	if seed%6 == 2 {
		plan.CutAfterPrograms = 0
		plan.CutAtTime = time.Duration(1+rng.Intn(30)) * time.Millisecond
	}
	opts := kaml.SmallOptions()
	opts.Faults = plan

	dev, err := kaml.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	var cov tortureCoverage
	var failure error
	dev.Go(func() {
		cov, failure = mvccTortureRun(dev, rng, seed, plan.CutAfterPrograms > 0)
	})
	dev.Wait()
	if failure != nil {
		t.Fatal(failure)
	}
	return cov
}

func mvccTortureRun(dev *kaml.Device, rng *rand.Rand, seed int64, countCut bool) (cov tortureCoverage, _ error) {
	ns, err := dev.CreateNamespace(kaml.NamespaceOptions{ExpectedKeys: 2 * mvccTortureKeys})
	if err != nil {
		return cov, err
	}

	expected := make(map[uint64][]byte) // root: last acknowledged value
	var snap kaml.Namespace
	var snapVals map[uint64][]byte // frozen view the snapshot must serve

	// verify checks both views against their models. The snapshot check is
	// the heart of the test: its versions were overwritten many times and
	// survive only through the version chains the recovery rebuilt.
	verify := func(d *kaml.Device) error {
		for k := uint64(0); k < mvccTortureKeys; k++ {
			want, ok := expected[k]
			got, gerr := d.Get(ns, k)
			if !ok {
				if errors.Is(gerr, kaml.ErrKeyNotFound) {
					continue
				}
				if gerr != nil {
					return fmt.Errorf("root key %d: %w", k, gerr)
				}
				return fmt.Errorf("root key %d never committed, yet Get succeeded (%d bytes)", k, len(got))
			}
			if gerr != nil {
				return fmt.Errorf("root key %d: %w", k, gerr)
			}
			if !bytes.Equal(got, want) {
				return fmt.Errorf("root key %d: wrong value after recovery", k)
			}
		}
		if snapVals == nil {
			return nil
		}
		for k := uint64(0); k < mvccTortureKeys; k++ {
			want, ok := snapVals[k]
			got, gerr := d.Get(snap, k)
			if !ok {
				if errors.Is(gerr, kaml.ErrKeyNotFound) {
					continue
				}
				if gerr != nil {
					return fmt.Errorf("snapshot key %d: %w", k, gerr)
				}
				return fmt.Errorf("snapshot key %d absent at snapshot time, yet Get succeeded (%d bytes)", k, len(got))
			}
			if gerr != nil {
				return fmt.Errorf("snapshot key %d: %w", k, gerr)
			}
			if !bytes.Equal(got, want) {
				return fmt.Errorf("snapshot key %d: snapshot-time version lost (got gen %d, want gen %d)",
					k, got[1], want[1])
			}
		}
		return nil
	}

	recoverVerified := func(d *kaml.Device) (*kaml.Device, error) {
		for round := 0; ; round++ {
			img := d.Crash()
			var re *kaml.Device
			var rerr error
			for attempt := 0; attempt < 4; attempt++ {
				if re, rerr = kaml.Reopen(img); rerr == nil {
					break
				}
			}
			if rerr != nil {
				return nil, fmt.Errorf("reopen: %w", rerr)
			}
			verr := verify(re)
			if verr == nil {
				return re, nil
			}
			if !errors.Is(verr, kaml.ErrPowerLoss) || round >= 3 {
				return nil, verr
			}
			d = re // cut struck between recovery and verification; go again
		}
	}

	// put routes through Put or a small batch, modeling acknowledgments
	// exactly like the base torture test: only acked writes enter expected.
	cut := false
	firstLife := true // still on the device the fault plan was opened with
	put := func(gen int, keys ...uint64) error {
		recs := make([]kaml.Record, len(keys))
		for i, k := range keys {
			recs[i] = kaml.Record{Namespace: ns, Key: k, Value: mvccVal(seed, gen, k)}
		}
		var perr error
		if len(recs) == 1 {
			perr = dev.Put(ns, keys[0], recs[0].Value)
		} else {
			perr = dev.PutBatch(recs)
		}
		switch {
		case perr == nil:
			for _, r := range recs {
				expected[r.Key] = r.Value
			}
			return nil
		case errors.Is(perr, kaml.ErrPowerLoss):
			cut = true
			cov.midProgram = cov.midProgram || (countCut && firstLife)
			return nil
		default:
			return fmt.Errorf("gen %d put %v: %w", gen, keys, perr)
		}
	}

	// Phase 1: base generation, then the durable snapshot.
	for k := uint64(0); k < mvccTortureKeys && !cut; k++ {
		if err := put(0, k); err != nil {
			return cov, err
		}
	}
	if !cut {
		s, serr := dev.Snapshot(ns)
		switch {
		case serr == nil:
			snap = s
			snapVals = make(map[uint64][]byte, len(expected))
			for k, v := range expected {
				snapVals[k] = v
			}
		case errors.Is(serr, kaml.ErrPowerLoss):
			cut = true
		default:
			return cov, fmt.Errorf("snapshot: %w", serr)
		}
	}

	// Phase 2: overwrite storm above the snapshot — single puts and small
	// batches, many generations deep, until the cut (or the storm ends and
	// we cut by crashing anyway).
	for gen := 1; gen <= 12 && !cut; gen++ {
		for k := uint64(0); k < mvccTortureKeys && !cut; k++ {
			if rng.Intn(4) == 0 {
				k2 := (k + 1 + uint64(rng.Intn(mvccTortureKeys-1))) % mvccTortureKeys
				if err := put(gen, k, k2); err != nil {
					return cov, err
				}
			} else if err := put(gen, k); err != nil {
				return cov, err
			}
		}
	}

	// Phase 3: crash (power already cut or not), recover, verify both the
	// root and the snapshot's frozen view.
	re, err := recoverVerified(dev)
	if err != nil {
		return cov, err
	}
	firstLife = false
	st := re.Stats()
	cov.midProgram = cov.midProgram || st.TornPagesSkipped > 0
	cov.replayed = st.ReplayedValues > 0

	// Phase 4: the recovered device keeps version semantics: more
	// overwrites must not disturb the snapshot, and a second crash+recovery
	// (exercising blocks the first recovery resumed) must preserve it too.
	dev = re
	cut = false
	for i := 0; i < 30 && !cut; i++ {
		if err := put(100+i, uint64(rng.Intn(mvccTortureKeys))); err != nil {
			return cov, err
		}
	}
	if err := verify(dev); err != nil && !errors.Is(err, kaml.ErrPowerLoss) {
		return cov, fmt.Errorf("after post-recovery writes: %w", err)
	}
	re2, err := recoverVerified(dev)
	if err != nil {
		return cov, fmt.Errorf("second recovery: %w", err)
	}
	re2.Close()
	return cov, nil
}
