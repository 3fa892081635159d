package kamlssd

import (
	"math/rand"
	"slices"
	"testing"
)

// settledSeqByScan is the settled-floor rule by its definition: the newest
// sequence below the first of every batch that has neither committed nor
// aborted, found by walking every batch the NVRAM still tracks — committed
// ones waiting for their flash installs included.
func settledSeqByScan(nv *NVRAM) uint64 {
	ts := nv.nvSeq
	for _, b := range nv.batches {
		if !b.committed && b.first-1 < ts {
			ts = b.first - 1
		}
	}
	return ts
}

// settledSeq, which walks only the open batches, agrees with the full scan
// after every step of random histories of batches begun (empty ones too),
// staged, committed, aborted, installed in any order, dropped by a recovery
// and finished by its merge.
func TestSettledSeqMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		nv := NewNVRAM()
		var open []uint64   // batch IDs neither committed nor aborted
		var staged []uint64 // sequences that may still be staged
		for step := 0; step < 300; step++ {
			switch op := rng.Intn(10); {
			case op < 3 || len(open) == 0:
				n := rng.Intn(4)
				id, first := nv.beginBatch(n)
				for i := 0; i < n; i++ {
					seq := first + uint64(i)
					nv.stage(seq, 1, seq%16, []byte{byte(seq)}, id)
					staged = append(staged, seq)
				}
				open = append(open, id)
			case op < 6:
				i := rng.Intn(len(open))
				nv.commitBatch(open[i])
				open = slices.Delete(open, i, i+1)
			case op < 7:
				i := rng.Intn(len(open))
				nv.abortBatch(open[i])
				open = slices.Delete(open, i, i+1)
			case op < 9 && len(staged) > 0:
				i := rng.Intn(len(staged))
				nv.installed(staged[i])
				staged = slices.Delete(staged, i, i+1)
			case rng.Intn(10) == 0:
				// A power cut and the start of a recovery: open batches vanish,
				// and the merge releases some of what is left.
				nv.dropUncommitted()
				open = open[:0]
				for _, seq := range nv.pendingSeqs() {
					if rng.Intn(2) == 0 {
						nv.finish(seq)
					}
				}
			}
			if got, want := nv.settledSeq(), settledSeqByScan(nv); got != want {
				t.Fatalf("trial %d step %d: settledSeq %d, the full scan %d", trial, step, got, want)
			}
		}
	}
}
