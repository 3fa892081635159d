package kamlssd

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/kaml-ssd/kaml/internal/cmdq"
	"github.com/kaml-ssd/kaml/internal/record"
)

// This file is the device's face of the asynchronous command pipeline
// (internal/cmdq). Every command charges the NVMe submission transfer in
// the calling actor. A write (SubmitPut) then goes to its coalescer shard
// and returns a completion future, of which Put is a thin Wait wrapper; a
// read at any timestamp (GetVersion, under Get and GetAt) and
// SnapshotNamespace (ops.go, snapshot.go) run their command on the caller
// through cmdq.RunDirect. The exec* functions execCommand dispatches to hold
// the firmware logic.

// SubmitPut enqueues an atomic Put batch and returns its completion future.
// This is the firmware boundary every writer crosses (kaml, cache, cluster
// and kvproto all arrive here), so the batch contract is checked here and
// only here: a malformed batch fails its own future at once — never a
// coalesced neighbor's — and costs no device round trip. Single-record
// batches (and batches small enough to share a commit) may be merged with
// concurrent Puts into one NVRAM batch commit by the pipeline's coalescer.
//
// The future's Result.Seq is the newest commit seq of the group commit that
// carried the batch: at least each of its records' seqs, and below every
// record a later commit writes.
//
// The pipeline copies the records into the future it returns, so the caller
// may reuse batch once SubmitPut returns; the values the records name are not
// copied and must stay unmodified until the future's Wait has returned.
func (d *Device) SubmitPut(batch []PutRecord) *cmdq.Future {
	if err := d.checkBatch(batch); err != nil {
		return cmdq.Resolved(d.eng, cmdq.Result{Err: err})
	}
	op := cmdq.OpPut
	if len(batch) > 1 {
		op = cmdq.OpPutBatch
	}
	d.ctrl.Submission()
	return d.pipe.Submit(&cmdq.Command{Op: op, Records: batch})
}

// checkBatch is the Put batch contract: at least one record
// (ErrEmptyBatch), no (namespace, key) named twice (ErrBadBatch), every
// value within one flash page (ErrValueTooLarge). The duplicate check sorts
// a copy of the keys on the stack, so a batch within the coalescer's cap
// allocates nothing.
func (d *Device) checkBatch(batch []PutRecord) error {
	if len(batch) == 0 {
		return ErrEmptyBatch
	}
	if len(batch) > 1 {
		var buf [stackBatch]nskey
		if _, err := lockOrder(batch, buf[:0]); err != nil {
			return err
		}
	}
	maxVal := d.fc.PageSize - record.HeaderSize
	for _, r := range batch {
		if len(r.Value) > maxVal {
			return fmt.Errorf("%w: %d bytes", ErrValueTooLarge, len(r.Value))
		}
	}
	return nil
}

// stackBatch is how many records the stack buffers of a Put's bookkeeping —
// its sorted keys, its namespaces, its undo list — hold. DefaultConfig caps
// a merged batch at it (MaxCoalesceRecords); a larger batch spills to the
// heap.
const stackBatch = 16

// lockOrder appends the batch's (namespace, key) pairs to buf[:0] in
// key-lock order, or returns ErrBadBatch naming the first pair that appears
// twice — sorted, duplicates are neighbors.
func lockOrder(batch []PutRecord, buf []nskey) ([]nskey, error) {
	keys := buf[:0]
	for _, r := range batch {
		keys = append(keys, nskey{ns: r.Namespace, key: r.Key})
	}
	slices.SortFunc(keys, func(a, b nskey) int {
		return cmp.Or(cmp.Compare(a.ns, b.ns), cmp.Compare(a.key, b.key))
	})
	for i := 1; i < len(keys); i++ {
		if keys[i] == keys[i-1] {
			return nil, fmt.Errorf("%w: ns %d key %d", ErrBadBatch, keys[i].ns, keys[i].key)
		}
	}
	return keys, nil
}

// execCommand dispatches one pipeline command to the firmware and charges
// the completion transfer. A direct command runs on its caller, which pays
// the transfer in full. A write runs on a coalescer actor, which does not:
// its completion entry reaches the host CompletionLatency after the commit
// (Result.Due), each merged command's on its own, and the shard meanwhile
// cuts its next batch — the transfer holds neither the shard nor a
// queue-pair slot.
func (d *Device) execCommand(cmd *cmdq.Command) cmdq.Result {
	var res cmdq.Result
	switch cmd.Op {
	case cmdq.OpGet:
		res.Value, res.Seq, res.Err = d.execGet(cmd.Namespace, cmd.Key, cmd.TS)
	case cmdq.OpPut, cmdq.OpPutBatch:
		res.Seq, res.Err = d.execPut(cmd.Records, cmd.Merged)
		res.Due = d.eng.NowCheap() + d.ctrl.Config().CompletionLatency
		return res
	case cmdq.OpSnapshot:
		res.Namespace, res.Err = d.execSnapshot(cmd.Namespace)
	default:
		res.Err = fmt.Errorf("kamlssd: unsupported pipeline op %v", cmd.Op)
	}
	d.ctrl.Completion()
	return res
}
