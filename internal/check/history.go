// Package check is the deterministic model-checking harness for the KAML
// device: a history recorder (a kaml.HistoryTap), a linearizability checker
// for the key-value API, a serializability checker for Cache transactions,
// and a seeded schedule explorer with greedy shrinking of failing
// scenarios. See DESIGN.md §10 and cmd/kamlcheck.
package check

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	kaml "github.com/kaml-ssd/kaml"
)

// Value tagging. Every value the harness writes carries a unique tag so a
// read's observation identifies exactly which write it saw. A tag of 0 is
// never written; in checker models it denotes "key absent".
const (
	tagMagic0 = 'K'
	tagMagic1 = 'C'
	tagHdr    = 10 // 2 magic bytes + 8 tag bytes
)

// EncodeValue builds a tagged value of the given total size (minimum
// tagHdr). Filler bytes derive from the tag so equal tags mean equal bytes.
func EncodeValue(tag uint64, size int) []byte {
	if size < tagHdr {
		size = tagHdr
	}
	v := make([]byte, size)
	v[0], v[1] = tagMagic0, tagMagic1
	binary.BigEndian.PutUint64(v[2:10], tag)
	for i := tagHdr; i < size; i++ {
		v[i] = byte(tag>>uint((i%8)*8)) ^ byte(i)
	}
	return v
}

// DecodeTag extracts the tag from a value written by EncodeValue.
func DecodeTag(v []byte) (uint64, bool) {
	if len(v) < tagHdr || v[0] != tagMagic0 || v[1] != tagMagic1 {
		return 0, false
	}
	return binary.BigEndian.Uint64(v[2:10]), true
}

// ErrKind classifies an operation's outcome for the checkers.
type ErrKind uint8

// Outcome classes. ErrPower marks "maybe" operations: the host saw a
// power-loss error, so the operation may or may not have taken effect.
const (
	ErrNone ErrKind = iota
	ErrNotFound
	ErrPower
	ErrAborted
	ErrOther
)

func classify(err error) ErrKind {
	switch {
	case err == nil:
		return ErrNone
	case errors.Is(err, kaml.ErrKeyNotFound), errors.Is(err, kaml.ErrTxnNotFoundKey):
		return ErrNotFound
	case errors.Is(err, kaml.ErrPowerLoss):
		return ErrPower
	case errors.Is(err, kaml.ErrTxnAborted):
		return ErrAborted
	default:
		return ErrOther
	}
}

// Rec is one record argument of an operation, with the written value
// reduced to its tag and length.
type Rec struct {
	NS   uint32
	Key  uint64
	Tag  uint64 // tag of the written value (0 for reads / untagged)
	VLen int
}

// Event is one invoke/complete pair in the recorded history. End < 0 means
// the completion was never observed (an unwaited future, an actor killed by
// a power cut): the operation is "pending" and may or may not have
// happened.
type Event struct {
	ID    uint64
	Op    kaml.Op
	Txn   uint64 // transaction handle, 0 for plain device ops
	Recs  []Rec
	Start time.Duration
	End   time.Duration

	// Completion observations.
	Err    ErrKind
	ErrMsg string
	RetNS  uint32 // Snapshot: the created namespace ID
	RetTag uint64 // Get/TxnRead: tag of the returned value
	RetLen int    // Get/TxnRead: length of the returned value
	Tagged bool   // RetTag came from a well-formed tagged value
}

// Recorder implements kaml.HistoryTap: it timestamps every operation on the
// virtual clock and keeps the full history for the checkers. Only the
// actors of the device's engine, which run one at a time, may call it.
type Recorder struct {
	clock   func() time.Duration
	nextTxn uint64
	events  []Event
}

// NewRecorder builds a recorder reading virtual time from clock (usually
// Device.Now or Engine.Now — the clock survives Crash/Reopen).
func NewRecorder(clock func() time.Duration) *Recorder {
	return &Recorder{clock: clock}
}

// OpInvoked implements kaml.HistoryTap.
func (r *Recorder) OpInvoked(op kaml.Op, txn uint64, records []kaml.Record) uint64 {
	recs := make([]Rec, len(records))
	for i, rec := range records {
		tag, _ := DecodeTag(rec.Value)
		recs[i] = Rec{NS: rec.Namespace, Key: rec.Key, Tag: tag, VLen: len(rec.Value)}
	}
	id := uint64(len(r.events) + 1)
	r.events = append(r.events, Event{
		ID: id, Op: op, Txn: txn, Recs: recs,
		Start: r.clock(), End: -1,
	})
	return id
}

// OpCompleted implements kaml.HistoryTap.
func (r *Recorder) OpCompleted(id uint64, ns kaml.Namespace, value []byte, err error) {
	now := r.clock()
	if id == 0 || id > uint64(len(r.events)) {
		return
	}
	ev := &r.events[id-1]
	ev.End = now
	ev.Err = classify(err)
	if err != nil {
		ev.ErrMsg = err.Error()
	}
	ev.RetNS = ns
	if value != nil {
		ev.RetLen = len(value)
		ev.RetTag, ev.Tagged = DecodeTag(value)
	}
}

// TxnBegan implements kaml.HistoryTap.
func (r *Recorder) TxnBegan() uint64 {
	r.nextTxn++
	return r.nextTxn
}

// Events returns a copy of the history in invocation order.
func (r *Recorder) Events() []Event {
	out := make([]Event, len(r.events))
	copy(out, r.events)
	return out
}

// Serialize renders the history as deterministic text, one event per line —
// the artifact the repeat-run determinism test compares byte for byte.
func (r *Recorder) Serialize() []byte {
	var b strings.Builder
	for _, ev := range r.Events() {
		fmt.Fprintf(&b, "%d %s txn=%d start=%d end=%d err=%d ns=%d ret=%d/%d/%v recs=[",
			ev.ID, ev.Op, ev.Txn, int64(ev.Start), int64(ev.End),
			ev.Err, ev.RetNS, ev.RetTag, ev.RetLen, ev.Tagged)
		for i, rec := range ev.Recs {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%d:%d:%d:%d", rec.NS, rec.Key, rec.Tag, rec.VLen)
		}
		b.WriteString("]\n")
	}
	return []byte(b.String())
}

// FormatEvents renders an arbitrary event subset (diagnostics in violation
// reports), sorted by ID.
func FormatEvents(events []Event) string {
	sorted := append([]Event(nil), events...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	var b strings.Builder
	for _, ev := range sorted {
		fmt.Fprintf(&b, "  #%d %s", ev.ID, ev.Op)
		if ev.Txn != 0 {
			fmt.Fprintf(&b, " txn%d", ev.Txn)
		}
		for _, rec := range ev.Recs {
			fmt.Fprintf(&b, " (ns%d k%d", rec.NS, rec.Key)
			if rec.Tag != 0 {
				fmt.Fprintf(&b, " w→%d", rec.Tag)
			}
			b.WriteByte(')')
		}
		if ev.End < 0 {
			fmt.Fprintf(&b, " [%v, pending]", ev.Start)
		} else {
			fmt.Fprintf(&b, " [%v, %v]", ev.Start, ev.End)
		}
		switch ev.Err {
		case ErrNone:
			if ev.Op == kaml.OpGet || ev.Op == kaml.OpTxnRead {
				fmt.Fprintf(&b, " = tag %d", ev.RetTag)
			}
			if ev.Op == kaml.OpSnapshot {
				fmt.Fprintf(&b, " = ns%d", ev.RetNS)
			}
		case ErrNotFound:
			b.WriteString(" = not-found")
		case ErrPower:
			b.WriteString(" = power-loss")
		case ErrAborted:
			b.WriteString(" = aborted")
		case ErrOther:
			fmt.Fprintf(&b, " = error(%s)", ev.ErrMsg)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
