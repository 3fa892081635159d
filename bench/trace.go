package main

import (
	"bufio"
	"fmt"
	"os"
	"sync/atomic"
	"time"
)

// Span names. One root span (spanOp) per request; every call the driver
// makes into a layer gets a child span. Spans inside the program (cmdq
// stages, flash queue waits) are ROADMAP item 4, not this benchmark.
const (
	spanOp uint8 = iota
	spanKeygen
	spanVerify
	spanKamlGet
	spanKamlPut
	spanKamlPutBatch
	spanKamlReopen
	spanCacheBegin
	spanCacheRead
	spanCacheUpdate
	spanCacheCommit
	spanClusterGet
	spanClusterPut
	spanKvprotoGet
	spanKvprotoPut
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"bench.op", "bench.keygen", "bench.verify",
	"kaml.get", "kaml.put", "kaml.putbatch", "kaml.reopen",
	"cache.begin", "cache.read", "cache.update", "cache.commit",
	"cluster.get", "cluster.put", "kvproto.get", "kvproto.put",
}

// span is one timed interval on both clocks. Pointer-free, so the
// preallocated slice costs the garbage collector nothing to scan.
type span struct {
	seq    uint32 // request sequence number: the id spans of one request share
	parent int32  // index of the parent span, -1 for a root
	name   uint8
	phase  uint8
	v0, v1 int64 // virtual ns
	w0, w1 int64 // wall ns since the tracer started
}

// tracer records spans into a preallocated slice; nothing is written out
// until the run is over. Slots are claimed with one atomic add, so actors
// of a free-running engine and wire-client goroutines can share it.
type tracer struct {
	spans   []span
	n       atomic.Int64
	dropped atomic.Int64
	t0      time.Time
	vnow    func() time.Duration
}

func newTracer(capacity int, vnow func() time.Duration) *tracer {
	return &tracer{spans: make([]span, capacity), t0: time.Now(), vnow: vnow}
}

// begin opens a span and returns its index, or -1 when tracing is off (nil
// tracer) or the slice is full.
func (t *tracer) begin(name, phase uint8, parent int32, seq uint32) int32 {
	if t == nil {
		return -1
	}
	i := t.n.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return -1
	}
	s := &t.spans[i]
	*s = span{seq: seq, parent: parent, name: name, phase: phase,
		v0: int64(t.vnow()), w0: int64(time.Since(t.t0))}
	return int32(i)
}

func (t *tracer) end(i int32) {
	if i < 0 {
		return
	}
	s := &t.spans[i]
	s.v1 = int64(t.vnow())
	s.w1 = int64(time.Since(t.t0))
}

// recorded returns the spans written so far.
func (t *tracer) recorded() []span {
	n := t.n.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	return t.spans[:n]
}

// traceFileRequests caps how many requests the JSONL file holds: every
// span feeds the in-memory aggregates, the file is an evenly spaced sample
// a person can open.
const traceFileRequests = 20000

// writeJSONL writes the spans of every k-th request, one JSON object per
// line, after the run.
func (t *tracer) writeJSONL(path string, phaseNames []string, requests int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	k := uint32(requests/traceFileRequests + 1)
	for i, s := range t.recorded() {
		if s.seq%k != 0 {
			continue
		}
		fmt.Fprintf(w, `{"id":%d,"span":%d,"parent":%d,"name":%q,"phase":%q,"v0":%d,"v1":%d,"w0":%d,"w1":%d}`+"\n",
			s.seq, i, s.parent, spanNames[s.name], phaseNames[s.phase], s.v0, s.v1, s.w0, s.w1)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, aligned with spans, each root span's wall self time:
// its duration minus what its children cover. Entries of child spans and
// of unfinished roots are -1.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		if s.parent < 0 && s.w1 > 0 {
			self[i] += s.w1 - s.w0
		} else {
			self[i] = -1
		}
		if s.parent >= 0 && self[s.parent] >= 0 {
			// A parent is recorded before its children, so its duration is
			// already in place.
			self[s.parent] -= s.w1 - s.w0
		}
	}
	return self
}
