package kvproto

import (
	"bufio"
	"bytes"
	"testing"
)

// frameCodecAllocBudget bounds a full frame round trip (writeFrame +
// readFrameReuse + recycleFrameBuf). The payload buffer comes from the
// frameBufs pool, so steady state must not allocate per frame — the
// budget covers only stack-escape noise from the bufio plumbing (2.0/op
// measured), not a per-frame make. Before pooling, every inbound frame
// cost one make([]byte, n).
const frameCodecAllocBudget = 3

// TestFrameCodecAllocBudget pins the framed protocol's per-frame
// allocation count in steady state (DESIGN.md §13).
func TestFrameCodecAllocBudget(t *testing.T) {
	payload := bytes.Repeat([]byte{0xa5}, 256)
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	r := bufio.NewReader(&buf)
	roundTrip := func() {
		buf.Reset()
		r.Reset(&buf)
		if err := writeFrame(w, 'G', 7, payload); err != nil {
			t.Fatalf("write: %v", err)
		}
		if err := w.Flush(); err != nil {
			t.Fatalf("flush: %v", err)
		}
		kind, id, bufp, err := readFrameReuse(r)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if kind != 'G' || id != 7 || !bytes.Equal(*bufp, payload) {
			t.Fatalf("round trip mismatch: kind=%c id=%d len=%d", kind, id, len(*bufp))
		}
		recycleFrameBuf(bufp)
	}
	roundTrip() // warm the payload pool
	got := testing.AllocsPerRun(512, roundTrip)
	if got > frameCodecAllocBudget {
		t.Fatalf("frame round trip allocates %.1f/op, budget %d", got, frameCodecAllocBudget)
	}
	t.Logf("frame round trip: %.1f allocs/op (budget %d)", got, frameCodecAllocBudget)
}

// clientRoundTripAllocBudget bounds one framed Put and one Get, end to end
// and on every goroutine — client encode, loopback socket, server pump,
// device, reply, client decode: the measured steady state (19; 32 while the
// device's write path allocated its bookkeeping per request, 46 while every
// simulated park allocated) plus one.
const clientRoundTripAllocBudget = 20

// TestClientRoundTripAllocBudget pins the framed client's round trip.
func TestClientRoundTripAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool is lossy under the race detector; the budget is exact")
	}
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ns, err := c.CreateNamespace(1024)
	if err != nil {
		t.Fatal(err)
	}
	val := bytes.Repeat([]byte{0x5a}, 256)
	var key uint64
	roundTrip := func() {
		key = (key + 1) % 256
		if err := c.Put(ns, key, val); err != nil {
			t.Fatalf("put: %v", err)
		}
		if got, err := c.Get(ns, key); err != nil || !bytes.Equal(got, val) {
			t.Fatalf("get: %v", err)
		}
	}
	for i := 0; i < 512; i++ {
		roundTrip()
	}
	got := testing.AllocsPerRun(1000, roundTrip)
	if got > clientRoundTripAllocBudget {
		t.Fatalf("framed Put + Get allocates %.1f/op, budget %d", got, clientRoundTripAllocBudget)
	}
	t.Logf("framed Put + Get: %.1f allocs/op (budget %d)", got, clientRoundTripAllocBudget)
}
