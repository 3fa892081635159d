package kvproto

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
)

// TestPipelinedOutstanding keeps a window of commands in flight on ONE
// connection and awaits the completions out of submission order.
func TestPipelinedOutstanding(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ns, err := c.CreateNamespace(256)
	if err != nil {
		t.Fatal(err)
	}

	const n = 32
	puts := make([]*PutFuture, n)
	for i := 0; i < n; i++ {
		f, err := c.PutAsync(ns, uint64(i), []byte(fmt.Sprintf("value-%d", i)))
		if err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		puts[i] = f
	}
	// Await in reverse: a future must deliver regardless of await order.
	for i := n - 1; i >= 0; i-- {
		if err := puts[i].Wait(); err != nil {
			t.Fatalf("put %d wait: %v", i, err)
		}
	}
	gets := make([]*GetFuture, n)
	for i := 0; i < n; i++ {
		f, err := c.GetAsync(ns, uint64(i))
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		gets[i] = f
	}
	for i := n - 1; i >= 0; i-- {
		v, err := gets[i].Wait()
		if err != nil || string(v) != fmt.Sprintf("value-%d", i) {
			t.Fatalf("get %d: %q %v", i, v, err)
		}
	}
	stats, err := c.Stats()
	if err != nil || !strings.Contains(stats, "pipeline_submitted=") {
		t.Fatalf("stats: %q %v", stats, err)
	}
}

// TestSharedClientConcurrentGoroutines hammers one framed client from many
// goroutines; request IDs must keep every caller's reply its own.
func TestSharedClientConcurrentGoroutines(t *testing.T) {
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
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				key := uint64(w*1000 + i)
				want := fmt.Sprintf("w%d-i%d", w, i)
				if err := c.Put(ns, key, []byte(want)); err != nil {
					t.Errorf("put %d: %v", key, err)
					return
				}
				v, err := c.Get(ns, key)
				if err != nil || string(v) != want {
					t.Errorf("get %d: %q %v", key, v, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// fakeFramedServer accepts one connection, performs the handshake, and
// hands the raw frame stream to fn.
func fakeFramedServer(t *testing.T, fn func(conn net.Conn, r *bufio.Reader, w *bufio.Writer)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		r := bufio.NewReader(conn)
		if line, err := r.ReadString('\n'); err != nil || strings.TrimSpace(line) != Handshake {
			return
		}
		w := bufio.NewWriter(conn)
		w.WriteString(handshakeReply)
		if w.Flush() != nil {
			return
		}
		fn(conn, r, w)
	}()
	return ln.Addr().String()
}

// TestOutOfOrderCompletionsMatchedByID runs the client against a server
// that answers each batch of requests in REVERSE order; every future must
// still receive its own payload.
func TestOutOfOrderCompletionsMatchedByID(t *testing.T) {
	const batch = 8
	addr := fakeFramedServer(t, func(conn net.Conn, r *bufio.Reader, w *bufio.Writer) {
		type req struct {
			id      uint64
			payload []byte
		}
		for {
			reqs := make([]req, 0, batch)
			for i := 0; i < batch; i++ {
				_, id, payload, err := readFrame(r)
				if err != nil {
					return
				}
				reqs = append(reqs, req{id, payload})
			}
			for i := len(reqs) - 1; i >= 0; i-- {
				// Echo the Get's key bytes back so the client can check it
				// got ITS OWN reply, not just any reply.
				if writeFrame(w, stOK, reqs[i].id, reqs[i].payload[4:12]) != nil {
					return
				}
			}
			if w.Flush() != nil {
				return
			}
		}
	})

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	futs := make([]*GetFuture, batch)
	for i := 0; i < batch; i++ {
		f, err := c.GetAsync(1, 0x1111_0000+uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		futs[i] = f
	}
	for i, f := range futs {
		v, err := f.Wait()
		if err != nil {
			t.Fatalf("future %d: %v", i, err)
		}
		if len(v) != 8 {
			t.Fatalf("future %d: %d-byte echo", i, len(v))
		}
		got := uint64(v[0])<<56 | uint64(v[1])<<48 | uint64(v[2])<<40 | uint64(v[3])<<32 |
			uint64(v[4])<<24 | uint64(v[5])<<16 | uint64(v[6])<<8 | uint64(v[7])
		if got != 0x1111_0000+uint64(i) {
			t.Fatalf("future %d got reply for key %#x", i, got)
		}
	}
}

// TestMidPipelineDisconnectPoisonsClient drops the connection with many
// requests outstanding: the answered one succeeds, every other future
// fails with the transport error, and later calls fail fast. Run under
// -race this also checks the poison path against concurrent submitters.
func TestMidPipelineDisconnectPoisonsClient(t *testing.T) {
	const n = 16
	addr := fakeFramedServer(t, func(conn net.Conn, r *bufio.Reader, w *bufio.Writer) {
		// Read everything the client pipelined, answer only the first,
		// then tear the connection down.
		_, first, _, err := readFrame(r)
		if err != nil {
			return
		}
		for i := 1; i < n; i++ {
			if _, _, _, err := readFrame(r); err != nil {
				return
			}
		}
		writeFrame(w, stOK, first, []byte("survivor"))
		w.Flush()
		conn.Close()
	})

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	futs := make([]*GetFuture, n)
	for i := 0; i < n; i++ {
		f, err := c.GetAsync(1, uint64(i))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		futs[i] = f
	}
	v, err := futs[0].Wait()
	if err != nil || string(v) != "survivor" {
		t.Fatalf("answered future: %q %v", v, err)
	}
	for i := 1; i < n; i++ {
		if _, err := futs[i].Wait(); err == nil {
			t.Fatalf("future %d succeeded after disconnect", i)
		}
	}
	// Poisoned: new work is refused immediately with the sticky error.
	if _, err := c.GetAsync(1, 99); err == nil {
		t.Fatal("submit after poison accepted")
	}
	if c.Err() == nil {
		t.Fatal("no sticky error recorded")
	}
	if _, err := c.Get(1, 100); !errors.Is(err, c.Err()) {
		t.Fatalf("sync call after poison: %v", err)
	}
}

// TestCloseFailsOutstanding checks Close's poison verdict reaches parked
// waiters instead of leaving them stuck.
func TestCloseFailsOutstanding(t *testing.T) {
	addr := fakeFramedServer(t, func(conn net.Conn, r *bufio.Reader, w *bufio.Writer) {
		// Swallow requests, never answer.
		for {
			if _, _, _, err := readFrame(r); err != nil {
				return
			}
		}
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	f, err := c.GetAsync(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := f.Wait()
		done <- err
	}()
	c.Close()
	if err := <-done; !errors.Is(err, ErrClientClosed) {
		t.Fatalf("outstanding future after Close: %v", err)
	}
}
