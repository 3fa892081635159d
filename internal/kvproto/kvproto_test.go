package kvproto

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"

	kaml "github.com/kaml-ssd/kaml"
)

func startServer(t *testing.T) (*Server, string) {
	t.Helper()
	dev, err := kaml.Open(kaml.SmallOptions())
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(dev)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		srv.Close()
		done := make(chan struct{})
		dev.Go(func() { defer close(done); dev.Close() })
		<-done
	})
	return srv, ln.Addr().String()
}

func TestClientServerRoundTrip(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ns, err := c.CreateNamespace(100)
	if err != nil {
		t.Fatal(err)
	}
	val := bytes.Repeat([]byte{0xAB, 0x00, 0x0A}, 100) // binary-safe
	if err := c.Put(ns, 7, val); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get(ns, 7)
	if err != nil || !bytes.Equal(got, val) {
		t.Fatalf("get: %v (len %d)", err, len(got))
	}
	if _, err := c.Get(ns, 999); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing key: %v", err)
	}
	stats, err := c.Stats()
	if err != nil || !strings.HasPrefix(stats, "STATS ") {
		t.Fatalf("stats: %q %v", stats, err)
	}

	// Snapshot over the wire.
	snap, err := c.Snapshot(ns)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(ns, 7, []byte("new")); err != nil {
		t.Fatal(err)
	}
	old, err := c.Get(snap, 7)
	if err != nil || !bytes.Equal(old, val) {
		t.Fatalf("snapshot get: %v", err)
	}
}

func TestConcurrentClients(t *testing.T) {
	_, addr := startServer(t)
	setup, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	ns, err := setup.CreateNamespace(1000)
	if err != nil {
		t.Fatal(err)
	}
	setup.Close()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; i < 20; i++ {
				key := uint64(w*100 + i)
				if err := c.Put(ns, key, []byte{byte(w), byte(i)}); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				v, err := c.Get(ns, key)
				if err != nil || v[0] != byte(w) || v[1] != byte(i) {
					t.Errorf("get %d: %v", key, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestProtocolErrors(t *testing.T) {
	_, addr := startServer(t)
	c := dialText(t, addr)

	// Unknown namespace.
	if resp := c.send(t, "PUT 99 1 1\nx"); !strings.HasPrefix(resp, "ERR ") {
		t.Fatalf("put to missing namespace answered %q", resp)
	}
	// Raw garbage command still keeps the connection alive.
	if resp := c.send(t, "BOGUS\n"); !strings.HasPrefix(resp, "ERR unknown command") {
		t.Fatalf("garbage command answered %q", resp)
	}
	if resp := c.send(t, "CREATE 10\n"); !strings.HasPrefix(resp, "NS ") {
		t.Fatalf("connection broken after bad command: %q", resp)
	}
}

// TestClientDisconnectMidCommand drops connections in the middle of a PUT —
// after the header line and again halfway through the payload — and checks
// that the server neither installs the half-received value nor stops
// serving other clients.
func TestClientDisconnectMidCommand(t *testing.T) {
	_, addr := startServer(t)

	setup, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer setup.Close()
	ns, err := setup.CreateNamespace(100)
	if err != nil {
		t.Fatal(err)
	}

	// Header then immediate disconnect: the payload never arrives.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "PUT %d 1 64\n", ns)
	conn.Close()

	// Half the payload, then disconnect.
	conn, err = net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "PUT %d 2 64\n", ns)
	conn.Write(bytes.Repeat([]byte{0xCC}, 32))
	conn.Close()

	// The truncated PUTs must not have installed anything, and the server
	// must still serve a fresh connection.
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, key := range []uint64{1, 2} {
		if _, err := c.Get(ns, key); !errors.Is(err, ErrNotFound) {
			t.Fatalf("key %d from aborted PUT visible: %v", key, err)
		}
	}
	if err := c.Put(ns, 3, []byte("alive")); err != nil {
		t.Fatalf("server dead after mid-command disconnects: %v", err)
	}
	v, err := c.Get(ns, 3)
	if err != nil || string(v) != "alive" {
		t.Fatalf("get after disconnects: %q %v", v, err)
	}
}
