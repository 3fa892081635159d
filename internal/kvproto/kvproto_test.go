package kvproto

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

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

// rawConn speaks KVP2 below the Client, one frame at a time: for frames the
// Client never sends and for connections cut off mid-frame.
type rawConn struct {
	net.Conn
	r *bufio.Reader
	w *bufio.Writer
}

// dialRaw connects and performs the handshake.
func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	c := &rawConn{Conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn)}
	c.w.WriteString(Handshake + "\n")
	if err := c.w.Flush(); err != nil {
		t.Fatal(err)
	}
	if line, err := c.r.ReadString('\n'); err != nil || !strings.HasPrefix(line, "OK KVP2") {
		t.Fatalf("handshake answered %q %v", line, err)
	}
	return c
}

// call sends one frame and returns the status and payload of its reply.
func (c *rawConn) call(t *testing.T, kind byte, payload []byte) (byte, []byte) {
	t.Helper()
	if err := writeFrame(c.w, kind, 42, payload); err != nil {
		t.Fatal(err)
	}
	if err := c.w.Flush(); err != nil {
		t.Fatal(err)
	}
	st, id, pl, err := readFrame(c.r)
	if err != nil || id != 42 {
		t.Fatalf("reply to op %d: id %d, %v", kind, id, err)
	}
	return st, pl
}

// nsKey is a Get payload, and a Put's without its value.
func nsKey(ns uint32, key uint64) []byte {
	return binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint32(nil, ns), key)
}

// TestNonHandshakeIsDropped: a connection whose first line is not the KVP2
// handshake gets no reply at all, from either server, and is closed — also
// when the line never ends.
func TestNonHandshakeIsDropped(t *testing.T) {
	_, devAddr := startServer(t)
	_, nodeAddrs := startCluster(t)
	for _, srv := range []struct{ name, addr string }{{"device", devAddr}, {"cluster", nodeAddrs[0]}} {
		for _, first := range []string{"CREATE 10\n", "kvp2\n", "\n", strings.Repeat("K", 8192)} {
			conn, err := net.Dial("tcp", srv.addr)
			if err != nil {
				t.Fatal(err)
			}
			conn.Write([]byte(first))
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			// A close with the line unread arrives as a reset, which is
			// as silent as an EOF; only a reply or the deadline fails.
			got, err := io.ReadAll(conn)
			conn.Close()
			if len(got) != 0 || errors.Is(err, os.ErrDeadlineExceeded) {
				t.Errorf("%s: first line %.12q answered %q (%v), want a silent close", srv.name, first, got, err)
			}
		}
	}
}

// TestProtocolErrors: a Put to a missing namespace and an unknown op each
// answer stErr, and the connection goes on serving.
func TestProtocolErrors(t *testing.T) {
	_, addr := startServer(t)
	c := dialRaw(t, addr)

	if st, pl := c.call(t, reqPut, append(nsKey(99, 1), 'x')); st != stErr {
		t.Fatalf("put to missing namespace answered status %d %q", st, pl)
	}
	if st, pl := c.call(t, 99, nil); st != stErr || !strings.Contains(string(pl), "unknown op") {
		t.Fatalf("unknown op answered status %d %q", st, pl)
	}
	if st, pl := c.call(t, reqCreate, u32Payload(10)); st != stOK || len(pl) != 4 {
		t.Fatalf("connection broken after bad frames: status %d %q", st, pl)
	}
}

// TestClientDisconnectMidCommand drops connections in the middle of a Put
// frame — once inside its header and once halfway through its payload — and
// checks that the server neither installs the half-received value nor stops
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

	// putFrame is a whole Put frame for key with a 64-byte value.
	putFrame := func(key uint64) []byte {
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		writeFrame(w, reqPut, 1, append(nsKey(ns, key), bytes.Repeat([]byte{0xCC}, 64)...))
		w.Flush()
		return buf.Bytes()
	}
	// Key 1: the length and op arrive, the request ID is cut off.
	c := dialRaw(t, addr)
	c.Write(putFrame(1)[:7])
	c.Close()
	// Key 2: the header and half the payload arrive.
	c = dialRaw(t, addr)
	c.Write(putFrame(2)[:13+12+32])
	c.Close()

	// The truncated Puts must not have installed anything, and the server
	// must still serve a fresh connection.
	fresh, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	for _, key := range []uint64{1, 2} {
		if _, err := fresh.Get(ns, key); !errors.Is(err, ErrNotFound) {
			t.Fatalf("key %d from aborted Put visible: %v", key, err)
		}
	}
	if err := fresh.Put(ns, 3, []byte("alive")); err != nil {
		t.Fatalf("server dead after mid-command disconnects: %v", err)
	}
	v, err := fresh.Get(ns, 3)
	if err != nil || string(v) != "alive" {
		t.Fatalf("get after disconnects: %q %v", v, err)
	}
}
