package kvproto

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"

	"github.com/kaml-ssd/kaml/internal/cluster"
)

// startCluster brings up a cluster with one ClusterServer per node and
// returns the cluster plus the node address table.
func startCluster(t *testing.T) (*cluster.Cluster, []string) {
	t.Helper()
	cl, err := cluster.New(cluster.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, cl.NumNodes())
	var srvs []*ClusterServer
	for node := 0; node < cl.NumNodes(); node++ {
		srv := NewClusterServer(cl, node)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[node] = ln.Addr().String()
		go srv.Serve(ln)
		srvs = append(srvs, srv)
	}
	t.Cleanup(func() {
		for _, s := range srvs {
			s.Close()
		}
		done := make(chan struct{})
		cl.Go(func() { defer close(done); cl.Close() })
		<-done
		cl.Wait()
	})
	return cl, addrs
}

func TestClusterClientRoundTrip(t *testing.T) {
	_, addrs := startCluster(t)
	cc, err := DialCluster(addrs, ClusterClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	if cc.Epoch() == 0 {
		t.Fatal("cluster client learned no epoch")
	}
	for key := uint64(0); key < 64; key++ {
		val := []byte(fmt.Sprintf("value-%d", key))
		if err := cc.Put(key, val); err != nil {
			t.Fatalf("put %d: %v", key, err)
		}
		got, err := cc.Get(key)
		if err != nil || !bytes.Equal(got, val) {
			t.Fatalf("get %d: %v (%q)", key, err, got)
		}
	}
	if _, err := cc.Get(1 << 40); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing key: err %v, want ErrNotFound", err)
	}
	if st, err := cc.Stats(0); err != nil || !strings.HasPrefix(st, "STATS ") {
		t.Fatalf("stats: %q %v", st, err)
	}
}

// TestClusterMovedRedirect talks to a deliberately wrong node with a raw
// framed client and expects the MOVED redirect naming the right one, plus
// the topology epoch in the handshake.
func TestClusterMovedRedirect(t *testing.T) {
	cl, addrs := startCluster(t)

	// Find a key and a node that does NOT serve it.
	key := uint64(1)
	_, owner, _, ok := cl.PrimaryFor(key)
	if !ok {
		t.Fatal("no primary for key")
	}
	wrong := (owner + 1) % cl.NumNodes()
	for {
		if _, o, _, _ := cl.PrimaryFor(key); o != wrong {
			break
		}
		key++
	}

	c, err := Dial(addrs[wrong])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Epoch() != cl.Epoch() {
		t.Fatalf("handshake epoch %d, cluster epoch %d", c.Epoch(), cl.Epoch())
	}
	_, err = c.Get(0, key)
	var moved *MovedError
	if !errors.As(err, &moved) {
		t.Fatalf("get at wrong node: err %v, want MovedError", err)
	}
	if _, o, _, _ := cl.PrimaryFor(key); int(moved.Node) != o {
		t.Fatalf("redirect names node %d, primary is %d", moved.Node, o)
	}

	// Namespace discipline: the cluster keyspace is flat and namespace
	// management is not for network peers.
	if _, err := c.Get(7, key); err == nil || errors.As(err, &moved) {
		t.Fatalf("nonzero namespace accepted: %v", err)
	}
	if _, err := c.CreateNamespace(10); err == nil {
		t.Fatal("CreateNamespace accepted in cluster mode")
	}
}

// TestClusterGetFrameIsExactly12Bytes: a cluster node, like a device
// server, rejects a Get whose payload is not exactly namespace + key, even
// when the key's shard is its own.
func TestClusterGetFrameIsExactly12Bytes(t *testing.T) {
	cl, addrs := startCluster(t)
	key := uint64(5)
	_, owner, _, ok := cl.PrimaryFor(key)
	if !ok {
		t.Fatal("no primary for key")
	}
	c := dialRaw(t, addrs[owner])
	if st, pl := c.call(t, reqGet, append(nsKey(0, key), 0xEE)); st != stErr || string(pl) != "bad frame" {
		t.Fatalf("13-byte Get answered status %d %q, want stErr \"bad frame\"", st, pl)
	}
	if st, pl := c.call(t, reqGet, nsKey(0, key)); st != stNotFound {
		t.Fatalf("12-byte Get of a missing key answered status %d %q", st, pl)
	}
}

// TestClusterClientFailover kills a shard primary and expects the cluster
// client to chase MOVED redirects / refreshed topology to the survivor.
func TestClusterClientFailover(t *testing.T) {
	cl, addrs := startCluster(t)
	cc, err := DialCluster(addrs, ClusterClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()

	key := uint64(3)
	val := []byte("survives failover")
	if err := cc.Put(key, val); err != nil {
		t.Fatal(err)
	}
	_, owner, _, _ := cl.PrimaryFor(key)
	done := make(chan struct{})
	cl.Go(func() { defer close(done); cl.KillNode(owner) })
	<-done

	got, err := cc.Get(key)
	if err != nil || !bytes.Equal(got, val) {
		t.Fatalf("get after failover: %v (%q)", err, got)
	}
	if err := cc.Put(key, []byte("post-failover write")); err != nil {
		t.Fatalf("put after failover: %v", err)
	}
}

// TestRetryableBranding pins the ErrRetryable taxonomy: a torn transport
// is retryable, a deliberate Close is not, and the original error stays
// unwrappable.
func TestRetryableBranding(t *testing.T) {
	_, addr := startServer(t)

	// Torn connection: server side goes away mid-session.
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	ns, err := c.CreateNamespace(10)
	if err != nil {
		t.Fatal(err)
	}
	c.conn.Close() // tear the transport out from under the client
	err = c.Put(ns, 1, []byte("x"))
	if err == nil {
		t.Fatal("put on torn connection succeeded")
	}
	if !errors.Is(err, ErrRetryable) {
		t.Fatalf("torn-transport error %v is not ErrRetryable", err)
	}

	// Deliberate close: fail fast, NOT retryable.
	c2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	c2.Close()
	err = c2.Put(0, 1, []byte("x"))
	if !errors.Is(err, ErrClientClosed) {
		t.Fatalf("closed-client error %v, want ErrClientClosed", err)
	}
	if errors.Is(err, ErrRetryable) {
		t.Fatal("deliberate Close branded retryable")
	}

	// Refused dial: retryable (nothing was ever submitted).
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Fatal("dial to closed port succeeded")
	} else if !errors.Is(err, ErrRetryable) {
		t.Fatalf("refused dial %v is not ErrRetryable", err)
	}
}

// brokenPipe is a connection whose every write fails, as a torn one's does.
type brokenPipe struct{ net.Conn }

func (brokenPipe) Write([]byte) (int, error) { return 0, errors.New("write: broken pipe") }
func (brokenPipe) Close() error              { return nil }

// A request whose own frame write is the first to meet a torn connection
// gets the verdict it poisoned the client with, branded retryable — both
// the framed ops (start) and the hot Get/Put path (startNSKey).
func TestWriteErrorIsRetryable(t *testing.T) {
	for _, op := range []struct {
		name string
		do   func(c *Client) error
	}{
		{"create", func(c *Client) error { _, err := c.CreateNamespace(10); return err }},
		{"put", func(c *Client) error { return c.Put(1, 1, []byte("x")) }},
	} {
		c := &Client{conn: brokenPipe{}, w: bufio.NewWriterSize(brokenPipe{}, 16), pending: make(map[uint64]chan rframe)}
		if err := op.do(c); !errors.Is(err, ErrRetryable) {
			t.Errorf("%s over a failing write returned %v, want ErrRetryable", op.name, err)
		}
		if err := op.do(c); !errors.Is(err, ErrRetryable) {
			t.Errorf("%s on the poisoned client returned %v, want ErrRetryable", op.name, err)
		}
	}
}
