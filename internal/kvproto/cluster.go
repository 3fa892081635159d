package kvproto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	kaml "github.com/kaml-ssd/kaml"
	"github.com/kaml-ssd/kaml/internal/cluster"
)

// Cluster protocol. Each node of a cluster.Cluster runs one ClusterServer
// on its own listener, all sharing the cluster's routing state. The wire
// format is the framed KVP2 protocol with three extensions:
//
//   - the handshake reply carries the topology epoch
//     ("OK KVP2 EPOCH <n>"), so a client knows at connect time whether its
//     cached routing is stale;
//   - a Get/Put for a shard whose primary is another node is answered with
//     status MOVED carrying (epoch, shard, owner) instead of being served —
//     the redirect that keeps clients' shard maps converged after a
//     failover or migration cutover;
//   - opcode TOPO returns the full shard->primary table plus the epoch.
//
// The cluster keyspace is flat, so the namespace field of Get/Put frames
// must be zero. Namespace management opcodes are rejected: namespaces are
// how the cluster implements shards, not something a network peer may
// touch.

// ClusterServer exposes one node of a cluster over the framed protocol.
type ClusterServer struct {
	listener
	cl   *cluster.Cluster
	node int
}

// NewClusterServer wraps node `node` of cl.
func NewClusterServer(cl *cluster.Cluster, node int) *ClusterServer {
	s := &ClusterServer{listener: listener{who: fmt.Sprintf("kvproto: node %d", node)}, cl: cl, node: node}
	if r := cl.Telemetry(); r != nil {
		r.Help("kaml_cluster_srv_inflight_requests", "Framed commands admitted and executing, all connections, per node.")
		r.Help("kaml_cluster_srv_writer_queue_depth", "Completions queued for connection writers, all connections, per node.")
		id := fmt.Sprintf("%d", node)
		r.AdoptGauge(&s.inFlight, "kaml_cluster_srv_inflight_requests", "node", id)
		r.AdoptGauge(&s.writerQ, "kaml_cluster_srv_writer_queue_depth", "node", id)
	}
	return s
}

// Serve accepts connections until the listener closes.
func (s *ClusterServer) Serve(ln net.Listener) error { return s.serve(ln, s) }

// greeting carries the topology epoch as of the handshake.
func (s *ClusterServer) greeting() string {
	return fmt.Sprintf("%s%d\n", epochReplyPrefix, s.cl.Epoch())
}

func (s *ClusterServer) goExec(fn func()) { s.cl.Go(fn) }

// movedPayload encodes a redirect.
func movedPayload(epoch uint64, shard int, node int) []byte {
	var p [16]byte
	binary.BigEndian.PutUint64(p[0:8], epoch)
	binary.BigEndian.PutUint32(p[8:12], uint32(shard))
	binary.BigEndian.PutUint32(p[12:16], uint32(int32(node)))
	return p[:]
}

// exec decodes and executes one framed request on a simulation actor.
func (s *ClusterServer) exec(kind byte, payload []byte) (byte, []byte) {
	bad := func() (byte, []byte) { return stErr, []byte("bad frame") }
	switch kind {
	case reqGet, reqPut:
		if len(payload) < 12 || kind == reqGet && len(payload) != 12 {
			return bad()
		}
		if ns := binary.BigEndian.Uint32(payload[0:4]); ns != 0 {
			return stErr, []byte("cluster keyspace is flat: namespace must be 0")
		}
		key := binary.BigEndian.Uint64(payload[4:12])
		// Route-or-redirect: only the shard's primary serves it. The
		// check is against the lock-free topology snapshot, so a command
		// racing a failover may still land here — the cluster router
		// resolves that internally; the redirect exists to steer clients'
		// NEXT command to the right node.
		if shard, owner, epoch, ok := s.cl.PrimaryFor(key); !ok || owner != s.node {
			if !ok {
				owner = -1
			}
			return stMoved, movedPayload(epoch, shard, owner)
		}
		if kind == reqGet {
			val, err := s.cl.Get(key)
			if errors.Is(err, kaml.ErrKeyNotFound) {
				return stNotFound, nil
			}
			if err != nil {
				return stErr, []byte(err.Error())
			}
			return stOK, val
		}
		if err := s.cl.Put(key, payload[12:]); err != nil {
			return stErr, []byte(err.Error())
		}
		return stOK, nil
	case reqTopo:
		return stOK, encodeTopo(s.cl.Topology())
	case reqStats:
		return stOK, []byte(statsLine(s.cl.Node(s.node).Dev.Stats()))
	case reqCreate, reqDelete, reqSnapshot:
		return stErr, []byte("namespace ops are not available in cluster mode")
	default:
		return stErr, []byte(fmt.Sprintf("unknown op %d", kind))
	}
}

// encodeTopo renders a routing table:
// u64 epoch | u32 nshards | nshards * u32 primary (node ID, ^uint32(0)
// for an unavailable shard).
func encodeTopo(t *cluster.Topology) []byte {
	p := make([]byte, 12+4*len(t.Shards))
	binary.BigEndian.PutUint64(p[0:8], t.Epoch)
	binary.BigEndian.PutUint32(p[8:12], uint32(len(t.Shards)))
	for i, sh := range t.Shards {
		binary.BigEndian.PutUint32(p[12+4*i:], uint32(int32(sh.Primary)))
	}
	return p
}

func decodeTopo(p []byte) (epoch uint64, primaries []int32, err error) {
	if len(p) < 12 {
		return 0, nil, fmt.Errorf("kvproto: short TOPO reply (%d bytes)", len(p))
	}
	epoch = binary.BigEndian.Uint64(p[0:8])
	n := binary.BigEndian.Uint32(p[8:12])
	if uint32(len(p)-12) != 4*n {
		return 0, nil, fmt.Errorf("kvproto: bad TOPO reply (%d shards, %d bytes)", n, len(p))
	}
	primaries = make([]int32, n)
	for i := range primaries {
		primaries[i] = int32(binary.BigEndian.Uint32(p[12+4*i:]))
	}
	return epoch, primaries, nil
}

// ClusterClient routes framed commands across a cluster's node servers.
// It keeps one pipelined Client per node (dialed lazily), a shard->node
// map refreshed from MOVED redirects and TOPO fetches, and retries with
// backoff when a node dies mid-command. Safe for concurrent use.
type ClusterClient struct {
	addrs       []string // node ID -> address
	maxAttempts int
	backoff     time.Duration

	mu        sync.Mutex
	conns     map[int]*Client
	epoch     uint64
	primaries []int32 // shard -> node, -1 unavailable
}

// ClusterClientConfig tunes a ClusterClient.
type ClusterClientConfig struct {
	// MaxAttempts bounds tries per command (redirects and node failures
	// both consume attempts). Default 5.
	MaxAttempts int
	// Backoff is the base sleep between attempts that hit a transport
	// failure, scaled linearly by attempt number; redirects retry
	// immediately. Default 2ms.
	Backoff time.Duration
}

// DialCluster connects to a cluster given every node's address (index =
// node ID) and fetches the initial routing table from the first
// reachable node.
func DialCluster(addrs []string, cfg ClusterClientConfig) (*ClusterClient, error) {
	if cfg.MaxAttempts == 0 {
		cfg.MaxAttempts = 5
	}
	if cfg.Backoff == 0 {
		cfg.Backoff = 2 * time.Millisecond
	}
	c := &ClusterClient{
		addrs:       addrs,
		maxAttempts: cfg.MaxAttempts,
		backoff:     cfg.Backoff,
		conns:       make(map[int]*Client),
	}
	var lastErr error
	for node := range addrs {
		if lastErr = c.refreshTopo(node); lastErr == nil {
			return c, nil
		}
	}
	return nil, fmt.Errorf("kvproto: no cluster node reachable: %w", lastErr)
}

// Close tears down every node connection.
func (c *ClusterClient) Close() {
	c.mu.Lock()
	conns := c.conns
	c.conns = make(map[int]*Client)
	c.mu.Unlock()
	for _, cl := range conns {
		cl.Close()
	}
}

// Epoch returns the newest topology epoch the client has observed.
func (c *ClusterClient) Epoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// conn returns (dialing if needed) the pipelined client for node.
func (c *ClusterClient) conn(node int) (*Client, error) {
	if node < 0 || node >= len(c.addrs) {
		return nil, fmt.Errorf("kvproto: no address for node %d", node)
	}
	c.mu.Lock()
	if cl, ok := c.conns[node]; ok {
		c.mu.Unlock()
		return cl, nil
	}
	c.mu.Unlock()
	cl, err := Dial(c.addrs[node])
	if err != nil {
		return nil, err // already ErrRetryable-branded
	}
	c.mu.Lock()
	if prev, ok := c.conns[node]; ok {
		// Another caller won the dial race; keep theirs.
		c.mu.Unlock()
		cl.Close()
		return prev, nil
	}
	c.conns[node] = cl
	if cl.Epoch() > c.epoch {
		// The handshake says our routing predates reality; a TOPO refresh
		// will follow as soon as a command gets redirected or fails.
		c.epoch = cl.Epoch()
	}
	c.mu.Unlock()
	return cl, nil
}

// dropConn discards a poisoned node connection so the next attempt
// redials.
func (c *ClusterClient) dropConn(node int, cl *Client) {
	c.mu.Lock()
	if c.conns[node] == cl {
		delete(c.conns, node)
	}
	c.mu.Unlock()
	cl.Close()
}

// refreshTopo pulls the routing table from the given node.
func (c *ClusterClient) refreshTopo(via int) error {
	cl, err := c.conn(via)
	if err != nil {
		return err
	}
	ch, err := cl.start(reqTopo, nil)
	if err != nil {
		c.dropConn(via, cl)
		return err
	}
	pl, err := await(ch)
	if err != nil {
		c.dropConn(via, cl)
		return err
	}
	epoch, primaries, err := decodeTopo(pl)
	if err != nil {
		return err
	}
	c.mu.Lock()
	if epoch >= c.epoch || c.primaries == nil {
		c.epoch = epoch
		c.primaries = primaries
	}
	c.mu.Unlock()
	return nil
}

// applyMoved folds a redirect into the routing cache.
func (c *ClusterClient) applyMoved(m *MovedError) {
	c.mu.Lock()
	if int(m.Shard) < len(c.primaries) && m.Epoch >= c.epoch {
		c.epoch = m.Epoch
		c.primaries[m.Shard] = m.Node
	}
	c.mu.Unlock()
}

// target resolves a key to the node believed to serve its shard.
func (c *ClusterClient) target(key uint64) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.primaries) == 0 {
		return -1, fmt.Errorf("kvproto: no routing table")
	}
	node := c.primaries[cluster.ShardOfKey(key, len(c.primaries))]
	if node < 0 {
		return -1, fmt.Errorf("kvproto: shard %d has no live primary", cluster.ShardOfKey(key, len(c.primaries)))
	}
	return int(node), nil
}

// do runs one command with redirect-following and bounded retry. op
// issues the command against a node's client and returns its payload.
func (c *ClusterClient) do(key uint64, op func(cl *Client) ([]byte, error)) ([]byte, error) {
	var lastErr error
	for attempt := 0; attempt < c.maxAttempts; attempt++ {
		node, err := c.target(key)
		if err != nil {
			// No known primary: refresh from any reachable node, backoff,
			// and retry — a failover may be electing one right now.
			lastErr = err
			c.refreshAny()
			time.Sleep(c.backoff * time.Duration(attempt+1))
			continue
		}
		cl, err := c.conn(node)
		if err != nil {
			lastErr = err
			c.refreshAny()
			time.Sleep(c.backoff * time.Duration(attempt+1))
			continue
		}
		pl, err := op(cl)
		var moved *MovedError
		switch {
		case err == nil:
			return pl, nil
		case errors.As(err, &moved):
			// Stale routing: fold in the redirect and go again
			// immediately — no backoff, the server told us where.
			c.applyMoved(moved)
			lastErr = moved
		case errors.Is(err, ErrRetryable):
			// The node (or our connection to it) died. Drop the conn,
			// learn the post-failover topology, back off, retry.
			c.dropConn(node, cl)
			lastErr = err
			c.refreshAny()
			time.Sleep(c.backoff * time.Duration(attempt+1))
		default:
			return nil, err
		}
	}
	return nil, fmt.Errorf("kvproto: %d attempts exhausted: %w", c.maxAttempts, lastErr)
}

// refreshAny refreshes the topology from the first node that answers.
func (c *ClusterClient) refreshAny() {
	for node := range c.addrs {
		if c.refreshTopo(node) == nil {
			return
		}
	}
}

// Get fetches a value from the key's shard primary.
func (c *ClusterClient) Get(key uint64) ([]byte, error) {
	return c.do(key, func(cl *Client) ([]byte, error) {
		return cl.Get(0, key)
	})
}

// Put stores a value on the key's shard (replicated server-side).
//
// Retry caveat: a Put whose connection died mid-command may have executed
// before the transport failed; the retry can then apply it a second time.
// Puts here are full-value overwrites (idempotent), so the only
// observable effect is the write linearizing twice — harmless to
// correctness, which is why ErrRetryable gates the retry rather than a
// stricter exactly-once protocol.
func (c *ClusterClient) Put(key uint64, val []byte) error {
	_, err := c.do(key, func(cl *Client) ([]byte, error) {
		return nil, cl.Put(0, key, val)
	})
	return err
}

// stats fetches one node's device counters.
func (c *ClusterClient) stats(node int) (string, error) {
	cl, err := c.conn(node)
	if err != nil {
		return "", err
	}
	return cl.Stats()
}
