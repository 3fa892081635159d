package kvproto

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
)

// ErrNotFound is returned by Get for missing keys.
var ErrNotFound = errors.New("kvproto: key not found")

// ErrClientClosed reports use of a client after Close.
var ErrClientClosed = errors.New("kvproto: client closed")

// ErrRetryable marks transport-level failures — a refused dial, a torn
// connection, a corrupt frame stream — where retrying against a fresh
// connection (or, in a cluster, another node) is sound because the
// failure says nothing about the request's outcome being observed.
// Callers test with errors.Is(err, ErrRetryable); the original transport
// error stays reachable through errors.Unwrap/Is. A deliberate Close is
// NOT retryable.
var ErrRetryable = errors.New("kvproto: retryable transport error")

// retryableError brands a transport error as ErrRetryable while keeping
// the cause unwrappable.
type retryableError struct{ cause error }

func (e *retryableError) Error() string { return "kvproto: retryable: " + e.cause.Error() }
func (e *retryableError) Unwrap() error { return e.cause }
func (e *retryableError) Is(target error) bool {
	return target == ErrRetryable
}

// wrapRetryable brands err, except for the deliberate-shutdown verdict
// (and idempotently).
func wrapRetryable(err error) error {
	if err == nil || errors.Is(err, ErrClientClosed) || errors.Is(err, ErrRetryable) {
		return err
	}
	return &retryableError{cause: err}
}

// MovedError is a cluster server's redirect: the key's shard is served by
// another node (as of Epoch). Node is -1 when the shard currently has no
// live primary. The cluster client consumes these internally; they
// surface only when redirects exceed the retry budget.
type MovedError struct {
	Epoch uint64
	Shard uint32
	Node  int32
}

func (e *MovedError) Error() string {
	return fmt.Sprintf("kvproto: moved: shard %d is at node %d (epoch %d)", e.Shard, e.Node, e.Epoch)
}

// Client speaks the framed v2 protocol and pipelines: any number of
// goroutines may issue requests concurrently on one connection, and the
// async variants let a single goroutine keep a window of commands in
// flight. Completions are matched to callers by request ID, so the server
// is free to finish them out of order.
//
// A transport error anywhere poisons the client: every outstanding request
// fails with that error, and every later call fails fast with it — a torn
// connection can never leave a caller parked forever or mis-deliver a
// stray completion.
type Client struct {
	conn  net.Conn
	epoch uint64 // topology epoch from the handshake; 0 for single-device servers

	wmu sync.Mutex // serializes frame writes
	w   *bufio.Writer

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan rframe
	err     error // first transport error; sticky
}

// rframe is a matched response (or the poison verdict).
type rframe struct {
	status  byte
	payload []byte
	err     error
}

// Dial connects to a server and performs the KVP2 handshake. Connection
// failures are branded ErrRetryable — nothing was submitted yet.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, wrapRetryable(err)
	}
	c, err := NewClient(conn)
	if err != nil {
		conn.Close()
		return nil, wrapRetryable(err)
	}
	return c, nil
}

// NewClient upgrades an established connection to the framed protocol.
// Single-device servers reply "OK KVP2"; cluster servers append their
// topology epoch ("OK KVP2 EPOCH <n>"), which Epoch exposes.
func NewClient(conn net.Conn) (*Client, error) {
	r := bufio.NewReader(conn)
	if _, err := fmt.Fprintf(conn, "%s\n", Handshake); err != nil {
		return nil, err
	}
	line, err := r.ReadString('\n')
	if err != nil {
		return nil, err
	}
	reply := strings.TrimSpace(line)
	var epoch uint64
	switch {
	case reply == strings.TrimSpace(handshakeReply):
	case strings.HasPrefix(reply, epochReplyPrefix):
		if _, err := fmt.Sscanf(reply, epochReplyPrefix+"%d", &epoch); err != nil {
			return nil, fmt.Errorf("kvproto: bad epoch handshake %q", reply)
		}
	default:
		return nil, fmt.Errorf("kvproto: handshake rejected: %q", reply)
	}
	c := &Client{
		conn:    conn,
		epoch:   epoch,
		w:       bufio.NewWriter(conn),
		pending: make(map[uint64]chan rframe),
	}
	go c.readLoop(r)
	return c, nil
}

// Epoch returns the server's topology epoch from the handshake (zero for
// single-device servers, which predate epochs).
func (c *Client) Epoch() uint64 { return c.epoch }

// readLoop delivers completions by request ID until the transport dies.
func (c *Client) readLoop(r *bufio.Reader) {
	for {
		status, id, payload, err := readFrame(r)
		if err != nil {
			c.poison(err)
			return
		}
		c.mu.Lock()
		ch, ok := c.pending[id]
		delete(c.pending, id)
		c.mu.Unlock()
		if !ok {
			// A completion nothing claims: the server is confused or the
			// stream is corrupt — nothing sane can follow.
			c.poison(fmt.Errorf("kvproto: unsolicited completion id %d", id))
			return
		}
		ch <- rframe{status: status, payload: payload}
	}
}

// poison records the first transport error and fails every outstanding
// request with it, and returns that verdict. The pending channels have
// capacity 1, so delivery never blocks. Transport deaths are branded
// ErrRetryable (a deliberate Close is not): the request MAY have executed
// server-side, so only callers with idempotent or cluster-replicated
// operations should retry.
func (c *Client) poison(err error) error {
	err = wrapRetryable(err)
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	failed := c.pending
	c.pending = make(map[uint64]chan rframe)
	verdict := c.err
	c.mu.Unlock()
	c.conn.Close()
	for _, ch := range failed {
		ch <- rframe{err: verdict}
	}
	return verdict
}

// completionChans pools the capacity-1 channels requests ride on. Each
// registered channel is sent to exactly once — the matched completion or
// the poison verdict, never both (delivery requires removing the entry
// from pending under c.mu) — so once await has received, the channel is
// empty and reusable by the next request.
var completionChans = sync.Pool{New: func() any { return make(chan rframe, 1) }}

// register assigns a request ID and parks a completion channel for it.
func (c *Client) register() (uint64, chan rframe, error) {
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return 0, nil, err
	}
	c.nextID++
	id := c.nextID
	ch := completionChans.Get().(chan rframe)
	c.pending[id] = ch
	c.mu.Unlock()
	return id, ch, nil
}

// start registers a request and writes its frame. The returned channel
// receives exactly one rframe: the completion, or the poison verdict.
func (c *Client) start(kind byte, payload []byte) (chan rframe, error) {
	id, ch, err := c.register()
	if err != nil {
		return nil, err
	}
	c.wmu.Lock()
	err = writeFrame(c.w, kind, id, payload)
	if err == nil {
		err = c.w.Flush()
	}
	c.wmu.Unlock()
	if err != nil {
		// A mid-stream write error is a torn connection: this request AND
		// every other outstanding one must fail, and the client stays dead.
		return nil, c.poison(err)
	}
	return ch, nil
}

// startNSKey registers a request and writes a (namespace, key[, value])
// frame, composing the header and preamble on the stack straight into the
// connection's buffered writer — the hot Get/Put ops allocate nothing for
// framing.
func (c *Client) startNSKey(kind byte, ns uint32, key uint64, val []byte) (chan rframe, error) {
	id, ch, err := c.register()
	if err != nil {
		return nil, err
	}
	c.wmu.Lock()
	var hdr [25]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(1+8+12+len(val)))
	hdr[4] = kind
	binary.BigEndian.PutUint64(hdr[5:13], id)
	binary.BigEndian.PutUint32(hdr[13:17], ns)
	binary.BigEndian.PutUint64(hdr[17:25], key)
	_, err = c.w.Write(hdr[:])
	if err == nil && len(val) > 0 {
		_, err = c.w.Write(val)
	}
	if err == nil {
		err = c.w.Flush()
	}
	c.wmu.Unlock()
	if err != nil {
		return nil, c.poison(err)
	}
	return ch, nil
}

// await turns a completion into (payload, error) and recycles the channel
// (the single delivery has been consumed, so it is clean for the pool).
func await(ch chan rframe) ([]byte, error) {
	f := <-ch
	completionChans.Put(ch)
	if f.err != nil {
		return nil, f.err
	}
	switch f.status {
	case stOK:
		return f.payload, nil
	case stNotFound:
		return nil, ErrNotFound
	case stErr:
		return nil, errors.New(string(f.payload))
	case stMoved:
		if len(f.payload) != 16 {
			return nil, fmt.Errorf("kvproto: bad MOVED payload (%d bytes)", len(f.payload))
		}
		return nil, &MovedError{
			Epoch: binary.BigEndian.Uint64(f.payload[0:8]),
			Shard: binary.BigEndian.Uint32(f.payload[8:12]),
			Node:  int32(binary.BigEndian.Uint32(f.payload[12:16])),
		}
	default:
		return nil, fmt.Errorf("kvproto: unknown status %d", f.status)
	}
}

// Close tears down the connection; outstanding requests fail with
// ErrClientClosed.
func (c *Client) Close() error {
	c.poison(ErrClientClosed)
	return nil
}

// Err returns the sticky transport error, if the client is poisoned.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

func u32Payload(v uint32) []byte {
	var p [4]byte
	binary.BigEndian.PutUint32(p[:], v)
	return p[:]
}

// errFutureDone reports a second Wait on a kvproto future (the channel has
// already been consumed and recycled).
var errFutureDone = errors.New("kvproto: future already waited")

// GetFuture is an in-flight Get. Wait at most once.
type GetFuture struct{ ch chan rframe }

// Wait blocks until the completion (or poison) arrives.
func (f *GetFuture) Wait() ([]byte, error) {
	ch := f.ch
	if ch == nil {
		return nil, errFutureDone
	}
	f.ch = nil
	return await(ch)
}

// PutFuture is an in-flight Put. Wait at most once.
type PutFuture struct{ ch chan rframe }

// Wait blocks until the completion (or poison) arrives.
func (f *PutFuture) Wait() error {
	ch := f.ch
	if ch == nil {
		return errFutureDone
	}
	f.ch = nil
	_, err := await(ch)
	return err
}

// GetAsync submits a Get without waiting; completions may be awaited in
// any order.
func (c *Client) GetAsync(ns uint32, key uint64) (*GetFuture, error) {
	ch, err := c.startNSKey(reqGet, ns, key, nil)
	if err != nil {
		return nil, err
	}
	return &GetFuture{ch: ch}, nil
}

// PutAsync submits a Put without waiting.
func (c *Client) PutAsync(ns uint32, key uint64, val []byte) (*PutFuture, error) {
	if len(val) > MaxValueLen {
		return nil, fmt.Errorf("kvproto: value too large (%d bytes)", len(val))
	}
	ch, err := c.startNSKey(reqPut, ns, key, val)
	if err != nil {
		return nil, err
	}
	return &PutFuture{ch: ch}, nil
}

// Get fetches a value.
func (c *Client) Get(ns uint32, key uint64) ([]byte, error) {
	f, err := c.GetAsync(ns, key)
	if err != nil {
		return nil, err
	}
	return f.Wait()
}

// Put stores a value.
func (c *Client) Put(ns uint32, key uint64, val []byte) error {
	f, err := c.PutAsync(ns, key, val)
	if err != nil {
		return err
	}
	return f.Wait()
}

// CreateNamespace asks the server for a new namespace.
func (c *Client) CreateNamespace(expectedKeys int) (uint32, error) {
	ch, err := c.start(reqCreate, u32Payload(uint32(expectedKeys)))
	if err != nil {
		return 0, err
	}
	pl, err := await(ch)
	if err != nil {
		return 0, err
	}
	if len(pl) != 4 {
		return 0, fmt.Errorf("kvproto: bad CREATE reply (%d bytes)", len(pl))
	}
	return binary.BigEndian.Uint32(pl), nil
}

// DeleteNamespace destroys a namespace.
func (c *Client) DeleteNamespace(ns uint32) error {
	ch, err := c.start(reqDelete, u32Payload(ns))
	if err != nil {
		return err
	}
	_, err = await(ch)
	return err
}

// Snapshot asks the server to snapshot a namespace.
func (c *Client) Snapshot(ns uint32) (uint32, error) {
	ch, err := c.start(reqSnapshot, u32Payload(ns))
	if err != nil {
		return 0, err
	}
	pl, err := await(ch)
	if err != nil {
		return 0, err
	}
	if len(pl) != 4 {
		return 0, fmt.Errorf("kvproto: bad SNAPSHOT reply (%d bytes)", len(pl))
	}
	return binary.BigEndian.Uint32(pl), nil
}

// Stats fetches the server's device counters as a raw line.
func (c *Client) Stats() (string, error) {
	ch, err := c.start(reqStats, nil)
	if err != nil {
		return "", err
	}
	pl, err := await(ch)
	return string(pl), err
}
