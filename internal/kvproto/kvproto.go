// Package kvproto exposes a KAML device as a network key-value store —
// the shape of service the paper's introduction motivates (and the
// Kinetic-style deployment §VI contrasts with).
//
// Every port speaks one protocol, KVP2 (see framed.go): a connection opens
// with the line "KVP2\n", the server greets it, and from then on both
// directions carry length-prefixed binary frames with request IDs. A client
// may pipeline many commands on one connection and match their out-of-order
// completions by ID — the protocol-level mirror of the device's
// submission/completion queues and of Table I's command set (Get, Put,
// namespace create/delete/snapshot, plus STATS). A connection whose first
// line is anything else is closed unanswered. Client and ClusterClient are
// the clients.
//
// The server bridges real network goroutines onto the device's simulated
// clock: each request executes as a short-lived simulation actor while the
// connection's completion writer waits on real synchronization. Server (one
// device) and ClusterServer (one node of a cluster) differ only in how they
// greet a connection and execute a frame; the accept/track/close loop, the
// handshake (listener) and the framed pump (serveFramed) exist once.
package kvproto

import (
	"bufio"
	"log"
	"net"
	"strings"
	"sync"

	kaml "github.com/kaml-ssd/kaml"
	"github.com/kaml-ssd/kaml/internal/telemetry"
)

// MaxValueLen bounds a PUT payload.
const MaxValueLen = 1 << 20

// listener is the accept/track/close skeleton of a server, plus the state
// every connection's framed pump shares. Server and ClusterServer embed it.
type listener struct {
	who string // log prefix naming the server ("kvproto", "kvproto: node 2")

	mu     sync.Mutex
	ln     net.Listener
	closed bool
	conns  map[net.Conn]struct{}

	// inFlight counts framed commands admitted but not yet completed across
	// all connections; writerQ is the total backlog of completions waiting
	// for connection writer goroutines. Both are cells the server owns; the
	// registry, when there is one, lists them. warnOnce fires the one-time
	// writer-backlog warning (see serveFramed).
	inFlight telemetry.Gauge
	writerQ  telemetry.Gauge
	warnOnce sync.Once
}

// serve accepts connections until the listener closes, running l.handle
// for each on its own goroutine and closing and forgetting the connection when
// handle returns.
func (l *listener) serve(ln net.Listener, b framedBackend) error {
	l.mu.Lock()
	l.ln = ln
	l.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			l.mu.Lock()
			closed := l.closed
			l.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		l.mu.Lock()
		if l.conns == nil {
			l.conns = make(map[net.Conn]struct{})
		}
		l.conns[conn] = struct{}{}
		l.mu.Unlock()
		go func() {
			defer func() {
				conn.Close()
				l.mu.Lock()
				delete(l.conns, conn)
				l.mu.Unlock()
			}()
			l.handle(b, conn)
		}()
	}
}

// handle opens one connection: its first line must be the KVP2 handshake
// (anything else, a line longer than the reader's buffer included, is
// dropped unanswered), b's greeting answers it, and the connection then
// carries frames until it closes.
func (l *listener) handle(b framedBackend, conn net.Conn) {
	r := bufio.NewReader(conn)
	line, err := r.ReadSlice('\n')
	if err != nil || strings.TrimSpace(string(line)) != Handshake {
		return
	}
	w := bufio.NewWriter(conn)
	w.WriteString(b.greeting())
	if err := w.Flush(); err != nil {
		return
	}
	serveFramed(b, l, conn, r, w)
}

// Close stops the listener and open connections.
func (l *listener) Close() {
	l.mu.Lock()
	l.closed = true
	if l.ln != nil {
		l.ln.Close()
	}
	for c := range l.conns {
		c.Close()
	}
	l.mu.Unlock()
}

// warnBacklog logs — once per server — that a connection's completion
// backlog hit the admission bound, which almost always means a client is
// pipelining requests without reading responses.
func (l *listener) warnBacklog(depth int) {
	l.warnOnce.Do(func() {
		log.Printf("%s: writer queue reached %d completions (bound %d); a client is not reading responses — admission paused until the backlog drains",
			l.who, depth, maxWriterQueue)
	})
}

// Server serves the protocol over a listener.
type Server struct {
	listener
	dev *kaml.Device
}

// NewServer wraps an open device.
func NewServer(dev *kaml.Device) *Server {
	s := &Server{listener: listener{who: "kvproto"}, dev: dev}
	if r := dev.Telemetry(); r != nil {
		r.Help("kaml_srv_inflight_requests", "Framed commands admitted and executing on the device, all connections.")
		r.Help("kaml_srv_writer_queue_depth", "Completions queued for connection writer goroutines, all connections.")
		r.AdoptGauge(&s.inFlight, "kaml_srv_inflight_requests")
		r.AdoptGauge(&s.writerQ, "kaml_srv_writer_queue_depth")
	}
	return s
}

// Serve accepts connections until the listener closes.
func (s *Server) Serve(ln net.Listener) error { return s.serve(ln, s) }

func (s *Server) greeting() string { return handshakeReply }

func (s *Server) goExec(fn func()) { s.dev.Go(fn) }
