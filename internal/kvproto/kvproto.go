// Package kvproto exposes a KAML device as a network key-value store —
// the shape of service the paper's introduction motivates (and the
// Kinetic-style deployment §VI contrasts with). Two wire flavors share
// every port.
//
// The legacy text protocol, for humans and netcat (values are binary-safe
// via length-prefixed payloads):
//
//	CREATE <expectedKeys>\n            -> NS <id>\n
//	SNAPSHOT <ns>\n                    -> NS <id>\n
//	DELETE <ns>\n                      -> OK\n
//	PUT <ns> <key> <len>\n<len bytes>  -> OK\n
//	GET <ns> <key>\n                   -> VAL <len>\n<len bytes> | ERR not-found\n
//	STATS\n                            -> STATS puts=<n> gets=<n> ...\n
//	QUIT\n                             -> BYE\n
//
// And the framed v2 protocol (see framed.go): a connection whose FIRST
// line is "KVP2\n" switches to length-prefixed binary frames carrying
// request IDs, letting a client pipeline many commands on one connection
// with out-of-order completion — the protocol-level mirror of the device's
// submission/completion queues. Client speaks v2, and it is the only client:
// the text flavor is server-side only, there for `nc`, shell scripts and
// CI's admin smoke to type at.
//
// The server bridges real network goroutines onto the device's simulated
// clock: each request executes as a short-lived simulation actor while the
// connection goroutine (text) or completion writer (framed) waits on real
// channels. Server (one device) and ClusterServer (one node of a cluster)
// differ only in how they greet a connection and execute a frame; the
// accept/track/close loop (listener) and the framed pump (serveFramed)
// exist once.
package kvproto

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"strconv"
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

// serve accepts connections until the listener closes, running handle for
// each on its own goroutine and closing and forgetting the connection when
// handle returns.
func (l *listener) serve(ln net.Listener, handle func(net.Conn)) error {
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
			handle(conn)
		}()
	}
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
func (s *Server) Serve(ln net.Listener) error { return s.serve(ln, s.handle) }

// runOnDevice executes fn as a simulation actor and waits for it.
func (s *Server) runOnDevice(fn func()) {
	done := make(chan struct{})
	s.dev.Go(func() {
		defer close(done)
		fn()
	})
	<-done
}

func (s *Server) handle(conn net.Conn) {
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return
		}
		fields := strings.Fields(strings.TrimSpace(line))
		if len(fields) == 0 {
			continue
		}
		switch strings.ToUpper(fields[0]) {
		case Handshake:
			// Protocol upgrade: acknowledge in text, then hand the
			// connection to the framed engine until it disconnects.
			w.WriteString(handshakeReply)
			if err := w.Flush(); err != nil {
				return
			}
			serveFramed(s, &s.listener, conn, r, w)
			return
		case "CREATE":
			s.cmdCreate(w, fields)
		case "SNAPSHOT":
			s.cmdSnapshot(w, fields)
		case "DELETE":
			s.cmdDelete(w, fields)
		case "PUT":
			s.cmdPut(w, r, fields)
		case "GET":
			s.cmdGet(w, fields)
		case "STATS":
			s.cmdStats(w)
		case "QUIT":
			fmt.Fprintf(w, "BYE\n")
			w.Flush()
			return
		default:
			fmt.Fprintf(w, "ERR unknown command %q\n", fields[0])
		}
		if err := w.Flush(); err != nil {
			return
		}
	}
}

func (s *Server) cmdCreate(w io.Writer, fields []string) {
	expected := 0
	if len(fields) >= 2 {
		expected, _ = strconv.Atoi(fields[1])
	}
	var ns kaml.Namespace
	var err error
	s.runOnDevice(func() {
		ns, err = s.dev.CreateNamespace(kaml.NamespaceOptions{ExpectedKeys: expected})
	})
	if err != nil {
		fmt.Fprintf(w, "ERR %v\n", err)
		return
	}
	fmt.Fprintf(w, "NS %d\n", ns)
}

func (s *Server) cmdSnapshot(w io.Writer, fields []string) {
	if len(fields) < 2 {
		fmt.Fprintf(w, "ERR usage: SNAPSHOT <ns>\n")
		return
	}
	ns, perr := strconv.ParseUint(fields[1], 10, 32)
	if perr != nil {
		fmt.Fprintf(w, "ERR bad namespace\n")
		return
	}
	var snap kaml.Namespace
	var err error
	s.runOnDevice(func() { snap, err = s.dev.Snapshot(uint32(ns)) })
	if err != nil {
		fmt.Fprintf(w, "ERR %v\n", err)
		return
	}
	fmt.Fprintf(w, "NS %d\n", snap)
}

func (s *Server) cmdDelete(w io.Writer, fields []string) {
	if len(fields) < 2 {
		fmt.Fprintf(w, "ERR usage: DELETE <ns>\n")
		return
	}
	ns, perr := strconv.ParseUint(fields[1], 10, 32)
	if perr != nil {
		fmt.Fprintf(w, "ERR bad namespace\n")
		return
	}
	var err error
	s.runOnDevice(func() { err = s.dev.DeleteNamespace(uint32(ns)) })
	if err != nil {
		fmt.Fprintf(w, "ERR %v\n", err)
		return
	}
	fmt.Fprintf(w, "OK\n")
}

func (s *Server) cmdPut(w io.Writer, r *bufio.Reader, fields []string) {
	if len(fields) < 4 {
		fmt.Fprintf(w, "ERR usage: PUT <ns> <key> <len>\n")
		return
	}
	ns, e1 := strconv.ParseUint(fields[1], 10, 32)
	key, e2 := strconv.ParseUint(fields[2], 10, 64)
	n, e3 := strconv.Atoi(fields[3])
	if e1 != nil || e2 != nil || e3 != nil || n < 0 || n > MaxValueLen {
		fmt.Fprintf(w, "ERR bad arguments\n")
		return
	}
	val := make([]byte, n)
	if _, err := io.ReadFull(r, val); err != nil {
		fmt.Fprintf(w, "ERR short payload\n")
		return
	}
	var err error
	s.runOnDevice(func() { err = s.dev.Put(uint32(ns), key, val) })
	if err != nil {
		fmt.Fprintf(w, "ERR %v\n", err)
		return
	}
	fmt.Fprintf(w, "OK\n")
}

func (s *Server) cmdGet(w io.Writer, fields []string) {
	if len(fields) < 3 {
		fmt.Fprintf(w, "ERR usage: GET <ns> <key>\n")
		return
	}
	ns, e1 := strconv.ParseUint(fields[1], 10, 32)
	key, e2 := strconv.ParseUint(fields[2], 10, 64)
	if e1 != nil || e2 != nil {
		fmt.Fprintf(w, "ERR bad arguments\n")
		return
	}
	var val []byte
	var err error
	s.runOnDevice(func() { val, err = s.dev.Get(uint32(ns), key) })
	if errors.Is(err, kaml.ErrKeyNotFound) {
		fmt.Fprintf(w, "ERR not-found\n")
		return
	}
	if err != nil {
		fmt.Fprintf(w, "ERR %v\n", err)
		return
	}
	fmt.Fprintf(w, "VAL %d\n", len(val))
	w.Write(val)
	fmt.Fprintf(w, "\n")
}

func (s *Server) cmdStats(w io.Writer) {
	var st kaml.Stats
	s.runOnDevice(func() { st = s.dev.Stats() })
	fmt.Fprintf(w, "%s\n", statsLine(st))
}
