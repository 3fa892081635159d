package kvproto

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	kaml "github.com/kaml-ssd/kaml"
)

// The KVP2 protocol. A client opens a connection with the line "KVP2\n";
// the server greets it with "OK KVP2\n" (a cluster node with
// "OK KVP2 EPOCH <n>\n") and the connection carries binary frames in both
// directions from then on:
//
//	request:  u32 length | u8 op     | u64 reqID | payload
//	response: u32 length | u8 status | u64 reqID | payload
//
// length counts everything after itself (1 + 8 + len(payload)). Request
// IDs are chosen by the client and echoed verbatim; responses may arrive
// in ANY order, which is the point — a client may keep many requests
// outstanding on one connection and match completions by ID, mirroring the
// device's own submission/completion pipeline end to end.
const (
	// Handshake is the line that opens every connection; handshakeReply is
	// a single-device server's greeting.
	Handshake      = "KVP2"
	handshakeReply = "OK KVP2\n"

	// epochReplyPrefix starts a cluster server's handshake reply: the
	// topology epoch rides along so a client knows how fresh its cached
	// routing is before the first frame ("OK KVP2 EPOCH <n>").
	epochReplyPrefix = "OK KVP2 EPOCH "

	// Request opcodes.
	reqGet      = 1
	reqPut      = 2
	reqCreate   = 3
	reqDelete   = 4
	reqSnapshot = 5
	reqStats    = 6
	reqTopo     = 7 // cluster servers only: fetch the routing table

	// Response statuses.
	stOK       = 0
	stErr      = 1
	stNotFound = 2
	stMoved    = 3 // cluster servers only: u64 epoch | u32 shard | u32 node

	// maxFrame bounds a frame body; above MaxValueLen plus header room.
	maxFrame = MaxValueLen + 64

	// maxInFlight bounds commands a single framed connection may have
	// executing on the device — the server-side queue depth.
	maxInFlight = 128

	// maxWriterQueue bounds one connection's completion backlog: past it
	// the reader loop stops admitting new frames until the writer drains.
	// The bound never blocks a simulation actor — completions of
	// already-admitted commands always append — so the backlog can
	// overshoot by at most maxInFlight entries. It exists for the
	// pathological peer that pipelines requests while never reading
	// responses, which previously grew the queue without limit.
	maxWriterQueue = 4096
)

// frameBufs pools request-payload buffers so a framed connection's steady
// state reads every frame into recycled memory instead of allocating per
// frame. Buffers whose capacity grew past pooledBufCap are left to the GC —
// one oversized value must not pin a huge buffer in the pool forever.
var frameBufs = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

const pooledBufCap = 64 << 10

// readFrameReuse reads one frame into a pooled payload buffer. The caller
// owns *bufp (payload aliases its backing array) until it calls
// recycleFrameBuf; bufp is nil on error.
func readFrameReuse(r *bufio.Reader) (kind byte, id uint64, bufp *[]byte, err error) {
	var hdr [13]byte
	if _, err = io.ReadFull(r, hdr[:4]); err != nil {
		return
	}
	n := binary.BigEndian.Uint32(hdr[0:4])
	if n < 9 || n > maxFrame {
		err = fmt.Errorf("kvproto: bad frame length %d", n)
		return
	}
	if _, err = io.ReadFull(r, hdr[4:13]); err != nil {
		return
	}
	kind = hdr[4]
	id = binary.BigEndian.Uint64(hdr[5:13])
	bufp = frameBufs.Get().(*[]byte)
	if need := int(n - 9); cap(*bufp) < need {
		*bufp = make([]byte, need)
	} else {
		*bufp = (*bufp)[:need]
	}
	if _, err = io.ReadFull(r, *bufp); err != nil {
		recycleFrameBuf(bufp)
		bufp = nil
	}
	return
}

// recycleFrameBuf returns a request buffer to the pool.
func recycleFrameBuf(bufp *[]byte) {
	if cap(*bufp) > pooledBufCap {
		return
	}
	frameBufs.Put(bufp)
}

// writeFrame emits one frame; the caller flushes.
func writeFrame(w *bufio.Writer, kind byte, id uint64, payload []byte) error {
	var hdr [13]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(1+8+len(payload)))
	hdr[4] = kind
	binary.BigEndian.PutUint64(hdr[5:13], id)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one frame.
func readFrame(r *bufio.Reader) (kind byte, id uint64, payload []byte, err error) {
	var hdr [13]byte
	if _, err = io.ReadFull(r, hdr[:4]); err != nil {
		return
	}
	n := binary.BigEndian.Uint32(hdr[0:4])
	if n < 9 || n > maxFrame {
		err = fmt.Errorf("kvproto: bad frame length %d", n)
		return
	}
	if _, err = io.ReadFull(r, hdr[4:13]); err != nil {
		return
	}
	kind = hdr[4]
	id = binary.BigEndian.Uint64(hdr[5:13])
	payload = make([]byte, n-9)
	_, err = io.ReadFull(r, payload)
	return
}

// statsLine renders a STATS response's payload, the same for a device and
// for a cluster node's device.
func statsLine(st kaml.Stats) string {
	return fmt.Sprintf("STATS puts=%d gets=%d records=%d programs=%d gc_copies=%d gc_erases=%d "+
		"pipeline_submitted=%d pipeline_completed=%d coalesced_puts=%d coalescer_batches=%d "+
		"pipeline_max_queue=%d pipeline_mean_queue=%.2f",
		st.Puts, st.Gets, st.PutRecords, st.Programs, st.GCCopies, st.GCErases,
		st.PipelineSubmitted, st.PipelineCompleted, st.CoalescedPuts, st.CoalescerBatches,
		st.PipelineMaxQueue, st.PipelineMeanQueue)
}

// framedBackend is what a connection needs from whoever owns the storage:
// the greeting that answers the handshake, a way to run a command as a
// simulation actor, and the command decoder/executor itself. Server (one
// device) and ClusterServer (one node of a cluster) both implement it, so
// the handshake (listener.handle) and the delicate reader/writer pump below
// exist exactly once; the gauges and the backlog warning it reports to are
// the shared listener's.
type framedBackend interface {
	greeting() string                              // handshake reply line, newline included
	goExec(fn func())                              // spawn fn as a simulation actor
	exec(kind byte, payload []byte) (byte, []byte) // decode + run one frame (on an actor)
}

// serveFramed pumps one framed connection. A reader
// loop (this goroutine) admits up to maxInFlight commands, each executing
// as its own simulation actor so the device sees real queue depth; a
// writer goroutine serializes completions back to the wire in whatever
// order they finish. Completions hand off through a mutex-guarded queue
// whose critical sections never span I/O, so a completing actor only ever
// blocks for the length of an append — a slow or unreading TCP peer stalls
// the writer goroutine, never a simulation actor (a bounded channel here
// would fill while the writer is stuck in a send and freeze the shared
// virtual clock for every connection).
//
// The queue is bounded at the only safe point: admission. Past
// maxWriterQueue the READER stops accepting frames until the writer
// drains; completions of already-admitted commands still append
// unconditionally. respCond therefore has two classes of waiters (the
// writer waiting for work, the reader waiting for drain), so every wakeup
// is a Broadcast.
func serveFramed(b framedBackend, l *listener, conn net.Conn, r *bufio.Reader, w *bufio.Writer) {
	type resp struct {
		status  byte
		id      uint64
		payload []byte
	}
	var (
		respMu   sync.Mutex
		respCond = sync.NewCond(&respMu)
		respQ    []resp
		respEOF  bool
	)
	slots := make(chan struct{}, maxInFlight)
	var outstanding sync.WaitGroup
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		broken := false
		// spare is the drained batch's backing array, handed back to respQ
		// at the next swap: the two arrays ping-pong, so the steady state
		// appends completions into recycled memory instead of regrowing a
		// fresh slice per batch. Writer-local — only this goroutine touches
		// it.
		var spare []resp
		for {
			respMu.Lock()
			for len(respQ) == 0 && !respEOF {
				respCond.Wait()
			}
			if len(respQ) == 0 {
				respMu.Unlock()
				return
			}
			batch := respQ
			respQ = spare[:0]
			respCond.Broadcast() // a reader may be parked on the bound
			respMu.Unlock()
			l.writerQ.Add(int64(-len(batch)))
			if !broken {
				for _, rp := range batch {
					if err := writeFrame(w, rp.status, rp.id, rp.payload); err != nil {
						broken = true
						conn.Close() // kick the reader loose
						break
					}
				}
			}
			for i := range batch {
				batch[i] = resp{} // drop payload references before reuse
			}
			spare = batch[:0]
			if broken {
				continue // keep draining; completions are just discarded
			}
			// Flush only when no completion queued up behind us meanwhile:
			// adjacent completions share one syscall, the pipelining win.
			respMu.Lock()
			more := len(respQ) > 0
			respMu.Unlock()
			if !more {
				if err := w.Flush(); err != nil {
					broken = true
					conn.Close()
				}
			}
		}
	}()
	for {
		kind, id, bufp, err := readFrameReuse(r)
		if err != nil {
			break
		}
		respMu.Lock()
		for len(respQ) >= maxWriterQueue && !respEOF {
			l.warnBacklog(len(respQ))
			respCond.Wait()
		}
		respMu.Unlock()
		slots <- struct{}{}
		outstanding.Add(1)
		l.inFlight.Add(1)
		b.goExec(func() {
			defer outstanding.Done()
			status, pl := b.exec(kind, *bufp)
			// The request buffer is dead once exec returns: Put copies its
			// records into NVRAM staging before acknowledging, and no exec
			// path returns a response that aliases its request.
			recycleFrameBuf(bufp)
			respMu.Lock()
			respQ = append(respQ, resp{status, id, pl})
			respMu.Unlock()
			respCond.Broadcast()
			l.writerQ.Add(1)
			l.inFlight.Add(-1)
			<-slots
		})
	}
	// Disconnect: let in-flight commands finish (their writes are already
	// acknowledged device-side or will be; abandoning them mid-actor is not
	// an option), then retire the writer.
	outstanding.Wait()
	respMu.Lock()
	respEOF = true
	respMu.Unlock()
	respCond.Broadcast()
	<-writerDone
}

// exec decodes and executes one framed request. Runs on a simulation actor.
func (s *Server) exec(kind byte, payload []byte) (byte, []byte) {
	bad := func() (byte, []byte) { return stErr, []byte("bad frame") }
	switch kind {
	case reqGet:
		if len(payload) != 12 {
			return bad()
		}
		ns := binary.BigEndian.Uint32(payload[0:4])
		key := binary.BigEndian.Uint64(payload[4:12])
		val, err := s.dev.Get(ns, key)
		if errors.Is(err, kaml.ErrKeyNotFound) {
			return stNotFound, nil
		}
		if err != nil {
			return stErr, []byte(err.Error())
		}
		return stOK, val
	case reqPut:
		if len(payload) < 12 {
			return bad()
		}
		ns := binary.BigEndian.Uint32(payload[0:4])
		key := binary.BigEndian.Uint64(payload[4:12])
		if err := s.dev.Put(ns, key, payload[12:]); err != nil {
			return stErr, []byte(err.Error())
		}
		return stOK, nil
	case reqCreate:
		if len(payload) != 4 {
			return bad()
		}
		expected := int(binary.BigEndian.Uint32(payload))
		ns, err := s.dev.CreateNamespace(kaml.NamespaceOptions{ExpectedKeys: expected})
		if err != nil {
			return stErr, []byte(err.Error())
		}
		var out [4]byte
		binary.BigEndian.PutUint32(out[:], ns)
		return stOK, out[:]
	case reqDelete:
		if len(payload) != 4 {
			return bad()
		}
		if err := s.dev.DeleteNamespace(binary.BigEndian.Uint32(payload)); err != nil {
			return stErr, []byte(err.Error())
		}
		return stOK, nil
	case reqSnapshot:
		if len(payload) != 4 {
			return bad()
		}
		snap, err := s.dev.Snapshot(binary.BigEndian.Uint32(payload))
		if err != nil {
			return stErr, []byte(err.Error())
		}
		var out [4]byte
		binary.BigEndian.PutUint32(out[:], snap)
		return stOK, out[:]
	case reqStats:
		return stOK, []byte(statsLine(s.dev.Stats()))
	default:
		return stErr, []byte(fmt.Sprintf("unknown op %d", kind))
	}
}
