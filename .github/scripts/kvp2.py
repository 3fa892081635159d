#!/usr/bin/env python3
"""A minimal KVP2 client for the kamlsrv smokes in CI.

    kvp2.py roundtrip PORT...   Put then Get one key. With several ports
                                (cluster nodes) a MOVED reply means "try the
                                next node".
    kvp2.py workload PORT N     Create a namespace, pipeline N Puts, then N
                                Gets, and check every reply.

The wire format is internal/kvproto/framed.go's: the line "KVP2\\n", the
server's "OK KVP2..." greeting, then big-endian frames both ways,
u32 length | u8 op or status | u64 request ID | payload, where length counts
op, ID and payload. Replies to pipelined requests may come in any order.
"""
import socket
import struct
import sys

GET, PUT, CREATE = 1, 2, 3
OK, MOVED = 0, 3


class Conn:
    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=5)
        self.f = self.sock.makefile("rwb")
        self.f.write(b"KVP2\n")
        self.f.flush()
        greeting = self.f.readline()
        assert greeting.startswith(b"OK KVP2"), greeting
        self.next_id = 0

    def send(self, op, payload):
        """Queue one request frame and return its ID."""
        self.next_id += 1
        self.f.write(struct.pack(">IBQ", 9 + len(payload), op, self.next_id) + payload)
        return self.next_id

    def drain(self, ids):
        """Flush, then return the (status, payload) replies to ids, in order."""
        self.f.flush()
        replies = {}
        while len(replies) < len(ids):
            n, status, rid = struct.unpack(">IBQ", self.f.read(13))
            replies[rid] = (status, self.f.read(n - 9))
        assert sorted(replies) == sorted(ids), (sorted(replies), ids)
        return [replies[i] for i in ids]

    def call(self, op, payload):
        return self.drain([self.send(op, payload)])[0]

    def create(self, expected_keys):
        status, body = self.call(CREATE, struct.pack(">I", expected_keys))
        assert status == OK, (status, body)
        return struct.unpack(">I", body)[0]

    def close(self):
        self.f.close()
        self.sock.close()


def roundtrip(ports):
    for port in ports:
        c = Conn(port)
        ns = c.create(1000) if len(ports) == 1 else 0  # a cluster's keyspace is flat
        key = struct.pack(">IQ", ns, 42)
        status, body = c.call(PUT, key + b"hello")
        if status == MOVED:  # another node's shard
            c.close()
            continue
        assert status == OK, (status, body)
        assert c.call(GET, key) == (OK, b"hello")
        c.close()
        print("round trip ok on", port)
        return
    sys.exit(f"no node of {ports} served key 42")


def workload(port, n):
    c = Conn(port)
    ns = c.create(1000)
    keys = [struct.pack(">IQ", ns, k) for k in range(1, n + 1)]
    # Drain the Put acks before sending the Gets: pipelined requests on one
    # connection run concurrently, so a Get sent behind its Put may miss it.
    for reply in c.drain([c.send(PUT, k + b"hello") for k in keys]):
        assert reply == (OK, b""), reply
    for reply in c.drain([c.send(GET, k) for k in keys]):
        assert reply == (OK, b"hello"), reply
    c.close()
    print(f"workload ok on {port}: 1 create, {n} puts, {n} gets")


if __name__ == "__main__":
    cmd, args = sys.argv[1], [int(a) for a in sys.argv[2:]]
    if cmd == "roundtrip":
        roundtrip(args)
    elif cmd == "workload":
        workload(*args)
    else:
        sys.exit(f"unknown command {cmd!r}")
