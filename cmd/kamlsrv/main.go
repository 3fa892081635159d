// Command kamlsrv exposes a simulated KAML SSD as a networked key-value
// store speaking kvproto's one protocol, KVP2: a connection opens with the
// line "KVP2", and then carries pipelined binary frames (the frame format
// is in internal/kvproto/framed.go). Connect with kvproto.Dial; a
// connection that opens with anything else is closed unanswered.
//
//	kamlsrv -addr 127.0.0.1:7040
//
// With -cluster, kamlsrv instead serves a sharded, replicated cluster of
// simulated devices (see internal/cluster): node i listens on the -addr
// port plus i, every node's greeting carries the topology epoch, and a
// request landing on the wrong node answers MOVED with the current
// primary. Dial the whole node set with kvproto.DialCluster.
//
//	kamlsrv -cluster -nodes 4 -shards 8 -replication 2 -admin :9090
package main

import (
	"context"
	"encoding/json"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	kaml "github.com/kaml-ssd/kaml"
	"github.com/kaml-ssd/kaml/internal/admin"
	"github.com/kaml-ssd/kaml/internal/cluster"
	"github.com/kaml-ssd/kaml/internal/kvproto"
	"github.com/kaml-ssd/kaml/internal/record"
	"github.com/kaml-ssd/kaml/internal/telemetry"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7040", "listen address (cluster mode: node i listens on this port + i)")
	adminAddr := flag.String("admin", "", "optional admin listen address serving /metrics, /statusz and /debug/pprof (e.g. :9090)")
	small := flag.Bool("small", false, "use the scaled-down device geometry")
	clusterMode := flag.Bool("cluster", false, "serve a sharded replicated cluster instead of a single device")
	nodes := flag.Int("nodes", 4, "cluster mode: device count")
	shards := flag.Int("shards", 8, "cluster mode: hash-partition count")
	replication := flag.Int("replication", 2, "cluster mode: replicas per shard")
	hedge := flag.Bool("hedge", true, "cluster mode: hedge straggling reads against a second replica")
	flag.Parse()

	if *clusterMode {
		serveCluster(*addr, *adminAddr, *nodes, *shards, *replication, *hedge)
		return
	}

	opts := kaml.DefaultOptions()
	if *small {
		opts = kaml.SmallOptions()
	}
	dev, err := kaml.Open(opts)
	if err != nil {
		log.Fatalf("open device: %v", err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	srv := kvproto.NewServer(dev)

	// Optional admin endpoint. It reads only atomic telemetry snapshots,
	// so scraping is safe while the simulation runs.
	var adminSrv *http.Server
	if *adminAddr != "" {
		aln, err := net.Listen("tcp", *adminAddr)
		if err != nil {
			log.Fatalf("admin listen: %v", err)
		}
		adminSrv = &http.Server{Handler: admin.Handler(dev)}
		go func() {
			if err := adminSrv.Serve(aln); err != nil && err != http.ErrServerClosed {
				log.Printf("admin serve: %v", err)
			}
		}()
		log.Printf("admin endpoint on http://%s (/metrics, /statusz, /debug/pprof)", aln.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		log.Printf("received %v, shutting down", s)
		if adminSrv != nil {
			// Let an in-progress scrape finish, then stop answering.
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			if err := adminSrv.Shutdown(ctx); err != nil {
				log.Printf("admin shutdown: %v", err)
			}
			cancel()
		}
		srv.Close()
	}()

	log.Printf("KAML key-value server on %s (device: %d channels x %d chips, %d logs)",
		ln.Addr(), opts.Flash.Channels, opts.Flash.ChipsPerChannel, opts.Firmware.NumLogs)
	if err := srv.Serve(ln); err != nil {
		log.Fatalf("serve: %v", err)
	}

	// Final device counters, for post-mortems on what the run did.
	st := dev.Stats()
	// Mean page fill: chunks holding records over chunks per page, across
	// every page that left NVRAM (zero pages, or telemetry off, prints 0).
	fill := dev.Telemetry().Histogram("kaml_ssd_sealed_page_chunks", telemetry.UnitNone).Snapshot()
	meanFill := fill.Mean() / float64(opts.Flash.PageSize/record.DefaultChunkSize)
	// The stall GC causes: how long the flushers waited for their log's
	// collector to return an erased block (virtual time; 0s if none did).
	blockWait := dev.Telemetry().Histogram("kaml_ssd_free_block_wait_seconds", telemetry.UnitSeconds).Snapshot()
	log.Printf("final stats: gets=%d puts=%d put_records=%d programs=%d gc_erases=%d nvram_hits=%d program_retries=%d blocks_retired=%d pages_sealed=%d mean_page_fill=%.2f free_block_wait_p99=%v",
		st.Gets, st.Puts, st.PutRecords, st.Programs, st.GCErases, st.NVRAMHits, st.ProgramRetries, st.BlocksRetired, fill.N, meanFill,
		time.Duration(blockWait.Quantile(0.99)))
	log.Printf("pipeline stats: submitted=%d completed=%d coalesced_puts=%d coalescer_batches=%d coalescer_records=%d max_queue=%d mean_queue=%.2f",
		st.PipelineSubmitted, st.PipelineCompleted, st.CoalescedPuts, st.CoalescerBatches, st.CoalescerRecords, st.PipelineMaxQueue, st.PipelineMeanQueue)
	if reg := dev.Telemetry(); reg != nil {
		if b, err := json.Marshal(reg.Snapshot()); err == nil {
			log.Printf("final telemetry snapshot: %s", b)
		}
	}
}

// serveCluster runs the -cluster mode: one simulated device per node on a
// shared virtual clock, one framed KVP2 listener per node on sequential
// ports, and (optionally) one admin endpoint for the whole cluster.
func serveCluster(addr, adminAddr string, nodes, shards, replication int, hedge bool) {
	cfg := cluster.DefaultConfig()
	cfg.Nodes, cfg.Shards, cfg.ReplicationFactor = nodes, shards, replication
	cfg.Hedge.Enabled = hedge
	cl, err := cluster.New(cfg)
	if err != nil {
		log.Fatalf("cluster: %v", err)
	}

	host, portStr, err := net.SplitHostPort(addr)
	if err != nil {
		log.Fatalf("bad -addr %q: %v", addr, err)
	}
	basePort, err := strconv.Atoi(portStr)
	if err != nil {
		log.Fatalf("bad -addr port %q: %v", portStr, err)
	}

	srvs := make([]*kvproto.ClusterServer, nodes)
	addrs := make([]string, nodes)
	for node := 0; node < nodes; node++ {
		nodeAddr := net.JoinHostPort(host, strconv.Itoa(basePort+node))
		ln, err := net.Listen("tcp", nodeAddr)
		if err != nil {
			log.Fatalf("listen node %d: %v", node, err)
		}
		addrs[node] = ln.Addr().String()
		srv := kvproto.NewClusterServer(cl, node)
		srvs[node] = srv
		go func(node int) {
			if err := srv.Serve(ln); err != nil {
				log.Fatalf("serve node %d: %v", node, err)
			}
		}(node)
	}

	var adminSrv *http.Server
	if adminAddr != "" {
		aln, err := net.Listen("tcp", adminAddr)
		if err != nil {
			log.Fatalf("admin listen: %v", err)
		}
		adminSrv = &http.Server{Handler: admin.ClusterHandler(cl)}
		go func() {
			if err := adminSrv.Serve(aln); err != nil && err != http.ErrServerClosed {
				log.Printf("admin serve: %v", err)
			}
		}()
		log.Printf("cluster admin endpoint on http://%s (/metrics, /statusz, /debug/pprof)", aln.Addr())
	}

	log.Printf("KAML cluster on %v (%d nodes, %d shards, RF-%d, hedged reads %v, epoch %d)",
		addrs, nodes, shards, replication, hedge, cl.Epoch())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	log.Printf("received %v, shutting down", s)
	if adminSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		if err := adminSrv.Shutdown(ctx); err != nil {
			log.Printf("admin shutdown: %v", err)
		}
		cancel()
	}
	for _, srv := range srvs {
		srv.Close()
	}
	// Closing the devices must happen from a simulation actor; Wait then
	// joins every actor before we read the final status.
	done := make(chan struct{})
	cl.Go(func() { defer close(done); cl.Close() })
	<-done
	cl.Wait()

	if b, err := json.Marshal(cl.Status()); err == nil {
		log.Printf("final cluster status: %s", b)
	}
}
