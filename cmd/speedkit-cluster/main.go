// Command speedkit-cluster runs an N-node Speed Kit coherence cluster in
// one process: every node is a full shard — counting-sketch server,
// InvaliDB matcher shard, TTL estimator, and its own WAL directory — on
// its own loopback listener, and a front endpoint serves the merged
// client sketch the whole deployment agrees on.
//
//	speedkit-cluster -addr :8090 -nodes 3 -data-dir /var/lib/speedkit-cluster
//
//	curl localhost:8090/v1/sketch            # merged Bloom filter (httpapi-compatible)
//	curl localhost:8090/v1/cluster/ring      # consistent-hash ring layout
//	curl localhost:8090/healthz
//	curl -X POST localhost:8090/v1/cluster/report -d '{"writes":["/product/p00042"]}'
//
// The merge layer pulls every node's delta frame over real loopback HTTP
// on the -sync period and only advances the served generation when every
// shard's frame is folded in — a partitioned or crashed node degrades the
// front to the saturated (revalidate-everything) filter instead of ever
// serving a merge missing that shard's writes. /v1/sketch is wire- and
// header-compatible with speedkit-server's, so clients and edge proxies
// point at the cluster front unchanged.
//
// This process deploys on shared infrastructure. It never sees a
// session, a consent record, or a user identifier, and the lint suite
// holds it to that:
//
//speedkit:deploy shared-infra
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"speedkit/internal/clock"
	"speedkit/internal/cluster"
	"speedkit/internal/slog"
)

func main() {
	addr := flag.String("addr", ":8090", "front listen address")
	nodeCount := flag.Int("nodes", 3, "cluster node count")
	seed := flag.Int64("seed", 1, "consistent-hash ring seed (identical across a deployment)")
	capacity := flag.Uint64("capacity", 10000, "per-shard sketch capacity")
	fpr := flag.Float64("fpr", 0.05, "sketch false-positive rate")
	delta := flag.Duration("delta", 60*time.Second, "staleness bound Δ (drives /v1/sketch cache lifetime)")
	syncPeriod := flag.Duration("sync", 2*time.Second, "delta-exchange period")
	maxFrameAge := flag.Duration("max-frame-age", 5*time.Second, "shard frame freshness bound before the merge degrades")
	dataDir := flag.String("data-dir", "", "base directory for per-node WALs (empty = memory-only nodes)")
	logLevel := flag.String("log-level", "info", "log level: debug|info|warn|error")
	flag.Parse()

	logger := slog.New(os.Stderr, clock.System, slog.ParseLevel(*logLevel))
	ctx := context.Background()

	if *nodeCount < 1 {
		logger.Error(ctx).Msg("-nodes must be >= 1")
		os.Exit(2)
	}

	// Build the nodes, each over its own WAL directory.
	nodes := make([]*cluster.Node, *nodeCount)
	for i := range nodes {
		dir := ""
		if *dataDir != "" {
			dir = filepath.Join(*dataDir, fmt.Sprintf("node-%d", i))
			if err := os.MkdirAll(dir, 0o755); err != nil {
				logger.Error(ctx).Err(err).Msg("node data dir")
				os.Exit(1)
			}
		}
		n, err := cluster.NewNode(cluster.NodeConfig{
			Member:         fmt.Sprintf("node-%d", i),
			Clock:          clock.System,
			SketchCapacity: *capacity,
			SketchFPR:      *fpr,
			DurableDir:     dir,
		})
		if err != nil {
			logger.Error(ctx).Err(err).Msg("node start failed")
			os.Exit(1)
		}
		nodes[i] = n
	}
	c, err := cluster.New(cluster.Config{
		Seed:              *seed,
		Clock:             clock.System,
		Capacity:          *capacity,
		FalsePositiveRate: *fpr,
		MaxFrameAge:       *maxFrameAge,
	}, nodes)
	if err != nil {
		logger.Error(ctx).Err(err).Msg("cluster start failed")
		os.Exit(1)
	}

	// Every node serves its /v1/cluster surface on a loopback listener,
	// and the merge layer pulls frames through Peers — the exchange
	// crosses real HTTP even in this single-process packaging.
	nodeSrvs := make([]*http.Server, 0, len(nodes))
	for _, n := range nodes {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			logger.Error(ctx).Err(err).Msg("node listen failed")
			os.Exit(1)
		}
		hs := &http.Server{Handler: cluster.NodeHandler(n, c.Ring())}
		go hs.Serve(ln) //nolint:errcheck // closed on shutdown; Serve's close error is expected
		nodeSrvs = append(nodeSrvs, hs)
		base := "http://" + ln.Addr().String()
		if err := c.UseDeltaSource(cluster.NewPeer(n.Name(), base, nil)); err != nil {
			logger.Error(ctx).Err(err).Msg("peer wiring failed")
			os.Exit(1)
		}
		logger.Info(ctx).Str("member", n.Name()).Str("url", base).Msg("node listening")
	}

	// Prime one exchange round so the front can leave the saturated
	// filter as soon as every shard has published.
	if err := c.SyncDeltas(); err != nil {
		logger.Warn(ctx).Err(err).Msg("initial delta exchange incomplete")
	}
	stopSync := make(chan struct{})
	go func() {
		for {
			clock.Sleep(clock.System, *syncPeriod)
			select {
			case <-stopSync:
				return
			default:
			}
			if err := c.SyncDeltas(); err != nil {
				logger.Warn(ctx).Err(err).Msg("delta exchange incomplete")
			}
		}
	}()

	logger.Info(ctx).
		Str("addr", *addr).
		Int("nodes", int64(*nodeCount)).
		Dur("sync", *syncPeriod).
		Msg("speedkit-cluster listening")

	front := &http.Server{Addr: *addr, Handler: cluster.FrontHandler(c, *delta)}
	errCh := make(chan error, 1)
	go func() { errCh <- front.ListenAndServe() }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errCh:
		logger.Error(ctx).Err(err).Msg("serve failed")
		os.Exit(1)
	case sig := <-sigCh:
		logger.Info(ctx).Str("signal", sig.String()).Msg("draining")
		close(stopSync)
		sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		_ = front.Shutdown(sctx)
		for _, hs := range nodeSrvs {
			_ = hs.Shutdown(sctx)
		}
		cancel()
		if err := c.Close(); err != nil {
			logger.Error(ctx).Err(err).Msg("cluster close failed")
			os.Exit(1)
		}
	}
}
