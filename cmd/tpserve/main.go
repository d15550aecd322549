// Command tpserve runs one process of a truly perfect sampling
// cluster: a node (sharded ingestion + checkpoints) or an aggregator
// (global merged queries over a fleet of nodes). See README.md
// "Running a cluster" for a full walkthrough and DESIGN.md §5 for the
// architecture.
//
// A node serves POST /ingest, GET /sample, GET /stats and
// GET /snapshot over a shard.Coordinator, checkpointing into -store on
// the -checkpoint interval. Ingest accepts JSON ({"items":[…]}) or the
// binary item frame (Content-Type application/x-tp-items —
// serve.Client.IngestBinary emits it), the fast path for high-rate
// producers. Concurrent ingest requests that arrive while the engine
// is busy ride one shared engine batch (group commit, DESIGN.md §8),
// while every 200 still means the request's items reached the engine.
// -full-every sets the delta cadence: every
// Nth checkpoint is a full v1 snapshot and the writes between are
// wire-v2 deltas against their predecessor (default 16; 1 = always
// full), so a slowly-churning node pays O(change) bytes per interval.
// On SIGINT/SIGTERM it stops accepting requests, drains, and writes a
// final (always full) checkpoint, so a graceful shutdown loses no
// acknowledged update; after a crash, restarting with the same -store
// resumes bit-for-bit from the last restorable checkpoint chain,
// printing any files it had to skip.
// On such a restart the checkpoint is authoritative: the snapshot
// records the full constructor spec, so the sampler flags (-sampler,
// -p, -n, -m, -delta, -seed, -shards, -queries) are ignored — the
// startup banner prints the restored configuration. To change a
// node's sampler, point it at an empty -store.
//
// An aggregator serves GET /sample, GET /samplek, GET /stats and
// GET /debug/vars: per query it revalidates every -nodes snapshot
// against its cache (304 for unchanged nodes, a folded v2 delta for
// churned ones) and answers with exactly the law one sampler would
// have had on the union of the node streams. When every node's state
// name is unchanged the query reuses the cached merge plan instead of
// re-running the merge (DESIGN.md §9), and concurrent queries share
// one in-flight fetch per node. -query-timeout bounds each query's
// whole fan-out (0 = none); the cache, transfer and plan counters
// serve on /debug/vars and print on shutdown.
//
// Both modes serve the observability surfaces (DESIGN.md §7):
// GET /metrics (Prometheus text exposition; -metrics=false turns node
// instrumentation off), GET /healthz (liveness) and GET /readyz
// (readiness — 503 while restoring or draining). Every request adopts
// or is assigned an X-Request-ID that the aggregator forwards into its
// node fetches; request lines log to stderr via log/slog (-log
// debug|info|off, default info: only 4xx/5xx). -debug mounts
// net/http/pprof under /debug/pprof/, and -csv FILE appends one
// flat row per node ingest request (stage timings, sizes, request ID).
//
// Two nodes and an aggregator on one machine:
//
//	tpserve -mode node -addr :8081 -sampler l2 -n 4096 -m 1000000 -seed 1 -store /tmp/nodeA &
//	tpserve -mode node -addr :8082 -sampler l2 -n 4096 -m 1000000 -seed 2 -store /tmp/nodeB &
//	tpserve -mode aggregator -addr :8080 -nodes http://localhost:8081,http://localhost:8082
//
//	curl -s -XPOST localhost:8081/ingest -d '{"items":[3,3,3,5]}'
//	curl -s localhost:8080/samplek?k=4
//
// Give every node a distinct -seed, and for nonlinear measures
// (anything except -sampler l1) partition items across nodes — the
// same rule sample/snap's Merge documents.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/sample"
	"repro/sample/serve"
	"repro/sample/shard"
)

func main() {
	var (
		mode      = flag.String("mode", "node", "node | aggregator")
		addr      = flag.String("addr", ":8080", "listen address")
		nodes     = flag.String("nodes", "", "aggregator: comma-separated node base URLs")
		name      = flag.String("sampler", "l1", "node: l1|l2|lp|l1l2|fair|huber|sqrt|log1p (coordinator kinds) or randorderl2|randorderlp|matrixl1|matrixl2|turnstilef0|multipasslp (single-stream kinds, served bare)")
		p         = flag.Float64("p", 1.5, "p for -sampler lp (integer ≥ 3 for randorderlp; > 0 for multipasslp)")
		tau       = flag.Float64("tau", 3, "τ for fair/huber (γ for multipasslp)")
		n         = flag.Int64("n", 1<<20, "universe size (lp family, turnstile/multipass) or matrix column count")
		w         = flag.Int64("w", 1024, "window length for the randorder kinds")
		capN      = flag.Int("cap", 64, "per-item frequency cap for randorderl2")
		m         = flag.Int64("m", 10_000_000, "planned total stream length")
		delta     = flag.Float64("delta", 0.1, "failure probability budget")
		seed      = flag.Uint64("seed", 1, "coordinator seed (distinct per node)")
		shardsN   = flag.Int("shards", 0, "worker shards per node (0 = per-CPU default)")
		queries   = flag.Int("queries", 16, "provisioned independent query groups")
		store     = flag.String("store", "", "node: checkpoint directory (empty = no checkpoints)")
		every     = flag.Duration("checkpoint", 30*time.Second, "node: checkpoint interval (needs -store)")
		fullEvery = flag.Int("full-every", 0, "node: full-snapshot cadence — every Nth checkpoint is a full v1 snapshot, the rest v2 deltas (0 = default 16, 1 = always full)")
		metrics   = flag.Bool("metrics", true, "node: instrument hot paths and serve them on GET /metrics (false leaves only the health surfaces)")
		queryTO   = flag.Duration("query-timeout", 0, "aggregator: deadline on each query's node fan-out, including waits on shared in-flight fetches (0 = none)")
		debug     = flag.Bool("debug", false, "mount net/http/pprof under /debug/pprof/")
		logLevel  = flag.String("log", "info", "request logging to stderr: debug (every request) | info (4xx/5xx only) | off")
		csvPath   = flag.String("csv", "", "node: append one CSV row per ingest request to this file")
	)
	flag.Parse()

	logger, err := buildLogger(*logLevel)
	if err == nil {
		switch *mode {
		case "node":
			err = runNode(nodeOpts{
				addr: *addr, name: *name, p: *p, tau: *tau, n: *n, m: *m, w: *w, capN: *capN,
				delta: *delta, seed: *seed, shards: *shardsN, queries: *queries,
				storeDir: *store, every: *every, fullEvery: *fullEvery,
				metrics: *metrics, debug: *debug, logger: logger, csvPath: *csvPath,
			})
		case "aggregator":
			err = runAggregator(*addr, *nodes, *seed, *queryTO, *debug, logger)
		default:
			err = fmt.Errorf("unknown -mode %q (want node or aggregator)", *mode)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tpserve:", err)
		os.Exit(1)
	}
}

// buildLogger maps -log onto the slog logger the serving layer's
// tracing middleware writes request lines to. The middleware levels
// lines by status (2xx/3xx at Debug, 4xx at Warn, 5xx at Error), so
// "info" means only problems reach stderr.
func buildLogger(level string) (*slog.Logger, error) {
	var lvl slog.Level
	switch level {
	case "off":
		return nil, nil
	case "debug":
		lvl = slog.LevelDebug
	case "info":
		lvl = slog.LevelInfo
	default:
		return nil, fmt.Errorf("unknown -log %q (want debug, info or off)", level)
	}
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl})), nil
}

// nodeOpts carries runNode's flag values (too many for a positional
// signature).
type nodeOpts struct {
	addr, name      string
	p, tau          float64
	n, m, w         int64
	capN            int
	delta           float64
	seed            uint64
	shards, queries int
	storeDir        string
	every           time.Duration
	fullEvery       int
	metrics, debug  bool
	logger          *slog.Logger
	csvPath         string
}

func runNode(o nodeOpts) error {
	addr, name := o.addr, o.name
	p, tau, n, m, w, capN := o.p, o.tau, o.n, o.m, o.w, o.capN
	delta, seed := o.delta, o.seed
	cfg := shard.Config{Shards: o.shards, Queries: o.queries}
	nodeCfg := serve.NodeConfig{
		FullEvery:            o.fullEvery,
		Debug:                o.debug,
		Logger:               o.logger,
		DisableObservability: !o.metrics,
	}
	if o.csvPath != "" {
		f, err := os.OpenFile(o.csvPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("open -csv file: %w", err)
		}
		defer f.Close()
		nodeCfg.CSV = obs.NewCSVRecorder(f, serve.IngestCSVColumns...)
	}
	if o.storeDir != "" {
		st, err := serve.NewDirStore(o.storeDir)
		if err != nil {
			return err
		}
		nodeCfg.Store = st
		nodeCfg.CheckpointEvery = o.every
	}

	var node *serve.Node
	if nodeCfg.Store != nil {
		restored, skipped, err := serve.Restore(nodeCfg.Store, nodeCfg)
		switch {
		case err == nil:
			node = restored
			// A skipped file is not fatal — the node restored past it —
			// but an operator must be able to tell a torn tail (the
			// documented ≤-one-interval loss) from a corrupt store.
			for _, sk := range skipped {
				fmt.Printf("tpserve: skipped checkpoint %s: %v\n", sk.Name, sk.Err)
			}
			fmt.Printf("tpserve: restored %s from store (stream length %d; checkpoint is authoritative, sampler flags ignored)\n",
				node.Describe(), node.StreamLen())
		case errors.Is(err, os.ErrNotExist):
			// Fresh store: build from the flags below.
		default:
			return err
		}
	}
	if node == nil {
		if s, ok, err := buildSampler(name, p, tau, n, m, w, capN, delta, seed); err != nil {
			return err
		} else if ok {
			node = serve.NewSamplerNode(s, nodeCfg)
			fmt.Printf("tpserve: serving %s on %s (bare sampler node)\n", node.Describe(), addr)
		} else {
			coord, err := buildCoordinator(name, p, tau, n, m, delta, seed, cfg)
			if err != nil {
				return err
			}
			node = serve.NewNode(coord, nodeCfg)
			fmt.Printf("tpserve: serving %s on %s (%d shards, %d query groups)\n",
				coord.Describe(), addr, coord.Shards(), coord.Queries())
		}
	}
	return serveUntilSignal(addr, node.Handler(), func() error {
		// Stop accepting, drain, final checkpoint: lossless shutdown.
		return node.Close()
	})
}

// buildSampler recognizes the single-stream kinds served as bare
// sampler nodes (serve.NewSamplerNode); ok is false for the
// coordinator kinds. Matrix and turnstile items arrive packed (see
// sample.PackMatrixItem / sample.PackTurnstileItem); a batch carrying
// a hostile packed item answers 400, never crashes the node.
func buildSampler(name string, p, tau float64, n, m, w int64, capN int,
	delta float64, seed uint64) (sample.Sampler, bool, error) {
	switch name {
	case "randorderl2":
		return sample.NewRandomOrderL2(w, capN, seed), true, nil
	case "randorderlp":
		return sample.NewRandomOrderLp(int(p), w, seed), true, nil
	case "matrixl1":
		return sample.NewMatrixRowsL1(int(n), m, delta, seed).Stream(), true, nil
	case "matrixl2":
		return sample.NewMatrixRowsL2(int(n), m, delta, seed).Stream(), true, nil
	case "turnstilef0":
		return sample.NewTurnstileF0(n, delta, seed).Stream(), true, nil
	case "multipasslp":
		return sample.NewMultipassLp(p, tau, delta, seed).Stream(n), true, nil
	}
	return nil, false, nil
}

func buildCoordinator(name string, p, tau float64, n, m int64, delta float64,
	seed uint64, cfg shard.Config) (*shard.Coordinator, error) {
	switch name {
	case "l1":
		return shard.NewL1(delta, seed, cfg), nil
	case "l2":
		return shard.NewLp(2, n, m, delta, seed, cfg), nil
	case "lp":
		return shard.NewLp(p, n, m, delta, seed, cfg), nil
	case "l1l2":
		return shard.New(sample.MeasureL1L2(), m, delta, seed, cfg), nil
	case "fair":
		return shard.New(sample.MeasureFair(tau), m, delta, seed, cfg), nil
	case "huber":
		return shard.New(sample.MeasureHuber(tau), m, delta, seed, cfg), nil
	case "sqrt":
		return shard.New(sample.MeasureSqrt(), m, delta, seed, cfg), nil
	case "log1p":
		return shard.New(sample.MeasureLog1p(), m, delta, seed, cfg), nil
	}
	return nil, fmt.Errorf("unknown -sampler %q", name)
}

func runAggregator(addr, nodes string, seed uint64, queryTimeout time.Duration, debug bool, logger *slog.Logger) error {
	if nodes == "" {
		return errors.New("aggregator needs -nodes url,url,…")
	}
	var urls []string
	for _, u := range strings.Split(nodes, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	agg := serve.NewAggregatorConfig(seed, serve.AggregatorConfig{QueryTimeout: queryTimeout}, urls...)
	agg.SetHTTPClient(&http.Client{Timeout: 30 * time.Second})
	agg.SetLogger(logger)
	h := agg.Handler()
	if debug {
		// The aggregator handler owns every route except the profiler, so
		// pprof mounts on an outer mux (the node mounts its own under
		// NodeConfig.Debug).
		mux := http.NewServeMux()
		mux.Handle("/", h)
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
		h = mux
	}
	fmt.Printf("tpserve: aggregating %d nodes on %s\n", len(urls), addr)
	return serveUntilSignal(addr, h, func() error {
		// The shutdown summary an operator greps after a drain: how much
		// the snapshot cache and the delta path saved this process
		// (live values serve on GET /debug/vars).
		c := agg.Counters()
		fmt.Printf("tpserve: aggregator counters: cache_hits=%d delta_fetches=%d full_fetches=%d bytes_fetched=%d plan_hits=%d plan_rebuilds=%d\n",
			c.CacheHits, c.DeltaFetches, c.FullFetches, c.BytesFetched, c.PlanHits, c.PlanRebuilds)
		return nil
	})
}

// serveUntilSignal runs an HTTP server until SIGINT/SIGTERM, then
// shuts it down gracefully — in-flight requests finish (so every
// acknowledged ingest is inside the node when cleanup cuts the final
// checkpoint) — and runs cleanup.
func serveUntilSignal(addr string, h http.Handler, cleanup func() error) error {
	// ReadHeaderTimeout keeps half-open connections from pinning server
	// goroutines; body reads are bounded by the node's MaxBodyBytes and
	// happen outside its shutdown-critical lock.
	srv := &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: 10 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		_ = cleanup()
		return err
	case s := <-sig:
		fmt.Printf("tpserve: %v — draining\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		return cleanup()
	}
}
