// Command alserve hosts concurrent Active Learning campaigns over HTTP.
//
// A campaign is one online AL realization (an al.Session). In dataset mode the server
// measures points itself against a registered dataset generator; in
// client mode the server publishes suggestions and the client POSTs the
// measured responses, so a lab harness (or a person at a terminal) can
// be the oracle. Every model update is checkpointed to -checkpoint-dir
// as a spec-plus-journal JSON file; a killed server replays the journals
// on restart and resumes every campaign byte-identically (DESIGN.md §9).
//
// Quickstart:
//
//	alserve -addr localhost:8080 -checkpoint-dir /tmp/alserve &
//
//	# create a dataset-backed campaign on the synthetic 1-D benchmark
//	curl -s -X POST localhost:8080/campaigns -d '{
//	  "name": "demo", "source": "dataset",
//	  "dataset": {"name": "synthetic", "n": 40, "noise": 0.1},
//	  "strategy": "variance-reduction", "iterations": 10, "seed": 7}'
//
//	curl -s localhost:8080/campaigns/c0001          # status + trace
//	curl -s localhost:8080/healthz
//	curl -s localhost:8080/metrics                  # obs JSONL snapshot
//
// Client-oracle campaigns instead poll GET /campaigns/{id}/suggest and
// answer with POST /campaigns/{id}/observe; see README.md for a full
// session. The "performance" dataset (the paper's §V-B study subset:
// operator poisson1, NP = 32, log10 size × frequency → log10 runtime)
// is registered at startup next to the built-in "synthetic" generator.
//
// SIGINT/SIGTERM drain in-flight requests, stop every campaign,
// flush final checkpoints, and dump obs metrics to the -metrics sink.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro"
	"repro/internal/al"
	"repro/internal/dataset"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/ring"
	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", "localhost:8080", "HTTP listen address")
	replicas := flag.Int("replicas", 1, "cluster mode: boot this many replica nodes behind a consistent-hash router on -addr (1 = classic single node)")
	ckptDir := flag.String("checkpoint-dir", "", "directory for per-campaign checkpoints (empty = no persistence; cluster mode uses one subdirectory per replica)")
	replication := flag.Int("replication", 2, "cluster mode: journal copies per campaign, owner included (clamped to -replicas)")
	autofailover := flag.Bool("autofailover", false, "cluster mode: heartbeat every node and fail over / fence / rejoin autonomously")
	heartbeatInterval := flag.Duration("heartbeat-interval", 500*time.Millisecond, "cluster mode: failure-detector heartbeat period (with -autofailover)")
	cacheSize := flag.Int("cache", 4096, "prediction LRU capacity in points")
	scoreWorkers := flag.Int("score-workers", 0, "workers per scoring call (0 = all cores)")
	maxScores := flag.Int("max-scores", 0, "concurrent scoring operations across all campaigns (0 = GOMAXPROCS)")
	parallel := flag.Bool("parallel", true, "score candidates on all cores inside campaigns")
	metrics := flag.String("metrics", "", "write obs spans/events/metrics to this JSONL file")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	shutdownTimeout := flag.Duration("shutdown-timeout", 10*time.Second, "graceful drain deadline on SIGINT/SIGTERM")

	// Resilience knobs (DESIGN.md §10).
	routeTimeout := flag.Duration("route-timeout", 30*time.Second, "per-request context deadline")
	maxBody := flag.Int64("max-body-bytes", 1<<20, "request body cap (HTTP 413 beyond it)")
	maxInFlight := flag.Int("max-inflight", 0, "admission bound on concurrently handled requests (0 = unlimited)")
	maxQueue := flag.Int("max-queue", 0, "admission wait-queue length before shedding with 429 (0 = 2x max-inflight)")
	readTimeout := flag.Duration("read-timeout", 30*time.Second, "http.Server ReadTimeout")
	readHeaderTimeout := flag.Duration("read-header-timeout", 5*time.Second, "http.Server ReadHeaderTimeout (Slowloris guard)")
	writeTimeout := flag.Duration("write-timeout", 30*time.Second, "http.Server WriteTimeout")
	idleTimeout := flag.Duration("idle-timeout", 2*time.Minute, "http.Server IdleTimeout for keep-alive connections")
	maxHeaderBytes := flag.Int("max-header-bytes", 1<<20, "http.Server MaxHeaderBytes")
	breakerCooldown := flag.Duration("breaker-cooldown", time.Second, "circuit breaker open-state cooldown before probing")

	// Drive (client) mode: act as the measurement client of a running
	// server, through the retrying resilience transport.
	driveURL := flag.String("drive", "", "client mode: drive a campaign against this server URL instead of serving")
	driveSpec := flag.String("drive-spec", "", "client mode: JSON CampaignSpec file (default: built-in demo campaign)")
	driveAttempts := flag.Int("drive-attempts", 6, "client mode: retry budget per request")
	driveBackoffBase := flag.Duration("drive-backoff-base", 100*time.Millisecond, "client mode: first retry backoff ceiling")
	driveBackoffCap := flag.Duration("drive-backoff-cap", 5*time.Second, "client mode: retry backoff cap")
	driveSeed := flag.Int64("drive-seed", 1, "client mode: campaign + jitter seed")

	// Chaos knobs — deterministic fault injection for drills and the
	// chaos suite; all default off.
	chaosSeed := flag.Int64("chaos-seed", 1, "seed for all chaos fault decisions")
	chaosTornRate := flag.Float64("chaos-torn-write-rate", 0, "probability a journal append is torn mid-write")
	chaosLatencyRate := flag.Float64("chaos-latency-rate", 0, "probability of an injected latency spike per connection op")
	chaosLatency := flag.Duration("chaos-latency", 10*time.Millisecond, "maximum injected latency spike")
	chaosResetRate := flag.Float64("chaos-reset-rate", 0, "probability a connection op is reset")
	chaosPartialRate := flag.Float64("chaos-partial-write-rate", 0, "probability a connection write is delivered partially then reset")
	flag.Parse()

	if *driveURL != "" {
		err := runClient(clientConfig{
			baseURL:  *driveURL,
			specPath: *driveSpec,
			attempts: *driveAttempts,
			base:     *driveBackoffBase,
			cap:      *driveBackoffCap,
			seed:     *driveSeed,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "alserve:", err)
			os.Exit(1)
		}
		return
	}

	if !*parallel {
		al.SetDefaultScoreWorkers(1)
	}
	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "alserve: pprof:", err)
			}
		}()
		fmt.Printf("pprof: http://%s/debug/pprof/\n", *pprofAddr)
	}
	var sinkFile *os.File
	if *metrics != "" {
		f, err := os.Create(*metrics)
		if err != nil {
			fmt.Fprintln(os.Stderr, "alserve:", err)
			os.Exit(1)
		}
		sinkFile = f
		obs.SetSink(f)
	}
	if *ckptDir != "" {
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "alserve:", err)
			os.Exit(1)
		}
	}

	serve.RegisterDataset("performance", performanceDataset)

	if *replicas > 1 {
		exit := runCluster(clusterFlags{
			addr:     *addr,
			replicas: *replicas,
			ckptDir:  *ckptDir,
			serveCfg: serve.Config{
				CacheSize:           *cacheSize,
				ScoreWorkers:        *scoreWorkers,
				MaxConcurrentScores: *maxScores,
				ScoreBreaker:        resilience.BreakerConfig{Cooldown: *breakerCooldown},
				JournalBreaker:      resilience.BreakerConfig{Cooldown: *breakerCooldown},
				TornWrites:          faults.TornWriteConfig{Seed: *chaosSeed, Rate: *chaosTornRate},
			},
			serverCfg: serve.ServerConfig{
				RouteTimeout: *routeTimeout,
				MaxBodyBytes: *maxBody,
				Admission: resilience.AdmissionConfig{
					MaxInFlight: *maxInFlight,
					MaxQueue:    *maxQueue,
				},
			},
			breakerCooldown:   *breakerCooldown,
			replication:       *replication,
			autofailover:      *autofailover,
			heartbeatInterval: *heartbeatInterval,
		})
		if sinkFile != nil {
			obs.DumpMetrics()
			obs.SetSink(nil)
			sinkFile.Sync()
			sinkFile.Close()
			fmt.Fprintf(os.Stderr, "alserve: metrics flushed to %s\n", *metrics)
		}
		os.Exit(exit)
	}

	mgr := serve.NewManager(serve.Config{
		CheckpointDir:       *ckptDir,
		CacheSize:           *cacheSize,
		ScoreWorkers:        *scoreWorkers,
		MaxConcurrentScores: *maxScores,
		ScoreBreaker:        resilience.BreakerConfig{Cooldown: *breakerCooldown},
		JournalBreaker:      resilience.BreakerConfig{Cooldown: *breakerCooldown},
		TornWrites:          faults.TornWriteConfig{Seed: *chaosSeed, Rate: *chaosTornRate},
	})
	if n, err := mgr.ResumeAll(); err != nil {
		fmt.Fprintln(os.Stderr, "alserve: resume:", err)
		os.Exit(1)
	} else if n > 0 {
		fmt.Printf("alserve: resumed %d campaign(s) from %s\n", n, *ckptDir)
	}

	handler := serve.NewServerWith(mgr, serve.ServerConfig{
		RouteTimeout: *routeTimeout,
		MaxBodyBytes: *maxBody,
		Admission: resilience.AdmissionConfig{
			MaxInFlight: *maxInFlight,
			MaxQueue:    *maxQueue,
		},
	})
	// Full server-side timeout set: a stalled or malicious peer cannot
	// hold a connection (and its goroutine) open indefinitely.
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadTimeout:       *readTimeout,
		ReadHeaderTimeout: *readHeaderTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
		MaxHeaderBytes:    *maxHeaderBytes,
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "alserve:", err)
		os.Exit(1)
	}
	if *chaosLatencyRate > 0 || *chaosResetRate > 0 || *chaosPartialRate > 0 {
		ln = faults.WrapListener(ln, faults.NewNet(faults.NetworkConfig{
			Seed:             *chaosSeed,
			LatencyRate:      *chaosLatencyRate,
			Latency:          *chaosLatency,
			ResetRate:        *chaosResetRate,
			PartialWriteRate: *chaosPartialRate,
		}))
		fmt.Fprintln(os.Stderr, "alserve: CHAOS listener active (latency/reset/partial-write injection)")
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	fmt.Printf("alserve: listening on http://%s (datasets: %v)\n", *addr, serve.DatasetNames())

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)

	exit := 0
	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "alserve:", err)
		exit = 1
	case s := <-sigc:
		fmt.Fprintf(os.Stderr, "alserve: caught %v, draining\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "alserve: http shutdown:", err)
			exit = 1
		}
		if err := mgr.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "alserve:", err)
			exit = 1
		}
		cancel()
	}
	if sinkFile != nil {
		obs.DumpMetrics()
		obs.SetSink(nil)
		sinkFile.Sync()
		sinkFile.Close()
		fmt.Fprintf(os.Stderr, "alserve: metrics flushed to %s\n", *metrics)
	}
	os.Exit(exit)
}

// clusterFlags carries the parsed flags into cluster mode.
type clusterFlags struct {
	addr              string
	replicas          int
	replication       int
	autofailover      bool
	heartbeatInterval time.Duration
	ckptDir           string
	serveCfg          serve.Config
	serverCfg         serve.ServerConfig
	breakerCooldown   time.Duration
}

// runCluster boots an in-process replica fleet behind the
// consistent-hash router (internal/ring) and serves it on -addr until
// SIGINT/SIGTERM. Each replica journals under its own
// -checkpoint-dir subdirectory and ships every record to its
// -replication-1 followers, so killing any single node loses no
// acknowledged observation. With -autofailover the router also
// heartbeats every node and recovers from failures on its own:
// condemned nodes are failed over and fenced, healed ones rejoin at a
// new epoch.
func runCluster(cf clusterFlags) int {
	// Mirror StartCluster's clamps so the banner reports what actually runs.
	if cf.replication < 2 {
		cf.replication = 2
	}
	if cf.replication > cf.replicas {
		cf.replication = cf.replicas
	}
	var det *ring.DetectorConfig
	if cf.autofailover {
		det = &ring.DetectorConfig{Interval: cf.heartbeatInterval}
	}
	cl, err := ring.StartCluster(ring.ClusterConfig{
		Replicas:    cf.replicas,
		Replication: cf.replication,
		Detector:    det,
		RouterAddr:  cf.addr,
		Dir:         cf.ckptDir,
		Serve:       cf.serveCfg,
		Server:      cf.serverCfg,
		Router: ring.RouterConfig{
			Breaker: resilience.BreakerConfig{Cooldown: cf.breakerCooldown},
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "alserve: cluster:", err)
		return 1
	}
	mode := "operator-driven failover"
	if cf.autofailover {
		mode = fmt.Sprintf("autonomous failover, heartbeat %v", cf.heartbeatInterval)
	}
	fmt.Printf("alserve: %d-replica cluster behind %s, replication %d, %s (datasets: %v)\n",
		cf.replicas, cl.URL(), cf.replication, mode, serve.DatasetNames())
	for _, id := range cl.NodeIDs() {
		fmt.Printf("alserve:   node %s at %s\n", id, cl.NodeURL(id))
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	s := <-sigc
	fmt.Fprintf(os.Stderr, "alserve: caught %v, draining cluster\n", s)
	if err := cl.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "alserve: cluster shutdown:", err)
		return 1
	}
	return 0
}

// performanceDataset regenerates the paper's §V-B study subset
// (deterministic in the seed, so checkpoint resume rebuilds the exact
// same candidate grid). The spec's N and Noise fields are ignored — the
// simulated cluster fixes both.
func performanceDataset(spec serve.DatasetSpec) (*dataset.Dataset, string, error) {
	d, err := repro.GeneratePerformanceDataset(spec.Seed)
	if err != nil {
		return nil, "", err
	}
	sub, err := repro.StudySubset2D(d)
	if err != nil {
		return nil, "", err
	}
	return sub, dataset.RespRuntime, nil
}
