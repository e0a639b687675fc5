// Command eventhitcluster runs the horizontal cluster tier: a front that
// consistent-hashes sessions onto N serve workers, a coordinator that
// leases the global CI budget in integer-frame chunks, and (in simulated
// mode) the sharded fleet benchmark behind BENCH_cluster.json.
//
// Live mode — train one bundle, start a coordinator, N workers, and a
// front, then serve the single-server /v1/sessions/* surface at cluster
// scale:
//
//	eventhitcluster -workers 4
//	eventhitcluster -workers 4 -addr :8080 -budget 2 -quick
//
// Simulated mode — shard the fleet benchmark's timeline computation over
// in-process worker servers at each -simworkers count, byte-compare every
// report against single-process fleet.Run, and write the sweep:
//
//	eventhitcluster -sim -streams 8 -frames 12000 -out BENCH_cluster.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"eventhit/internal/cloud"
	"eventhit/internal/cluster"
	"eventhit/internal/fleet"
	"eventhit/internal/harness"
	"eventhit/internal/serve"
	"eventhit/internal/strategy"
)

func main() {
	var (
		// Shared knobs.
		task   = flag.String("task", "TA10", "Table II task to train on and deploy")
		seed   = flag.Int64("seed", 5, "base random seed")
		quick  = flag.Bool("quick", true, "use reduced training sizes")
		budget = flag.Float64("budget", 0.5, "global CI spend cap in USD across the whole cluster (0 = uncapped)")

		// Live mode.
		workers    = flag.Int("workers", 4, "worker count for the live cluster")
		addr       = flag.String("addr", ":8080", "front listen address (live mode)")
		confidence = flag.Float64("confidence", 0.9, "default C-CLASSIFY confidence")
		coverage   = flag.Float64("coverage", 0.9, "default C-REGRESS coverage")
		streamRate = flag.Float64("streamrate", 0, "per-session CI admission rate, billed frames/sec (0 = unmetered)")
		drain      = flag.Duration("drain", 10*time.Second, "max time to drain in-flight requests on SIGINT/SIGTERM")

		// Simulated sweep mode.
		sim         = flag.Bool("sim", false, "run the sharded fleet benchmark sweep instead of a live cluster")
		streams     = flag.Int("streams", 8, "simulated camera streams (-sim)")
		frames      = flag.Int("frames", 12_000, "frames to marshal per stream (-sim)")
		simWorkers  = flag.String("simworkers", "1,2,4", "comma-separated worker counts to sweep (-sim)")
		parallelism = flag.Int("parallelism", runtime.NumCPU(), "workers for stream env construction")
		out         = flag.String("out", "BENCH_cluster.json", "output file for the -sim sweep")
	)
	flag.Parse()
	if *budget < 0 {
		fatal(fmt.Errorf("-budget must be >= 0, got %v", *budget))
	}

	opt := harness.DefaultOptions()
	if *quick {
		opt = harness.Quick()
	}
	harness.SetParallelism(*parallelism)

	if *sim {
		counts, err := parseCounts(*simWorkers)
		if err != nil {
			fatal(err)
		}
		fcfg := clusterPolicy(*budget)
		t0 := time.Now()
		res, err := harness.ClusterSweep(*task, opt, *streams, *frames, fcfg, counts, *seed, os.Stdout)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "[cluster sweep done in %s]\n", time.Since(t0).Round(time.Millisecond))
		writeJSON(*out, res)
		return
	}

	runLive(*task, opt, *workers, *addr, *budget, *streamRate, *confidence, *coverage, *seed, *drain)
}

// clusterPolicy is the fixed scheduler policy behind BENCH_cluster.json:
// the quick fleet policy with the cap under the flag's control. Per-stream
// metering stays on so admission control engages in the artifact.
func clusterPolicy(budget float64) fleet.Config {
	cfg := fleet.DefaultConfig()
	cfg.GlobalBudgetUSD = budget
	cfg.StreamRatePerSec = 600
	cfg.StreamBurst = 3000
	return cfg
}

// runLive trains one bundle and stands up coordinator + N workers + front
// in this process, each on its own loopback listener, with the front on
// addr. One process keeps the demo self-contained; the pieces only talk
// HTTP, so nothing changes when they move to separate hosts.
func runLive(taskName string, opt harness.Options, workers int, addr string, budget, streamRate, confidence, coverage float64, seed int64, drain time.Duration) {
	if workers < 1 {
		fatal(fmt.Errorf("-workers must be >= 1, got %d", workers))
	}
	t, err := harness.TaskByName(taskName)
	if err != nil {
		fatal(err)
	}
	log.Printf("training %s at startup...", t.String())
	env, err := harness.NewEnv(t, opt, seed)
	if err != nil {
		fatal(err)
	}
	names := make([]string, t.NumEvents())
	for i, idx := range t.EventIdx {
		names[i] = t.Dataset.Events[idx].Name
	}

	coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{
		BudgetUSD:   budget,
		PerFrameUSD: cloud.RekognitionPricing().PerFrameUSD,
	})
	if err != nil {
		fatal(err)
	}
	coordHS := &http.Server{Handler: coord}
	coordURL, err := listenAndServe(coordHS, "127.0.0.1:0")
	if err != nil {
		fatal(err)
	}
	log.Printf("coordinator on %s (budget $%.2f)", coordURL, budget)

	started, refs, err := startWorkers(workers, coordURL, env.Bundle, names, budget, streamRate, confidence, coverage)
	if err != nil {
		fatal(err)
	}

	front, err := cluster.NewFront(cluster.FrontConfig{Workers: refs, Coordinator: coordURL})
	if err != nil {
		fatal(err)
	}
	mc := env.Bundle.Model.Config()
	log.Printf("front serving %s on %s over %d workers (M=%d H=%d D=%d, defaults c=%.2f alpha=%.2f)",
		t.Name, addr, workers, mc.Window, mc.Horizon, mc.InputDim, confidence, coverage)
	log.Printf("cluster metrics at GET /metrics, fleet stats at GET /v1/stats, budget at GET /v1/cluster/budget")

	hs := &http.Server{Addr: addr, Handler: front}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
		stop()
		log.Printf("shutdown signal received: draining connections (up to %s)", drain)
		sctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		if err := hs.Shutdown(sctx); err != nil {
			log.Printf("drain incomplete: %v", err)
			hs.Close()
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
		for _, w := range started {
			w.Close()
		}
		coordHS.Close()
		log.Printf("cluster stopped cleanly")
	}
}

// startWorkers stands up n serve workers on loopback, registered with the
// coordinator at coordURL ("" runs them standalone). Each worker serves its
// own clone of bundle: core.Model caches activations and a server
// serializes inference only under its own lock, so workers sharing one
// model would race. On error the workers already started are returned for
// the caller to close.
func startWorkers(n int, coordURL string, bundle *strategy.Bundle, names []string, budget, streamRate, confidence, coverage float64) ([]*cluster.Worker, []cluster.WorkerRef, error) {
	var started []*cluster.Worker
	var refs []cluster.WorkerRef
	for i := 0; i < n; i++ {
		scfg := serve.Config{
			Bundle:            bundle.Clone(),
			EventNames:        names,
			PerFrameUSD:       cloud.RekognitionPricing().PerFrameUSD,
			DefaultConfidence: confidence,
			DefaultCoverage:   coverage,
		}
		if budget > 0 || streamRate > 0 {
			burst := streamRate // one second of burst headroom
			scfg.Fleet = &fleet.ArbiterConfig{
				PerFrameUSD:       scfg.PerFrameUSD,
				SessionRatePerSec: streamRate,
				SessionBurst:      burst,
			}
		}
		id := fmt.Sprintf("worker-%d", i)
		w, err := cluster.NewWorker(cluster.WorkerConfig{ID: id, Coordinator: coordURL, Serve: scfg})
		if err != nil {
			return started, refs, err
		}
		url, err := w.Start("127.0.0.1:0", coordURL)
		if err != nil {
			w.Close()
			return started, refs, err
		}
		started = append(started, w)
		refs = append(refs, cluster.WorkerRef{ID: id, URL: url})
		log.Printf("worker %s on %s", id, url)
	}
	return started, refs, nil
}

func listenAndServe(hs *http.Server, addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	go hs.Serve(ln)
	return "http://" + ln.Addr().String(), nil
}

func parseCounts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("-simworkers: bad worker count %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-simworkers: no worker counts")
	}
	return out, nil
}

func writeJSON(path string, v interface{}) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	err = enc.Encode(v)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "eventhitcluster:", err)
	os.Exit(1)
}
