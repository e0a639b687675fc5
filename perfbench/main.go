// Command perfbench is the repository's end-to-end benchmark. It drives
// the serving stack, the cluster tier and the offline marshalling loop
// through their public surfaces, checks their outputs against
// computations made apart from them, and prints every metric by name and
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run is split into an untraced and a traced half on two identical
// deployments, spans are recorded at every layer boundary the benchmark
// calls into, and the metrics are the per-layer ones.
//
//	go run . -workload camera-ingest -seed 1 -seconds 20 -trace 0
//
// See README.md for the workloads, the estimators and the checks.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	outDir   string
}

// metricValue is one reported figure.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*runner) error{
	"camera-ingest":   runCameraIngest,
	"anchor-dense":    runAnchorDense,
	"cluster-fleet":   runClusterFleet,
	"offline-cascade": runOfflineCascade,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	var opt options
	var trace int
	flag.StringVar(&opt.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&opt.seed, "seed", 1, "workload seed: every generated input derives from it")
	flag.Float64Var(&opt.seconds, "seconds", 20, "length of the measured region in seconds")
	flag.IntVar(&trace, "trace", 0, "1 records spans and reports the per-layer metrics")
	flag.BoolVar(&opt.smoke, "smoke", false, "tiny training and inputs: checks the plumbing, not the speed")
	flag.StringVar(&opt.outDir, "out", filepath.Join(".bench_build", "perfbench"), "directory for span files and per-layer tables")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	opt.trace = trace == 1
	res, err := run(opt, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one workload and returns its result line.
func run(opt options, stdout io.Writer) (*result, error) {
	drive, ok := workloads[opt.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", opt.workload, strings.Join(workloadNames(), ", "))
	}
	if !(opt.seconds > 0) {
		return nil, fmt.Errorf("-seconds must be positive, got %v", opt.seconds)
	}
	r := &runner{opt: opt, out: stdout, metrics: map[string]metricValue{}}
	if opt.trace {
		r.rec = newRecorder()
	}
	fmt.Fprintf(stdout, "workload %s seed %d seconds %g trace %v smoke %v GOMAXPROCS %d\n",
		opt.workload, opt.seed, opt.seconds, opt.trace, opt.smoke, runtime.GOMAXPROCS(0))
	fmt.Fprintf(stdout, "cpu reference at start: %.3f ns/iter\n", cpuReference())
	if err := drive(r); err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "cpu reference at end: %.3f ns/iter\n", cpuReference())
	fmt.Fprintf(stdout, "requests sent %d, non-2xx %d, failed checks %d, deferred relays %d (expected 0)\n",
		r.requests.Load(), r.non2xx.Load(), r.failedChecks.Load(), r.deferred.Load())
	return &result{
		Correct:   r.failedChecks.Load() == 0,
		Attempted: r.attempted.Load(),
		Failed:    r.non2xx.Load() + r.failedChecks.Load(),
		Metrics:   r.metrics,
	}, nil
}

// runner carries one run's settings, accounting and reported metrics.
type runner struct {
	opt options
	out io.Writer
	// rec records spans in traced runs; nil otherwise. reqSeq numbers
	// the request IDs of client spans.
	rec    *recorder
	reqSeq atomic.Int64

	// attempted counts operations: HTTP requests to the program, or
	// RunDetailed calls in the offline workload.
	attempted atomic.Int64
	requests  atomic.Int64
	// non2xx counts requests answered with another status or not at all.
	non2xx atomic.Int64
	// failedChecks counts operations whose output failed a check.
	failedChecks atomic.Int64
	// deferred counts relays the program deferred (reported apart from
	// failures; the workloads are sized so it stays 0).
	deferred atomic.Int64

	metrics map[string]metricValue
}

func (r *runner) set(name, unit string, v float64) {
	r.metrics[name] = metricValue{Value: v, Unit: unit}
}

// check records a failed output check when ok is false.
func (r *runner) check(ok bool, format string, args ...interface{}) {
	if ok {
		return
	}
	if r.failedChecks.Add(1) <= maxPrinted {
		fmt.Fprintf(r.out, "CHECK FAILED: "+format+"\n", args...)
	}
}

// maxPrinted bounds the failed checks and requests a run prints; all are
// counted.
const maxPrinted = 20

// request accounts one request to the program and its outcome.
func (r *runner) request(err error) {
	r.attempted.Add(1)
	r.requests.Add(1)
	if err != nil && r.non2xx.Add(1) <= maxPrinted {
		fmt.Fprintf(r.out, "request failed: %v\n", err)
	}
}

// setupReps is how many times a run sets its deployment up; setup_s is
// the median.
func (r *runner) setupReps() int {
	if r.opt.smoke {
		return 2
	}
	return 5
}

// warmup precedes every measured phase: caches fill, connections open.
func (r *runner) warmup() time.Duration {
	if r.opt.smoke {
		return 50 * time.Millisecond
	}
	return 500 * time.Millisecond
}

// phaseLengths returns the measured length of each phase: one phase when
// untraced, an untraced and a traced half when traced.
func (r *runner) phaseLengths() []time.Duration {
	total := time.Duration(r.opt.seconds * float64(time.Second))
	if r.opt.trace {
		return []time.Duration{total / 2, total / 2}
	}
	return []time.Duration{total}
}

// setups builds the deployment setupReps times, timing each build, and
// returns the last len(phaseLengths) deployments (older ones are closed).
func setups[D interface{ close() }](r *runner, build func() (D, error)) ([]D, error) {
	keep := len(r.phaseLengths())
	var times []float64
	var live []D
	s0, _ := readSteal()
	for i := 0; i < r.setupReps(); i++ {
		runtime.GC()
		t0 := time.Now()
		d, err := build()
		if err != nil {
			for _, l := range live {
				l.close()
			}
			return nil, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		live = append(live, d)
		if len(live) > keep {
			live[0].close()
			live = live[1:]
		}
	}
	s1, _ := readSteal()
	r.set("setup_s", "s", median(times))
	fmt.Fprintf(r.out, "setup times (s): %s; machine CPU steal meanwhile %.3f s\n", fmtFloats(times), s1-s0)
	return live, nil
}

func fmtFloats(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return strings.Join(parts, " ")
}

// phase runs one measured phase: warmup, then length of measured time,
// with the recorder on when traced. drive runs the closed loop until the
// deadline it is given and records decisions in the meter; maxRate is the
// decisions per second the meter reserves room for.
func (r *runner) phase(length time.Duration, traced bool, maxRate float64, drive func(m *meter, deadline time.Time)) *meter {
	// Set-up garbage is collected and its pages returned, so the resident
	// set the region samples is the serving working set's.
	debug.FreeOSMemory()
	if r.rec != nil {
		r.rec.on.Store(traced)
	}
	start := time.Now().Add(r.warmup())
	end := start.Add(length)
	m := newMeter(start, length, maxRate)
	stop := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		// Heap counters and the machine's CPU steal are read at the
		// measured region's edges (the end edge early if the drive
		// returns early).
		defer close(finished)
		var s0 float64
		var ok0 bool
		for i, at := range []time.Time{start, end} {
			t := time.NewTimer(time.Until(at))
			select {
			case <-t.C:
			case <-stop:
				t.Stop()
			}
			if i == 0 {
				runtime.ReadMemStats(&m.memStart)
				s0, ok0 = readSteal()
			} else {
				runtime.ReadMemStats(&m.memEnd)
				s1, ok1 := readSteal()
				m.steal = -1
				if ok0 && ok1 {
					m.steal = s1 - s0
				}
			}
		}
	}()
	rssDone := make(chan struct{})
	go func() {
		// The resident set is sampled every rssEvery through the region.
		defer close(rssDone)
		time.Sleep(time.Until(start))
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			m.rssPeak = math.Max(m.rssPeak, rssMiB("VmRSS"))
			select {
			case <-tick.C:
			case <-stop:
				return
			}
		}
	}()
	drive(m, end)
	close(stop)
	<-finished
	<-rssDone
	if r.rec != nil {
		r.rec.on.Store(false)
	}
	return m
}

// reportEndToEnd sets the shared end-to-end metrics from a meter and
// prints the tails with their sample counts.
func (r *runner) reportEndToEnd(m *meter) {
	lat, relayLat := m.latencies(false), m.latencies(true)
	r.set("frames_per_s", "frames/s", m.framesPerS())
	r.set("decision_p50_ms", "ms", median(lat))
	r.set("relay_decision_p50_ms", "ms", median(relayLat))
	r.set("alloc_kb_per_kframe", "KiB", m.allocKBPerKFrame())
	r.set("mem_peak_mb", "MiB", m.rssPeak)
	fmt.Fprintf(r.out, "resident set: sampled peak in the region %.2f MiB, process high-water mark %.2f MiB\n", m.rssPeak, rssMiB("VmHWM"))
	for _, s := range []struct {
		name string
		v    []float64
	}{{"decision", lat}, {"relay decision", relayLat}} {
		if label, v, ok := tail(s.v); ok {
			fmt.Fprintf(r.out, "%s latency: p50 %.4f ms, %s %.4f ms (n=%d)\n", s.name, median(s.v), label, v, len(s.v))
		} else {
			fmt.Fprintf(r.out, "%s latency: p50 %.4f ms (n=%d, too few samples for a tail)\n", s.name, median(s.v), len(s.v))
		}
	}
	rates := m.sliceRates()
	fmt.Fprintf(r.out, "slice rates (frames/s): min %.0f q1 %.0f median %.0f q3 %.0f max %.0f\n",
		quantile(rates, 0), quantile(rates, 0.25), median(rates), quantile(rates, 0.75), quantile(rates, 1))
	if m.steal >= 0 {
		fmt.Fprintf(r.out, "machine CPU steal during the region: %.3f s\n", m.steal)
	}
	if m.decisions > int64(m.reserved) {
		fmt.Fprintf(r.out, "latency reserve of %d decisions exceeded: the meter grew the resident set\n", m.reserved)
	}
	fmt.Fprintf(r.out, "measured: %d decisions, %d frames in %.2f s\n", m.decisions, m.frames, m.length.Seconds())
}

// overhead reports the traced phase's frames/s loss against the
// untraced phase, in percent.
func (r *runner) overhead(untraced, traced *meter) {
	u, t := untraced.framesPerS(), traced.framesPerS()
	pct := 0.0
	if u > 0 {
		pct = (u - t) / u * 100
	}
	r.set("trace.overhead_pct", "%", pct)
	fmt.Fprintf(r.out, "tracing overhead: untraced %.1f frames/s, traced %.1f frames/s (%.2f%%); decision p50 untraced %.4f ms, traced %.4f ms\n",
		u, t, pct, median(untraced.latencies(false)), median(traced.latencies(false)))
}

// spanFile returns the path for this run's span and table files.
func (r *runner) spanFile(suffix string) (string, error) {
	if err := os.MkdirAll(r.opt.outDir, 0o755); err != nil {
		return "", err
	}
	return filepath.Join(r.opt.outDir, fmt.Sprintf("%s-seed%d.%s", r.opt.workload, r.opt.seed, suffix)), nil
}
