package main

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"eventhit/internal/cloud"
	"eventhit/internal/serve"
	"eventhit/internal/strategy"
	"eventhit/internal/video"
)

// refClone is a separately held bundle clone the benchmark computes
// reference decisions with; its Predictor records into its own recorder
// (off unless decision timing runs).
type refClone struct {
	b    *strategy.Bundle
	pred *tracedPredictor
}

func newRefClone(b *strategy.Bundle) *refClone {
	c := b.Clone()
	p := &tracedPredictor{m: c.Model, rec: newRecorder()}
	c.Predictor = p
	return &refClone{b: c, pred: p}
}

// serveDeploy is one serve.Server on loopback with the benchmark's client.
type serveDeploy struct {
	bundle *strategy.Bundle
	srv    *serve.Server
	hs     *http.Server
	url    string
	client *serve.Client
	hc     *http.Client
	tr     *http.Transport
	ci     *cloud.Service
}

func (d *serveDeploy) close() {
	if d.hs != nil {
		shutdown(d.hs)
	}
	d.tr.CloseIdleConnections()
}

// adaptConfig is the loop `eventhitserve -adapt` deploys (its default
// -auditrate 0.1 included).
func adaptConfig() *serve.AdaptConfig {
	ac := serve.DefaultAdaptConfig()
	return &ac
}

// newIngestDeploy trains the bundle and starts the camera-ingest server:
// server-owned resilient CI relay through the benchmark's waiting
// backend, online adaptation on, float path. Setup ends when the server
// has accepted its first frame.
func newIngestDeploy(r *runner, in *trainInputs, st *video.Stream) (*serveDeploy, error) {
	b, err := in.train()
	if err != nil {
		return nil, err
	}
	if r.rec != nil {
		b.Predictor = &tracedPredictor{m: b.Model, rec: r.rec}
	}
	ci := cloud.NewService(st, cloud.RekognitionPricing(), cloud.DefaultLatency())
	backend := &tracedBackend{inner: ci, wait: ciWait, rec: r.rec}
	srv, err := serve.New(serve.Config{
		Bundle:            b,
		EventNames:        []string{st.Spec.Events[0].Name},
		PerFrameUSD:       perFrameUSD,
		DefaultConfidence: confidence,
		DefaultCoverage:   coverage,
		CI:                backend,
		Adapt:             adaptConfig(),
	})
	if err != nil {
		return nil, err
	}
	d := &serveDeploy{bundle: b, srv: srv, ci: ci}
	var h http.Handler = srv
	if r.rec != nil {
		h = traceHandler("server", srv, r.rec)
	}
	d.hs, d.url, err = listen(h)
	if err != nil {
		return nil, err
	}
	var rt http.RoundTripper
	rt, d.tr = clientTransport(r.rec)
	d.hc = &http.Client{Transport: rt, Timeout: 30 * time.Second}
	d.client = serve.NewClient(d.url, d.hc)
	if err := firstFrame(d.client, in.dim); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// firstFrame pushes one frame to the default session: the end of setup.
func firstFrame(c *serve.Client, dim int) error {
	_, err := c.PushFrames(context.Background(), [][]float64{make([]float64, dim)})
	return err
}

// ingestMaxRate is the decisions per second camera-ingest's meter
// reserves room for: several times the rate it runs at.
const ingestMaxRate = 4000

// runCameraIngest: two cameras at a time stream one second of video per
// request into one server and ask for one decision per horizon. Every
// second camera's detector degrades at driftFrame.
func runCameraIngest(r *runner) error {
	in, err := ta10Inputs(r.opt.smoke)
	if err != nil {
		return err
	}
	st := servedStream(longStream(video.THUMOS(), ingestLength), 0)
	deps, err := setups(r, func() (*serveDeploy, error) { return newIngestDeploy(r, in, st) })
	if err != nil {
		return err
	}
	defer func() {
		for _, d := range deps {
			d.close()
		}
	}()
	ctx := context.Background()
	win, h := in.cfg.Window, in.cfg.Horizon
	var meters []*meter
	var phases [][]*camRun
	for i, length := range r.phaseLengths() {
		d := deps[i]
		var mu sync.Mutex
		var runs []*camRun
		m := r.phase(length, i == 1, ingestMaxRate, func(m *meter, deadline time.Time) {
			var next atomic.Int64
			var wg sync.WaitGroup
			for slot := 0; slot < 2; slot++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for time.Now().Before(deadline) {
						cam, err := newCamera(st, r.opt.seed, int(next.Add(1)-1), true)
						if err != nil {
							r.check(false, "camera: %v", err)
							return
						}
						run := &camRun{cam: cam, id: cam.name}
						mu.Lock()
						runs = append(runs, run)
						mu.Unlock()
						err = r.call("client.create", 0, func() error {
							_, err := d.client.CreateSession(ctx, run.id, "")
							return err
						})
						if err == nil {
							err = r.streamCamera(ctx, d.client, cam, []*camRun{run}, m, deadline, win, h)
						}
						if err != nil {
							fmt.Fprintf(r.out, "camera %s stopped: %v\n", run.id, err)
						}
					}
				}()
			}
			wg.Wait()
		})
		meters = append(meters, m)
		phases = append(phases, runs)
	}

	// Output checks, on every phase.
	nCal := positiveCalibration(in)
	var cov coverageTally
	for i, runs := range phases {
		d := deps[i]
		relayed := int64(0)
		for _, run := range runs {
			for _, dec := range run.decisions {
				r.checkContained(dec, h)
				if dec.relay && !dec.deferred {
					relayed += int64(dec.end - dec.start + 1)
				}
				if !run.cam.drifting {
					cov.add(st, 0, h, dec)
				}
			}
		}
		var stats serve.Stats
		if err := r.call("client.stats", 0, func() error {
			var err error
			stats, err = d.client.Stats(ctx)
			return err
		}); err != nil {
			return err
		}
		billed := d.ci.Usage().Frames
		r.check(stats.FramesToCloud == relayed, "phase %d: stats framesToCloud %d, served relay ranges %d", i, stats.FramesToCloud, relayed)
		r.check(stats.FramesToCloud+stats.DriftAuditFrames == billed,
			"phase %d: CI billed %d frames, relays %d + audits %d", i, billed, stats.FramesToCloud, stats.DriftAuditFrames)
		fmt.Fprintf(r.out, "phase %d: %d cameras, billed %d frames (relays %d + audits %d), drift episodes %d, recalibration swaps %d\n",
			i, len(runs), billed, stats.FramesToCloud, stats.DriftAuditFrames, stats.DriftAlarmEpisodes, stats.RecalibrationSwaps)
		if i == 0 {
			r.ingestEndToEnd(meters[0], runs, st, h, billed)
		}
		if i == 1 {
			if err := r.ingestLayers(ctx, d, stats, runs, in, meters); err != nil {
				return err
			}
		}
	}
	r.checkCoverage("clean cameras", cov, nCal)
	r.finalMetrics()
	return nil
}

// ingestEndToEnd sets rec and ci_frames_per_kframe from a phase's
// transcripts and the rest from its meter.
func (r *runner) ingestEndToEnd(m *meter, runs []*camRun, st *video.Stream, h int, billed int64) {
	var rec recTally
	frames := 0
	for _, run := range runs {
		frames += run.frames
		for _, d := range run.decisions {
			rec.add(st, 0, h, d)
		}
	}
	r.set("rec", "ratio", rec.value())
	if frames > 0 {
		r.set("ci_frames_per_kframe", "frames", float64(billed)/float64(frames)*1000)
	}
	r.reportEndToEnd(m)
	fmt.Fprintf(r.out, "rec over %d positive horizons; %d frames ingested in the phase\n", rec.den, frames)
}

// ingestLayers sets the per-layer figures of the traced phase.
func (r *runner) ingestLayers(ctx context.Context, d *serveDeploy, stats serve.Stats, runs []*camRun, in *trainInputs, meters []*meter) error {
	r.set("cloud.frames_billed", "frames", float64(d.ci.Usage().Frames))
	attempts, err := scrapeMetric(ctx, d.hc, d.url+"/metrics", "eventhit_resilience_attempts_total")
	if err != nil {
		return err
	}
	r.set("resilience.attempts", "count", attempts)
	r.set("resilience.retries", "count", float64(stats.CIRetried))
	r.set("drift.observations", "count", float64(stats.DriftObservations))
	r.set("drift.alarm_episodes", "count", float64(stats.DriftAlarmEpisodes))
	r.set("drift.recalibration_swaps", "count", float64(stats.RecalibrationSwaps))
	r.set("drift.audit_frames", "frames", float64(stats.DriftAuditFrames))
	p := tracedPhase{untraced: meters[0], traced: meters[1], win: in.cfg.Window, bundle: d.bundle}
	if len(runs) > 0 {
		p.srv, p.cam = d.srv, runs[0].cam
	}
	p.windows, p.anchors = tracedWindows(runs, in.cfg.Window, maxTracedWindows)
	return r.tracedTail(p)
}

// maxTracedWindows bounds the windows conformal.decide_us_p50 is timed on.
const maxTracedWindows = 2000

// tracedWindows rebuilds up to max decision windows from transcripts.
func tracedWindows(runs []*camRun, win, max int) ([][][]float64, []int) {
	var xs [][][]float64
	var anchors []int
	for _, run := range runs {
		for _, d := range run.decisions {
			if len(xs) == max {
				return xs, anchors
			}
			xs = append(xs, run.cam.window(d.anchor, win))
			anchors = append(anchors, d.anchor)
		}
	}
	return xs, anchors
}
