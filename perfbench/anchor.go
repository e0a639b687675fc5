package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"eventhit/internal/serve"
	"eventhit/internal/video"
)

// handlerTransport is an http.RoundTripper that serves each request by
// calling the handler in process: no socket, no connection pool.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	resp := rec.Result()
	resp.Request = req
	return resp, nil
}

// newAnchorDeploy trains the bundle and builds a server without
// server-side relay, reached through an in-process transport.
func newAnchorDeploy(r *runner, in *trainInputs) (*serveDeploy, error) {
	b, err := in.train()
	if err != nil {
		return nil, err
	}
	if r.rec != nil {
		b.Predictor = &tracedPredictor{m: b.Model, rec: r.rec}
	}
	srv, err := serve.New(serve.Config{
		Bundle:            b,
		EventNames:        []string{"event"},
		PerFrameUSD:       perFrameUSD,
		DefaultConfidence: confidence,
		DefaultCoverage:   coverage,
	})
	if err != nil {
		return nil, err
	}
	var h http.Handler = srv
	var rt http.RoundTripper = handlerTransport{h: h}
	if r.rec != nil {
		rt = &tracedTransport{next: handlerTransport{h: traceHandler("server", srv, r.rec)}, rec: r.rec}
	}
	d := &serveDeploy{bundle: b, srv: srv, hc: &http.Client{Transport: rt}, tr: &http.Transport{}}
	d.client = serve.NewClient("http://in-process", d.hc)
	if err := firstFrame(d.client, in.dim); err != nil {
		return nil, err
	}
	return d, nil
}

// anchorMaxRate is the decisions per second anchor-dense's meter and
// transcripts reserve room for: several times the rate it runs at.
const anchorMaxRate = 40000

// anchorRun is one anchor-dense session's transcript, kept to what the
// reference-clone check needs: rel[j] is the decision at anchor win-1+j,
// its relay range as offsets from the anchor, {0, 0} when it does not
// relay. Ranges are checked to lie in the horizon before they are
// stored, so the offsets are in [1, H].
type anchorRun struct {
	cam    *camera
	id     string
	frames int
	rel    [][2]int16
}

// decision returns the jth decision of the run.
func (a *anchorRun) decision(j, win int) decision {
	d := decision{anchor: win - 1 + j}
	if o := a.rel[j]; o[0] != 0 {
		d.relay, d.start, d.end = true, d.anchor+int(o[0]), d.anchor+int(o[1])
	}
	return d
}

// runAnchorDense: one session at a time, stride 1 — at every anchor the
// client pushes one frame and asks for a decision, over an in-process
// transport.
func runAnchorDense(r *runner) error {
	in, err := ta10Inputs(r.opt.smoke)
	if err != nil {
		return err
	}
	st := servedStream(video.THUMOS(), 1)
	deps, err := setups(r, func() (*serveDeploy, error) { return newAnchorDeploy(r, in) })
	if err != nil {
		return err
	}
	ctx := context.Background()
	win, h := in.cfg.Window, in.cfg.Horizon
	var meters []*meter
	var phases [][]*anchorRun
	for i, length := range r.phaseLengths() {
		d := deps[i]
		var runs []*anchorRun
		// One transcript arena per phase, reserved and written before the
		// region: the cameras run one after another and each appends
		// after the last, so neither the resident set nor the live heap
		// steps up as decisions complete or a new camera starts.
		arena := reserve[[2]int16](int(anchorMaxRate * length.Seconds()))
		off := 0
		m := r.phase(length, i == 1, anchorMaxRate, func(m *meter, deadline time.Time) {
			for ci := 0; time.Now().Before(deadline); ci++ {
				cam, err := newCamera(st, r.opt.seed, ci, false)
				if err != nil {
					r.check(false, "camera: %v", err)
					return
				}
				run := &anchorRun{cam: cam, id: cam.name, rel: arena[off:off]}
				runs = append(runs, run)
				err = r.call("client.create", 0, func() error {
					_, err := d.client.CreateSession(ctx, run.id, "")
					return err
				})
				if err == nil {
					err = r.streamAnchors(ctx, d.client, run, m, deadline, win, h)
				}
				// Decisions that outgrew the arena were moved to fresh memory.
				off = min(off+len(run.rel), cap(arena))
				if err != nil {
					fmt.Fprintf(r.out, "camera %s stopped: %v\n", run.id, err)
					return
				}
			}
		})
		meters = append(meters, m)
		phases = append(phases, runs)
	}

	// Every decision must equal the one a separately held clone makes on
	// the same window; coverage is taken on non-overlapping horizons.
	ref := newRefClone(deps[0].bundle)
	nCal := positiveCalibration(in)
	var cov coverageTally
	checked, failed0 := 0, r.failedChecks.Load()
	for _, runs := range phases {
		for _, run := range runs {
			for j := range run.rel {
				dec := run.decision(j, win)
				want := refDecision(ref.b, run.cam.window(dec.anchor, win), dec.anchor)
				r.check(sameDecision(dec, want), "%s anchor %d: served %+v, reference clone %+v", run.id, dec.anchor, dec, want)
				checked++
				if j%h == 0 {
					cov.add(st, 0, h, dec)
				}
			}
		}
	}
	fmt.Fprintf(r.out, "reference clone agreed on %d of %d decisions\n", checked-int(r.failedChecks.Load()-failed0), checked)
	r.checkCoverage("non-overlapping horizons", cov, nCal)

	var rec recTally
	frames, relayFrames := 0, 0
	for _, run := range phases[0] {
		frames += run.frames
		for j := range run.rel {
			d := run.decision(j, win)
			rec.add(st, 0, h, d)
			if d.relay {
				relayFrames += d.end - d.start + 1
			}
		}
	}
	r.set("rec", "ratio", rec.value())
	if frames > 0 {
		r.set("ci_frames_per_kframe", "frames", float64(relayFrames)/float64(frames)*1000)
	}
	r.reportEndToEnd(meters[0])
	if r.rec != nil {
		d := deps[1]
		p := tracedPhase{untraced: meters[0], traced: meters[1], srv: d.srv, cam: phases[1][0].cam, win: win, bundle: d.bundle}
	windows:
		for _, run := range phases[1] {
			for j := range run.rel {
				if len(p.windows) == maxTracedWindows {
					break windows
				}
				p.windows = append(p.windows, run.cam.window(win-1+j, win))
				p.anchors = append(p.anchors, win-1+j)
			}
		}
		if err := r.tracedTail(p); err != nil {
			return err
		}
	}
	r.finalMetrics()
	return nil
}

// streamAnchors pushes one frame per request and decides at every anchor
// until the stream ends or the deadline passes.
func (r *runner) streamAnchors(ctx context.Context, c *serve.Client, run *anchorRun, m *meter, deadline time.Time, win, h int) error {
	n := run.cam.ex.Stream().N
	for f := 0; f+h < n; f++ {
		if !time.Now().Before(deadline) {
			return nil
		}
		row := run.cam.frames(f, f+1)
		if err := r.call("client.frames", 1, func() error {
			_, err := c.PushFramesSession(ctx, run.id, row)
			return err
		}); err != nil {
			return err
		}
		run.frames++
		if f < win-1 {
			continue
		}
		var resp serve.PredictResponse
		t0 := time.Now()
		err := r.call("client.predict", 0, func() error {
			var err error
			resp, err = c.PredictSession(ctx, run.id, 0, 0)
			return err
		})
		lat := time.Since(t0)
		if err != nil {
			return err
		}
		if len(resp.Decisions) != 1 || resp.Anchor != f {
			r.check(false, "session %s: response anchor %d with %d decisions, want anchor %d with 1", run.id, resp.Anchor, len(resp.Decisions), f)
			return fmt.Errorf("malformed predict response")
		}
		sd := resp.Decisions[0]
		var o [2]int16
		if sd.Relay {
			d := decision{anchor: f, relay: true, start: sd.Start, end: sd.End}
			r.checkContained(d, h)
			if d.start > f && d.end <= f+h {
				o = [2]int16{int16(d.start - f), int16(d.end - f)}
			} else {
				// Out of the horizon (a failed check): stored as a
				// one-frame relay, so it still reads as relaying.
				o = [2]int16{1, 1}
			}
		}
		run.rel = append(run.rel, o)
		m.decided(lat, 1, sd.Relay)
	}
	return nil
}
