package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"time"

	"eventhit/internal/dataset"
	"eventhit/internal/serve"
)

// camRun is one camera session's transcript.
type camRun struct {
	cam       *camera
	id        string
	frames    int
	decisions []decision
}

// call runs one request to the program as a client span and accounts it.
func (r *runner) call(name string, n int, f func() error) error {
	var o *openSpan
	if r.rec.enabled() {
		o = r.rec.begin(name, "r"+strconv.FormatInt(r.reqSeq.Add(1), 10))
	}
	err := f()
	r.rec.end(o, n)
	r.request(err)
	return err
}

// streamCamera streams one camera through the serve API until the end of
// its stream or the deadline: per horizon it pushes the horizon's frames
// one second (batchFrames) per request, then asks for one decision. With
// several runs (twin sessions filming the same camera) each horizon is
// pushed and decided on every session in order.
func (r *runner) streamCamera(ctx context.Context, c *serve.Client, cam *camera, runs []*camRun, m *meter, deadline time.Time, win, h int) error {
	n := cam.ex.Stream().N
	frame := 0
	for anchor := win - 1; anchor+h < n; anchor += h {
		if !time.Now().Before(deadline) {
			return nil
		}
		rows := cam.frames(frame, anchor+1)
		for _, run := range runs {
			for lo := 0; lo < len(rows); lo += batchFrames {
				hi := min(lo+batchFrames, len(rows))
				err := r.call("client.frames", hi-lo, func() error {
					_, err := c.PushFramesSession(ctx, run.id, rows[lo:hi])
					return err
				})
				if err != nil {
					return err
				}
			}
			run.frames += len(rows)
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
			if len(resp.Decisions) != 1 || resp.Anchor != anchor {
				r.check(false, "session %s: response anchor %d with %d decisions, want anchor %d with 1", run.id, resp.Anchor, len(resp.Decisions), anchor)
				return fmt.Errorf("malformed predict response")
			}
			sd := resp.Decisions[0]
			d := decision{anchor: anchor, relay: sd.Relay, start: sd.Start, end: sd.End, deferred: sd.Deferred, detections: sd.Detections}
			if d.deferred {
				r.deferred.Add(1)
			}
			run.decisions = append(run.decisions, d)
			m.decided(lat, len(rows), d.relay)
		}
		frame = anchor + 1
	}
	return nil
}

// scrapeMetric sums every series of one family in a Prometheus text
// exposition served at url.
func scrapeMetric(ctx context.Context, hc *http.Client, url, family string) (float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	total := 0.0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, family) {
			continue
		}
		rest := line[len(family):]
		if rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		f := strings.Fields(rest)
		v, err := strconv.ParseFloat(f[len(f)-1], 64)
		if err != nil {
			return 0, fmt.Errorf("metric line %q: %w", line, err)
		}
		total += v
	}
	return total, sc.Err()
}

// probeAllocs measures heap allocations of the serve handler in
// isolation, on a probe session of a quiescent server: allocations per
// ingested frame over one-second pushes, and per predict request. The
// requests are built before the counters are read, so only ServeHTTP is
// counted.
func probeAllocs(h http.Handler, cam *camera, win int) (perFrame, perPredict float64, err error) {
	serveOne := func(req *http.Request) error {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code/100 != 2 {
			return fmt.Errorf("probe %s: HTTP %d: %s", req.URL.Path, rec.Code, rec.Body.String())
		}
		return nil
	}
	body, _ := json.Marshal(serve.SessionRequest{ID: "alloc-probe"})
	if err := serveOne(httptest.NewRequest(http.MethodPost, "/v1/sessions", bytes.NewReader(body))); err != nil {
		return 0, 0, err
	}
	const pushes, predicts = 60, 100
	var reqs []*http.Request
	for i := 0; i < pushes; i++ {
		b, _ := json.Marshal(serve.FramesRequest{Frames: cam.frames(i*batchFrames, (i+1)*batchFrames)})
		reqs = append(reqs, httptest.NewRequest(http.MethodPost, "/v1/sessions/alloc-probe/frames", bytes.NewReader(b)))
	}
	recs := make([]*httptest.ResponseRecorder, len(reqs))
	for i := range recs {
		recs[i] = httptest.NewRecorder()
	}
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	for i, req := range reqs {
		h.ServeHTTP(recs[i], req)
	}
	runtime.ReadMemStats(&b)
	for _, rec := range recs {
		if rec.Code/100 != 2 {
			return 0, 0, fmt.Errorf("probe frames: HTTP %d", rec.Code)
		}
	}
	perFrame = float64(b.Mallocs-a.Mallocs) / float64(pushes*batchFrames)
	if pushes*batchFrames < win {
		return 0, 0, fmt.Errorf("probe pushed fewer frames than the window")
	}
	reqs = reqs[:0]
	recs = recs[:0]
	for i := 0; i < predicts; i++ {
		reqs = append(reqs, httptest.NewRequest(http.MethodPost, "/v1/sessions/alloc-probe/predict", nil))
		recs = append(recs, httptest.NewRecorder())
	}
	runtime.GC()
	runtime.ReadMemStats(&a)
	for i, req := range reqs {
		h.ServeHTTP(recs[i], req)
	}
	runtime.ReadMemStats(&b)
	for _, rec := range recs {
		if rec.Code/100 != 2 {
			return 0, 0, fmt.Errorf("probe predict: HTTP %d", rec.Code)
		}
	}
	perPredict = float64(b.Mallocs-a.Mallocs) / predicts
	return perFrame, perPredict, nil
}

// recordOf wraps a covariate window as the record a strategy predicts on.
func recordOf(x [][]float64, anchor, k int) dataset.Record {
	return dataset.Record{Frame: anchor, X: x, Label: make([]bool, k)}
}

// decideTiming times the conformal decision on the traced windows: a
// bundle clone with a traced Predictor runs EHCR().Predict on each
// window, and the decision time is the call minus its forward pass.
func decideTiming(cl *refClone, windows [][][]float64, anchors []int) float64 {
	rec := cl.pred.rec
	rec.on.Store(true)
	defer rec.on.Store(false)
	var out []float64
	for i, x := range windows {
		o := rec.begin("ref.ehcr", "")
		cl.b.EHCR(confidence, coverage).Predict(recordOf(x, anchors[i], 1))
		rec.end(o, 0)
	}
	ix := indexSpans(rec.snapshot())
	for _, s := range ix.byName["ref.ehcr"] {
		out = append(out, us(s.dur()-covered(s.Start, s.End, ix.children[s.ID])))
	}
	return median(out)
}
