package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"eventhit/internal/cicache"
	"eventhit/internal/cloud"
	"eventhit/internal/core"
	"eventhit/internal/dataset"
	"eventhit/internal/video"
)

// reqHeader carries the benchmark's request ID from the client transport
// to the first handler it reaches. The program forwards no request ID of
// its own, so front and worker spans are matched by session and sequence.
const reqHeader = "X-Perfbench-Req"

// maxSpans bounds the in-memory span buffer; spans past it are counted
// as dropped and the per-layer table says so.
const maxSpans = 600_000

// span is one timed call at a layer boundary. Start and End are
// nanoseconds since the recorder's origin.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    string `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// N is a work count carried by the span (frames pushed, frames
	// relayed); 0 when not meaningful.
	N int `json:"n,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory. Parenthood follows the calling
// goroutine: a span opened while another is open on the same goroutine
// is its child and inherits its request ID. Disabled recorders cost one
// atomic load per boundary call.
type recorder struct {
	on      atomic.Bool
	origin  time.Time
	nextID  atomic.Int64
	dropped atomic.Int64

	mu     sync.Mutex
	spans  []span
	stacks map[int64][]*openSpan
	// frontReq maps "session#seq" seen at the front to the client's
	// request ID, so the worker's span for the proxied request joins it.
	frontReq map[string]string
}

type openSpan struct {
	span
	gid int64
}

func newRecorder() *recorder {
	return &recorder{origin: time.Now(), stacks: map[int64][]*openSpan{}, frontReq: map[string]string{}}
}

func (r *recorder) enabled() bool { return r != nil && r.on.Load() }

// begin opens a span on the calling goroutine. req "" inherits the
// enclosing span's request ID.
func (r *recorder) begin(name, req string) *openSpan {
	if !r.enabled() {
		return nil
	}
	g := gid()
	o := &openSpan{gid: g, span: span{ID: r.nextID.Add(1), Name: name, Req: req}}
	r.mu.Lock()
	st := r.stacks[g]
	if n := len(st); n > 0 {
		o.Parent = st[n-1].ID
		if o.Req == "" {
			o.Req = st[n-1].Req
		}
	}
	r.stacks[g] = append(st, o)
	r.mu.Unlock()
	o.Start = int64(time.Since(r.origin))
	return o
}

// end closes o (a nil o is a disabled span) with work count n.
func (r *recorder) end(o *openSpan, n int) {
	if o == nil {
		return
	}
	o.End = int64(time.Since(r.origin))
	o.N = n
	r.mu.Lock()
	st := r.stacks[o.gid]
	for i := len(st) - 1; i >= 0; i-- {
		if st[i] == o {
			st = append(st[:i], st[i+1:]...)
			break
		}
	}
	if len(st) == 0 {
		delete(r.stacks, o.gid)
	} else {
		r.stacks[o.gid] = st
	}
	if len(r.spans) < maxSpans {
		r.spans = append(r.spans, o.span)
	} else {
		r.dropped.Add(1)
	}
	r.mu.Unlock()
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sessionKey extracts the session ID and kind from a /v1/sessions/{id}/kind
// path ("" when the path is not a session data-path request).
func sessionKey(path string) (id, kind string) {
	rest, ok := strings.CutPrefix(path, "/v1/sessions/")
	if !ok {
		return "", ""
	}
	id, kind, ok = strings.Cut(rest, "/")
	if !ok {
		return "", ""
	}
	return id, kind
}

// tracedHandler records one span per request served by h, named
// "<tier>.<kind>" (kind is frames, predict, or the last path element).
// Tier "front" records the client's request ID under the request's
// session and per-session sequence number; tier "worker" looks it up
// there, which is how the two hops of one decision share an ID.
type tracedHandler struct {
	tier string
	h    http.Handler
	rec  *recorder

	mu  sync.Mutex
	seq map[string]int
}

func traceHandler(tier string, h http.Handler, rec *recorder) *tracedHandler {
	return &tracedHandler{tier: tier, h: h, rec: rec, seq: map[string]int{}}
}

func (t *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !t.rec.enabled() {
		t.h.ServeHTTP(w, r)
		return
	}
	kind := r.URL.Path[strings.LastIndexByte(r.URL.Path, '/')+1:]
	req := r.Header.Get(reqHeader)
	if sid, k := sessionKey(r.URL.Path); sid != "" {
		kind = k
		t.mu.Lock()
		t.seq[sid+"/"+k]++
		key := fmt.Sprintf("%s/%s#%d", sid, k, t.seq[sid+"/"+k])
		t.mu.Unlock()
		switch t.tier {
		case "front":
			t.rec.mu.Lock()
			t.rec.frontReq[key] = req
			t.rec.mu.Unlock()
		case "worker":
			t.rec.mu.Lock()
			req = t.rec.frontReq[key]
			delete(t.rec.frontReq, key)
			t.rec.mu.Unlock()
		}
	}
	o := t.rec.begin(t.tier+"."+kind, req)
	t.h.ServeHTTP(w, r)
	t.rec.end(o, 0)
}

// tracedTransport wraps the benchmark clients' RoundTripper: it records
// the transport span and stamps the request ID of the enclosing client
// span on the request.
type tracedTransport struct {
	next http.RoundTripper
	rec  *recorder
}

func (t *tracedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if !t.rec.enabled() {
		return t.next.RoundTrip(r)
	}
	o := t.rec.begin("transport", "")
	if o.Req != "" {
		r = r.Clone(r.Context())
		r.Header.Set(reqHeader, o.Req)
	}
	resp, err := t.next.RoundTrip(r)
	t.rec.end(o, 0)
	return resp, err
}

// tracedBackend is the cloud.Backend the benchmark hands the program. It
// optionally waits a fixed real interval per call — the round trip to a
// real cloud, which the simulated service models in its accounting but
// never waits for — and records a span per call.
type tracedBackend struct {
	inner cloud.Backend
	wait  time.Duration
	rec   *recorder
}

func (b *tracedBackend) DetectTimed(eventType int, win video.Interval) (cloud.Detection, float64, error) {
	o := b.rec.begin("cloud.detect", "")
	if b.wait > 0 {
		time.Sleep(b.wait)
	}
	d, ms, err := b.inner.DetectTimed(eventType, win)
	b.rec.end(o, win.Len())
	return d, ms, err
}

func (b *tracedBackend) Usage() cloud.Usage  { return b.inner.Usage() }
func (b *tracedBackend) PerFrameMS() float64 { return b.inner.PerFrameMS() }

// tracedCache wraps the cluster's remote cache client.
type tracedCache struct {
	inner cicache.Remote
	rec   *recorder
}

func (c *tracedCache) Get(k cicache.Key, now int) (cicache.Verdict, bool) {
	o := c.rec.begin("cicache.get", "")
	v, ok := c.inner.Get(k, now)
	c.rec.end(o, 0)
	return v, ok
}

func (c *tracedCache) Put(k cicache.Key, v cicache.Verdict, now int) {
	o := c.rec.begin("cicache.put", "")
	c.inner.Put(k, v, now)
	c.rec.end(o, 0)
}

func (c *tracedCache) Contains(k cicache.Key, now int) bool {
	o := c.rec.begin("cicache.contains", "")
	ok := c.inner.Contains(k, now)
	c.rec.end(o, 0)
	return ok
}

func (c *tracedCache) Stats() cicache.Stats   { return c.inner.Stats() }
func (c *tracedCache) Config() cicache.Config { return c.inner.Config() }

// tracedPredictor is installed as a bundle's Predictor. It forwards the
// allocation-free PredictInto refinement so the traced path takes the
// same route through the strategy as the bare model.
type tracedPredictor struct {
	m   *core.Model
	rec *recorder
}

func (p *tracedPredictor) Predict(x [][]float64) core.Output {
	o := p.rec.begin("core.forward", "")
	out := p.m.Predict(x)
	p.rec.end(o, 0)
	return out
}

func (p *tracedPredictor) PredictInto(x [][]float64, out *core.Output) {
	o := p.rec.begin("core.forward", "")
	p.m.PredictInto(x, out)
	p.rec.end(o, 0)
}

// tracedSource wraps the offline pipeline's covariate source. The
// pipeline's incremental window cache assembles windows itself and asks
// the source only for new frames, so the per-frame call is the boundary
// it crosses per horizon.
type tracedSource struct {
	dataset.Source
	fs interface {
		FrameVector(t int, dst []float64) []float64
	}
	rec *recorder
}

func (s *tracedSource) FrameVector(t int, dst []float64) []float64 {
	o := s.rec.begin("features.frame", "")
	v := s.fs.FrameVector(t, dst)
	s.rec.end(o, 1)
	return v
}
