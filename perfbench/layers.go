package main

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"

	"eventhit/internal/strategy"
)

// endToEnd lists the end-to-end metrics every workload reports with
// -trace 0, with their units.
var endToEnd = []struct{ name, unit string }{
	{"frames_per_s", "frames/s"},
	{"decision_p50_ms", "ms"},
	{"relay_decision_p50_ms", "ms"},
	{"rec", "ratio"},
	{"ci_frames_per_kframe", "frames"},
	{"alloc_kb_per_kframe", "KiB"},
	{"mem_peak_mb", "MiB"},
	{"setup_s", "s"},
}

// perLayer lists the per-layer metrics every workload reports with
// -trace 1. A layer a workload does not pass through reads 0.
var perLayer = []struct{ name, unit string }{
	{"serve.frames_handler_us_per_frame", "us"},
	{"serve.frames_allocs_per_frame", "count"},
	{"serve.predict_handler_us_p50", "us"},
	{"serve.predict_allocs_per_request", "count"},
	{"serve.client_wait_us_p50", "us"},
	{"core.forward_us_p50", "us"},
	{"core.forwards", "count"},
	{"conformal.decide_us_p50", "us"},
	{"cloud.calls", "count"},
	{"cloud.frames_billed", "frames"},
	{"resilience.attempts", "count"},
	{"resilience.retries", "count"},
	{"cicache.lookups", "count"},
	{"cicache.hits", "count"},
	{"cicache.hit_ratio", "ratio"},
	{"cicache.lookup_us_p50", "us"},
	{"fleet.admitted_frames", "frames"},
	{"fleet.deferred_relays", "count"},
	{"fleet.lease_calls", "count"},
	{"fleet.lease_us_p50", "us"},
	{"cluster.front_hop_us_p50", "us"},
	{"cluster.busiest_worker_share", "ratio"},
	{"cluster.coord_requests", "count"},
	{"cluster.coord_busy_ms", "ms"},
	{"drift.observations", "count"},
	{"drift.alarm_episodes", "count"},
	{"drift.recalibration_swaps", "count"},
	{"drift.audit_frames", "frames"},
	{"pipeline.step_us_p50", "us"},
	{"features.window_us_p50", "us"},
	{"cascade.exits_tiny", "count"},
	{"cascade.exits_medium", "count"},
	{"cascade.exits_full", "count"},
	{"cascade.escalations", "count"},
	{"go.gc_cycles_per_kframe", "count"},
	{"trace.overhead_pct", "%"},
	{"trace.unattributed_share", "ratio"},
}

// finalMetrics keeps the metrics of the run's mode, in the listed units,
// filling 0 for a layer the workload does not pass through. Figures of
// the other mode are printed, not reported.
func (r *runner) finalMetrics() {
	want := endToEnd
	if r.opt.trace {
		want = perLayer
	}
	out := make(map[string]metricValue, len(want))
	for _, w := range want {
		v, ok := r.metrics[w.name]
		if !ok {
			v = metricValue{Unit: w.unit}
		}
		v.Unit = w.unit
		out[w.name] = v
	}
	var other []string
	for name, v := range r.metrics {
		if _, ok := out[name]; !ok {
			other = append(other, fmt.Sprintf("%s=%.6g %s", name, v.Value, v.Unit))
		}
	}
	sort.Strings(other)
	if len(other) > 0 {
		fmt.Fprintf(r.out, "not reported in this mode: %s\n", strings.Join(other, ", "))
	}
	r.metrics = out
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// spanIndex groups a traced phase's spans for the per-layer figures.
type spanIndex struct {
	byName   map[string][]span
	byReq    map[string][]span
	children map[int64][]span
}

func indexSpans(spans []span) *spanIndex {
	ix := &spanIndex{byName: map[string][]span{}, byReq: map[string][]span{}, children: map[int64][]span{}}
	for _, s := range spans {
		ix.byName[s.Name] = append(ix.byName[s.Name], s)
		if s.Req != "" {
			ix.byReq[s.Req] = append(ix.byReq[s.Req], s)
		}
		if s.Parent != 0 {
			ix.children[s.Parent] = append(ix.children[s.Parent], s)
		}
	}
	return ix
}

func (ix *spanIndex) durs(names ...string) []float64 {
	var out []float64
	for _, n := range names {
		for _, s := range ix.byName[n] {
			out = append(out, us(s.dur()))
		}
	}
	return out
}

func (ix *spanIndex) count(names ...string) int {
	n := 0
	for _, name := range names {
		n += len(ix.byName[name])
	}
	return n
}

// covered returns how much of [lo, hi) the spans cover.
func covered(lo, hi int64, spans []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, s := range spans {
		a, b := s.Start, s.End
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = lo
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		if v.a < end {
			v.a = end
		}
		total += v.b - v.a
		end = v.b
	}
	return total
}

// outermost returns the earliest-starting span of req among names.
func (ix *spanIndex) outermost(req string, names ...string) (span, bool) {
	var best span
	found := false
	for _, s := range ix.byReq[req] {
		for _, n := range names {
			if s.Name == n && (!found || s.Start < best.Start) {
				best, found = s, true
			}
		}
	}
	return best, found
}

// layerFigures sets every span-derived per-layer metric.
func (r *runner) layerFigures(ix *spanIndex) {
	pushed := 0
	for _, s := range ix.byName["client.frames"] {
		pushed += s.N
	}
	handlerFrames := ix.durs("server.frames", "worker.frames")
	if pushed > 0 && len(handlerFrames) > 0 {
		sum := 0.0
		for _, d := range handlerFrames {
			sum += d
		}
		r.set("serve.frames_handler_us_per_frame", "us", sum/float64(pushed))
	}
	r.set("serve.predict_handler_us_p50", "us", median(ix.durs("server.predict", "worker.predict")))
	var wait, hop []float64
	for _, c := range ix.byName["client.predict"] {
		if h, ok := ix.outermost(c.Req, "front.predict", "server.predict"); ok {
			wait = append(wait, us(c.dur()-h.dur()))
		}
	}
	for _, kind := range []string{"frames", "predict"} {
		for _, f := range ix.byName["front."+kind] {
			if w, ok := ix.outermost(f.Req, "worker."+kind); ok {
				hop = append(hop, us(f.dur()-w.dur()))
			}
		}
	}
	r.set("serve.client_wait_us_p50", "us", median(wait))
	r.set("cluster.front_hop_us_p50", "us", median(hop))
	r.set("core.forward_us_p50", "us", median(ix.durs("core.forward")))
	if _, ok := r.metrics["core.forwards"]; !ok {
		r.set("core.forwards", "count", float64(ix.count("core.forward")))
	}
	r.set("cloud.calls", "count", float64(ix.count("cloud.detect")))
	r.set("cicache.lookup_us_p50", "us", median(ix.durs("cicache.contains", "cicache.get")))
	r.set("fleet.lease_calls", "count", float64(ix.count("coord.lease")))
	r.set("fleet.lease_us_p50", "us", median(ix.durs("coord.lease")))
	coord, busy := 0, 0.0
	for name, ss := range ix.byName {
		if strings.HasPrefix(name, "coord.") {
			coord += len(ss)
			for _, s := range ss {
				busy += float64(s.dur()) / 1e6
			}
		}
	}
	r.set("cluster.coord_requests", "count", float64(coord))
	r.set("cluster.coord_busy_ms", "ms", busy)
	r.set("pipeline.step_us_p50", "us", median(ix.durs("pipeline.step")))
	var window []float64
	for _, s := range ix.byName["pipeline.step"] {
		var t int64
		for _, c := range ix.byReq[s.Req] {
			if c.Name == "features.frame" {
				t += c.dur()
			}
		}
		window = append(window, us(t))
	}
	r.set("features.window_us_p50", "us", median(window))

	// Unattributed: the share of the benchmark's decision calls (client
	// predicts, pipeline steps) that no layer span of the same request
	// covers.
	var total, uncovered int64
	for _, name := range []string{"client.predict", "pipeline.step"} {
		for _, c := range ix.byName[name] {
			var layers []span
			for _, s := range ix.byReq[c.Req] {
				if s.ID != c.ID {
					layers = append(layers, s)
				}
			}
			total += c.dur()
			uncovered += c.dur() - covered(c.Start, c.End, layers)
		}
	}
	if total > 0 {
		r.set("trace.unattributed_share", "ratio", float64(uncovered)/float64(total))
	}
}

// tracedPhase is what a workload hands tracedTail about its traced phase.
type tracedPhase struct {
	untraced, traced *meter
	// srv serves the allocation probe with cam's frames; nil where the
	// workload runs no serve.Server.
	srv http.Handler
	cam *camera
	win int
	// bundle decides the windows again for conformal.decide_us_p50; with
	// no windows (decisions not made by the bundle's EHCR) it reads 0.
	bundle  *strategy.Bundle
	windows [][][]float64
	anchors []int
}

// tracedTail sets the per-layer figures every workload's traced phase
// shares, prints the traced phase's end-to-end figures and the tracing
// overhead, and writes the span file and layer table. A workload sets
// its own counts before calling it.
func (r *runner) tracedTail(p tracedPhase) error {
	ix := indexSpans(r.rec.snapshot())
	r.layerFigures(ix)
	r.set("go.gc_cycles_per_kframe", "count", p.traced.gcPerKFrame())
	r.overhead(p.untraced, p.traced)
	r.reportEndToEnd(p.traced)
	if p.srv != nil {
		perFrame, perPredict, err := probeAllocs(p.srv, p.cam, p.win)
		if err != nil {
			return err
		}
		r.set("serve.frames_allocs_per_frame", "count", perFrame)
		r.set("serve.predict_allocs_per_request", "count", perPredict)
	}
	if len(p.windows) > 0 {
		r.set("conformal.decide_us_p50", "us", decideTiming(newRefClone(p.bundle), p.windows, p.anchors))
	}
	return r.writeLayerTable(ix)
}

// writeLayerTable writes the span file and prints (and stores) the
// per-span-name table: count, total, self time and median.
func (r *runner) writeLayerTable(ix *spanIndex) error {
	spanPath, err := r.spanFile("spans.jsonl")
	if err != nil {
		return err
	}
	if err := r.rec.write(spanPath); err != nil {
		return err
	}
	tablePath, err := r.spanFile("layers.txt")
	if err != nil {
		return err
	}
	f, err := os.Create(tablePath)
	if err != nil {
		return err
	}
	w := io.MultiWriter(f, r.out)
	names := make([]string, 0, len(ix.byName))
	for n := range ix.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-26s %9s %12s %12s %10s\n", "span", "count", "total_ms", "self_ms", "p50_us")
	for _, n := range names {
		var tot, self int64
		for _, s := range ix.byName[n] {
			tot += s.dur()
			self += s.dur() - covered(s.Start, s.End, ix.children[s.ID])
		}
		fmt.Fprintf(w, "%-26s %9d %12.3f %12.3f %10.2f\n", n, len(ix.byName[n]),
			float64(tot)/1e6, float64(self)/1e6, median(ix.durs(n)))
	}
	if d := r.rec.dropped.Load(); d > 0 {
		fmt.Fprintf(w, "spans dropped past the %d-span buffer: %d\n", maxSpans, d)
	}
	fmt.Fprintf(r.out, "spans written to %s, table to %s\n", spanPath, tablePath)
	return f.Close()
}
