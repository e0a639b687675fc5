package main

import (
	"fmt"
	"strconv"
	"time"

	"eventhit/internal/cascade"
	"eventhit/internal/cloud"
	"eventhit/internal/dataset"
	"eventhit/internal/features"
	"eventhit/internal/obs"
	"eventhit/internal/pipeline"
	"eventhit/internal/strategy"
	"eventhit/internal/video"
)

// offlineStreams is how many held-out VIRAT streams the loop walks in
// turn (and then walks again, in the same order). Each has its own
// camera detector; with four, the relay volume followed the four
// detectors' draws and ci_frames_per_kframe moved 9% between seeds.
const offlineStreams = 16

// offlineStream is one held-out stream with its marshaller.
type offlineStream struct {
	st *video.Stream
	ex *features.Extractor
	ci *cloud.Service
	m  *pipeline.Marshaller
}

// offlineDeploy is the trained cascade and one marshaller per stream.
type offlineDeploy struct {
	bundle  *strategy.Bundle
	casc    *cascade.Cascade
	streams []*offlineStream
}

func (d *offlineDeploy) close() {}

// newOfflineDeploy trains the full TA1 model and the cascade's lowered
// rungs and builds one incremental-covariate marshaller per held-out
// stream, all serving the one cascade.
func newOfflineDeploy(r *runner, in *trainInputs, streams []*offlineStream) (*offlineDeploy, error) {
	b, err := in.train()
	if err != nil {
		return nil, err
	}
	casc, err := in.trainCascade(b)
	if err != nil {
		return nil, err
	}
	d := &offlineDeploy{bundle: b, casc: casc}
	for _, s := range streams {
		ci := cloud.NewService(s.st, cloud.RekognitionPricing(), cloud.DefaultLatency())
		var src dataset.Source = s.ex
		if r.rec != nil {
			src = &tracedSource{Source: s.ex, fs: s.ex, rec: r.rec}
		}
		costs := pipeline.EventHitCosts(in.cfg.Window)
		costs.Incremental = true
		costs.Cascade = casc
		costs.Metrics = obs.NewRegistry()
		m, err := pipeline.New(src, nil, &tracedBackend{inner: ci, rec: r.rec}, in.cfg, costs)
		if err != nil {
			return nil, err
		}
		d.streams = append(d.streams, &offlineStream{st: s.st, ex: s.ex, ci: ci, m: m})
	}
	return d, nil
}

// offlineTally accumulates a phase's outcomes as they arrive, so the
// benchmark's own memory does not grow with the run.
type offlineTally struct {
	steps   int
	relayed int64
	rec     recTally
}

// offlineMaxRate is the decisions per second offline-cascade's meter
// reserves room for: several times the rate it runs at.
const offlineMaxRate = 80000

// runOfflineCascade: the offline marshalling loop, one horizon per
// RunDetailed call, over held-out streams in turn.
func runOfflineCascade(r *runner) error {
	in, err := ta1Inputs(r.opt.smoke)
	if err != nil {
		return err
	}
	var held []*offlineStream
	for i := 0; i < offlineStreams; i++ {
		st := servedStream(video.VIRAT(), 10+i)
		ex, err := features.NewExtractor(st, []int{0}, features.DefaultDetector(), r.opt.seed*1_000_003+int64(i)+17)
		if err != nil {
			return err
		}
		held = append(held, &offlineStream{st: st, ex: ex})
	}
	deps, err := setups(r, func() (*offlineDeploy, error) { return newOfflineDeploy(r, in, held) })
	if err != nil {
		return err
	}
	win, h := in.cfg.Window, in.cfg.Horizon
	var meters []*meter
	var phases []*offlineTally
	var exits0 []cascade.Stats
	for i, length := range r.phaseLengths() {
		d := deps[i]
		exits0 = append(exits0, d.casc.Stats())
		tally := &offlineTally{}
		m := r.phase(length, i == 1, offlineMaxRate, func(m *meter, deadline time.Time) {
			for pass := 0; ; pass++ {
				si := pass % len(d.streams)
				s := d.streams[si]
				for t := win - 1; t+h <= s.st.N-1; t += h {
					if !time.Now().Before(deadline) {
						return
					}
					var o *openSpan
					if r.rec.enabled() {
						o = r.rec.begin("pipeline.step", "s"+strconv.Itoa(tally.steps))
					}
					t0 := time.Now()
					_, _, preds, outs, err := s.m.RunDetailed(t, t+h)
					lat := time.Since(t0)
					r.rec.end(o, h)
					r.attempted.Add(1)
					if err != nil || len(preds) != 1 {
						r.check(false, "stream %d anchor %d: RunDetailed returned %d horizons, err %v", si, t, len(preds), err)
						return
					}
					for _, out := range outs {
						if out.Deferred {
							r.deferred.Add(1)
						}
					}
					dec := decisionOf(preds[0], t)
					m.decided(lat, h, dec.relay)
					tally.steps++
					r.checkContained(dec, h)
					if dec.relay {
						tally.relayed += int64(dec.end - dec.start + 1)
					}
					tally.rec.add(s.st, 0, h, dec)
				}
			}
		})
		meters = append(meters, m)
		phases = append(phases, tally)
	}

	for i, tally := range phases {
		d := deps[i]
		st := d.casc.Stats()
		horizons := st.Horizons - exits0[i].Horizons
		var exitSum int64
		for k := range st.Exits {
			exitSum += st.Exits[k] - exits0[i].Exits[k]
		}
		r.check(exitSum == horizons && horizons == int64(tally.steps),
			"phase %d: cascade exits sum to %d over %d horizons, %d steps", i, exitSum, horizons, tally.steps)
		var billed int64
		for _, s := range d.streams {
			billed += s.ci.Usage().Frames
		}
		r.check(billed == tally.relayed, "phase %d: CI billed %d frames, relay ranges %d", i, billed, tally.relayed)
		fmt.Fprintf(r.out, "phase %d: %d horizons, exits %v, escalations %d, billed %d frames\n",
			i, horizons, diffExits(st, exits0[i]), st.Escalations-exits0[i].Escalations, billed)
		if i == 0 {
			r.set("rec", "ratio", tally.rec.value())
			if tally.steps > 0 {
				r.set("ci_frames_per_kframe", "frames", float64(billed)/float64(tally.steps*h)*1000)
			}
			r.reportEndToEnd(meters[0])
			fmt.Fprintf(r.out, "rec over %d positive horizons\n", tally.rec.den)
		}
		if i == 1 {
			ex := diffExits(st, exits0[i])
			r.set("cascade.exits_tiny", "count", float64(ex[0]))
			r.set("cascade.exits_medium", "count", float64(ex[1]))
			r.set("cascade.exits_full", "count", float64(ex[2]))
			esc := st.Escalations - exits0[i].Escalations
			r.set("cascade.escalations", "count", float64(esc))
			// Every horizon runs one rung forward pass, plus one per
			// escalation.
			r.set("core.forwards", "count", float64(horizons+esc))
			r.set("cloud.frames_billed", "frames", float64(billed))
			// The cascade decides, not the bundle's EHCR, so
			// conformal.decide_us_p50 is not timed and reads 0.
			if err := r.tracedTail(tracedPhase{untraced: meters[0], traced: meters[1]}); err != nil {
				return err
			}
		}
	}
	r.finalMetrics()
	return nil
}

// diffExits returns per-rung exits since a baseline snapshot
// (tiny, medium, full for the default ladder).
func diffExits(now, base cascade.Stats) []int64 {
	out := make([]int64, len(now.Exits))
	for i := range out {
		out[i] = now.Exits[i] - base.Exits[i]
	}
	return out
}
