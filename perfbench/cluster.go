package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"

	"eventhit/internal/cicache"
	"eventhit/internal/cloud"
	"eventhit/internal/cluster"
	"eventhit/internal/fleet"
	"eventhit/internal/serve"
	"eventhit/internal/strategy"
	"eventhit/internal/video"
)

// fleetBudgetUSD is large enough never to bind, so which relay is
// deferred never depends on thread timing.
const fleetBudgetUSD = 1e6

// clusterDeploy is a coordinator, two workers and the front on loopback.
type clusterDeploy struct {
	bundle  *strategy.Bundle
	coord   *cluster.Coordinator
	workers []*cluster.Worker
	caches  []cicache.Remote
	servers []*http.Server
	front   *cluster.Front
	url     string
	client  *serve.Client
	hc      *http.Client
	tr      *http.Transport
	ci      *cloud.Service
	// coordHC is the benchmark's own client to the coordinator (remote
	// cache dial and stats).
	coordHC *http.Client
}

func (d *clusterDeploy) close() {
	for _, w := range d.workers {
		w.Close()
	}
	for _, hs := range d.servers {
		shutdown(hs)
	}
	d.tr.CloseIdleConnections()
}

// newClusterDeploy trains the bundle once and starts the coordinator
// (budget leases, ε=0 shared remote cache), two workers each serving its
// own Bundle.Clone() with the fleet arbiter on, and the front.
func newClusterDeploy(r *runner, in *trainInputs, st *video.Stream) (*clusterDeploy, error) {
	b, err := in.train()
	if err != nil {
		return nil, err
	}
	d := &clusterDeploy{bundle: b, coordHC: &http.Client{Timeout: 30 * time.Second}}
	ok := false
	defer func() {
		if !ok {
			d.close()
		}
	}()
	d.tr = &http.Transport{}
	cacheCfg := cicache.DefaultConfig()
	d.coord, err = cluster.NewCoordinator(cluster.CoordinatorConfig{BudgetUSD: fleetBudgetUSD, PerFrameUSD: perFrameUSD, Cache: &cacheCfg})
	if err != nil {
		return nil, err
	}
	var coordH http.Handler = d.coord
	if r.rec != nil {
		coordH = traceHandler("coord", d.coord, r.rec)
	}
	hs, coordURL, err := listen(coordH)
	if err != nil {
		return nil, err
	}
	d.servers = append(d.servers, hs)
	d.ci = cloud.NewService(st, cloud.RekognitionPricing(), cloud.DefaultLatency())
	var refs []cluster.WorkerRef
	for i := 0; i < 2; i++ {
		clone := b.Clone()
		if r.rec != nil {
			clone.Predictor = &tracedPredictor{m: clone.Model, rec: r.rec}
		}
		rc, err := cluster.DialRemoteCache(coordURL, d.coordHC)
		if err != nil {
			return nil, err
		}
		var cache cicache.Remote = rc
		if r.rec != nil {
			cache = &tracedCache{inner: rc, rec: r.rec}
		}
		d.caches = append(d.caches, cache)
		id := fmt.Sprintf("worker-%d", i)
		w, err := cluster.NewWorker(cluster.WorkerConfig{ID: id, Coordinator: coordURL, Serve: serve.Config{
			Bundle:            clone,
			EventNames:        []string{st.Spec.Events[0].Name},
			PerFrameUSD:       perFrameUSD,
			DefaultConfidence: confidence,
			DefaultCoverage:   coverage,
			CI:                &tracedBackend{inner: d.ci, wait: ciWait, rec: r.rec},
			RemoteCache:       cache,
			Fleet:             &fleet.ArbiterConfig{PerFrameUSD: perFrameUSD},
		}})
		if err != nil {
			return nil, err
		}
		d.workers = append(d.workers, w)
		var wh http.Handler = w
		if r.rec != nil {
			wh = traceHandler("worker", w, r.rec)
		}
		hs, url, err := listen(wh)
		if err != nil {
			return nil, err
		}
		d.servers = append(d.servers, hs)
		ref := cluster.WorkerRef{ID: id, URL: url}
		if err := d.coord.RegisterWorker(ref); err != nil {
			return nil, err
		}
		refs = append(refs, ref)
	}
	d.front, err = cluster.NewFront(cluster.FrontConfig{Workers: refs, Coordinator: coordURL})
	if err != nil {
		return nil, err
	}
	var fh http.Handler = d.front
	if r.rec != nil {
		fh = traceHandler("front", d.front, r.rec)
	}
	hs, d.url, err = listen(fh)
	if err != nil {
		return nil, err
	}
	d.servers = append(d.servers, hs)
	var rt http.RoundTripper
	rt, d.tr = clientTransport(r.rec)
	d.hc = &http.Client{Transport: rt, Timeout: 30 * time.Second}
	d.client = serve.NewClient(d.url, d.hc)
	// The first frame goes through the front to a setup session.
	ctx := context.Background()
	if _, err := d.client.CreateSession(ctx, "setup", ""); err != nil {
		return nil, err
	}
	if _, err := d.client.PushFramesSession(ctx, "setup", [][]float64{make([]float64, in.dim)}); err != nil {
		return nil, err
	}
	ok = true
	return d, nil
}

// clusterMaxRate is the decisions per second cluster-fleet's meter
// reserves room for: several times the rate it runs at.
const clusterMaxRate = 4000

// twinPair is one client's camera filmed by two sessions.
type twinPair struct {
	cam  *camera
	runs [2]*camRun
}

// runClusterFleet: two clients, each driving one pair of twin cameras
// (same detector seed) through the front, one decision per horizon per
// twin. Rounds start together so session names, and so routing, are the
// same in every run.
func runClusterFleet(r *runner) error {
	in, err := ta10Inputs(r.opt.smoke)
	if err != nil {
		return err
	}
	st := servedStream(video.THUMOS(), 2)
	deps, err := setups(r, func() (*clusterDeploy, error) { return newClusterDeploy(r, in, st) })
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
	var phases [][]*twinPair
	for i, length := range r.phaseLengths() {
		d := deps[i]
		var pairs []*twinPair
		m := r.phase(length, i == 1, clusterMaxRate, func(m *meter, deadline time.Time) {
			for round := 0; time.Now().Before(deadline); round++ {
				var wg sync.WaitGroup
				for c := 0; c < 2; c++ {
					cam, err := newCamera(st, r.opt.seed, 2*round+c, false)
					if err != nil {
						r.check(false, "camera: %v", err)
						return
					}
					p := &twinPair{cam: cam}
					for t := range p.runs {
						p.runs[t] = &camRun{cam: cam, id: fmt.Sprintf("r%d-c%d-t%d", round, c, t)}
					}
					pairs = append(pairs, p)
					wg.Add(1)
					go func() {
						defer wg.Done()
						for _, run := range p.runs {
							if err := r.call("client.create", 0, func() error {
								_, err := d.client.CreateSession(ctx, run.id, "")
								return err
							}); err != nil {
								return
							}
						}
						if err := r.streamCamera(ctx, d.client, p.cam, p.runs[:], m, deadline, win, h); err != nil {
							fmt.Fprintf(r.out, "twin pair %s stopped: %v\n", p.runs[0].id, err)
						}
					}()
				}
				wg.Wait()
			}
		})
		meters = append(meters, m)
		phases = append(phases, pairs)
	}

	ref := newRefClone(deps[0].bundle)
	nCal := positiveCalibration(in)
	var cov coverageTally
	for i, pairs := range phases {
		d := deps[i]
		var firstRelays, secondRelays, firstFrames int64
		for _, p := range pairs {
			a, b := p.runs[0].decisions, p.runs[1].decisions
			r.check(len(b) <= len(a) && len(a) <= len(b)+1, "twins %s: %d vs %d decisions", p.runs[0].id, len(a), len(b))
			for j, da := range a {
				r.checkContained(da, h)
				want := refDecision(ref.b, p.cam.window(da.anchor, win), da.anchor)
				r.check(sameDecision(da, want), "%s anchor %d: served %+v, reference clone %+v", p.runs[0].id, da.anchor, da, want)
				cov.add(st, 0, h, da)
				if da.relay {
					firstRelays++
					firstFrames += int64(da.end - da.start + 1)
				}
				if j < len(b) {
					db := b[j]
					r.check(da == db, "twins %s anchor %d: %+v vs %+v", p.runs[0].id, da.anchor, da, db)
					if db.relay {
						secondRelays++
					}
				}
			}
		}
		cs := d.front.Stats()
		t := cs.Totals
		cache := d.caches[0].Stats()
		billed := d.ci.Usage().Frames
		budget := d.coord.Budget()
		r.check(cache.Hits == secondRelays, "phase %d: cache hits %d, second-twin relays %d", i, cache.Hits, secondRelays)
		r.check(billed == firstFrames, "phase %d: CI billed %d frames, first-twin relay ranges %d", i, billed, firstFrames)
		r.check(t.FramesToCloud == billed, "phase %d: workers report %d frames to cloud, CI billed %d", i, t.FramesToCloud, billed)
		r.check(float64(billed)*perFrameUSD <= budget.BudgetUSD && float64(budget.GrantedTot)*perFrameUSD <= budget.BudgetUSD,
			"phase %d: spend %d frames / leased %d frames over budget $%.2f", i, billed, budget.GrantedTot, budget.BudgetUSD)
		r.deferred.Add(t.DeferredRelays + t.AdmissionDeferred)
		fmt.Fprintf(r.out, "phase %d: %d twin pairs, first-twin relays %d, second-twin relays %d, cache hits %d, billed %d frames, routed %v\n",
			i, len(pairs), firstRelays, secondRelays, cache.Hits, billed, cs.Routed)
		if i == 0 {
			var rec recTally
			frames := 0
			for _, p := range pairs {
				for _, run := range p.runs {
					frames += run.frames
					for _, dec := range run.decisions {
						rec.add(st, 0, h, dec)
					}
				}
			}
			r.set("rec", "ratio", rec.value())
			if frames > 0 {
				r.set("ci_frames_per_kframe", "frames", float64(billed)/float64(frames)*1000)
			}
			r.reportEndToEnd(meters[0])
		}
		if i == 1 {
			if err := r.clusterLayers(ctx, d, cs, cache, pairs, in, meters); err != nil {
				return err
			}
		}
	}
	r.checkCoverage("all cameras", cov, nCal)
	r.finalMetrics()
	return nil
}

// clusterLayers sets the per-layer figures of the traced phase.
func (r *runner) clusterLayers(ctx context.Context, d *clusterDeploy, cs cluster.ClusterStats, cache cicache.Stats, pairs []*twinPair, in *trainInputs, meters []*meter) error {
	t := cs.Totals
	r.set("cloud.frames_billed", "frames", float64(d.ci.Usage().Frames))
	attempts := 0.0
	for _, wr := range d.front.WorkerRefs() {
		a, err := scrapeMetric(ctx, d.coordHC, wr.URL+"/metrics", "eventhit_resilience_attempts_total")
		if err != nil {
			return err
		}
		attempts += a
	}
	r.set("resilience.attempts", "count", attempts)
	r.set("resilience.retries", "count", float64(t.CIRetried))
	r.set("cicache.lookups", "count", float64(cache.Hits+cache.Misses))
	r.set("cicache.hits", "count", float64(cache.Hits))
	r.set("cicache.hit_ratio", "ratio", cache.HitRatio())
	r.set("fleet.admitted_frames", "frames", math.Round(t.AdmittedUSD/perFrameUSD))
	r.set("fleet.deferred_relays", "count", float64(t.AdmissionDeferred))
	var max, sum int64
	for _, n := range cs.Routed {
		sum += n
		if n > max {
			max = n
		}
	}
	if sum > 0 {
		r.set("cluster.busiest_worker_share", "ratio", float64(max)/float64(sum))
	}
	p := tracedPhase{untraced: meters[0], traced: meters[1], win: in.cfg.Window, bundle: d.bundle}
	if len(pairs) > 0 {
		p.srv, p.cam = d.workers[0].Server(), pairs[0].cam
	}
	var runs []*camRun
	for _, tp := range pairs {
		runs = append(runs, tp.runs[0])
	}
	p.windows, p.anchors = tracedWindows(runs, in.cfg.Window, maxTracedWindows)
	return r.tracedTail(p)
}
