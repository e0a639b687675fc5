package pipeline

import (
	"reflect"
	"strings"
	"testing"

	"eventhit/internal/cicache"
	"eventhit/internal/cloud"
	"eventhit/internal/obs"
	"eventhit/internal/resilience"
	"eventhit/internal/strategy"
	"eventhit/internal/video"
)

// relayRecorder sits between the resilient client and the marshaller's
// backend and records how each relay was addressed: plain, or keyed with
// the content signature a caching backend dedups on.
type relayRecorder struct {
	cloud.Backend
	keys  []cicache.Key
	keyed []bool
}

func (r *relayRecorder) DetectTimed(eventType int, win video.Interval) (cloud.Detection, float64, error) {
	r.keys, r.keyed = append(r.keys, cicache.Key{}), append(r.keyed, false)
	return r.Backend.DetectTimed(eventType, win)
}

func (r *relayRecorder) DetectTimedKeyed(key cicache.Key, eventType int, win video.Interval) (cloud.Detection, float64, error) {
	r.keys, r.keyed = append(r.keys, key), append(r.keyed, true)
	return r.Backend.(cloud.KeyedDetector).DetectTimedKeyed(key, eventType, win)
}

// TestCollectMatchesRun: collect mode captures exactly the relays a served
// run makes — same targets, same cache keys — with identical predictions,
// records and local stage times, and bills nothing. The cascade case pins
// that both modes charge the ladder's rung-weighted predict cost.
func TestCollectMatchesRun(t *testing.T) {
	cases := []struct {
		name  string
		strat func(t *testing.T) strategy.Strategy
		costs func(c *Costs)
	}{
		{"opt", func(*testing.T) strategy.Strategy { return strategy.Opt{} }, func(*Costs) {}},
		{"cascade", func(*testing.T) strategy.Strategy { return nil }, func(c *Costs) { c.Cascade = getCascade(t).casc }},
		{"opt-cached", func(*testing.T) strategy.Strategy { return strategy.Opt{} }, func(c *Costs) {
			cc := cicache.DefaultConfig()
			c.Cache = &cc
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ex, ci, cfg := setup(t)
			costs := EventHitCosts(cfg.Window)
			costs.Metrics = obs.NewRegistry()
			tc.costs(&costs)
			mc, err := New(ex, tc.strat(t), ci, cfg, costs)
			if err != nil {
				t.Fatal(err)
			}
			tl, err := mc.Collect(0, 30000)
			if err != nil {
				t.Fatal(err)
			}
			if u := ci.Usage(); u.Frames != 0 || u.Requests != 0 {
				t.Fatalf("collect billed the CI: %+v", u)
			}

			mr, err := New(ex, tc.strat(t), ci, cfg, costs)
			if err != nil {
				t.Fatal(err)
			}
			var inner cloud.Backend = ci
			if mr.cached != nil {
				inner = mr.cached
			}
			relayed := &relayRecorder{Backend: inner}
			mr.res = resilience.NewClient(relayed, resilience.DefaultConfig(0), mr.clock)
			rep, recs, preds, outs, err := mr.RunDetailed(0, 30000)
			if err != nil {
				t.Fatal(err)
			}
			if tl.Horizons != rep.Horizons || tl.Frames != rep.Frames {
				t.Fatalf("horizons/frames: collect %d/%d, run %d/%d", tl.Horizons, tl.Frames, rep.Horizons, rep.Frames)
			}
			if tl.ScanMS != rep.ScanMS || tl.PredMS != rep.PredictMS {
				t.Fatalf("stage times: collect %v/%v, run %v/%v", tl.ScanMS, tl.PredMS, rep.ScanMS, rep.PredictMS)
			}
			if !reflect.DeepEqual(tl.Preds, preds) || len(tl.Records) != len(recs) {
				t.Fatalf("records/preds differ: collect %d/%d, run %d/%d", len(tl.Records), len(tl.Preds), len(recs), len(preds))
			}
			if len(tl.Requests) == 0 || len(tl.Requests) != len(outs) || len(outs) != len(relayed.keys) {
				t.Fatalf("collect captured %d requests, run made %d relays (%d reached the backend)",
					len(tl.Requests), len(outs), len(relayed.keys))
			}
			for i, r := range tl.Requests {
				o := outs[i]
				if r.Horizon != o.Horizon || r.Event != o.Event {
					t.Fatalf("request %d targets (%d,%d), run relayed (%d,%d)", i, r.Horizon, r.Event, o.Horizon, o.Event)
				}
				if r.Key != relayed.keys[i] || r.Keyed != relayed.keyed[i] {
					t.Fatalf("request %d key %v/%v, run relayed %v/%v", i, r.Key, r.Keyed, relayed.keys[i], relayed.keyed[i])
				}
				if r.Keyed != (costs.Cache != nil) {
					t.Fatalf("request %d Keyed=%v with cache %v", i, r.Keyed, costs.Cache != nil)
				}
				if r.Seq != i {
					t.Fatalf("request %d has Seq %d", i, r.Seq)
				}
				p := tl.Preds[r.Horizon]
				if r.SlackFrames != p.OI[r.Event].Start {
					t.Fatalf("request %d slack %d, predicted start %d", i, r.SlackFrames, p.OI[r.Event].Start)
				}
				if r.Win.Len() <= 0 {
					t.Fatalf("request %d empty window %+v", i, r.Win)
				}
			}
		})
	}
}

// TestCollectReleaseTimesMonotone: release times advance with the local
// clock, one scan+predict increment per horizon.
func TestCollectReleaseTimesMonotone(t *testing.T) {
	ex, ci, cfg := setup(t)
	costs := EventHitCosts(cfg.Window)
	m, err := New(ex, strategy.BF{Horizon: cfg.Horizon}, ci, cfg, costs)
	if err != nil {
		t.Fatal(err)
	}
	tl, err := m.Collect(0, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if len(tl.Requests) != tl.Horizons {
		t.Fatalf("BF must relay once per horizon: %d requests, %d horizons", len(tl.Requests), tl.Horizons)
	}
	perHorizon := float64(costs.Scan.FramesPerHorizon)*costs.Scan.PerFrameMS + costs.PredictMS
	for i, r := range tl.Requests {
		want := float64(r.Horizon+1) * perHorizon
		if r.ReleaseMS != want {
			t.Fatalf("request %d released at %v, want %v", i, r.ReleaseMS, want)
		}
		if i > 0 && r.ReleaseMS < tl.Requests[i-1].ReleaseMS {
			t.Fatalf("release times not monotone at %d", i)
		}
	}
	if got := tl.LocalMS(); got != float64(tl.Horizons)*perHorizon {
		t.Fatalf("LocalMS = %v, want %v", got, float64(tl.Horizons)*perHorizon)
	}
}

// TestCostsRejectRetriesWithResilience: setting both retry knobs is a
// configuration error, not a silent preference.
func TestCostsRejectRetriesWithResilience(t *testing.T) {
	ex, ci, cfg := setup(t)
	costs := EventHitCosts(cfg.Window)
	costs.CIRetries = 2
	rcfg := resilience.DefaultConfig(1)
	costs.Resilience = &rcfg
	_, err := New(ex, strategy.Opt{}, ci, cfg, costs)
	if err == nil {
		t.Fatal("New accepted CIRetries together with Resilience")
	}
	if !strings.Contains(err.Error(), "CIRetries") {
		t.Fatalf("error does not name the conflict: %v", err)
	}

	// Each knob alone is still fine.
	costs.Resilience = nil
	if _, err := New(ex, strategy.Opt{}, ci, cfg, costs); err != nil {
		t.Fatalf("CIRetries alone rejected: %v", err)
	}
	costs.CIRetries = 0
	costs.Resilience = &rcfg
	if _, err := New(ex, strategy.Opt{}, ci, cfg, costs); err != nil {
		t.Fatalf("Resilience alone rejected: %v", err)
	}
}

// TestRunDetailedOneHorizonAllocs pins the allocation ceiling of one
// RunDetailed call covering a single horizon — the offline loop's call
// shape — with and without the CI result cache. strategy.BF relays every
// horizon, so the relay path is always exercised.
func TestRunDetailedOneHorizonAllocs(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cached bool
		max    float64
	}{{"uncached", false, 9}, {"cached", true, 12}} {
		t.Run(tc.name, func(t *testing.T) {
			ex, ci, cfg := setup(t)
			costs := EventHitCosts(cfg.Window)
			costs.Incremental = true
			costs.Metrics = obs.NewRegistry()
			if tc.cached {
				cc := cicache.DefaultConfig()
				costs.Cache = &cc
			}
			m, err := New(ex, strategy.BF{Horizon: cfg.Horizon}, ci, cfg, costs)
			if err != nil {
				t.Fatal(err)
			}
			anchor := cfg.Window - 1
			allocs := testing.AllocsPerRun(50, func() {
				rep, _, _, outs, err := m.RunDetailed(anchor, anchor+cfg.Horizon)
				if err != nil || rep.Horizons != 1 || len(outs) != 1 {
					t.Fatalf("anchor %d: horizons=%d relays=%d err=%v", anchor, rep.Horizons, len(outs), err)
				}
				anchor += cfg.Horizon
			})
			t.Logf("%.0f allocs/call", allocs)
			if allocs > tc.max {
				t.Fatalf("one-horizon RunDetailed: %.0f allocs/call, want <= %.0f", allocs, tc.max)
			}
		})
	}
}
