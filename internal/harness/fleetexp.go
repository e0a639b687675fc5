package harness

import (
	"fmt"
	"io"

	"eventhit/internal/features"
	"eventhit/internal/fleet"
	"eventhit/internal/mathx"
	"eventhit/internal/pipeline"
	"eventhit/internal/video"
)

// FleetResult is the machine-readable record emitted as BENCH_fleet.json:
// one model trained on a task and deployed across n independently generated
// camera streams, all marshalled against ONE shared, budgeted CI backend by
// the fleet scheduler. Same seed + stream count + policy => byte-identical
// JSON at any fleet parallelism.
type FleetResult struct {
	Task       string  `json:"task"`
	Seed       int64   `json:"seed"`
	Streams    int     `json:"streams"`
	Frames     int     `json:"frames"`
	Confidence float64 `json:"confidence"`
	Coverage   float64 `json:"coverage"`
	// Report is the scheduler's outcome: per-stream service/recall/spend
	// plus the shared channel's batching and queueing behaviour.
	Report fleet.Report `json:"report"`
	// Metrics collapses the run-scoped registry to family -> total (see
	// fleet.Report.MetricsSummary); Go marshals map keys sorted, so the
	// digest is deterministic.
	Metrics map[string]float64 `json:"metrics"`
}

// fleetStreams builds the n camera streams the fleet experiments marshal,
// one per cell, slotted by index. Consecutive groups of perScene cameras
// watch the same scene (identical generation seed, hence identical
// covariate timelines): 1 gives n independent scenes, 2 pairs cameras up —
// the repetition a content-addressed cache is for. Each camera gets its own
// model replica (Model.Predict reuses forward caches, and timelines are
// computed concurrently); the conformal layers are read-only after
// calibration and stay shared. Rebuild the streams for every run — a used
// stream carries warmed caches that a byte-identity comparison must not
// see.
func fleetStreams(env *Env, n, perScene, frames int, seed int64) ([]fleet.Stream, error) {
	const conf, cov = 0.9, 0.9
	streams := make([]fleet.Stream, n)
	if err := forEachCell(n, func(i int) error {
		ss := seed + int64(1000*(i/perScene+1))
		st := video.Generate(env.Task.Dataset, mathx.NewRNG(ss).Split(1))
		ex, err := features.NewExtractor(st, env.Task.EventIdx, env.Opt.Detector, ss)
		if err != nil {
			return fmt.Errorf("harness: fleet stream %d: %w", i, err)
		}
		end := st.N - 1
		if frames > 0 && frames < end {
			end = frames
		}
		streams[i] = fleet.Stream{
			ID:       fmt.Sprintf("cam-%02d", i),
			Source:   ex,
			Strategy: env.Bundle.Clone().EHCR(conf, cov),
			Cfg:      env.Cfg,
			Costs:    pipeline.EventHitCosts(env.Cfg.Window),
			Start:    0,
			End:      end,
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return streams, nil
}

// Fleet trains one bundle on the task, generates n fresh streams of the
// task's dataset (distinct seeds — the paper's independent trials, here
// playing N cameras running the same deployed model), and marshals the
// first `frames` frames of each through the fleet scheduler under fcfg.
// frames <= 0 marshals whole streams; n <= 0 defaults to 4.
func Fleet(taskName string, opt Options, n, frames int, fcfg fleet.Config, seed int64, w io.Writer) (*FleetResult, error) {
	task, err := TaskByName(taskName)
	if err != nil {
		return nil, err
	}
	if n <= 0 {
		n = 4
	}
	const conf, cov = 0.9, 0.9
	env, err := NewEnv(task, opt, seed)
	if err != nil {
		return nil, err
	}

	streams, err := fleetStreams(env, n, 1, frames, seed)
	if err != nil {
		return nil, err
	}

	rep, err := fleet.Run(streams, fcfg)
	if err != nil {
		return nil, err
	}
	res := &FleetResult{
		Task: task.Name, Seed: seed, Streams: n, Frames: frames,
		Confidence: conf, Coverage: cov,
		Report:  *rep,
		Metrics: rep.MetricsSummary(),
	}
	if w != nil {
		t := NewTable(fmt.Sprintf("Fleet — %d x %s streams, EHCR(c=α=%.2f), one shared CI (budget $%.2f)",
			n, task.Name, conf, fcfg.GlobalBudgetUSD),
			"stream", "relays", "served", "deferred", "shed", "REC", "realized", "spent $", "avg wait ms")
		for _, s := range rep.Streams {
			t.Addf(s.ID, s.Relays, s.Served, s.Deferred, s.Shed,
				fmt.Sprintf("%.3f", s.REC), fmt.Sprintf("%.3f", s.RealizedREC),
				fmt.Sprintf("%.2f", s.SpentUSD), fmt.Sprintf("%.0f", s.AvgWaitMS))
		}
		t.Render(w)
		fmt.Fprintf(w, "served %d / deferred %d / shed %d relays in %d batches (avg %.2f); spent $%.2f of $%.2f; makespan %.0f s\n\n",
			rep.Served, rep.Deferred, rep.Shed, rep.Batches, rep.AvgBatchSize,
			rep.TotalSpentUSD, fcfg.GlobalBudgetUSD, rep.MakespanMS/1000)
	}
	return res, nil
}
