package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"eventhit/internal/cascade"
	"eventhit/internal/core"
	"eventhit/internal/dataset"
	"eventhit/internal/features"
	"eventhit/internal/mathx"
	"eventhit/internal/strategy"
	"eventhit/internal/video"
)

// The deployed model is trained on a fixed training stream (seed
// trainSeed), like a model shipped with the product; the workload seed
// drives everything the deployment is then fed.
const trainSeed = 1

// Serving knobs shared by the serve and cluster workloads.
const (
	confidence  = 0.9
	coverage    = 0.9
	perFrameUSD = 0.001
	// batchFrames is one second of video at 30 fps: one frames push.
	batchFrames = 30
	// ciWait is the real round trip the benchmark's CI backend waits per
	// call in camera-ingest and cluster-fleet.
	ciWait = time.Millisecond
	// driftFrame is where every second camera's detector degrades (the
	// induced shift of the serve adaptation test).
	driftFrame = 20000
	// ingestLength is how many THUMOS stream lengths a camera-ingest camera
	// films: under the deployed adaptation settings a degraded detector is
	// caught and recalibrated within that many frames after driftFrame.
	ingestLength = 3
)

// trainInputs are a task's training and calibration records, extracted
// from the fixed training stream. Extracting them is input generation:
// it is excluded from setup_s.
type trainInputs struct {
	cfg    dataset.Config
	dim    int
	k      int
	splits *dataset.Splits
	epochs int
}

func makeTrainInputs(spec video.DatasetSpec, events []int, sizes dataset.SampleConfig, epochs int) (*trainInputs, error) {
	st := video.Generate(spec, mathx.NewRNG(trainSeed))
	ex, err := features.NewExtractor(st, events, features.DefaultDetector(), trainSeed)
	if err != nil {
		return nil, err
	}
	splits, err := dataset.Build(ex, sizes, mathx.NewRNG(trainSeed+1))
	if err != nil {
		return nil, err
	}
	return &trainInputs{cfg: sizes.Config, dim: ex.Dim(), k: len(events), splits: splits, epochs: epochs}, nil
}

// ta10Inputs is the serving fixture of the serve tests: THUMOS event E7
// (TA10), M=10, H=200.
func ta10Inputs(smoke bool) (*trainInputs, error) {
	sizes := dataset.SampleConfig{
		Config: dataset.Config{Window: 10, Horizon: 200},
		NTrain: 300, NCCalib: 200, NRCalib: 150, NTest: 10,
		TrainPosFrac: 0.5,
	}
	epochs := 6
	if smoke {
		sizes.NTrain, sizes.NCCalib, sizes.NRCalib = 60, 60, 60
		epochs = 1
	}
	return makeTrainInputs(video.THUMOS(), []int{0}, sizes, epochs)
}

// ta1Inputs is the offline cascade task: VIRAT event E1 (TA1), M=25,
// H=500, at the harness's quick sizes.
func ta1Inputs(smoke bool) (*trainInputs, error) {
	sizes := dataset.SampleConfig{
		Config: dataset.Config{Window: 25, Horizon: 500},
		NTrain: 250, NCCalib: 200, NRCalib: 150, NTest: 10,
		TrainPosFrac: 0.5,
	}
	epochs := 6
	if smoke {
		sizes.NTrain, sizes.NCCalib, sizes.NRCalib = 60, 60, 60
		epochs = 1
	}
	return makeTrainInputs(video.VIRAT(), []int{0}, sizes, epochs)
}

func (in *trainInputs) trainConfig() core.TrainConfig {
	tc := core.DefaultTrainConfig()
	tc.Epochs = in.epochs
	tc.Seed = trainSeed
	return tc
}

// train fits and calibrates the full EventHit bundle.
func (in *trainInputs) train() (*strategy.Bundle, error) {
	mcfg := core.DefaultConfig(in.dim, in.cfg.Window, in.cfg.Horizon, in.k)
	mcfg.Seed = trainSeed
	m, err := core.New(mcfg)
	if err != nil {
		return nil, err
	}
	if _, err := m.Train(in.splits.Train, in.trainConfig()); err != nil {
		return nil, fmt.Errorf("training: %w", err)
	}
	return strategy.Calibrate(m, in.splits.CCalib, in.splits.RCalib)
}

// cascadeConfig is the operating point BENCH_cascade.json selected:
// tiny+medium rungs, exit confidence 0.95, width bound 1.0.
func cascadeConfig() cascade.Config {
	cfg := cascade.DefaultConfig()
	cfg.Rungs = cascade.DefaultLadder()
	cfg.ExitConfidence = 0.95
	cfg.MaxWidthFrac = 1.0
	cfg.Confidence, cfg.Coverage = confidence, coverage
	return cfg
}

// trainCascade trains the lowered rungs under a full bundle.
func (in *trainInputs) trainCascade(full *strategy.Bundle) (*cascade.Cascade, error) {
	return cascade.New(cascadeConfig(), full, in.splits.Train, in.splits.CCalib, in.splits.RCalib, in.trainConfig())
}

// camera is one simulated camera: a local detector over the ground-truth
// stream. Frames are extracted as the camera streams them (the
// extraction is counter-based, so a frame reads the same whenever it is
// extracted).
type camera struct {
	name     string
	ex       *features.Extractor
	drifting bool
}

// newCamera builds camera i of a workload. Odd cameras degrade at
// driftFrame when drift is true.
func newCamera(st *video.Stream, seed int64, i int, drift bool) (*camera, error) {
	detSeed := seed*1_000_003 + int64(i) + 17
	c := &camera{name: fmt.Sprintf("cam%d", i)}
	var err error
	if drift && i%2 == 1 {
		clean := features.DefaultDetector()
		degraded := features.DetectorConfig{Jitter: clean.Jitter, MissRate: 0.9, FPRate: clean.FPRate, CueGain: 0.25}
		c.ex, err = features.NewDriftingExtractor(st, []int{0}, clean, degraded, driftFrame, detSeed)
		c.drifting = true
	} else {
		c.ex, err = features.NewExtractor(st, []int{0}, features.DefaultDetector(), detSeed)
	}
	return c, err
}

// frames extracts frames [lo, hi) as fresh rows.
func (c *camera) frames(lo, hi int) [][]float64 {
	out := make([][]float64, 0, hi-lo)
	for f := lo; f < hi; f++ {
		out = append(out, c.ex.FrameVector(f, nil))
	}
	return out
}

// window is the covariate window ending at anchor t.
func (c *camera) window(t, m int) [][]float64 { return c.frames(t-m+1, t+1) }

// servedStream is the serve workloads' ground-truth stream i: held out
// from training and the same under every seed, like the one scene a
// server's cameras watch. The seed drives every camera's detector, so the
// covariates the program receives differ by seed while the number of
// events in a run does not (with it, a 10-second run sees too few events
// for rec and billing to repeat across seeds).
func servedStream(spec video.DatasetSpec, i int) *video.Stream {
	return groundTruth(spec, trainSeed+1000, i)
}

// longStream returns spec with its streams lengthened by factor, every
// event's occurrences scaled alike so the event rate stays the same.
func longStream(spec video.DatasetSpec, factor int) video.DatasetSpec {
	spec.StreamLen *= factor
	spec.Events = append([]video.EventSpec(nil), spec.Events...)
	for i := range spec.Events {
		spec.Events[i].Occurrences *= factor
	}
	return spec
}

// groundTruth derives ground-truth stream i from a seed.
func groundTruth(spec video.DatasetSpec, seed int64, i int) *video.Stream {
	return video.Generate(spec, mathx.NewRNG(seed).Split(int64(100+i)))
}

// listen serves h on an ephemeral loopback port and returns its base URL.
func listen(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go hs.Serve(ln)
	return hs, "http://" + ln.Addr().String(), nil
}

// shutdown stops an http.Server and waits for its handlers.
func shutdown(hs *http.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		hs.Close()
	}
}

// clientTransport is the benchmark clients' transport: at most two
// connections, wrapped for tracing in traced runs.
func clientTransport(rec *recorder) (http.RoundTripper, *http.Transport) {
	tr := &http.Transport{MaxIdleConnsPerHost: 2, MaxConnsPerHost: 2, DisableCompression: true}
	if rec == nil {
		return tr, tr
	}
	return &tracedTransport{next: tr, rec: rec}, tr
}
