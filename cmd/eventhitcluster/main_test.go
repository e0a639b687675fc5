package main

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"eventhit/internal/harness"
	"eventhit/internal/serve"
)

// TestWorkersOwnTheirModels drives twin sessions — same ID, same frames —
// on two live workers concurrently. Their decisions must match step for
// step, and under -race the two servers' forward passes must not touch
// shared model state: each worker serves its own clone of the bundle.
func TestWorkersOwnTheirModels(t *testing.T) {
	task, err := harness.TaskByName("TA10")
	if err != nil {
		t.Fatal(err)
	}
	opt := harness.Quick()
	opt.NTrain, opt.NCCalib, opt.NRCalib, opt.NTest, opt.Epochs = 120, 100, 80, 20, 2
	env, err := harness.NewEnv(task, opt, 5)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, task.NumEvents())
	workers, refs, err := startWorkers(2, "", env.Bundle, names, 0, 0, 0.9, 0.9)
	for _, w := range workers {
		t.Cleanup(w.Close)
	}
	if err != nil {
		t.Fatal(err)
	}

	const steps = 12
	ctx := context.Background()
	window := env.Bundle.Model.Config().Window
	got := make([][]serve.PredictResponse, len(refs))
	errs := make([]error, len(refs))
	var wg sync.WaitGroup
	for i, ref := range refs {
		wg.Add(1)
		go func(i int, url string) {
			defer wg.Done()
			c := serve.NewClient(url, nil)
			if _, errs[i] = c.CreateSession(ctx, "cam", ""); errs[i] != nil {
				return
			}
			next := 1000
			for s := 0; s < steps; s++ {
				n := 1
				if s == 0 {
					n = window
				}
				frames := make([][]float64, n)
				for f := range frames {
					frames[f] = env.Ex.FrameVector(next, nil)
					next++
				}
				if _, errs[i] = c.PushFramesSession(ctx, "cam", frames); errs[i] != nil {
					return
				}
				resp, err := c.PredictSession(ctx, "cam", 0, 0)
				if err != nil {
					errs[i] = err
					return
				}
				got[i] = append(got[i], resp)
			}
		}(i, ref.URL)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if len(got[0]) != steps || !reflect.DeepEqual(got[0], got[1]) {
		t.Fatalf("twin sessions decided differently:\nworker-0 %+v\nworker-1 %+v", got[0], got[1])
	}
}
