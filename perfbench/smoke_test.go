package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSmoke runs every workload of BENCHMARK.json at tiny size, untraced
// and traced, and checks that each run is correct, fails nothing, and
// reports exactly the metrics BENCHMARK.json names for its mode, each in
// its unit.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) == 0 {
		t.Fatal("BENCHMARK.json lists no workloads")
	}
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			want := map[string]string{}
			for _, m := range spec.EndToEnd {
				want[m.Name] = m.Unit
			}
			if trace {
				want = map[string]string{}
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
			}
			res, err := run(options{workload: w.Name, seed: 3, seconds: 0.4, trace: trace, smoke: true, outDir: t.TempDir()}, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			for name, unit := range want {
				got, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, name)
					continue
				}
				if got.Unit != unit {
					t.Errorf("%s trace=%v: metric %s in %q, BENCHMARK.json says %q", w.Name, trace, name, got.Unit, unit)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%v: metric %s is not in BENCHMARK.json", w.Name, trace, name)
				}
			}
		}
	}
}
