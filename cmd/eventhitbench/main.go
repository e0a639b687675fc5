// Command eventhitbench regenerates the tables and figures of the paper's
// evaluation (§VI). Each experiment prints the same rows/series the paper
// reports, computed on the simulated workloads.
//
// Usage:
//
//	eventhitbench -exp table1
//	eventhitbench -exp fig4 -task TA1 -trials 3
//	eventhitbench -exp fig7 -trials 2
//	eventhitbench -exp all -quick
//
// Paper experiments: table1, table2, fig4 (one task), fig4all, fig5..fig10,
// resources, loss. Extensions: ablation, drift, multi, geom, validity,
// operate, tune, summary, parbench, resilience. "all" runs the paper set
// plus the extensions. resilience sweeps CI fault rates against the
// resilient client (retry/backoff/circuit breaker + graceful degradation)
// and writes the sweep to -resout as JSON.
//
// Experiments whose trials (or tasks, or sweep settings) are independent
// run them on -parallelism concurrent workers; results are bit-identical at
// any setting. parbench measures the speedup and writes it to -benchout as
// JSON.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"eventhit/internal/harness"
)

// validExperiments lists every -exp value run() accepts, in the order the
// usage string groups them; the unknown-experiment error enumerates it.
var validExperiments = []string{
	"table1", "table2", "fig4", "fig4all", "fig5", "fig6", "fig7", "fig8",
	"fig9", "fig10", "resources", "loss", "transfer", "density", "operate",
	"validity", "tune", "geom", "summary", "multi", "drift", "ablation",
	"parbench", "resilience", "speed", "speedparity", "cascade",
	"all",
}

func writeJSONFile(path string, v interface{}) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func main() {
	var (
		exp         = flag.String("exp", "", "experiment to run (table1, table2, fig4[all], fig5..fig10, resources, ablation, drift, multi, geom, validity, operate, tune, summary, loss, parbench, resilience, speed, speedparity, cascade, all)")
		task        = flag.String("task", "TA1", "task for single-task experiments (fig4, resources, loss)")
		trials      = flag.Int("trials", 3, "independent trials to average (the paper uses 10)")
		seed        = flag.Int64("seed", 1, "base random seed")
		quick       = flag.Bool("quick", false, "use reduced dataset/epoch sizes")
		window      = flag.Int("window", 0, "override collection window M (0 = dataset default)")
		horizon     = flag.Int("horizon", 0, "override time horizon H (0 = dataset default)")
		parallelism = flag.Int("parallelism", runtime.NumCPU(), "concurrent experiment cells (trials/tasks/settings); results are identical at any value")
		benchOut    = flag.String("benchout", "BENCH_parallel.json", "output file for the parbench experiment")
		resOut      = flag.String("resout", "BENCH_resilience.json", "output file for the resilience experiment")
		speedOut    = flag.String("speedout", "BENCH_speed.json", "output file for the speed experiment (speedparity prints to stdout)")
		cascadeOut  = flag.String("cascadeout", "BENCH_cascade.json", "output file for the cascade experiment")
		stride      = flag.Int("stride", 1, "speed experiment: frames the anchor advances between predictions")
		anchors     = flag.Int("anchors", 1500, "speed experiment: max predictions timed per path")
		repeats     = flag.Int("repeats", 3, "speed experiment: timing repeats per path (best-of)")
		metricsOut  = flag.String("metricsout", "", "after all experiments, dump the process metrics registry (Prometheus text) to this file")
	)
	flag.Parse()
	if *exp == "" {
		flag.Usage()
		os.Exit(2)
	}
	opt := harness.DefaultOptions()
	if *quick {
		opt = harness.Quick()
	}
	opt.Window = *window
	opt.Horizon = *horizon
	harness.SetParallelism(*parallelism)

	run := func(name string) error {
		t0 := time.Now()
		defer func() {
			fmt.Fprintf(os.Stderr, "[%s done in %s]\n", name, time.Since(t0).Round(time.Millisecond))
		}()
		switch name {
		case "table1":
			_, err := harness.Table1(*trials, *seed, os.Stdout)
			return err
		case "table2":
			harness.Table2(os.Stdout)
			return nil
		case "fig4":
			t, err := harness.TaskByName(*task)
			if err != nil {
				return err
			}
			_, err = harness.Fig4(t, opt, *trials, *seed, os.Stdout)
			return err
		case "fig4all":
			for _, t := range harness.Tasks() {
				if _, err := harness.Fig4(t, opt, *trials, *seed, os.Stdout); err != nil {
					return err
				}
			}
			return nil
		case "fig5":
			_, err := harness.Fig5(opt, *trials, *seed, os.Stdout)
			return err
		case "fig6":
			_, err := harness.Fig6(opt, *trials, *seed, os.Stdout)
			return err
		case "fig7":
			if _, err := harness.Fig7(opt, true, harness.Fig7Windows(), *trials, *seed, os.Stdout); err != nil {
				return err
			}
			_, err := harness.Fig7(opt, false, harness.Fig7Horizons(), *trials, *seed, os.Stdout)
			return err
		case "fig8":
			_, err := harness.Fig8(opt, *trials, *seed, os.Stdout)
			return err
		case "fig9":
			_, err := harness.Fig9(opt, *seed, os.Stdout)
			return err
		case "fig10":
			_, err := harness.Fig10(opt, 0.9, *seed, os.Stdout)
			return err
		case "transfer":
			_, err := harness.Transfer(*task, opt, 3, *seed, os.Stdout)
			return err
		case "density":
			_, err := harness.Density(opt, nil, *seed, os.Stdout)
			return err
		case "operate":
			_, err := harness.Operate(*task, opt, 0.9, 0.9, 100, *seed, os.Stdout)
			return err
		case "validity":
			_, err := harness.Validity(*task, opt, *trials, *seed, os.Stdout)
			return err
		case "tune":
			_, err := harness.TuneExperiment(*task, opt, *seed, os.Stdout)
			return err
		case "geom":
			_, err := harness.GeometricExperiment(*task, opt, *seed, os.Stdout)
			return err
		case "summary":
			_, err := harness.Summary(opt, *seed, os.Stdout)
			return err
		case "multi":
			_, err := harness.MultiExperiment(opt, *seed, os.Stdout)
			return err
		case "drift":
			_, err := harness.DriftExperiment(*task, opt, 0.9, *seed, os.Stdout)
			return err
		case "ablation":
			_, err := harness.Ablations(*task, opt, *seed, os.Stdout)
			return err
		case "resources":
			t, err := harness.TaskByName(*task)
			if err != nil {
				return err
			}
			_, err = harness.Resources(t, opt, *seed, os.Stdout)
			return err
		case "resilience":
			res, err := harness.Resilience(*task, opt, harness.ResilienceRates(), *seed, os.Stdout)
			if err != nil {
				return err
			}
			if err := writeJSONFile(*resOut, res); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", *resOut)
			return nil
		case "speed":
			res, err := harness.SpeedSweep(*task, opt, *stride, *anchors, *repeats, *seed, os.Stdout)
			if err != nil {
				return err
			}
			if err := writeJSONFile(*speedOut, res); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", *speedOut)
			return nil
		case "speedparity":
			res, err := harness.SpeedParityCheck(*task, opt, *seed)
			if err != nil {
				return err
			}
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			return enc.Encode(res)
		case "cascade":
			res, err := harness.CascadeSweep(*task, opt, nil, nil, nil, *seed, os.Stdout)
			if err != nil {
				return err
			}
			if err := writeJSONFile(*cascadeOut, res); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", *cascadeOut)
			return nil
		case "parbench":
			res, err := harness.ParallelBench(opt, *seed, *parallelism, *trials, os.Stdout)
			if err != nil {
				return err
			}
			if err := writeJSONFile(*benchOut, res); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", *benchOut)
			return nil
		case "loss":
			t, err := harness.TaskByName(*task)
			if err != nil {
				return err
			}
			_, err = harness.TrainLossCurve(t, opt, *seed, os.Stdout)
			return err
		default:
			return fmt.Errorf("unknown experiment %q (valid: %s)", name, strings.Join(validExperiments, ", "))
		}
	}

	names := []string{*exp}
	if *exp == "all" {
		names = []string{"table1", "table2", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "resources", "ablation", "drift", "multi", "geom", "validity", "operate"}
	}
	for _, name := range names {
		if err := run(name); err != nil {
			fmt.Fprintf(os.Stderr, "eventhitbench: %s: %v\n", name, err)
			os.Exit(1)
		}
	}
	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err == nil {
			err = harness.DumpMetrics(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "eventhitbench: metricsout: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *metricsOut)
		harness.MetricsDigest(os.Stdout)
	}
}
