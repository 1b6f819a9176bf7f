// Command kbench is the kanon benchmark: four named workloads that
// exercise the batch solvers (ball cover over the bitset kernel,
// streamed blocks with refine, the hierarchy lattice) and the clustered
// job service behind kanon-router. With -trace 0 it prints the
// end-to-end metrics; with -trace 1 it runs the same work decomposed
// into the layers' public calls and prints per-layer metrics, writing
// its spans to a JSON file. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Run it through run.sh from the repository root, which builds this
// program and the kanon-router binary first:
//
//	bash kbench/run.sh --workload ball_bitset_large --seed 1 --seconds 12 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name, Unit string
}

// endToEnd lists the metrics a user of the system sees, printed by every
// untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"rows_per_s", "rows/s"},
	{"release_cost", "cells"},
	{"peak_heap_bytes", "bytes"},
}

// perLayer lists the metrics every traced run prints. A layer a
// workload does not cross reports 0.
var perLayer = []metricDef{
	{"bench.trace_overhead_ratio", "ratio"},
	{"bench.failed_ratio", "ratio"},
	{"metric.build_ms", "ms"},
	{"metric.distrow_calls", "count"},
	{"metric.distrow_ms", "ms"},
	{"metric.ns_per_row", "ns"},
	{"metric.dist_calls", "count"},
	{"metric.dist_ms", "ms"},
	{"metric.alloc_bytes", "bytes"},
	{"cover.greedy_balls_ms", "ms"},
	{"cover.self_ms", "ms"},
	{"cover.sets_chosen", "count"},
	{"cover.reduce_ms", "ms"},
	{"cover.alloc_bytes", "bytes"},
	{"algo.suppress_ms", "ms"},
	{"algo.alloc_bytes", "bytes"},
	{"stream.blocks", "count"},
	{"stream.block_solve_ms_p50", "ms"},
	{"stream.block_solve_ms_max", "ms"},
	{"stream.algo_busy_share", "ratio"},
	{"stream.outside_algo_ms", "ms"},
	{"stream.alloc_bytes", "bytes"},
	{"refine.ms", "ms"},
	{"refine.cost_saved", "cells"},
	{"refine.alloc_bytes", "bytes"},
	{"hierarchy.count_tree_ms", "ms"},
	{"hierarchy.count_tree_nodes", "count"},
	{"hierarchy.search_ms", "ms"},
	{"hierarchy.search_alloc_bytes", "bytes"},
	{"hierarchy.walks", "count"},
	{"hierarchy.tag_hits", "count"},
	{"hierarchy.check_ns", "ns"},
	{"hierarchy.check_allocs", "count"},
	{"hierarchy.solve_other_ms", "ms"},
	{"service.job_latency_p50_ms", "ms"},
	{"service.job_latency_p95_ms", "ms"},
	{"service.slo_jobs_per_s", "jobs/s"},
	{"server.submit_ms_p50", "ms"},
	{"server.submit_ms_p95", "ms"},
	{"server.queue_wait_ms_p50", "ms"},
	{"server.queue_wait_ms_p95", "ms"},
	{"server.run_ms_p50", "ms"},
	{"server.result_ms_p50", "ms"},
	{"server.polls_per_job", "count"},
	{"server.rejected_429", "count"},
	{"server.errors_5xx", "count"},
	{"server.node_skew", "ratio"},
	{"store.write_atomic_calls_per_job", "count"},
	{"store.write_atomic_ms_p50", "ms"},
	{"store.write_atomic_ms_p95", "ms"},
	{"store.write_bytes_per_job", "bytes"},
	{"store.read_calls_per_job", "count"},
	{"store.read_bytes_per_job", "bytes"},
	{"store.list_calls", "count"},
	{"store.list_ms", "ms"},
	{"store.trylock_calls", "count"},
	{"store.trylock_busy_ratio", "ratio"},
	{"router.forward_ms_p50", "ms"},
	{"router.forward_ms_p95", "ms"},
	{"loadgen.lateness_ms_p95", "ms"},
	{"loadgen.lateness_ms_max", "ms"},
	{"job.poll_lag_ms_p50", "ms"},
}

// report is one run's outcome: operations attempted and failed, whether
// every output checked out, and the metric values by name.
type report struct {
	correct   bool
	attempted int
	failed    int
	values    map[string]float64
}

func newReport() *report { return &report{correct: true, values: map[string]float64{}} }

// fail records one operation whose output failed its check (or that
// produced no output); the run is then incorrect.
func (r *report) fail(format string, args ...any) {
	r.failed++
	r.correct = false
	fmt.Fprintf(os.Stderr, "kbench: "+format+"\n", args...)
}

// config carries the command line into the workloads.
type config struct {
	workload  string
	seed      int64
	seconds   float64
	tiny      bool
	routerBin string
	workDir   string
	workers   int
}

// workload is one named benchmark. setup builds inputs, starts any
// processes and warms up; measure runs the untraced timed phase;
// traced runs the per-layer pass; close releases what setup started.
type workload interface {
	setup() error
	measure() (*report, error)
	traced(rec *recorder) (*report, error)
	close()
}

var workloads = map[string]func(config) workload{
	"ball_bitset_large": newBall,
	"stream_census":     newStream,
	"hier_lattice":      newHier,
	"service_jobs":      newService,
}

// setupReps is how many times an untraced run sets up; setup_s is the
// median, so one slow start does not decide it.
const setupReps = 3

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "kbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("kbench", flag.ContinueOnError)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload name")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed")
	fs.Float64Var(&cfg.seconds, "seconds", 25, "length of the timed phase (BENCHMARK.json's run_seconds)")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer pass")
	fs.BoolVar(&cfg.tiny, "tiny", false, "shrink every input (self-tests)")
	fs.StringVar(&cfg.routerBin, "router-bin", "", "kanon-router binary (service_jobs)")
	fs.StringVar(&cfg.workDir, "work-dir", ".bench_build/kbench", "scratch directory for data dirs and span files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	mk, ok := workloads[cfg.workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, names)
	}
	if cfg.seconds <= 0 {
		return errors.New("seconds must be positive")
	}
	cfg.workers = runtime.NumCPU()
	abs, err := filepath.Abs(cfg.workDir)
	if err != nil {
		return err
	}
	cfg.workDir = filepath.Join(abs, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(cfg.workDir)

	rep, err := execute(cfg, trace == 1, mk)
	if err != nil {
		return err
	}
	defs := endToEnd
	if trace == 1 {
		defs = perLayer
	}
	if err := printReport(stdout, rep, defs, trace == 0); err != nil {
		return err
	}
	if !rep.correct {
		return errors.New("a release failed its check")
	}
	return nil
}

// execute runs one workload: setupReps set-ups (timing each, keeping
// the last) and the timed phase when untraced; one set-up and the
// traced pass otherwise.
func execute(cfg config, trace bool, mk func(config) workload) (*report, error) {
	reps := setupReps
	if trace {
		reps = 1
	}
	var setups []float64
	var w workload
	for i := 0; i < reps; i++ {
		w = mk(cfg)
		gcFresh()
		start := time.Now()
		err := w.setup()
		setups = append(setups, time.Since(start).Seconds())
		if err != nil {
			w.close()
			return nil, fmt.Errorf("%s setup: %w", cfg.workload, err)
		}
		if i < reps-1 {
			w.close()
		}
	}
	defer w.close()
	if !trace {
		rep, err := w.measure()
		if err != nil {
			return nil, err
		}
		rep.values["setup_s"] = median(setups)
		return rep, nil
	}
	rec := newRecorder()
	rep, err := w.traced(rec)
	if err != nil {
		return nil, err
	}
	if rep.attempted > 0 {
		rep.values["bench.failed_ratio"] = float64(rep.failed) / float64(rep.attempted)
	}
	path := filepath.Join(filepath.Dir(cfg.workDir), fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed))
	if err := rec.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintln(os.Stderr, "kbench: spans written to", path)
	return rep, nil
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printReport writes the result line. With strict set, every listed
// metric must have been measured; otherwise an unmeasured one (a layer
// the workload does not cross) reports 0.
func printReport(w io.Writer, rep *report, defs []metricDef, strict bool) error {
	if rep.attempted < 1 {
		return errors.New("no operation was attempted")
	}
	out := map[string]metricOut{}
	for _, d := range defs {
		v, ok := rep.values[d.Name]
		if !ok && strict {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = metricOut{Value: v, Unit: d.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{rep.correct, rep.attempted, rep.failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
