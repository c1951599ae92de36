// Command perfbench is the repository's standing benchmark. It runs one
// seeded workload against the default GBRT predictor (3 targets × 200
// trees, trained once per build of this program and cached as a fixture)
// and prints every metric by name and unit, then one JSON result line.
//
// Workloads:
//
//	design_predict  congest.PredictModule over a seeded order of six designs
//	serve_http      open-loop binary /predict traffic against a congserve
//	                subprocess, at one fixed rate and then a rate ladder
//	dataset_build   the training-dataset build, cold, warm and resumed
//
// BENCHMARK.json gates on design_predict and dataset_build. serve_http
// runs the same way by hand, but its latencies hinge on how quickly an
// idle vCPU wakes, so on a 2-CPU virtual machine they spread more from run
// to run than any usable bound; its layers are still measured in every
// traced run.
//
// Every run reports setup_s, peak_rss_mb and op_ms_p50 (the median latency
// of the workload's own operation) in its result line, and prints the
// workload's other figures beside them.
//
// With -trace 1 the run instead calls each layer's public function in the
// order the facade does, records one span per call, and reports per-layer
// self times; its outputs must equal the untraced path's bit for bit.
//
// Run it through perfbench/run.sh, which builds this program and congserve
// from the checkout first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median, so one slow start does not move the figure.
const setupReps = 5

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects a workload's counts, metrics and the detail printed
// before the result line (sample counts, tail percentiles, digests).
type report struct {
	attempted, failed int
	metrics           map[string]metric
	notes             map[string]metric
	detail            map[string]any
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, notes: map[string]metric{}, detail: map[string]any{}}
}

// op counts one attempted operation, failed unless ok.
func (r *report) op(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

// note records a measurement printed with the metrics that is not one of
// the benchmark's bounded metrics.
func (r *report) note(name, unit string, v float64) { r.notes[name] = metric{Value: v, Unit: unit} }

// opMetric sets op_ms_p50, the end-to-end latency every workload reports
// for its timed operation (a PredictModule call, a request, a cold build),
// from that operation's latency samples.
func (r *report) opMetric(lat []time.Duration) {
	r.set("op_ms_p50", "ms", medianDur(lat).Seconds()*1e3)
	r.detail["op_samples"] = len(lat)
}

// env is what every workload receives.
type env struct {
	root      string // checkout root
	congserve string // congserve binary built from the checkout
	work      string // per-run scratch directory, removed at exit
	seed      int64
	seconds   time.Duration
	fx        *fixture
}

// workloadNames lists the workloads in the order traced runs probe them.
var workloadNames = []string{"design_predict", "serve_http", "dataset_build"}

var workloads = map[string]struct {
	run    func(*env) (*report, error)
	traced func(*env) (*report, error)
}{
	"design_predict": {runDesignPredict, traceDesignPredict},
	"serve_http":     {runServeHTTP, traceServeHTTP},
	"dataset_build":  {runDatasetBuild, traceDatasetBuild},
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	root := flag.String("root", ".", "checkout root")
	congserve := flag.String("congserve", "", "congserve binary built from the checkout")
	workload := flag.String("workload", "", "design_predict, serve_http or dataset_build")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	prepare := flag.String("prepare-fixture", "", "internal: train the fixture into this directory and exit")
	flag.Parse()

	if *prepare != "" {
		if err := prepareFixture(*prepare); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: prepare fixture:", err)
			return 1
		}
		return 0
	}
	w, ok := workloads[*workload]
	if !ok || *congserve == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -congserve, -workload (design_predict|serve_http|dataset_build), -seconds ≥ 1, -trace 0|1")
		return 2
	}
	e := &env{root: *root, congserve: *congserve, seed: *seed, seconds: time.Duration(*seconds) * time.Second}
	fp, err := hostFingerprint(e.root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if e.fx, err = loadFixture(e.root, e.congserve); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: fixture:", err)
		return 1
	}
	e.work, err = os.MkdirTemp(filepath.Join(e.root, ".bench_build"), "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(e.work)

	var rep *report
	if *trace == 1 {
		rep, err = runTraced(e, *workload)
	} else {
		rep, err = w.run(e)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	rep.detail["workload"] = *workload
	rep.detail["seed"] = *seed
	rep.detail["seconds"] = *seconds
	rep.detail["trace"] = *trace
	rep.detail["host"] = fp
	rep.detail["fixture"] = e.fx.key
	emit(rep)
	return 0
}

// emit prints the metrics one per line, the detail object, and the result
// line last.
func emit(rep *report) {
	names := make([]string, 0, len(rep.metrics))
	for n := range rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.metrics[n]
		fmt.Printf("%-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	names = names[:0]
	for n := range rep.notes {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.notes[n]
		fmt.Printf("%-28s %14.6g %s (not bounded)\n", n, m.Value, m.Unit)
	}
	if len(rep.notes) > 0 {
		rep.detail["notes"] = rep.notes
	}
	fmt.Printf("attempted %d failed %d\n", rep.attempted, rep.failed)
	d, _ := json.Marshal(rep.detail)
	fmt.Printf("detail %s\n", d)
	res, _ := json.Marshal(result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	})
	fmt.Println(string(res))
}

// selfPeakRSSMB is this process's peak resident set size.
func selfPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
