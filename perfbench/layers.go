package main

import (
	"fmt"
	"time"
)

// perLayer lists every per-layer metric a traced run reports, with its
// unit. Times are self times (a span's duration minus its children's) per
// end-to-end operation: per PredictModule call on design_predict, per
// request on serve_http, per cold+warm+resume trio on dataset_build. A
// traced run reports each metric from the first workload that measures
// it, the run's own workload first (see runTraced).
var perLayer = []struct{ name, unit string }{
	{"hls.schedule_ms", "ms"},
	{"hls.bind_ms", "ms"},
	{"graph.build_ms", "ms"},
	{"features.extract_ms", "ms"},
	{"features.rows", "count"},
	{"ml.scaler_ms", "ms"},
	{"ml.forest_ms", "ms"},
	{"ml.forest_rows_per_s", "rows/s"},
	{"core.predict_self_ms", "ms"},
	{"runtime.alloc_bytes_per_call", "B"},
	{"runtime.gc_cycles", "count"},
	{"serve.serve_bytes_us", "us"},
	{"core.predict_batch_us", "us"},
	{"serve.codec_coalesce_us", "us"},
	{"http.overhead_us", "us"},
	{"serve.allocs_per_req", "count"},
	{"serve.batch_rows_mean", "count"},
	{"serve.batches", "count"},
	{"serve.shed", "count"},
	{"loadgen.late_ms_tail", "ms"},
	{"rtl.elaborate_ms", "ms"},
	{"place.place_ms", "ms"},
	{"place.moves", "count"},
	{"route.route_ms", "ms"},
	{"route.iterations", "count"},
	{"timing.analyze_ms", "ms"},
	{"flow.self_ms", "ms"},
	{"backtrace.trace_ms", "ms"},
	{"dataset.rows", "count"},
	{"flowcache.hit_ratio", "ratio"},
	{"flowcache.ms", "ms"},
	{"store.puts", "count"},
	{"store.bytes", "B"},
	{"store.open_ms", "ms"},
	{"store.hits", "count"},
	{"store.checkpoint_ms", "ms"},
	{"core.build_self_ms", "ms"},
	{"trace.coverage", "ratio"},
	{"trace.unattributed_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"trace.flow_stage_ratio", "ratio"},
}

// setTraced sets a per-layer metric with its declared unit.
func (r *report) setTraced(name string, v float64) {
	for _, m := range perLayer {
		if m.name == name {
			r.set(name, m.unit, v)
			return
		}
	}
	panic("perfbench: undeclared per-layer metric " + name)
}

// tracedShare is the share of a traced run's time its own workload gets;
// the other workloads split the rest.
const tracedShare = 0.6

// runTraced is a traced run of workload main. Each workload measures the
// layers on its own path, so the run traces main for most of its time and
// then each other workload for a short probe, and reports every per-layer
// metric from the first of them that measured it: a layer main exercises
// is always main's figure, and no metric is left unmeasured.
func runTraced(e *env, main string) (*report, error) {
	order := []string{main}
	for _, name := range workloadNames {
		if name != main {
			order = append(order, name)
		}
	}
	out := newReport()
	for i, name := range order {
		sub := *e
		share := tracedShare
		if i > 0 {
			share = (1 - tracedShare) / float64(len(order)-1)
		}
		sub.seconds = time.Duration(share * float64(e.seconds))
		rep, err := workloads[name].traced(&sub)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		out.attempted += rep.attempted
		out.failed += rep.failed
		for n, m := range rep.metrics {
			if _, ok := out.metrics[n]; !ok {
				out.metrics[n] = m
			}
		}
		out.detail[name] = rep.detail
	}
	for _, m := range perLayer {
		if _, ok := out.metrics[m.name]; !ok {
			return nil, fmt.Errorf("no workload measured %s", m.name)
		}
	}
	return out, nil
}
