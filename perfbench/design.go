package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	congest "repro"
	"repro/internal/features"
	"repro/internal/graph"
	"repro/internal/hls"
)

// designMix is design_predict's fixed mix: the Table VI case-study
// sequence on Face Detection plus the two other benchmark designs, from
// about 1.3k to 6.6k IR operations.
var designMix = []struct {
	name  string
	build func() *congest.Module
}{
	{"face_detection/with_directives", func() *congest.Module { return congest.FaceDetection(congest.WithDirectives()) }},
	{"face_detection/without_directives", func() *congest.Module { return congest.FaceDetection(congest.WithoutDirectives()) }},
	{"face_detection/not_inline", func() *congest.Module { return congest.FaceDetection(congest.NotInline()) }},
	{"face_detection/replication", func() *congest.Module { return congest.FaceDetection(congest.Replication()) }},
	{"digit_spam", congest.DigitSpam},
	{"bnn_render_flow", congest.BNNRenderFlow},
}

// predCheckSamples is how many operations per design are re-scored one at
// a time through PredictSample and compared with PredictModule's output.
const predCheckSamples = 32

// designSetup is design_predict's set-up: the validated predictor and the
// generated designs. It repeats setupReps times; each repetition is timed
// from the start to the point where the first call could be made.
func designSetup(e *env) (*congest.Predictor, []*congest.Module, []time.Duration, error) {
	var p *congest.Predictor
	var mods []*congest.Module
	var times []time.Duration
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		var err error
		if p, err = congest.LoadPredictorFile(e.fx.modelPath); err != nil {
			return nil, nil, nil, err
		}
		mods = make([]*congest.Module, len(designMix))
		for i, d := range designMix {
			mods[i] = d.build()
		}
		times = append(times, time.Since(t0))
	}
	return p, mods, times, nil
}

// digestPreds hashes every operation's ID and V/H/Avg bits in order.
func digestPreds(preds []congest.OpPrediction) string {
	h := sha256.New()
	for _, p := range preds {
		putU64(h, uint64(p.Op.ID))
		putU64(h, math.Float64bits(p.VertPct))
		putU64(h, math.Float64bits(p.HorizPct))
		putU64(h, math.Float64bits(p.AvgPct))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func putU64(h hash.Hash, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

// runDesignPredict is design_predict: one in-process caller, closed loop,
// PredictModule over whole rounds of the mix, each round in a seeded
// order, until the measured time is spent.
func runDesignPredict(e *env) (*report, error) {
	rep := newReport()
	p, mods, setup, err := designSetup(e)
	if err != nil {
		return nil, err
	}
	rep.set("setup_s", "s", medianDur(setup).Seconds())
	cfg := congest.DefaultFlowConfig()
	rng := rand.New(rand.NewSource(e.seed))
	want := make([]string, len(mods))
	last := make([][]congest.OpPrediction, len(mods))
	var lat, rounds []time.Duration
	var ops int
	start := time.Now()
	for time.Since(start) < e.seconds {
		var round time.Duration
		for _, i := range rng.Perm(len(mods)) {
			t0 := time.Now()
			preds, err := congest.PredictModule(p, mods[i], cfg)
			d := time.Since(t0)
			if err != nil {
				rep.op(false)
				continue
			}
			lat = append(lat, d)
			round += d
			ops += len(preds)
			got := digestPreds(preds)
			if want[i] == "" {
				want[i] = got
			}
			rep.op(got == want[i])
			last[i] = preds
		}
		rounds = append(rounds, round/time.Duration(len(mods)))
	}
	// The designs differ fivefold in size, so the median call sits between
	// two designs and jumps from one to the other; the median over rounds
	// of a round's mean call does not.
	rep.opMetric(rounds)
	p50, tail, pct := summarize(lat)
	rep.detail["predict_ms_tail_percentile"] = pct
	rep.detail["calls"] = len(lat)
	rep.note("predict_ms_p50", "ms", p50.Seconds()*1e3)
	rep.note("predict_ms_tail", "ms", tail.Seconds()*1e3)
	rep.note("predict_ops_per_s", "ops/s", float64(ops)/sumDur(lat).Seconds())
	rep.set("peak_rss_mb", "MB", selfPeakRSSMB())
	for i, m := range mods {
		rep.op(last[i] != nil && checkPredictSample(p, m, cfg, last[i], rand.New(rand.NewSource(e.seed+int64(i)))))
	}
	rep.detail["design_digests"] = want
	return rep, nil
}

// checkPredictSample re-scores a seeded sample of operations one row at a
// time through PredictSample and requires the same bits PredictModule gave.
func checkPredictSample(p *congest.Predictor, m *congest.Module, cfg congest.FlowConfig, preds []congest.OpPrediction, rng *rand.Rand) bool {
	sched, err := hls.ScheduleModule(m, cfg.Clock)
	if err != nil {
		return false
	}
	bind := hls.BindModule(sched)
	ex := features.NewExtractor(m, sched, bind, graph.Build(m, bind), cfg.Dev)
	ops := m.AllOps()
	if len(ops) != len(preds) {
		return false
	}
	for k := 0; k < predCheckSamples; k++ {
		i := rng.Intn(len(ops))
		v, h, a := p.PredictSample(ex.Vector(ops[i]))
		pr := preds[i]
		if pr.Op != ops[i] || math.Float64bits(v) != math.Float64bits(pr.VertPct) ||
			math.Float64bits(h) != math.Float64bits(pr.HorizPct) || math.Float64bits(a) != math.Float64bits(pr.AvgPct) {
			return false
		}
	}
	return true
}

// mirrorPredictModule replays Predictor.PredictModule layer by layer with
// one span per call.
func mirrorPredictModule(tr *tracer, op int, pm *predictMirror, m *congest.Module, cfg congest.FlowConfig) ([]congest.OpPrediction, error) {
	root := tr.begin("core.predict_module", -1, op)
	defer tr.end(root)
	s := tr.begin("hls.schedule", root, op)
	sched, err := hls.ScheduleModule(m, cfg.Clock)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.begin("hls.bind", root, op)
	bind := hls.BindModule(sched)
	tr.end(s)
	s = tr.begin("graph.build", root, op)
	g := graph.Build(m, bind)
	tr.end(s)
	s = tr.begin("features.extract", root, op)
	ex := features.NewExtractor(m, sched, bind, g, cfg.Dev)
	tr.end(s)
	ops := m.AllOps()
	feats := make([][]float64, len(ops))
	s = tr.begin("features.extract", root, op)
	for i, o := range ops {
		feats[i] = ex.Vector(o)
	}
	tr.end(s)
	vert, horiz, avg := make([]float64, len(ops)), make([]float64, len(ops)), make([]float64, len(ops))
	if err := pm.predictBatch(tr, root, op, vert, horiz, avg, feats); err != nil {
		return nil, err
	}
	out := make([]congest.OpPrediction, len(ops))
	for i, o := range ops {
		out[i] = congest.OpPrediction{Op: o, VertPct: vert[i], HorizPct: horiz[i], AvgPct: avg[i]}
	}
	return out, nil
}

// traceDesignPredict alternates an untraced round of the mix through the
// facade with the same round through the mirror, and requires equal
// digests per design.
func traceDesignPredict(e *env) (*report, error) {
	rep := newReport()
	p, mods, _, err := designSetup(e)
	if err != nil {
		return nil, err
	}
	pm, err := newPredictMirror(p, e.fx.modelPath)
	if err != nil {
		return nil, err
	}
	cfg := congest.DefaultFlowConfig()
	rng := rand.New(rand.NewSource(e.seed))
	tr := newTracer()
	want := make([]string, len(mods))
	var untraced time.Duration
	var calls, rows int
	var allocBytes, gcs uint64
	var before, after runtime.MemStats
	start := time.Now()
	for op := 0; time.Since(start) < e.seconds; {
		perm := rng.Perm(len(mods))
		runtime.ReadMemStats(&before)
		for _, i := range perm {
			t0 := time.Now()
			preds, err := congest.PredictModule(p, mods[i], cfg)
			untraced += time.Since(t0)
			if err != nil {
				return nil, err
			}
			want[i] = digestPreds(preds)
		}
		runtime.ReadMemStats(&after)
		allocBytes += after.TotalAlloc - before.TotalAlloc
		gcs += uint64(after.NumGC - before.NumGC)
		for _, i := range perm {
			preds, err := mirrorPredictModule(tr, op, pm, mods[i], cfg)
			rep.op(err == nil && digestPreds(preds) == want[i])
			op++
			calls++
			rows += len(preds)
		}
	}
	b := tr.analyze()
	n := float64(calls)
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) / n }
	rep.setTraced("hls.schedule_ms", ms(b.self["hls.schedule"]))
	rep.setTraced("hls.bind_ms", ms(b.self["hls.bind"]))
	rep.setTraced("graph.build_ms", ms(b.self["graph.build"]))
	rep.setTraced("features.extract_ms", ms(b.self["features.extract"]))
	rep.setTraced("features.rows", float64(rows)/n)
	rep.setTraced("ml.scaler_ms", ms(b.self["ml.scaler"]))
	rep.setTraced("ml.forest_ms", ms(b.self["ml.forest"]))
	rep.setTraced("ml.forest_rows_per_s", float64(rows)/b.self["ml.forest"].Seconds())
	rep.setTraced("core.predict_self_ms", ms(b.sum("core.predict_module", "core.predict_batch")))
	rep.setTraced("runtime.alloc_bytes_per_call", float64(allocBytes)/n)
	rep.setTraced("runtime.gc_cycles", float64(gcs)/n)
	rep.setTraced("trace.coverage", b.coverage())
	rep.setTraced("trace.unattributed_ms", ms(b.rootSelf))
	rep.setTraced("trace.overhead_pct", 100*(float64(b.rootTotal)/float64(untraced)-1))
	rep.detail["calls"] = calls
	rep.detail["design_digests"] = want
	return rep, writeTrace(e, tr, "design_predict")
}

// writeTrace writes the run's spans under .bench_build/traces.
func writeTrace(e *env, tr *tracer, workload string) error {
	dir := filepath.Join(e.root, ".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return tr.writeChrome(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, e.seed)))
}
