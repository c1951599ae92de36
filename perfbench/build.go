package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	congest "repro"
	"repro/internal/backtrace"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/features"
	"repro/internal/flow"
	"repro/internal/flowcache"
	"repro/internal/graph"
	"repro/internal/hls"
	"repro/internal/ir"
	"repro/internal/parallel"
	"repro/internal/place"
	"repro/internal/route"
	"repro/internal/rtl"
	"repro/internal/store"
	"repro/internal/timing"
)

// stageChecks is how many mirror/facade flow pairs the trace accounting
// cross-check runs.
const stageChecks = 5

// buildPhases names the three builds of one dataset_build iteration.
var buildPhases = [3]string{"cold", "warm", "resume"}

// trioConfig is the flow config of a run's trio-th cold/warm/resume trio:
// the default, with the placement seed derived from the workload seed and
// the trio, so a run's median build time spans several placements
// instead of resting on one.
func trioConfig(seed int64, trio int) congest.FlowConfig {
	cfg := congest.DefaultFlowConfig()
	cfg.Seed = seed*1000 + int64(trio)
	return cfg
}

// buildOptions is the build every phase runs: the paper's label-run
// averaging over the training designs, one worker per CPU.
func buildOptions(ck *congest.BuildCheckpoint) congest.BuildOptions {
	return congest.BuildOptions{LabelRuns: core.LabelRuns, Workers: runtime.NumCPU(), Checkpoint: ck}
}

// csvDigest hashes the dataset's WriteCSV bytes.
func csvDigest(ds *congest.Dataset) (string, error) {
	h := sha256.New()
	if err := ds.WriteCSV(h); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// storeDirs hands out fresh artifact-store directories under the run's
// scratch directory.
type storeDirs struct {
	base string
	n    int
}

func (d *storeDirs) next() string {
	d.n++
	return filepath.Join(d.base, fmt.Sprintf("store-%d", d.n))
}

// buildSetup generates the training designs and opens a fresh artifact
// store, setupReps times; the last store is returned open.
func buildSetup(dirs *storeDirs) ([]*congest.Module, *congest.ArtifactStore, string, []time.Duration, error) {
	var mods []*congest.Module
	var st *congest.ArtifactStore
	var dir string
	var times []time.Duration
	for rep := 0; rep < setupReps; rep++ {
		if dir != "" {
			os.RemoveAll(dir)
		}
		dir = dirs.next()
		t0 := time.Now()
		mods = congest.TrainingModules()
		var err error
		if st, err = congest.OpenArtifactStore(dir, congest.ArtifactStoreOptions{}); err != nil {
			return nil, nil, "", nil, err
		}
		times = append(times, time.Since(t0))
	}
	return mods, st, dir, times, nil
}

// buildTrio runs the three builds through the facade: cold into a fresh
// flow cache over the store st (with a build checkpoint), warm against the
// same in-memory cache, and resume with a new cache over the reopened
// store. It returns each build's time and WriteCSV digest.
func buildTrio(mods []*congest.Module, cfg congest.FlowConfig, st *congest.ArtifactStore, dir string) ([3]time.Duration, [3]string, error) {
	var times [3]time.Duration
	var digests [3]string
	ctx := context.Background()
	fc := congest.NewFlowCache(0)
	fc.AttachStore(st)
	cfg.Cache = fc
	builds := [3]func() (*congest.Dataset, error){
		func() (*congest.Dataset, error) {
			ds, _, _, err := congest.BuildDatasetResilient(ctx, mods, cfg, buildOptions(congest.NewBuildCheckpoint(st)))
			return ds, err
		},
		func() (*congest.Dataset, error) {
			ds, _, _, err := congest.BuildDatasetResilient(ctx, mods, cfg, buildOptions(nil))
			return ds, err
		},
		func() (*congest.Dataset, error) {
			st2, err := congest.OpenArtifactStore(dir, congest.ArtifactStoreOptions{})
			if err != nil {
				return nil, err
			}
			fc2 := congest.NewFlowCache(0)
			fc2.AttachStore(st2)
			c := cfg
			c.Cache = fc2
			ds, _, _, err := congest.BuildDatasetResilient(ctx, mods, c, buildOptions(congest.NewBuildCheckpoint(st2)))
			return ds, err
		},
	}
	for i, build := range builds {
		t0 := time.Now()
		ds, err := build()
		times[i] = time.Since(t0)
		if err != nil {
			return times, digests, fmt.Errorf("%s build: %w", buildPhases[i], err)
		}
		if digests[i], err = csvDigest(ds); err != nil {
			return times, digests, err
		}
	}
	return times, digests, nil
}

// runDatasetBuild is dataset_build: repeated cold/warm/resume trios, each
// on a fresh store with its own placement seed, until the measured time is
// spent. A trio's warm and resumed builds must give its cold build's CSV
// digest.
func runDatasetBuild(e *env) (*report, error) {
	rep := newReport()
	dirs := &storeDirs{base: e.work}
	mods, st, dir, setup, err := buildSetup(dirs)
	if err != nil {
		return nil, err
	}
	rep.set("setup_s", "s", medianDur(setup).Seconds())
	var phases [3][]time.Duration
	var digests []string
	start := time.Now()
	for trio := 0; time.Since(start) < e.seconds; trio++ {
		if trio > 0 {
			os.RemoveAll(dir)
			dir = dirs.next()
			if st, err = congest.OpenArtifactStore(dir, congest.ArtifactStoreOptions{}); err != nil {
				return nil, err
			}
		}
		times, got, err := buildTrio(mods, trioConfig(e.seed, trio), st, dir)
		if err != nil {
			return nil, err
		}
		for i := range phases {
			phases[i] = append(phases[i], times[i])
			rep.op(got[i] == got[0])
		}
		digests = append(digests, got[0])
	}
	rep.opMetric(phases[0])
	for i, name := range buildPhases {
		rep.note("build_"+name+"_s", "s", medianDur(phases[i]).Seconds())
	}
	rep.set("peak_rss_mb", "MB", selfPeakRSSMB())
	rep.detail["trios"] = len(phases[0])
	rep.detail["csv_digests"] = digests
	return rep, nil
}

// buildMirror replays a dataset build (core's buildDataset and the
// flow's RunContext) from outside the program, one span per layer call,
// in the order buildDataset makes them.
type buildMirror struct {
	tr         *tracer
	labelRuns  int
	workers    int
	moves      atomic.Int64
	iterations atomic.Int64
}

// cell is one (module, label-run) flow execution.
type cell struct {
	res    *flow.Result
	traced []backtrace.OpCongestion
	err    error
}

// build mirrors one dataset build under the phase span root.
func (b *buildMirror) build(root, op int, mods []*ir.Module, cfg flow.Config, ck *store.Checkpoint) (*dataset.Dataset, error) {
	tr := b.tr
	ds := dataset.New()
	done := make([]bool, len(mods))
	restored := make([][]*dataset.Sample, len(mods))
	if ck != nil {
		for mi, m := range mods {
			s := tr.begin("store.load_module", root, op)
			samples, _, ok := ck.LoadModule(m, cfg, b.labelRuns)
			tr.end(s)
			if ok && samplesFit(samples, len(ds.FeatureNames)) {
				restored[mi], done[mi] = samples, true
			}
		}
	}
	cells := make([]cell, len(mods)*b.labelRuns)
	err := parallel.ForEach(context.Background(), len(cells), b.workers, func(ctx context.Context, k int) {
		mi, run := k/b.labelRuns, k%b.labelRuns
		if done[mi] {
			return
		}
		res, err := b.runFlow(ctx, root, op, mods[mi], core.CellConfig(cfg, run))
		if err != nil {
			cells[k].err = err
			return
		}
		s := tr.begin("backtrace.trace", root, op)
		cells[k].res, cells[k].traced = res, backtrace.Trace(res)
		tr.end(s)
	})
	if err != nil {
		return nil, err
	}
	for mi, m := range mods {
		if done[mi] {
			ds.Samples = append(ds.Samples, restored[mi]...)
			continue
		}
		traced, first, err := reduceCells(cells[mi*b.labelRuns : (mi+1)*b.labelRuns])
		if err != nil {
			return nil, fmt.Errorf("module %s: %w", m.Name, err)
		}
		s := tr.begin("graph.build", root, op)
		g := graph.Build(first.Mod, first.Bind)
		tr.end(s)
		s = tr.begin("features.extract", root, op)
		ex := features.NewExtractor(first.Mod, first.Sched, first.Bind, g, cfg.Dev)
		start := ds.Len()
		ds.FromTrace(m.Name, traced, ex)
		tr.end(s)
		if ck != nil {
			s = tr.begin("store.save_module", root, op)
			ck.SaveModule(m, cfg, b.labelRuns, ds.FeatureNames, ds.Samples[start:], first)
			tr.end(s)
		}
	}
	return ds, nil
}

func samplesFit(samples []*dataset.Sample, cols int) bool {
	for _, s := range samples {
		if len(s.Features) != cols {
			return false
		}
	}
	return true
}

// reduceCells averages one module's label runs in run order, as
// buildDataset does: the first run supplies the result and the trace, later
// runs add their congestion, and an operation is marginal when at least
// half the runs place it at the die margin.
func reduceCells(cells []cell) ([]backtrace.OpCongestion, *flow.Result, error) {
	var traced []backtrace.OpCongestion
	var votes []int
	for run, c := range cells {
		if c.err != nil {
			return nil, nil, c.err
		}
		if run == 0 {
			traced = c.traced
			votes = make([]int, len(traced))
			for i := range traced {
				if traced[i].Margin {
					votes[i]++
				}
			}
			continue
		}
		if len(c.traced) != len(traced) {
			return nil, nil, fmt.Errorf("trace size changed across seeds (%d vs %d)", len(c.traced), len(traced))
		}
		for i, t := range c.traced {
			traced[i].VertPct += t.VertPct
			traced[i].HorizPct += t.HorizPct
			traced[i].AvgPct += t.AvgPct
			if t.Margin {
				votes[i]++
			}
		}
	}
	inv := 1.0 / float64(len(cells))
	for i := range traced {
		traced[i].VertPct *= inv
		traced[i].HorizPct *= inv
		traced[i].AvgPct *= inv
		traced[i].Margin = 2*votes[i] >= len(cells)
	}
	return traced, cells[0].res, nil
}

// runFlow mirrors flow.RunContext: a cache lookup, then schedule, bind,
// elaborate, place, route and timing, then a cache store.
func (b *buildMirror) runFlow(ctx context.Context, parent, op int, m *ir.Module, cfg flow.Config) (*flow.Result, error) {
	tr := b.tr
	sp := tr.begin("flow.run", parent, op)
	defer tr.end(sp)
	var key string
	if cfg.Cache != nil {
		key = flow.CacheKey(m, cfg)
		s := tr.begin("flowcache.get", sp, op)
		res, ok := cfg.Cache.Get(key)
		tr.end(s)
		if ok {
			return res, nil
		}
	}
	var tm flow.Timings
	runStart := time.Now()
	stage := func(name string, d *time.Duration, f func() error) error {
		s := tr.begin(name, sp, op)
		t0 := time.Now()
		err := f()
		*d = time.Since(t0)
		tr.end(s)
		return err
	}
	var (
		sched *hls.Schedule
		bind  *hls.Binding
		nl    *rtl.Netlist
		pl    *place.Placement
		rr    *route.Result
		rep   *timing.Report
	)
	err := stage("hls.schedule", &tm.Schedule, func() (err error) {
		sched, err = hls.ScheduleModule(m, cfg.Clock)
		return err
	})
	if err != nil {
		return nil, err
	}
	stage("hls.bind", &tm.Bind, func() error { bind = hls.BindModule(sched); return nil })
	stage("rtl.elaborate", &tm.Elaborate, func() error { nl = rtl.Elaborate(bind); return nil })
	rng := rand.New(rand.NewSource(cfg.Seed))
	if err := stage("place.place", &tm.Place, func() (err error) {
		pl, err = place.PlaceContext(ctx, nl, cfg.Dev, rng, cfg.Place)
		return err
	}); err != nil {
		return nil, err
	}
	if err := stage("route.route", &tm.Route, func() (err error) {
		rr, err = route.RouteContext(ctx, pl, rng, cfg.Route)
		return err
	}); err != nil {
		return nil, err
	}
	stage("timing.analyze", &tm.Timing, func() error { rep = timing.Analyze(sched, nl, rr, cfg.Timing); return nil })
	tm.Total = time.Since(runStart)
	b.moves.Add(int64(pl.Stats.Moves))
	b.iterations.Add(int64(rr.Iterations))
	res := &flow.Result{
		Mod: m, Config: cfg, Sched: sched, Bind: bind, Netlist: nl, Placement: pl, Routing: rr, Timing: rep,
		Convergence: flow.Convergence{Converged: rr.Overflow == 0, OverusedEdges: rr.Overflow, Iterations: rr.Iterations},
		Timings:     tm,
	}
	if key != "" {
		s := tr.begin("flowcache.put", sp, op)
		cfg.Cache.Put(key, res)
		tr.end(s)
	}
	return res, nil
}

// traceCounts totals the store and cache counters of traced trios.
type traceCounts struct {
	rows, buildRows                       int
	puts, bytes, hits, lookups, storeHits float64
}

// trio mirrors one cold/warm/resume trio into a fresh store at dir, each
// build under its own root span, and returns the three CSV digests.
func (b *buildMirror) trio(op int, mods []*ir.Module, cfg flow.Config, dir string, n *traceCounts) ([3]string, error) {
	var got [3]string
	tr := b.tr
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return got, err
	}
	fc := flowcache.New(0)
	fc.AttachStore(st)
	c := cfg
	c.Cache = fc
	root := tr.begin("build.cold", -1, op)
	ds, err := b.build(root, op, mods, c, store.NewCheckpoint(st))
	tr.end(root)
	if err != nil {
		return got, err
	}
	got[0], _ = csvDigest(ds)
	n.rows += ds.Len()
	n.buildRows = ds.Len()
	sc := st.Stats()
	n.puts += float64(sc.Puts)
	n.bytes += float64(sc.Bytes)

	fs0 := fc.Stats()
	root = tr.begin("build.warm", -1, op+1)
	ds, err = b.build(root, op+1, mods, c, nil)
	tr.end(root)
	if err != nil {
		return got, err
	}
	fs1 := fc.Stats()
	n.hits += float64(fs1.Hits - fs0.Hits)
	n.lookups += float64(fs1.Hits + fs1.Misses - fs0.Hits - fs0.Misses)
	got[1], _ = csvDigest(ds)
	n.rows += ds.Len()

	root = tr.begin("build.resume", -1, op+2)
	s := tr.begin("store.open", root, op+2)
	rst, err := store.Open(dir, store.Options{})
	tr.end(s)
	if err == nil {
		fc2 := flowcache.New(0)
		fc2.AttachStore(rst)
		c.Cache = fc2
		ds, err = b.build(root, op+2, mods, c, store.NewCheckpoint(rst))
	}
	tr.end(root)
	if err != nil {
		return got, err
	}
	got[2], _ = csvDigest(ds)
	n.storeHits += float64(rst.Stats().Hits)
	return got, nil
}

// traceDatasetBuild alternates an untraced trio through the facade with
// a traced trio through the mirror, requiring equal CSV digests phase by
// phase, then cross-checks the mirror's outside-in stage times against
// flow.Result.Timings on one design.
func traceDatasetBuild(e *env) (*report, error) {
	rep := newReport()
	dirs := &storeDirs{base: e.work}
	mods, _, dir, _, err := buildSetup(dirs)
	if err != nil {
		return nil, err
	}
	os.RemoveAll(dir)
	bm := &buildMirror{tr: newTracer(), labelRuns: core.LabelRuns, workers: runtime.NumCPU()}
	var n traceCounts
	var untraced time.Duration
	var trios int
	start := time.Now()
	for trio := 0; trio == 0 || time.Since(start) < e.seconds; trio++ {
		cfg := trioConfig(e.seed, trio)
		var want, got [3]string
		var times [3]time.Duration
		facade := func() error {
			dir := dirs.next()
			defer os.RemoveAll(dir)
			st, err := congest.OpenArtifactStore(dir, congest.ArtifactStoreOptions{})
			if err == nil {
				times, want, err = buildTrio(mods, cfg, st, dir)
			}
			return err
		}
		mirror := func() error {
			dir := dirs.next()
			defer os.RemoveAll(dir)
			var err error
			got, err = bm.trio(3*trio, mods, cfg, dir, &n)
			return err
		}
		// Alternate which side runs first, so neither always runs on the
		// other's leftovers (heap size, page cache).
		steps := [2]func() error{facade, mirror}
		if trio%2 == 1 {
			steps[0], steps[1] = mirror, facade
		}
		for _, step := range steps {
			if err := step(); err != nil {
				return nil, err
			}
		}
		untraced += times[0] + times[1] + times[2]
		for i := range got {
			rep.op(got[i] == want[i])
		}
		trios++
	}

	b := bm.tr.analyze()
	per := float64(trios)
	ms := func(names ...string) float64 { return float64(b.sum(names...)) / float64(time.Millisecond) / per }
	rep.setTraced("hls.schedule_ms", ms("hls.schedule"))
	rep.setTraced("hls.bind_ms", ms("hls.bind"))
	rep.setTraced("rtl.elaborate_ms", ms("rtl.elaborate"))
	rep.setTraced("place.place_ms", ms("place.place"))
	rep.setTraced("place.moves", float64(bm.moves.Load())/per)
	rep.setTraced("route.route_ms", ms("route.route"))
	rep.setTraced("route.iterations", float64(bm.iterations.Load())/per)
	rep.setTraced("timing.analyze_ms", ms("timing.analyze"))
	rep.setTraced("flow.self_ms", ms("flow.run"))
	rep.setTraced("backtrace.trace_ms", ms("backtrace.trace"))
	rep.setTraced("graph.build_ms", ms("graph.build"))
	rep.setTraced("features.extract_ms", ms("features.extract"))
	rep.setTraced("features.rows", float64(n.rows)/per)
	rep.setTraced("dataset.rows", float64(n.buildRows))
	rep.setTraced("flowcache.hit_ratio", n.hits/n.lookups)
	rep.setTraced("flowcache.ms", ms("flowcache.get", "flowcache.put"))
	rep.setTraced("store.puts", n.puts/per)
	rep.setTraced("store.bytes", n.bytes/per)
	rep.setTraced("store.open_ms", ms("store.open"))
	rep.setTraced("store.hits", n.storeHits/per)
	rep.setTraced("store.checkpoint_ms", ms("store.load_module", "store.save_module"))
	rep.setTraced("core.build_self_ms", ms("build.cold", "build.warm", "build.resume"))
	rep.setTraced("trace.coverage", b.coverage())
	rep.setTraced("trace.unattributed_ms", float64(b.rootSelf)/float64(time.Millisecond)/per)
	rep.setTraced("trace.overhead_pct", 100*(float64(b.rootTotal)/float64(untraced)-1))

	ratio, err := stageAgreement(mods[0], trioConfig(e.seed, 0))
	if err != nil {
		return nil, err
	}
	rep.setTraced("trace.flow_stage_ratio", ratio)
	rep.detail["trios"] = trios
	return rep, writeTrace(e, bm.tr, "dataset_build")
}

// stageAgreement runs one uncached flow on m through the mirror and
// through the facade, and returns the mirror's summed outside-in stage
// span times over the facade's own flow.Result.Timings stage sum (1 when
// the mirror's spans time the stages as the flow itself does). The pair
// runs stageChecks times, alternating which side goes first, and the
// median ratio is kept.
func stageAgreement(m *ir.Module, cfg flow.Config) (float64, error) {
	var ratios []float64
	for i := 0; i < stageChecks; i++ {
		bm := &buildMirror{tr: newTracer(), labelRuns: 1, workers: 1}
		var res *flow.Result
		var err error
		if i%2 == 1 {
			if res, err = congest.RunFlow(m, cfg); err != nil {
				return 0, err
			}
		}
		if _, err := bm.runFlow(context.Background(), -1, 0, m, cfg); err != nil {
			return 0, err
		}
		if i%2 == 0 {
			if res, err = congest.RunFlow(m, cfg); err != nil {
				return 0, err
			}
		}
		br := bm.tr.analyze()
		spans := br.sum("hls.schedule", "hls.bind", "rtl.elaborate", "place.place", "route.route", "timing.analyze")
		t := res.Timings
		own := t.Schedule + t.Bind + t.Elaborate + t.Place + t.Route + t.Timing
		ratios = append(ratios, float64(spans)/float64(own))
	}
	sort.Float64s(ratios)
	return ratios[len(ratios)/2], nil
}
