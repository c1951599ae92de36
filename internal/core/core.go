// Package core ties the whole reproduction together: it is the paper's
// primary contribution as a library. The pipeline runs training designs
// through the synthetic C-to-FPGA flow once, back-traces per-CLB congestion
// onto IR operations, extracts the 302 features, trains the regression
// models (Lasso / ANN / GBRT), and then predicts routing congestion for new
// designs *without* running placement and routing — locating the congested
// regions of the source code during HLS.
package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/backtrace"
	"repro/internal/dataset"
	"repro/internal/features"
	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/hls"
	"repro/internal/ir"
	"repro/internal/ml"
	"repro/internal/ml/ann"
	"repro/internal/ml/gbrt"
	"repro/internal/ml/lasso"
	"repro/internal/obs"
	"repro/internal/store"
)

// ModelKind selects one of the paper's three regression models.
type ModelKind int

const (
	// Linear is the Lasso linear model.
	Linear ModelKind = iota
	// ANN is the multilayer-perceptron regressor.
	ANN
	// GBRT is the gradient-boosted regression tree ensemble, the paper's
	// best model.
	GBRT
)

func (k ModelKind) String() string {
	switch k {
	case Linear:
		return "Linear"
	case ANN:
		return "ANN"
	case GBRT:
		return "GBRT"
	}
	return "?"
}

// ModelKinds lists the three models in Table IV order.
var ModelKinds = []ModelKind{Linear, ANN, GBRT}

// ModelSize selects the effort level of a model build: SizeFull is the
// published configuration, SizeQuick a shrunken variant for unit tests.
type ModelSize int

const (
	// SizeFull is the grid-search-tuned configuration the tables use.
	SizeFull ModelSize = iota
	// SizeQuick trades accuracy for speed (tests, smoke runs).
	SizeQuick
)

// NewModel builds a fresh regressor of the given kind with the tuned
// hyperparameters the experiments use (the values a grid search with
// 10-fold cross-validation selects; see ml.GridSearchCV for the machinery).
func NewModel(kind ModelKind, seed int64) ml.Regressor {
	return NewModelSized(kind, seed, SizeFull)
}

// NewModelSized builds a regressor at the requested effort level.
func NewModelSized(kind ModelKind, seed int64, size ModelSize) ml.Regressor {
	switch kind {
	case Linear:
		m := lasso.New(0.01)
		if size == SizeQuick {
			m.MaxIter = 100
		}
		return m
	case ANN:
		m := ann.New([]int{128, 64}, seed)
		m.Epochs = 60
		m.BatchSize = 32
		m.LR = 1e-3
		m.L2 = 1e-4
		m.NormalizeTarget = true
		m.HuberDelta = 0.5
		if size == SizeQuick {
			m.Hidden = []int{16}
			m.Epochs = 8
		}
		return m
	case GBRT:
		m := gbrt.New(200, 0.08, seed)
		m.MaxDepth = 5
		m.MinSamplesLeaf = 8
		m.Subsample = 0.8
		if size == SizeQuick {
			m.NumTrees = 25
			m.MaxDepth = 4
		}
		return m
	}
	panic(fmt.Sprintf("core: unknown model kind %d", int(kind)))
}

// Factory returns a grid-search factory for the model kind: each candidate
// hyperparameter assignment (see TuningGrid) builds a fresh regressor. The
// paper tunes each model this way with 10-fold cross-validation.
func Factory(kind ModelKind, seed int64) ml.Factory {
	switch kind {
	case Linear:
		return func(p ml.Params) ml.Regressor {
			return lasso.New(p["alpha"])
		}
	case ANN:
		return func(p ml.Params) ml.Regressor {
			hidden := []int{int(p["hidden"])}
			if p["hidden2"] > 0 {
				hidden = append(hidden, int(p["hidden2"]))
			}
			m := ann.New(hidden, seed)
			if p["epochs"] > 0 {
				m.Epochs = int(p["epochs"])
			}
			if p["lr"] > 0 {
				m.LR = p["lr"]
			}
			return m
		}
	case GBRT:
		return func(p ml.Params) ml.Regressor {
			m := gbrt.New(int(p["trees"]), p["lr"], seed)
			if p["depth"] > 0 {
				m.MaxDepth = int(p["depth"])
			}
			return m
		}
	}
	panic(fmt.Sprintf("core: unknown model kind %d", int(kind)))
}

// TuningGrid returns the hyperparameter grid the paper-style search
// explores for each model. Quick mode shrinks the grid for tests.
func TuningGrid(kind ModelKind, quick bool) ml.Grid {
	switch kind {
	case Linear:
		if quick {
			return ml.Grid{"alpha": {0.01, 0.1}}
		}
		return ml.Grid{"alpha": {0.001, 0.01, 0.1, 1.0}}
	case ANN:
		if quick {
			return ml.Grid{"hidden": {16}, "epochs": {6}, "lr": {2e-3}}
		}
		return ml.Grid{"hidden": {32, 64}, "hidden2": {0, 32}, "epochs": {40}, "lr": {1e-3, 2e-3}}
	case GBRT:
		if quick {
			return ml.Grid{"trees": {20}, "lr": {0.1}, "depth": {3, 4}}
		}
		return ml.Grid{"trees": {100, 200}, "lr": {0.05, 0.08, 0.12}, "depth": {4, 5}}
	}
	panic(fmt.Sprintf("core: unknown model kind %d", int(kind)))
}

// LabelRuns is the number of placement seeds whose congestion labels are
// averaged per operation when building the training dataset. The simulated
// annealer is stochastic where Vivado is deterministic, so a single run's
// label carries placement noise that no HLS-side feature could ever
// explain; averaging defines the target as the operation's *expected*
// congestion, the quantity a pre-PAR predictor can meaningfully estimate.
const LabelRuns = 3

// BuildOptions tunes a resilient dataset build.
type BuildOptions struct {
	// LabelRuns is the number of placement seeds averaged per label;
	// values below 1 mean 1.
	LabelRuns int
	// Retry governs per-flow-run retries with escalation. The zero value
	// disables retrying (single attempt per run). BuildDatasetContext
	// hands it to LocalExecutor; a CellExecutor passed to
	// BuildDatasetExec applies its own retry policy.
	Retry flow.RetryPolicy
	// Workers bounds how many flow runs execute concurrently. Zero (the
	// default) uses runtime.GOMAXPROCS(0); 1 forces the sequential
	// reference execution. BuildDatasetContext hands it to LocalExecutor;
	// a CellExecutor passed to BuildDatasetExec owns its own concurrency.
	// Whatever the value, the build is deterministic:
	// every run derives its placement seed from Config.Seed and its
	// (module, label-run) position alone, and results are reduced in index
	// order, so the dataset, summary and joined error are byte-identical
	// across worker counts.
	Workers int
	// Checkpoint, when non-nil, persists each completed module's samples
	// and first flow result to the artifact store and restores them on the
	// next build with the same (module, config, label-run count) — a build
	// killed mid-sweep resumes instead of recomputing. Restored samples
	// are byte-identical to recomputed ones (the codec stores raw float
	// bits and the build is deterministic), so checkpointing never changes
	// the dataset. Checkpoint failures degrade to recompute.
	Checkpoint *store.Checkpoint
}

// ModuleFailure records one module the dataset build had to skip.
type ModuleFailure struct {
	Module string
	Err    error
}

// BuildSummary reports what a dataset build actually did: how many
// modules survived, which failed and why, and how much retrying it took.
type BuildSummary struct {
	Modules   int
	Succeeded int
	Failed    []ModuleFailure
	// FlowRuns counts successful flow executions (label runs included).
	FlowRuns int
	// Restored counts modules recovered from the build checkpoint instead
	// of executed (their label runs are not in FlowRuns).
	Restored int
}

// Format renders the summary as a short human-readable report.
func (s *BuildSummary) Format() string {
	out := fmt.Sprintf("dataset build: %d/%d modules, %d flow runs", s.Succeeded, s.Modules, s.FlowRuns)
	if s.Restored > 0 {
		out += fmt.Sprintf(" (%d modules restored from checkpoint)", s.Restored)
	}
	for _, f := range s.Failed {
		out += fmt.Sprintf("\n  skipped %q: %v", f.Module, f.Err)
	}
	return out + "\n"
}

// Err joins the per-module failures (nil when every module succeeded).
func (s *BuildSummary) Err() error { return errors.Join(errList(s)...) }

// BuildDataset runs the complete implementation flow on every module,
// back-traces congestion labels (averaged over LabelRuns placement seeds),
// extracts features and assembles the combined dataset — the training
// phase of Fig. 2. The returned flow results are the first run per module.
func BuildDataset(mods []*ir.Module, cfg flow.Config) (*dataset.Dataset, []*flow.Result, error) {
	ds, results, _, err := BuildDatasetContext(context.Background(), mods, cfg, BuildOptions{LabelRuns: LabelRuns})
	return ds, results, err
}

// BuildDatasetContext is the resilient dataset builder. Unlike the plain
// wrappers it does not abort on the first failure: each flow run is
// retried under opts.Retry with seed re-rolling and router escalation,
// modules that still fail are skipped and collected (errors.Join) while
// the remaining modules' samples are kept, and a BuildSummary reports what
// happened. The returned dataset and results are always non-nil alongside
// a non-nil error when at least one module survived; only context
// cancellation aborts the whole build.
//
// The build fans out: every (module, label-run) pair is an independent
// flow execution, and opts.Workers of them run concurrently (default: one
// per CPU). Parallel execution is an implementation detail — the per-run
// seed derivation, the row order, the label-averaging float arithmetic,
// the BuildSummary counts and the errors.Join order are reproduced by a
// sequential reduce over the per-cell results, so any worker count yields
// byte-identical output (see TestBuildDatasetDeterministicAcrossWorkers).
func BuildDatasetContext(ctx context.Context, mods []*ir.Module, cfg flow.Config, opts BuildOptions) (*dataset.Dataset, []*flow.Result, *BuildSummary, error) {
	return buildDataset(ctx, mods, cfg, opts, LocalExecutor(opts.Workers, opts.Retry))
}

// buildDataset is the shared build pipeline: checkpoint restore, cell
// execution through exec (LocalExecutor in process, or the caller's — see
// BuildDatasetExec), and the index-ordered assembly that makes the output
// independent of how cells were scheduled.
func buildDataset(ctx context.Context, mods []*ir.Module, cfg flow.Config, opts BuildOptions, exec CellExecutor) (*dataset.Dataset, []*flow.Result, *BuildSummary, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	labelRuns := opts.LabelRuns
	if labelRuns < 1 {
		labelRuns = 1
	}
	// One "dataset.build" span wraps the whole build; each (module,
	// label-run) cell starts its own child span on whatever worker runs
	// it (see LocalExecutor). Observation happens at cell granularity so the
	// parallel schedule is visible in the trace without perturbing it.
	o := cfg.Obs
	var bsp *obs.Span
	if obs.Tracing(ctx, o) {
		ctx, bsp = obs.StartSpan(ctx, o, "dataset.build",
			obs.Int("modules", int64(len(mods))), obs.Int("label_runs", int64(labelRuns)))
	}
	defer bsp.End()
	ds := dataset.New()

	// Restore checkpointed modules first: a module whose (text, config,
	// label-run count) block is already in the artifact store skips its
	// flow runs entirely. A block that fails to load — missing, corrupt,
	// or with a stale feature layout — is simply recomputed.
	ck := opts.Checkpoint
	done := make([]bool, len(mods))
	restoredSamples := make([][]*dataset.Sample, len(mods))
	restoredFirst := make([]*flow.Result, len(mods))
	if ck != nil {
		for mi, m := range mods {
			samples, first, ok := ck.LoadModule(m, cfg, labelRuns)
			if !ok || !samplesFitLayout(samples, len(ds.FeatureNames)) {
				continue
			}
			restoredSamples[mi], restoredFirst[mi] = samples, first
			done[mi] = true
		}
	}

	cells := execCells(ctx, mods, cfg, labelRuns, done, exec)

	var results []*flow.Result
	sum := &BuildSummary{Modules: len(mods)}
	for mi, m := range mods {
		if done[mi] {
			ds.Samples = append(ds.Samples, restoredSamples[mi]...)
			results = append(results, restoredFirst[mi])
			sum.Succeeded++
			sum.Restored++
			continue
		}
		traced, first, runs, err := reduceModuleCells(cells[mi*labelRuns : (mi+1)*labelRuns])
		sum.FlowRuns += runs
		if err != nil {
			if ctx.Err() != nil {
				// Cancellation is not a per-module condition: stop the
				// whole build and report how far it got.
				return ds, results, sum, errors.Join(append([]error{err}, errList(sum)...)...)
			}
			sum.Failed = append(sum.Failed, ModuleFailure{Module: m.Name, Err: err})
			o.Count(obs.MetricBuildModulesFailed, 1)
			if l := o.Logger(); l != nil {
				l.Warn("dataset build skipped module", "module", m.Name, "error", err)
			}
			continue
		}
		// Build the graph and extractor from the flow result's own module:
		// with flow caching enabled, `first` may have been produced from a
		// content-identical but pointer-distinct module instance, and the
		// extractor keys off op identity. Content equality makes the
		// emitted features byte-identical either way.
		g := graph.Build(first.Mod, first.Bind)
		ex := features.NewExtractor(first.Mod, first.Sched, first.Bind, g, cfg.Dev)
		start := ds.Len()
		ds.FromTrace(m.Name, traced, ex)
		results = append(results, first)
		sum.Succeeded++
		if ck != nil {
			// Persist the module as soon as it completes, so a kill at any
			// later point loses at most the in-flight modules. A failed
			// save just means this module is rebuilt next time.
			if cerr := ck.SaveModule(m, cfg, labelRuns, ds.FeatureNames, ds.Samples[start:], first); cerr != nil {
				if l := o.Logger(); l != nil {
					l.Warn("dataset build checkpoint not taken", "module", m.Name, "error", cerr)
				}
			}
		}
	}
	o.Count(obs.MetricBuildFlowRuns, int64(sum.FlowRuns))
	if l := o.Logger(); l != nil {
		l.Info("dataset build complete", "modules", sum.Modules, "succeeded", sum.Succeeded,
			"restored", sum.Restored, "flow_runs", sum.FlowRuns, "samples", ds.Len())
	}
	return ds, results, sum, sum.Err()
}

// samplesFitLayout guards a checkpoint restore: every restored sample must
// carry the build's current feature layout, or the module is recomputed.
func samplesFitLayout(samples []*dataset.Sample, cols int) bool {
	for _, s := range samples {
		if len(s.Features) != cols {
			return false
		}
	}
	return true
}

// runCell is the outcome of one (module, label-run) flow execution.
type runCell struct {
	traced []backtrace.OpCongestion
	res    *flow.Result
	err    error
}

// reduceModuleCells folds one module's label runs into the seed-averaged
// trace, replaying the sequential aggregation in run order: the first
// failed run aborts the module with that error and a runs count of the
// successes before it, and the float accumulation order matches the
// sequential build exactly.
func reduceModuleCells(cells []runCell) (traced []backtrace.OpCongestion, first *flow.Result, runs int, err error) {
	labelRuns := len(cells)
	var marginVotes []int
	for run, c := range cells {
		if c.err != nil {
			return nil, nil, runs, c.err
		}
		runs++
		tr := c.traced
		if run == 0 {
			first = c.res
			traced = tr
			marginVotes = make([]int, len(tr))
			for i := range tr {
				if tr[i].Margin {
					marginVotes[i]++
				}
			}
			continue
		}
		if len(tr) != len(traced) {
			return nil, nil, runs, fmt.Errorf("trace size changed across seeds (%d vs %d)", len(tr), len(traced))
		}
		for i := range traced {
			traced[i].VertPct += tr[i].VertPct
			traced[i].HorizPct += tr[i].HorizPct
			traced[i].AvgPct += tr[i].AvgPct
			if tr[i].Margin {
				marginVotes[i]++
			}
		}
	}
	inv := 1.0 / float64(labelRuns)
	for i := range traced {
		traced[i].VertPct *= inv
		traced[i].HorizPct *= inv
		traced[i].AvgPct *= inv
		// An operation is marginal when placement puts it at the die
		// margin at least half the time.
		traced[i].Margin = 2*marginVotes[i] >= labelRuns
	}
	return traced, first, runs, nil
}

// errList converts the summary's failures for joining with an abort cause.
func errList(s *BuildSummary) []error {
	errs := make([]error, len(s.Failed))
	for i, f := range s.Failed {
		errs[i] = fmt.Errorf("core: dataset build on %q: %w", f.Module, f.Err)
	}
	return errs
}

// Predictor is the trained congestion estimator: one regressor per
// congestion target plus the feature scaler. A GBRT predictor also holds
// its three ensembles compiled for raw rows (gbrt.Compile: the scaler
// folded into the thresholds, the targets fused); it is derived at Train
// and load time and never persisted.
type Predictor struct {
	Kind     ModelKind
	scaler   *ml.Scaler
	models   map[dataset.Target]ml.Regressor
	compiled *gbrt.Compiled
}

// TrainOptions tunes predictor training.
type TrainOptions struct {
	Kind ModelKind
	// Filter removes marginal operations before training (Sec. III-C1).
	Filter bool
	Seed   int64
	// Size selects the model effort level; the zero value (SizeFull) is
	// the published configuration, SizeQuick the shrunken smoke-run one.
	Size ModelSize
}

// Train fits one regressor per congestion target on the dataset.
func Train(ds *dataset.Dataset, opts TrainOptions) (*Predictor, error) {
	if ds.Len() == 0 {
		return nil, fmt.Errorf("core: train on empty dataset")
	}
	if opts.Filter {
		ds, _ = ds.FilterMarginal()
	}
	X, _ := ds.Matrix(dataset.Vertical)
	scaler := ml.FitScaler(X)
	var xm ml.Matrix
	scaler.TransformRowsInto(&xm, X)
	Xs := xm.RowViews(nil)
	p := &Predictor{Kind: opts.Kind, scaler: scaler, models: make(map[dataset.Target]ml.Regressor)}
	for _, t := range dataset.Targets {
		_, y := ds.Matrix(t)
		m := NewModelSized(opts.Kind, opts.Seed, opts.Size)
		if err := m.Fit(Xs, y); err != nil {
			return nil, fmt.Errorf("core: train %s/%s: %w", opts.Kind, t, err)
		}
		p.models[t] = m
	}
	if err := p.compile(); err != nil {
		return nil, fmt.Errorf("core: train: %w", err)
	}
	return p, nil
}

// compile builds the GBRT scoring form PredictSample and PredictBatchInto
// use; other model kinds keep the scaler + per-model path.
func (p *Predictor) compile() error {
	if p.Kind != GBRT {
		return nil
	}
	ms := make([]*gbrt.Model, len(dataset.Targets))
	for i, t := range dataset.Targets {
		m, ok := p.models[t].(*gbrt.Model)
		if !ok {
			return fmt.Errorf("GBRT predictor has a %T model for %s", p.models[t], t)
		}
		ms[i] = m
	}
	c, err := gbrt.Compile(ms, p.scaler.Mean, p.scaler.Std)
	if err != nil {
		return err
	}
	p.compiled = c
	return nil
}

// Model exposes the trained regressor for a target (nil if missing).
func (p *Predictor) Model(t dataset.Target) ml.Regressor { return p.models[t] }

// NumFeatures returns the feature-vector width this predictor was trained
// on — the width every row handed to PredictSample or PredictBatchInto
// must have.
func (p *Predictor) NumFeatures() int { return p.scaler.Width() }

// BatchShapeError reports a prediction batch the predictor cannot score:
// a feature row whose width does not match the trained feature layout.
// Batches arrive from untrusted callers (the serving path decodes them off
// the network), so a malformed row is data, not a programming error — the
// batch is rejected before any model sees it, and no output slot is
// written.
type BatchShapeError struct {
	// Row is the index of the first offending feature row.
	Row int
	// Got is that row's width; Want is the predictor's feature count.
	Got, Want int
}

func (e *BatchShapeError) Error() string {
	return fmt.Sprintf("core: batch row %d has %d features, predictor wants %d", e.Row, e.Got, e.Want)
}

// validateBatch rejects ragged or mis-sized feature rows before they reach
// the scaler: TransformRowsInto sizes its flat matrix off row 0, so without
// this check a short row would read stale scratch and a long one would be
// silently truncated — either way corrupting the whole batch.
func (p *Predictor) validateBatch(feats [][]float64) error {
	want := p.NumFeatures()
	for i, row := range feats {
		if len(row) != want {
			return &BatchShapeError{Row: i, Got: len(row), Want: want}
		}
	}
	return nil
}

// predScratch is the pooled working set of the predictor's serving path:
// one standardized-row buffer for single samples, one flat matrix plus row
// views for batches. Pooling (instead of per-Predictor state) keeps
// concurrent prediction on a shared Predictor allocation-free and safe.
type predScratch struct {
	row  []float64
	m    ml.Matrix
	rows [][]float64
}

var predScratchPool = sync.Pool{New: func() any { return &predScratch{} }}

// PredictSample estimates all three congestion metrics for one raw feature
// vector. Steady-state calls do not allocate.
func (p *Predictor) PredictSample(feats []float64) (vert, horiz, avg float64) {
	if c := p.compiled; c != nil {
		var out [3]float64
		c.PredictRowInto(out[:], feats)
		return out[0], out[1], out[2]
	}
	ps := predScratchPool.Get().(*predScratch)
	if cap(ps.row) < len(feats) {
		ps.row = make([]float64, len(feats))
	}
	row := ps.row[:len(feats)]
	p.scaler.TransformRowInto(row, feats)
	vert = p.models[dataset.Vertical].Predict(row)
	horiz = p.models[dataset.Horizontal].Predict(row)
	avg = p.models[dataset.Average].Predict(row)
	predScratchPool.Put(ps)
	return vert, horiz, avg
}

// PredictBatchInto estimates all three congestion metrics for a batch of
// raw feature vectors, writing into the caller-owned output slices (each
// len(feats)). A GBRT predictor scores the raw rows through its compiled
// ensembles in one pass; other kinds standardize the rows into a pooled
// flat matrix and each model takes its allocation-free batch path. Either
// way steady-state calls do not allocate, and values are identical to
// PredictSample per row.
//
// Every row must have exactly NumFeatures entries; a ragged or mis-sized
// batch is rejected whole with a *BatchShapeError before anything is
// written. Mis-sized output slices are a caller bug and still panic.
func (p *Predictor) PredictBatchInto(vert, horiz, avg []float64, feats [][]float64) error {
	if len(vert) != len(feats) || len(horiz) != len(feats) || len(avg) != len(feats) {
		panic(fmt.Sprintf("core: PredictBatchInto output lengths %d/%d/%d for %d rows",
			len(vert), len(horiz), len(avg), len(feats)))
	}
	if err := p.validateBatch(feats); err != nil {
		return err
	}
	if c := p.compiled; c != nil {
		out := [3][]float64{vert, horiz, avg}
		c.PredictBatchInto(out[:], feats)
		return nil
	}
	ps := predScratchPool.Get().(*predScratch)
	p.scaler.TransformRowsInto(&ps.m, feats)
	ps.rows = ps.m.RowViews(ps.rows)
	ml.PredictBatchInto(p.models[dataset.Vertical], ps.rows, vert)
	ml.PredictBatchInto(p.models[dataset.Horizontal], ps.rows, horiz)
	ml.PredictBatchInto(p.models[dataset.Average], ps.rows, avg)
	predScratchPool.Put(ps)
	return nil
}

// OpPrediction is the estimated congestion of one IR operation.
type OpPrediction struct {
	Op       *ir.Op
	VertPct  float64
	HorizPct float64
	AvgPct   float64
}

// PredictModule estimates per-operation congestion for a design running
// only the HLS front half (schedule + bind + feature extraction) — no
// placement, no routing. This is the prediction phase of Fig. 2: the whole
// point of the paper is that this call replaces hours of RTL
// implementation.
//
// Each distinct feature row is scored once, in batches of up to
// predictBlockRows rows. Unrolled-loop replicas extract to bit-identical
// rows, and the predictor scores a row as a pure function of its bits, so
// an op whose row repeats an earlier op's takes that op's scores: the
// output is bit-identical to scoring every op.
func (p *Predictor) PredictModule(m *ir.Module, cfg flow.Config) ([]OpPrediction, error) {
	sched, err := hls.ScheduleModule(m, cfg.Clock)
	if err != nil {
		return nil, fmt.Errorf("core: predict: %w", err)
	}
	bind := hls.BindModule(sched)
	g := graph.Build(m, bind)
	ex := features.NewExtractor(m, sched, bind, g, cfg.Dev)
	ops := sched.Ops
	if len(ops) == 0 {
		return nil, nil
	}
	set := newRowSet(features.NumFeatures, len(ops))
	row := make([]float64, features.NumFeatures)
	idx := make([]int32, len(ops))
	for i, o := range ops {
		ex.VectorInto(row, o)
		idx[i] = int32(set.add(row, hashRow(row)))
	}
	n := set.len()
	sc := make([]float64, 3*n)
	vert, horiz, avg := sc[:n], sc[n:2*n], sc[2*n:]
	var views [predictBlockRows][]float64
	for lo := 0; lo < n; lo += predictBlockRows {
		hi := min(lo+predictBlockRows, n)
		for j := lo; j < hi; j++ {
			views[j-lo] = set.row(j)
		}
		if err := p.PredictBatchInto(vert[lo:hi], horiz[lo:hi], avg[lo:hi], views[:hi-lo]); err != nil {
			// The extractor emits fixed-width vectors, so a shape error here
			// means the predictor artifact and the library's feature layout
			// have drifted apart.
			return nil, fmt.Errorf("core: predict: %w", err)
		}
	}
	out := make([]OpPrediction, len(ops))
	for i, o := range ops {
		k := idx[i]
		out[i] = OpPrediction{Op: o, VertPct: vert[k], HorizPct: horiz[k], AvgPct: avg[k]}
	}
	return out, nil
}

// predictBlockRows is how many distinct rows PredictModule scores per
// PredictBatchInto call: the compiled forest's batch throughput has
// levelled off by 256 rows (BenchmarkPredictorBatch).
const predictBlockRows = 256

// Hotspot aggregates predicted congestion per source location — the
// "congested region in the source code" report the designer acts on.
type Hotspot struct {
	Loc    ir.SourceLoc
	Ops    int
	MaxAvg float64
	MeanV  float64
	MeanH  float64
}

// Hotspots groups predictions by source line, sorted by descending maximum
// predicted average congestion.
func Hotspots(preds []OpPrediction) []Hotspot {
	agg := make(map[ir.SourceLoc]*Hotspot)
	for _, pr := range preds {
		h := agg[pr.Op.Src]
		if h == nil {
			h = &Hotspot{Loc: pr.Op.Src}
			agg[pr.Op.Src] = h
		}
		h.Ops++
		h.MeanV += pr.VertPct
		h.MeanH += pr.HorizPct
		if pr.AvgPct > h.MaxAvg {
			h.MaxAvg = pr.AvgPct
		}
	}
	out := make([]Hotspot, 0, len(agg))
	for _, h := range agg {
		h.MeanV /= float64(h.Ops)
		h.MeanH /= float64(h.Ops)
		out = append(out, *h)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].MaxAvg != out[j].MaxAvg {
			return out[i].MaxAvg > out[j].MaxAvg
		}
		if out[i].Loc.File != out[j].Loc.File {
			return out[i].Loc.File < out[j].Loc.File
		}
		return out[i].Loc.Line < out[j].Loc.Line
	})
	return out
}

// Accuracy is one Table IV cell pair.
type Accuracy struct {
	MAE   float64
	MedAE float64
}

// EvalRow is one Table IV row: accuracy per congestion target for one
// model and filtering choice.
type EvalRow struct {
	Kind     ModelKind
	Filtered bool
	Acc      map[dataset.Target]Accuracy
}

// Evaluate reproduces one Table IV row: randomly split the dataset 80/20
// (the split depends only on the seed, so every model and filtering choice
// is compared on the same partition), optionally drop the marginal
// operations from both sides (Sec. III-C1 filters during dataset
// construction, before any split), train on the training portion and score
// MAE/MedAE on the unseen test split.
func Evaluate(ds *dataset.Dataset, kind ModelKind, filter bool, seed int64) (EvalRow, error) {
	return EvaluateSized(ds, kind, filter, seed, SizeFull)
}

// EvaluateSized is Evaluate with an explicit model effort level.
func EvaluateSized(ds *dataset.Dataset, kind ModelKind, filter bool, seed int64, size ModelSize) (EvalRow, error) {
	row := EvalRow{Kind: kind, Filtered: filter, Acc: make(map[dataset.Target]Accuracy)}
	rng := rand.New(rand.NewSource(seed))
	split := ml.TrainTestSplit(ds.Len(), 0.2, rng)
	marginal := ds.Marginal()

	train := &dataset.Dataset{FeatureNames: ds.FeatureNames}
	for _, i := range split.Train {
		if filter && marginal[i] {
			continue
		}
		train.Samples = append(train.Samples, ds.Samples[i])
	}
	test := &dataset.Dataset{FeatureNames: ds.FeatureNames}
	for _, i := range split.Test {
		if filter && marginal[i] {
			continue
		}
		test.Samples = append(test.Samples, ds.Samples[i])
	}

	Xtr, _ := train.Matrix(dataset.Vertical)
	scaler := ml.FitScaler(Xtr)
	var xtrM, xteM ml.Matrix
	scaler.TransformRowsInto(&xtrM, Xtr)
	XtrS := xtrM.RowViews(nil)
	Xte, _ := test.Matrix(dataset.Vertical)
	scaler.TransformRowsInto(&xteM, Xte)
	XteS := xteM.RowViews(nil)

	pred := make([]float64, len(XteS))
	for _, t := range dataset.Targets {
		_, ytr := train.Matrix(t)
		_, yte := test.Matrix(t)
		m := NewModelSized(kind, seed, size)
		if err := m.Fit(XtrS, ytr); err != nil {
			return row, fmt.Errorf("core: evaluate %s/%s: %w", kind, t, err)
		}
		ml.PredictBatchInto(m, XteS, pred)
		row.Acc[t] = Accuracy{MAE: ml.MAE(yte, pred), MedAE: ml.MedAE(yte, pred)}
	}
	return row, nil
}
