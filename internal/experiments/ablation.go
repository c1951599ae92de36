package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/features"
	"repro/internal/ml"
)

// The ablation experiments quantify the design decisions DESIGN.md calls
// out: how much each feature category contributes to accuracy, how the
// marginal-filter threshold behaves, and what multi-seed label averaging
// buys. None of these appear in the paper verbatim; they exist to justify
// this reproduction's choices.

// CategoryAblation is the accuracy cost of hiding one feature category.
type CategoryAblation struct {
	Category features.Category
	MAE      float64 // test MAE with the category zeroed out
	Delta    float64 // MAE - baseline (positive = category helps)
}

// CategoryAblationResult bundles the sweep.
type CategoryAblationResult struct {
	Baseline float64
	Rows     []CategoryAblation
}

// AblateCategories trains the GBRT on the average-congestion target with
// each feature category zeroed in turn and reports the accuracy cost —
// Table V's importance ranking validated by intervention instead of split
// counts.
func AblateCategories(cfg Config, ds *dataset.Dataset) (*CategoryAblationResult, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	split := ml.TrainTestSplit(ds.Len(), 0.2, rng)
	X, y := ds.Matrix(dataset.Average)
	Xtr, ytr := ml.Take(X, y, split.Train)
	Xte, yte := ml.Take(X, y, split.Test)
	cats := features.Categories()
	size := core.SizeFull
	if cfg.Quick {
		size = core.SizeQuick
	}

	// One set of flat matrices and one prediction buffer serve the whole
	// sweep: every point reuses their backing arrays.
	var trM, teM ml.Matrix
	pred := make([]float64, len(Xte))
	eval := func(hide features.Category, mask bool) (float64, error) {
		maskRows := func(rows [][]float64) [][]float64 {
			if !mask {
				return rows
			}
			out := make([][]float64, len(rows))
			for i, r := range rows {
				c := append([]float64(nil), r...)
				for j := range c {
					if cats[j] == hide {
						c[j] = 0
					}
				}
				out[i] = c
			}
			return out
		}
		mXtr := maskRows(Xtr)
		mXte := maskRows(Xte)
		scaler := ml.FitScaler(mXtr)
		scaler.TransformRowsInto(&trM, mXtr)
		scaler.TransformRowsInto(&teM, mXte)
		m := core.NewModelSized(core.GBRT, cfg.Seed, size)
		if err := m.Fit(trM.RowViews(nil), ytr); err != nil {
			return 0, err
		}
		ml.PredictBatchInto(m, teM.RowViews(nil), pred)
		return ml.MAE(yte, pred), nil
	}

	base, err := eval(0, false)
	if err != nil {
		return nil, fmt.Errorf("experiments: category ablation baseline: %w", err)
	}
	out := &CategoryAblationResult{Baseline: base}
	for c := 0; c < features.CategoryCount; c++ {
		mae, err := eval(features.Category(c), true)
		if err != nil {
			return nil, fmt.Errorf("experiments: category ablation %v: %w", features.Category(c), err)
		}
		out.Rows = append(out.Rows, CategoryAblation{
			Category: features.Category(c),
			MAE:      mae,
			Delta:    mae - base,
		})
	}
	return out, nil
}

// Format renders the ablation table.
func (r *CategoryAblationResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "FEATURE-CATEGORY ABLATION (GBRT, Avg(V,H) target; baseline MAE %.2f)\n", r.Baseline)
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  without %-20s MAE %6.2f  (%+.2f)\n", row.Category, row.MAE, row.Delta)
	}
	return b.String()
}

// FilterSweepPoint is one marginal-filter threshold setting.
type FilterSweepPoint struct {
	Deviation float64
	Removed   int
	MAE       float64 // GBRT test MAE on the filtered dataset
}

// SweepFilterThreshold sweeps the marginal-operation deviation threshold
// (0 disables the filter; the library default is 0.9) and reports the GBRT
// accuracy at each point.
func SweepFilterThreshold(cfg Config, ds *dataset.Dataset, deviations []float64) ([]FilterSweepPoint, error) {
	size := core.SizeFull
	if cfg.Quick {
		size = core.SizeQuick
	}
	var trM, teM ml.Matrix
	var out []FilterSweepPoint
	for _, dev := range deviations {
		marg := ds.MarginalWithDeviation(dev)
		rng := rand.New(rand.NewSource(cfg.Seed))
		split := ml.TrainTestSplit(ds.Len(), 0.2, rng)
		keep := func(idx []int) ([][]float64, []float64) {
			var X [][]float64
			var y []float64
			for _, i := range idx {
				if marg[i] {
					continue
				}
				X = append(X, ds.Samples[i].Features)
				y = append(y, ds.Samples[i].AvgPct)
			}
			return X, y
		}
		Xtr, ytr := keep(split.Train)
		Xte, yte := keep(split.Test)
		scaler := ml.FitScaler(Xtr)
		scaler.TransformRowsInto(&trM, Xtr)
		scaler.TransformRowsInto(&teM, Xte)
		m := core.NewModelSized(core.GBRT, cfg.Seed, size)
		if err := m.Fit(trM.RowViews(nil), ytr); err != nil {
			return nil, fmt.Errorf("experiments: filter sweep dev=%.2f: %w", dev, err)
		}
		removed := 0
		for _, mg := range marg {
			if mg {
				removed++
			}
		}
		pred := ml.PredictBatchInto(m, teM.RowViews(nil), make([]float64, len(Xte)))
		out = append(out, FilterSweepPoint{
			Deviation: dev,
			Removed:   removed,
			MAE:       ml.MAE(yte, pred),
		})
	}
	return out, nil
}

// FormatFilterSweep renders the sweep.
func FormatFilterSweep(points []FilterSweepPoint) string {
	var b strings.Builder
	b.WriteString("MARGINAL-FILTER THRESHOLD SWEEP (GBRT, Avg(V,H))\n")
	for _, p := range points {
		fmt.Fprintf(&b, "  deviation %.2f: removed %4d samples, MAE %6.2f\n", p.Deviation, p.Removed, p.MAE)
	}
	return b.String()
}

// LabelRunsPoint is one label-averaging setting.
type LabelRunsPoint struct {
	Runs int
	MAE  float64
}

// AblateLabelAveraging rebuilds the dataset with 1..N placement runs per
// label and reports the GBRT accuracy, quantifying DESIGN.md's expected-
// congestion substitution for the paper's deterministic Vivado placements.
func AblateLabelAveraging(cfg Config, runCounts []int) ([]LabelRunsPoint, error) {
	size := core.SizeFull
	if cfg.Quick {
		size = core.SizeQuick
	}
	var trM, teM ml.Matrix
	var out []LabelRunsPoint
	for _, runs := range runCounts {
		ds, _, _, err := core.BuildDatasetContext(cfg.ctx(), bench.TrainingModules(), cfg.Flow, core.BuildOptions{LabelRuns: runs})
		if err != nil {
			return nil, fmt.Errorf("experiments: label-averaging runs=%d: %w", runs, err)
		}
		rng := rand.New(rand.NewSource(cfg.Seed))
		split := ml.TrainTestSplit(ds.Len(), 0.2, rng)
		X, y := ds.Matrix(dataset.Average)
		Xtr, ytr := ml.Take(X, y, split.Train)
		Xte, yte := ml.Take(X, y, split.Test)
		scaler := ml.FitScaler(Xtr)
		scaler.TransformRowsInto(&trM, Xtr)
		scaler.TransformRowsInto(&teM, Xte)
		m := core.NewModelSized(core.GBRT, cfg.Seed, size)
		if err := m.Fit(trM.RowViews(nil), ytr); err != nil {
			return nil, err
		}
		pred := ml.PredictBatchInto(m, teM.RowViews(nil), make([]float64, len(Xte)))
		out = append(out, LabelRunsPoint{
			Runs: runs,
			MAE:  ml.MAE(yte, pred),
		})
	}
	return out, nil
}

// FormatLabelRuns renders the ablation.
func FormatLabelRuns(points []LabelRunsPoint) string {
	var b strings.Builder
	b.WriteString("LABEL-AVERAGING ABLATION (GBRT, Avg(V,H); labels averaged over N placements)\n")
	for _, p := range points {
		fmt.Fprintf(&b, "  runs=%d: MAE %6.2f\n", p.Runs, p.MAE)
	}
	return b.String()
}
