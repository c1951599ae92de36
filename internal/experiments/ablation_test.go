package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/features"
	"repro/internal/ir"
)

// tinyDataset builds a small dataset quickly for ablation/tuning tests.
func tinyDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	build := func(name string, lanes int) *ir.Module {
		m := ir.NewModule(name)
		b := ir.NewBuilder(m.NewFunction(name+"_top")).At(name+".cpp", 1)
		p := b.Port("p", 32)
		a := b.Array("mem", 64, 16, 8)
		var outs []*ir.Op
		b.UnrolledLoop("main", 512, 4, func(copy int) {
			for i := 0; i < lanes; i++ {
				v := b.Load(a, nil)
				x := b.OpBits(ir.KindBitSel, 16, p, 16)
				outs = append(outs, b.Op(ir.KindMul, 16, v, x))
			}
		})
		b.Ret(b.ReduceTree(ir.KindAdd, 16, outs))
		return m
	}
	cfg := quickCfg()
	cfg.Flow.Place.Moves = 3000
	ds, _, _, err := core.BuildDatasetContext(context.Background(), []*ir.Module{build("ta", 5), build("tb", 8)}, cfg.Flow, core.BuildOptions{LabelRuns: 2})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestAblateCategories(t *testing.T) {
	cfg := quickCfg()
	ds := tinyDataset(t)
	res, err := AblateCategories(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != features.CategoryCount {
		t.Fatalf("rows = %d, want %d", len(res.Rows), features.CategoryCount)
	}
	if res.Baseline <= 0 {
		t.Fatal("baseline MAE missing")
	}
	for _, r := range res.Rows {
		if r.MAE <= 0 {
			t.Errorf("ablated MAE for %v is %v", r.Category, r.MAE)
		}
		if got := r.MAE - res.Baseline; got != r.Delta {
			t.Errorf("delta inconsistent for %v", r.Category)
		}
	}
	if !strings.Contains(res.Format(), "ABLATION") {
		t.Error("format header missing")
	}
}

func TestSweepFilterThreshold(t *testing.T) {
	cfg := quickCfg()
	ds := tinyDataset(t)
	points, err := SweepFilterThreshold(cfg, ds, []float64{0, 0.5, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d", len(points))
	}
	if points[0].Removed != 0 {
		t.Errorf("deviation 0 removed %d samples, want 0", points[0].Removed)
	}
	for i := 1; i < len(points); i++ {
		if points[i].Removed < points[i-1].Removed {
			t.Error("higher threshold removed fewer samples")
		}
	}
	if !strings.Contains(FormatFilterSweep(points), "SWEEP") {
		t.Error("format header missing")
	}
}

func TestTuningQuick(t *testing.T) {
	cfg := quickCfg()
	ds := tinyDataset(t)
	res, err := Tuning(cfg, ds, core.Linear)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluated < 2 {
		t.Errorf("evaluated %d candidates", res.Evaluated)
	}
	if res.BestScore <= 0 {
		t.Errorf("best score = %v", res.BestScore)
	}
	if _, ok := res.Best["alpha"]; !ok {
		t.Error("linear tuning must pick alpha")
	}
	out := FormatTuning([]*TuningResult{res})
	if !strings.Contains(out, "Linear") || !strings.Contains(out, "alpha") {
		t.Errorf("format output %q", out)
	}
}

func TestTuningGridsCoverAllKinds(t *testing.T) {
	for _, kind := range core.ModelKinds {
		for _, quick := range []bool{false, true} {
			g := core.TuningGrid(kind, quick)
			if len(g.Enumerate()) == 0 {
				t.Errorf("empty grid for %v quick=%v", kind, quick)
			}
		}
		f := core.Factory(kind, 1)
		for _, p := range core.TuningGrid(kind, true).Enumerate() {
			if f(p) == nil {
				t.Errorf("factory %v returned nil", kind)
			}
		}
	}
}

func TestGeneralization(t *testing.T) {
	cfg := quickCfg()
	ds := tinyDataset(t)
	res, err := Generalization(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want one per design", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.Train == 0 || r.Test == 0 {
			t.Fatalf("fold %s has empty split", r.HeldOut)
		}
		for _, tg := range dataset.Targets {
			if r.Acc[tg].MAE <= 0 {
				t.Errorf("%s/%v: empty accuracy", r.HeldOut, tg)
			}
		}
	}
	if res.RandomSplit[dataset.Average].MAE <= 0 {
		t.Error("random-split reference missing")
	}
	out := res.Format()
	if !strings.Contains(out, "GENERALIZATION") || !strings.Contains(out, "random 80/20") {
		t.Errorf("format malformed:\n%s", out)
	}
}

func TestHotspotDetectionModule(t *testing.T) {
	cfg := quickCfg()
	ds := tinyDataset(t)
	pred, err := core.Train(ds, core.TrainOptions{Kind: core.Linear, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Score on a fresh module of the same family.
	m := ir.NewModule("hotspot_target")
	b := ir.NewBuilder(m.NewFunction("t_top")).At("t.cpp", 1)
	p := b.Port("p", 32)
	a := b.Array("mem", 64, 16, 8)
	var outs []*ir.Op
	for i := 0; i < 20; i++ {
		b.Line(5 + i)
		v := b.Load(a, nil)
		outs = append(outs, b.Op(ir.KindMul, 16, v, b.OpBits(ir.KindBitSel, 16, p, 16)))
	}
	b.Line(40)
	b.Ret(b.ReduceTree(ir.KindAdd, 16, outs))

	res, err := HotspotDetectionModule(cfg, pred, m)
	if err != nil {
		t.Fatal(err)
	}
	if res.Lines == 0 {
		t.Fatal("no aligned source lines")
	}
	for k, p := range res.PrecisionAtK {
		if p < 0 || p > 1 {
			t.Errorf("precision@%d = %v out of [0,1]", k, p)
		}
	}
	if res.Spearman < -1 || res.Spearman > 1 {
		t.Errorf("spearman = %v", res.Spearman)
	}
	if !strings.Contains(res.Format(), "HOTSPOT DETECTION") {
		t.Error("format header missing")
	}
}

func TestAblateLabelAveraging(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset rebuilds in -short mode")
	}
	cfg := quickCfg()
	cfg.Flow.Place.Moves = 3000
	points, err := AblateLabelAveraging(cfg, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	for _, p := range points {
		if p.MAE <= 0 {
			t.Errorf("runs=%d MAE=%v", p.Runs, p.MAE)
		}
	}
	out := FormatLabelRuns(points)
	if !strings.Contains(out, "LABEL-AVERAGING") {
		t.Error("format header missing")
	}
}
