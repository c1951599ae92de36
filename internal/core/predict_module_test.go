package core

import (
	"math"
	"testing"

	"repro/internal/bench"
	"repro/internal/dataset"
	"repro/internal/features"
	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/hls"
	"repro/internal/ir"
)

// designExtractor runs the HLS front half on m the way PredictModule does.
func designExtractor(t *testing.T, m *ir.Module, cfg flow.Config) *features.Extractor {
	t.Helper()
	s, err := hls.ScheduleModule(m, cfg.Clock)
	if err != nil {
		t.Fatal(err)
	}
	b := hls.BindModule(s)
	return features.NewExtractor(m, s, b, graph.Build(m, b), cfg.Dev)
}

// designDataset labels every op of m with synthetic targets drawn from its
// real features, so a predictor trained on it splits on real feature
// ranges and gives different ops different scores.
func designDataset(t *testing.T, m *ir.Module, cfg flow.Config) *dataset.Dataset {
	t.Helper()
	ex := designExtractor(t, m, cfg)
	ds := dataset.New()
	for i, op := range m.AllOps() {
		f := ex.Vector(op)
		ds.Samples = append(ds.Samples, &dataset.Sample{
			Design: m.Name, OpID: op.ID, Features: f,
			VertPct:     math.Log1p(f[1]) + 0.5*math.Log1p(f[20]) + float64(i%7),
			HorizPct:    math.Log1p(f[2]) + float64(i%5),
			AvgPct:      math.Log1p(f[0]) + float64(i%3),
			ReplicaRoot: -1,
		})
	}
	return ds
}

// TestPredictModuleBlockBoundaries pins PredictModule's block streaming:
// on a design of several 256-row blocks ending in a partial one, every
// op's scores must equal PredictSample on that op's own feature vector,
// bit for bit, for the compiled GBRT path and the scaler + model path.
func TestPredictModuleBlockBoundaries(t *testing.T) {
	cfg := flow.DefaultConfig()
	m := bench.DigitSpam()
	nOps := m.NumOps()
	if nOps <= 2*predictBlockRows || nOps%predictBlockRows == 0 {
		t.Fatalf("digit_spam has %d ops; the test needs several blocks and a partial last one", nOps)
	}
	ds := designDataset(t, m, cfg)
	ex := designExtractor(t, m, cfg)
	for _, kind := range []ModelKind{GBRT, Linear} {
		p, err := Train(ds, TrainOptions{Kind: kind, Seed: 1, Size: SizeQuick})
		if err != nil {
			t.Fatalf("%s: train: %v", kind, err)
		}
		if (p.compiled != nil) != (kind == GBRT) {
			t.Fatalf("%s: compiled = %v", kind, p.compiled != nil)
		}
		preds, err := p.PredictModule(m, cfg)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		ops := m.AllOps()
		if len(preds) != len(ops) {
			t.Fatalf("%s: %d predictions for %d ops", kind, len(preds), len(ops))
		}
		distinct := make(map[float64]bool)
		for i, pr := range preds {
			if pr.Op != ops[i] {
				t.Fatalf("%s: prediction %d is for op %d, want op %d", kind, i, pr.Op.ID, ops[i].ID)
			}
			v, h, a := p.PredictSample(ex.Vector(ops[i]))
			if math.Float64bits(pr.VertPct) != math.Float64bits(v) ||
				math.Float64bits(pr.HorizPct) != math.Float64bits(h) ||
				math.Float64bits(pr.AvgPct) != math.Float64bits(a) {
				t.Fatalf("%s: op %d (block %d, row %d): PredictModule (%v,%v,%v), PredictSample (%v,%v,%v)",
					kind, i, i/predictBlockRows, i%predictBlockRows, pr.VertPct, pr.HorizPct, pr.AvgPct, v, h, a)
			}
			distinct[pr.VertPct] = true
		}
		// A misaligned block would go unnoticed if every op scored alike.
		if len(distinct) < 10 {
			t.Fatalf("%s: only %d distinct vertical scores over %d ops", kind, len(distinct), len(ops))
		}
	}
}

// TestPredictModuleEmptyModule: a design without operations has no
// predictions and no error.
func TestPredictModuleEmptyModule(t *testing.T) {
	p, err := Train(batchDataset(60, 3), TrainOptions{Kind: GBRT, Seed: 1, Size: SizeQuick})
	if err != nil {
		t.Fatal(err)
	}
	m := ir.NewModule("empty")
	m.NewFunction("top")
	preds, err := p.PredictModule(m, flow.DefaultConfig())
	if preds != nil || err != nil {
		t.Fatalf("PredictModule on an op-less module = (%v, %v), want (nil, nil)", preds, err)
	}
}
