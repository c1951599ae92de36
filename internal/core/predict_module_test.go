package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"regexp"
	"strconv"
	"strings"
	"sync"
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

// TestPredictModuleBlockBoundaries pins PredictModule's distinct-row
// scoring, for the compiled GBRT path and the scaler + model path: every
// op's scores must equal PredictSample on that op's own feature vector,
// bit for bit. digit_spam spans several 256-op blocks, ending in a
// partial one, and has rows that first appear in one block and repeat in
// a later one; a chain of ops of varying widths extracts to enough
// distinct rows that PredictModule scores them in several 256-row
// batches, the last one partial.
func TestPredictModuleBlockBoundaries(t *testing.T) {
	cfg := flow.DefaultConfig()
	spam := bench.DigitSpam()
	if n := spam.NumOps(); n <= 2*predictBlockRows || n%predictBlockRows == 0 {
		t.Fatalf("digit_spam has %d ops; the test needs several blocks and a partial last one", n)
	}
	for _, tc := range []struct {
		m *ir.Module
		// check asserts the design's row structure: how many distinct
		// rows it has, and how many ops repeat a row first seen in an
		// earlier 256-op block.
		check func(distinct, crossBlock int) bool
	}{
		{spam, func(_, crossBlock int) bool { return crossBlock > 0 }},
		{chainModule(700), func(distinct, _ int) bool {
			return distinct > 2*predictBlockRows && distinct%predictBlockRows != 0
		}},
	} {
		m := tc.m
		ex := designExtractor(t, m, cfg)
		first := make(map[string]int)
		crossBlock := 0
		for i, op := range m.AllOps() {
			key := rowKey(ex.Vector(op))
			if j, seen := first[key]; !seen {
				first[key] = i
			} else if j/predictBlockRows < i/predictBlockRows {
				crossBlock++
			}
		}
		if !tc.check(len(first), crossBlock) {
			t.Fatalf("%s: %d ops, %d distinct rows, %d repeats across blocks: not the structure the test needs",
				m.Name, m.NumOps(), len(first), crossBlock)
		}
		ds := designDataset(t, m, cfg)
		for _, kind := range []ModelKind{GBRT, Linear} {
			p, err := Train(ds, TrainOptions{Kind: kind, Seed: 1, Size: SizeQuick})
			if err != nil {
				t.Fatalf("%s/%s: train: %v", m.Name, kind, err)
			}
			if (p.compiled != nil) != (kind == GBRT) {
				t.Fatalf("%s/%s: compiled = %v", m.Name, kind, p.compiled != nil)
			}
			preds, err := p.PredictModule(m, cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", m.Name, kind, err)
			}
			ops := m.AllOps()
			if len(preds) != len(ops) {
				t.Fatalf("%s/%s: %d predictions for %d ops", m.Name, kind, len(preds), len(ops))
			}
			distinct := make(map[float64]bool)
			for i, pr := range preds {
				if pr.Op != ops[i] {
					t.Fatalf("%s/%s: prediction %d is for op %d, want op %d", m.Name, kind, i, pr.Op.ID, ops[i].ID)
				}
				v, h, a := p.PredictSample(ex.Vector(ops[i]))
				if math.Float64bits(pr.VertPct) != math.Float64bits(v) ||
					math.Float64bits(pr.HorizPct) != math.Float64bits(h) ||
					math.Float64bits(pr.AvgPct) != math.Float64bits(a) {
					t.Fatalf("%s/%s: op %d (block %d, row %d): PredictModule (%v,%v,%v), PredictSample (%v,%v,%v)",
						m.Name, kind, i, i/predictBlockRows, i%predictBlockRows, pr.VertPct, pr.HorizPct, pr.AvgPct, v, h, a)
				}
				distinct[pr.VertPct] = true
			}
			// A misaligned block would go unnoticed if every op scored alike.
			if len(distinct) < 10 {
				t.Fatalf("%s/%s: only %d distinct vertical scores over %d ops", m.Name, kind, len(distinct), len(ops))
			}
		}
	}
}

// TestPredictModuleSparseTextIDs: text IR may number ops with any unique
// IDs, and the front half's tables are keyed by the dense op index, not
// the ID. digit_spam, written as text with every op ID moved in order to
// a sparse, huge or negative value (the first to MinInt64, the last to
// MaxInt64) and parsed back, must predict exactly what the builder-made
// module predicts, op for op and bit for bit.
func TestPredictModuleSparseTextIDs(t *testing.T) {
	cfg := flow.DefaultConfig()
	m := bench.DigitSpam()
	ops := m.AllOps()
	newID := make(map[string]string, len(ops))
	mid := ops[len(ops)/2].ID
	for _, o := range ops {
		newID[strconv.Itoa(o.ID)] = strconv.Itoa((o.ID - mid) << 40)
	}
	newID[strconv.Itoa(ops[0].ID)] = strconv.Itoa(math.MinInt64)
	newID[strconv.Itoa(ops[len(ops)-1].ID)] = strconv.Itoa(math.MaxInt64)
	var buf bytes.Buffer
	if err := ir.WriteText(&buf, m); err != nil {
		t.Fatal(err)
	}
	// Op headers and operand references are %ID; replica marks keep the
	// original's old ID, which only says the op is a replica.
	text := regexp.MustCompile(`%-?\d+`).ReplaceAllStringFunc(buf.String(), func(ref string) string {
		return "%" + newID[ref[1:]]
	})
	sparse, err := ir.ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	sparseOps := sparse.AllOps()
	if len(sparseOps) != len(ops) || sparseOps[0].ID != math.MinInt64 || sparseOps[len(ops)-1].ID != math.MaxInt64 {
		t.Fatalf("rewritten module: %d ops, IDs %d..%d", len(sparseOps), sparseOps[0].ID, sparseOps[len(sparseOps)-1].ID)
	}
	ds := designDataset(t, m, cfg)
	for _, kind := range []ModelKind{GBRT, Linear} {
		p, err := Train(ds, TrainOptions{Kind: kind, Seed: 1, Size: SizeQuick})
		if err != nil {
			t.Fatalf("%s: train: %v", kind, err)
		}
		want, err := p.PredictModule(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.PredictModule(sparse, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d predictions, want %d", kind, len(got), len(want))
		}
		for i, pr := range got {
			w := want[i]
			if strconv.Itoa(pr.Op.ID) != newID[strconv.Itoa(w.Op.ID)] ||
				math.Float64bits(pr.VertPct) != math.Float64bits(w.VertPct) ||
				math.Float64bits(pr.HorizPct) != math.Float64bits(w.HorizPct) ||
				math.Float64bits(pr.AvgPct) != math.Float64bits(w.AvgPct) {
				t.Fatalf("%s: op %d (ID %d, was %d): (%v,%v,%v), builder module (%v,%v,%v)",
					kind, i, pr.Op.ID, w.Op.ID, pr.VertPct, pr.HorizPct, pr.AvgPct, w.VertPct, w.HorizPct, w.AvgPct)
			}
		}
	}
}

// chainModule is a design of n chained operations of cycling kinds and
// widths, so nearly every op extracts to a row of its own.
func chainModule(n int) *ir.Module {
	m := ir.NewModule("chain")
	b := ir.NewBuilder(m.NewFunction("chain_top"))
	p := b.Port("p", 32)
	kinds := []ir.OpKind{ir.KindAdd, ir.KindXor, ir.KindMul, ir.KindSub, ir.KindAnd}
	x := p
	for i := 0; i < n; i++ {
		x = b.Op(kinds[i%len(kinds)], 1+i%61, x, p)
	}
	b.Ret(x)
	return m
}

// TestPredictModuleConcurrent calls PredictModule on one Predictor from
// several goroutines, alternating two designs of different sizes: every
// call must return the sequential answer bit for bit.
func TestPredictModuleConcurrent(t *testing.T) {
	cfg := flow.DefaultConfig()
	mods := []*ir.Module{bench.DigitSpam(), chainModule(300)}
	p, err := Train(designDataset(t, mods[0], cfg), TrainOptions{Kind: GBRT, Seed: 1, Size: SizeQuick})
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]OpPrediction, len(mods))
	for i, m := range mods {
		if want[i], err = p.PredictModule(m, cfg); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := 0; it < 3; it++ {
				i := (w + it) % len(mods)
				got, err := p.PredictModule(mods[i], cfg)
				if err != nil || len(got) != len(want[i]) {
					t.Errorf("worker %d: %d predictions, error %v", w, len(got), err)
					return
				}
				for j, pr := range got {
					wp := want[i][j]
					if pr.Op != wp.Op || math.Float64bits(pr.VertPct) != math.Float64bits(wp.VertPct) ||
						math.Float64bits(pr.HorizPct) != math.Float64bits(wp.HorizPct) ||
						math.Float64bits(pr.AvgPct) != math.Float64bits(wp.AvgPct) {
						t.Errorf("worker %d: %s op %d diverges from the sequential call", w, mods[i].Name, j)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// rowKey is a row's float64 bits as a map key.
func rowKey(row []float64) string {
	b := make([]byte, 0, 8*len(row))
	for _, v := range row {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return string(b)
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
