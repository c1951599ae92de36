package core

// Tests for the compiled GBRT scoring path: it must agree bit-for-bit with
// the scaler + per-model walk it replaces, allocate nothing in steady
// state, and refuse artifacts whose shape the compiler cannot serve.

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/features"
	"repro/internal/ml"
)

// walkBatch scores rows the way every predictor did before compilation:
// standardize, then one batch walk per target.
func walkBatch(p *Predictor, rows [][]float64) (vert, horiz, avg []float64) {
	scaled := p.scaler.Transform(rows)
	out := [3][]float64{}
	for i, t := range dataset.Targets {
		out[i] = ml.PredictBatch(p.models[t], scaled)
	}
	return out[0], out[1], out[2]
}

func TestGBRTPredictorCompiledMatchesWalk(t *testing.T) {
	p, err := Train(batchDataset(200, 4), TrainOptions{Kind: GBRT, Seed: 3, Size: SizeQuick})
	if err != nil {
		t.Fatal(err)
	}
	if p.compiled == nil {
		t.Fatal("Train did not compile the GBRT predictor")
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadPredictor(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.compiled == nil {
		t.Fatal("LoadPredictor did not compile the GBRT predictor")
	}
	rows := batchRows(100, 8)
	rows[3][0], rows[4][1], rows[5][3] = math.NaN(), math.Inf(1), math.Inf(-1)
	wv, wh, wa := walkBatch(p, rows)
	for _, q := range []*Predictor{p, back} {
		v, h, a := make([]float64, len(rows)), make([]float64, len(rows)), make([]float64, len(rows))
		if err := q.PredictBatchInto(v, h, a, rows); err != nil {
			t.Fatal(err)
		}
		for i, row := range rows {
			sv, sh, sa := q.PredictSample(row)
			for _, got := range [][3]float64{{v[i], h[i], a[i]}, {sv, sh, sa}} {
				want := [3]float64{wv[i], wh[i], wa[i]}
				for k := range got {
					if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
						t.Fatalf("row %d target %d: compiled %v, walk %v", i, k, got[k], want[k])
					}
				}
			}
		}
	}
}

func requireZeroAllocs(t *testing.T, name string, fn func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("alloc counts are unstable under -race: sync.Pool randomly drops Puts")
	}
	fn() // warm pools and lazily-grown scratch
	if avg := testing.AllocsPerRun(50, fn); avg != 0 {
		t.Errorf("%s: %v allocs/op in steady state, want 0", name, avg)
	}
}

func TestPredictorZeroAlloc(t *testing.T) {
	for _, kind := range ModelKinds {
		p, err := Train(batchDataset(80, 5), TrainOptions{Kind: kind, Seed: 2, Size: SizeQuick})
		if err != nil {
			t.Fatal(err)
		}
		rows := batchRows(40, 6)
		v, h, a := make([]float64, len(rows)), make([]float64, len(rows)), make([]float64, len(rows))
		requireZeroAllocs(t, kind.String()+" PredictBatchInto", func() {
			if err := p.PredictBatchInto(v, h, a, rows); err != nil {
				t.Fatal(err)
			}
		})
		requireZeroAllocs(t, kind.String()+" PredictSample", func() { p.PredictSample(rows[0]) })
	}
}

func TestLoadPredictorRejectsLoopingTree(t *testing.T) {
	if _, err := LoadPredictor(strings.NewReader(gbrtArtifact(`"l":1,"r":2`))); err != nil {
		t.Fatalf("well-formed artifact rejected: %v", err)
	}
	// Before the preorder check this artifact loaded fine and its probe
	// never returned.
	if _, err := LoadPredictor(strings.NewReader(gbrtArtifact(`"l":0,"r":0`))); err == nil {
		t.Fatal("self-looping tree accepted")
	}
}

func TestValidScalerRejectsNonPositiveStd(t *testing.T) {
	for _, bad := range []float64{0, -1, math.Copysign(0, -1)} {
		s := &ml.Scaler{Mean: make([]float64, features.NumFeatures), Std: make([]float64, features.NumFeatures)}
		for j := range s.Std {
			s.Std[j] = 1
		}
		s.Std[7] = bad
		if err := validScaler(s); err == nil {
			t.Fatalf("scaler with deviation %v accepted", bad)
		}
		s.Std[7] = 1e-12
		if err := validScaler(s); err != nil {
			t.Fatalf("scaler with the FitScaler floor rejected: %v", err)
		}
	}
}

// BenchmarkPredictorBatch times the predictor's batch layer on the
// full-size GBRT (200 trees, depth 5, three targets) for several batch
// sizes, through the compiled path and through the scaler + per-model
// walk it replaced. Successive iterations score successive batches of a
// 4,096-row pool, so neither path sees the same row twice in a row.
func BenchmarkPredictorBatch(b *testing.B) {
	p, err := Train(batchDataset(2000, 17), TrainOptions{Kind: GBRT, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	const poolRows = 4096
	pool := batchRows(poolRows, 99)
	batch := func(i, n int) [][]float64 {
		lo := (i * n) % poolRows
		return pool[lo : lo+n]
	}
	for _, n := range []int{1, 16, 256, 4096} {
		v, h, a := make([]float64, n), make([]float64, n), make([]float64, n)
		b.Run(fmt.Sprintf("compiled/rows=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := p.PredictBatchInto(v, h, a, batch(i, n)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "rows/s")
		})
		b.Run(fmt.Sprintf("walk/rows=%d", n), func(b *testing.B) {
			var m ml.Matrix
			var views [][]float64
			out := [3][]float64{v, h, a}
			for i := 0; i < b.N; i++ {
				p.scaler.TransformRowsInto(&m, batch(i, n))
				views = m.RowViews(views)
				for k, t := range dataset.Targets {
					ml.PredictBatchInto(p.models[t], views, out[k])
				}
			}
			b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}
