package gbrt

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/ml"
)

// compileFixture trains the shipped GBRT shape (200 trees, depth 5) on
// standardized rows, one model per synthetic target, the way the
// predictor does: raw rows → ml.FitScaler → fit on the scaled rows. The
// raw columns span wildly different offsets and scales, and one column is
// constant (its deviation clamps to 1), so the scaler is far from the
// identity and the folded thresholds far from the trained ones.
func compileFixture(t testing.TB) (raw [][]float64, scaler *ml.Scaler, models []*Model) {
	t.Helper()
	rng := rand.New(rand.NewSource(12))
	const n, d = 400, 8
	offset := []float64{0, 1e6, -3.5, 1e-9, 42, -7e4, 0.25, 5}
	scale := []float64{1, 250, 1e-3, 1e-12, 0, 3e3, 1e-6, 17}
	raw = make([][]float64, n)
	ys := make([][]float64, 3)
	for k := range ys {
		ys[k] = make([]float64, n)
	}
	for i := range raw {
		row := make([]float64, d)
		z := make([]float64, d)
		for j := range row {
			z[j] = rng.NormFloat64()
			row[j] = offset[j] + scale[j]*z[j]
		}
		raw[i] = row
		ys[0][i] = 3*z[0] - 2*z[2] + math.Abs(z[5]) + 0.3*rng.NormFloat64()
		ys[1][i] = z[1]*z[6] + 2*z[7] + 0.3*rng.NormFloat64()
		ys[2][i] = 0.5*(ys[0][i]+ys[1][i]) + z[3]
	}
	scaler = ml.FitScaler(raw)
	scaled := scaler.Transform(raw)
	for k, y := range ys {
		m := New(200, 0.08, int64(k+1))
		m.MaxDepth = 5
		m.MinSamplesLeaf = 8
		if err := m.Fit(scaled, y); err != nil {
			t.Fatal(err)
		}
		models = append(models, m)
	}
	return raw, scaler, models
}

// reference scores rows the pre-compilation way: standardize, then each
// model's own batch walk.
func reference(scaler *ml.Scaler, models []*Model, rows [][]float64) [][]float64 {
	scaled := scaler.Transform(rows)
	out := make([][]float64, len(models))
	for k, m := range models {
		out[k] = make([]float64, len(rows))
		m.PredictBatchInto(out[k], scaled)
	}
	return out
}

// TestCompiledEquivalenceFullSize pins the compiled ensemble bit-for-bit
// to scaler + Model.PredictBatchInto on the full-size model: on the
// training rows, on NaN/±Inf/±MaxFloat64 in every column, and on every
// folded threshold and the float on either side of it — the inputs where
// a threshold off by one ulp would route a row the other way.
func TestCompiledEquivalenceFullSize(t *testing.T) {
	raw, scaler, models := compileFixture(t)
	c, err := Compile(models, scaler.Mean, scaler.Std)
	if err != nil {
		t.Fatal(err)
	}
	if c.depth != 5 {
		t.Fatalf("compiled depth %d, want 5", c.depth)
	}

	rows := append([][]float64(nil), raw...)
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64,
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64}
	for _, v := range specials {
		all := make([]float64, len(raw[0]))
		for j := range all {
			all[j] = v
		}
		rows = append(rows, all)
		for j := range raw[0] {
			row := append([]float64(nil), raw[j%len(raw)]...)
			row[j] = v
			rows = append(rows, row)
		}
	}
	seen := make(map[[2]float64]bool)
	for _, e := range c.targets {
		for k, th := range e.th {
			f := e.feat[k]
			if seen[[2]float64{float64(f), th}] {
				continue
			}
			seen[[2]float64{float64(f), th}] = true
			for _, v := range []float64{math.Nextafter(th, math.Inf(-1)), th, math.Nextafter(th, math.Inf(1))} {
				row := append([]float64(nil), raw[len(seen)%len(raw)]...)
				row[f] = v
				rows = append(rows, row)
			}
		}
	}

	want := reference(scaler, models, rows)
	got := make([][]float64, len(models))
	for k := range got {
		got[k] = make([]float64, len(rows))
	}
	c.PredictBatchInto(got, rows)
	one := make([]float64, len(models))
	for i, row := range rows {
		c.PredictRowInto(one, row)
		for k := range models {
			if math.Float64bits(got[k][i]) != math.Float64bits(want[k][i]) {
				t.Fatalf("target %d row %d (%v): batch %v, reference %v", k, i, row, got[k][i], want[k][i])
			}
			if math.Float64bits(one[k]) != math.Float64bits(want[k][i]) {
				t.Fatalf("target %d row %d (%v): single row %v, reference %v", k, i, row, one[k], want[k][i])
			}
		}
	}
}

// TestFoldThresholdProperty checks the fold's defining property on random
// and extreme (t, mean, std): x <= T exactly when (x−mean)/std <= t, for
// T itself, its float neighbours, the seed t·std+mean and its neighbours,
// NaN, ±Inf, ±MaxFloat64 and random x.
func TestFoldThresholdProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	type tc struct{ t, mean, std float64 }
	cases := []tc{
		{0, 0, 1}, {0.5, 1e300, 1e-12}, {-0.5, -1e300, 1e-12}, {1e308, 1e300, 1e-12},
		{-1e308, -1e300, 1e-12}, {math.MaxFloat64, 0, 1}, {-math.MaxFloat64, 0, 1},
		{math.Inf(1), 3, 2}, {math.Inf(-1), 3, 2}, {math.NaN(), 3, 2},
		{1e-300, 0, 1e300}, {2.5, 1e300, 1e300}, {0, -0.0, 1e-12},
	}
	for i := 0; i < 2000; i++ {
		std := math.Pow(10, rng.Float64()*40-20)
		if i%7 == 0 {
			std = 1e-12
		}
		mean := rng.NormFloat64() * math.Pow(10, rng.Float64()*20-10)
		if i%11 == 0 {
			mean = math.Copysign(1e300, rng.NormFloat64())
		}
		cases = append(cases, tc{rng.NormFloat64() * math.Pow(10, rng.Float64()*6-3), mean, std})
	}
	for _, c := range cases {
		T := foldThreshold(c.t, c.mean, c.std)
		probes := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64, 0, math.Copysign(0, -1)}
		for _, x := range []float64{T, c.t*c.std + c.mean} {
			probes = append(probes, x, math.Nextafter(x, math.Inf(1)), math.Nextafter(x, math.Inf(-1)))
		}
		for i := 0; i < 20; i++ {
			probes = append(probes, c.mean+c.std*rng.NormFloat64()*4)
		}
		for _, x := range probes {
			if (x <= T) != ((x-c.mean)/c.std <= c.t) {
				t.Fatalf("fold(t=%v, mean=%v, std=%v) = %v misroutes x=%v", c.t, c.mean, c.std, T, x)
			}
		}
		// T is the largest such float: its successor must fail (unless T
		// is already the top of the order).
		if !math.IsNaN(T) && !math.IsInf(T, 0) && T < math.MaxFloat64 {
			if next := math.Nextafter(T, math.Inf(1)); (next-c.mean)/c.std <= c.t {
				t.Fatalf("fold(t=%v, mean=%v, std=%v) = %v is not the largest passing x", c.t, c.mean, c.std, T)
			}
		}
	}
}

// chain builds a one-tree model whose splits all go left to the next node,
// depth levels deep.
func chain(depth int) *Model {
	var nodes []node
	for d := 0; d < depth; d++ {
		k := int32(len(nodes))
		nodes = append(nodes, node{feature: 0, thresh: float64(d), left: k + 2, right: k + 1})
		nodes = append(nodes, node{feature: -1, value: float64(d)})
	}
	nodes = append(nodes, node{feature: -1, value: -1})
	return &Model{trees: []tree{{nodes: nodes}}}
}

func TestCompileRejectsMalformedTrees(t *testing.T) {
	mean, std := []float64{0}, []float64{1}
	if _, err := Compile([]*Model{chain(MaxCompiledDepth)}, mean, std); err != nil {
		t.Fatalf("depth %d rejected: %v", MaxCompiledDepth, err)
	}
	if _, err := Compile([]*Model{chain(MaxCompiledDepth + 1)}, mean, std); err == nil {
		t.Fatalf("depth %d accepted", MaxCompiledDepth+1)
	}
	loop := &Model{trees: []tree{{nodes: []node{{feature: 0, thresh: 1}}}}}
	if _, err := Compile([]*Model{loop}, mean, std); err == nil {
		t.Fatal("self-looping tree accepted")
	}
	wide := &Model{trees: []tree{{nodes: []node{{feature: 1, left: 1, right: 2}, {feature: -1}, {feature: -1}}}}}
	if _, err := Compile([]*Model{wide}, mean, std); err == nil {
		t.Fatal("split feature outside the scaler width accepted")
	}
	for _, bad := range [][2]float64{{0, 0}, {0, -1}, {0, math.Inf(1)}, {0, math.NaN()}, {math.NaN(), 1}, {math.Inf(-1), 1}} {
		if _, err := Compile([]*Model{chain(1)}, []float64{bad[0]}, []float64{bad[1]}); err == nil {
			t.Fatalf("scaler mean=%v std=%v accepted", bad[0], bad[1])
		}
	}
}

// TestCompiledPaddingShallowTrees pads leaves above the ensemble depth:
// a chain of depth 4 next to a lone leaf must score as the plain walk.
func TestCompiledPaddingShallowTrees(t *testing.T) {
	m := chain(4)
	m.trees = append(m.trees, tree{nodes: []node{{feature: -1, value: 0.125}}})
	m.base = 0.5
	c, err := Compile([]*Model{m}, []float64{0}, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, 1)
	for _, x := range []float64{-1, 0, 0.5, 1, 2, 3, 4, math.NaN(), math.Inf(1), math.Inf(-1)} {
		c.PredictRowInto(out, []float64{x})
		if want := m.Predict([]float64{x}); math.Float64bits(out[0]) != math.Float64bits(want) {
			t.Fatalf("x=%v: compiled %v, walk %v", x, out[0], want)
		}
	}
}
