package features

import (
	"math"
	"testing"

	"repro/internal/fpga"
	"repro/internal/graph"
	"repro/internal/hls"
	"repro/internal/ir"
)

func TestRegistryLayout(t *testing.T) {
	names := Names()
	cats := Categories()
	if len(names) != NumFeatures || len(cats) != NumFeatures {
		t.Fatalf("registry size %d/%d, want %d", len(names), len(cats), NumFeatures)
	}
	seen := make(map[string]bool)
	for _, n := range names {
		if seen[n] {
			t.Errorf("duplicate feature name %q", n)
		}
		seen[n] = true
	}
	// All seven categories are populated.
	var counts [CategoryCount]int
	for _, c := range cats {
		counts[c]++
	}
	for c, n := range counts {
		if n == 0 {
			t.Errorf("category %v has no features", Category(c))
		}
	}
	if counts[CatBitwidth] != 1 {
		t.Errorf("bitwidth category has %d features", counts[CatBitwidth])
	}
	// Operator-type features: one-hot + 1-hop counts + 2-hop counts.
	if counts[CatOpType] != 3*ir.KindCount {
		t.Errorf("op-type category has %d features, want %d", counts[CatOpType], 3*ir.KindCount)
	}
	// Resource and #Resource/dTcs scale with the four resource types.
	if counts[CatResource]%hls.ResourceTypeCount != 0 {
		t.Errorf("resource category (%d) not divisible by %d", counts[CatResource], hls.ResourceTypeCount)
	}
	if counts[CatResourceDT]%hls.ResourceTypeCount != 0 {
		t.Errorf("dTcs category (%d) not divisible by %d", counts[CatResourceDT], hls.ResourceTypeCount)
	}
}

func TestCategoryString(t *testing.T) {
	for c := 0; c < CategoryCount; c++ {
		if Category(c).String() == "?" {
			t.Errorf("category %d has no name", c)
		}
	}
	if Category(99).String() != "?" {
		t.Error("unknown category must print ?")
	}
}

// extractorFor builds a small design and its extractor.
func extractorFor(t *testing.T) (*Extractor, *ir.Module, map[string]*ir.Op) {
	t.Helper()
	m := ir.NewModule("m")
	f := m.NewFunction("top")
	b := ir.NewBuilder(f).At("t.cpp", 1)
	p := b.Port("p", 32)
	a := b.Array("mem", 128, 16, 4)
	mul := b.Op(ir.KindMul, 16, b.OpBits(ir.KindTrunc, 16, p, 16), b.Const(16))
	ld := b.Load(a, nil)
	add := b.Op(ir.KindAdd, 16, mul, ld)
	b.Ret(add)
	s, err := hls.ScheduleModule(m, hls.DefaultClock())
	if err != nil {
		t.Fatal(err)
	}
	bind := hls.BindModule(s)
	g := graph.Build(m, bind)
	ex := NewExtractor(m, s, bind, g, fpga.XC7Z020())
	return ex, m, map[string]*ir.Op{"p": p, "mul": mul, "ld": ld, "add": add}
}

func idx(t *testing.T, name string) int {
	t.Helper()
	for i, n := range Names() {
		if n == name {
			return i
		}
	}
	t.Fatalf("feature %q not found", name)
	return -1
}

func TestVectorBasics(t *testing.T) {
	ex, m, ops := extractorFor(t)
	v := ex.Vector(ops["add"])
	if len(v) != NumFeatures {
		t.Fatalf("vector length %d", len(v))
	}
	for i, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Fatalf("feature %q is not finite: %v", Names()[i], x)
		}
	}
	if v[idx(t, "bitwidth")] != 16 {
		t.Errorf("bitwidth = %v", v[idx(t, "bitwidth")])
	}
	if v[idx(t, "type_is_add")] != 1 {
		t.Error("one-hot add not set")
	}
	if v[idx(t, "type_is_mul")] != 0 {
		t.Error("one-hot mul set on add op")
	}
	_ = m
}

func TestVectorInterconnect(t *testing.T) {
	ex, _, ops := extractorFor(t)
	v := ex.Vector(ops["add"])
	if got := v[idx(t, "ic_fanin")]; got != 32 {
		t.Errorf("ic_fanin = %v, want 32 (two 16-bit operands)", got)
	}
	if got := v[idx(t, "ic_num_preds")]; got != 2 {
		t.Errorf("ic_num_preds = %v", got)
	}
}

func TestVectorResourceFeatures(t *testing.T) {
	ex, _, ops := extractorFor(t)
	v := ex.Vector(ops["mul"])
	dsp := v[idx(t, "res_DSP_usage")]
	if dsp == 0 {
		t.Error("mul node reports no DSP usage")
	}
	util := v[idx(t, "res_DSP_util_dev")]
	if math.Abs(util-dsp/220) > 1e-12 {
		t.Errorf("DSP util_dev = %v, want usage/220", util)
	}
}

func TestVectorGlobalFeatures(t *testing.T) {
	ex, _, ops := extractorFor(t)
	v := ex.Vector(ops["ld"])
	if got := v[idx(t, "glob_target_period_ns")]; got != 10 {
		t.Errorf("target period = %v", got)
	}
	if got := v[idx(t, "glob_mem_fop_words")]; got != 128 {
		t.Errorf("mem words = %v", got)
	}
	if got := v[idx(t, "glob_mem_fop_banks")]; got != 4 {
		t.Errorf("mem banks = %v", got)
	}
	if got := v[idx(t, "glob_mem_fop_primitives")]; got != 128*16*4 {
		t.Errorf("mem primitives = %v", got)
	}
	if got := v[idx(t, "glob_num_live_funcs")]; got != 1 {
		t.Errorf("live funcs = %v", got)
	}
}

func TestVectorDeterministic(t *testing.T) {
	ex, m, _ := extractorFor(t)
	for _, o := range m.AllOps() {
		v1 := ex.Vector(o)
		v2 := ex.Vector(o)
		for i := range v1 {
			if v1[i] != v2[i] {
				t.Fatalf("feature %q unstable on op %v", Names()[i], o)
			}
		}
	}
}

func TestVectorTimingFeatures(t *testing.T) {
	ex, _, ops := extractorFor(t)
	v := ex.Vector(ops["mul"])
	if got := v[idx(t, "timing_latency_cycles")]; got != 3 {
		t.Errorf("mul latency feature = %v, want 3", got)
	}
	if got := v[idx(t, "timing_delay_ns")]; got <= 0 {
		t.Errorf("delay feature = %v", got)
	}
}

func TestDTcsFeaturesReactToSlack(t *testing.T) {
	// Two consumers of a value: one immediate, one delayed behind a divide.
	// The immediate consumer's succ-side pressure on the producer is higher
	// (smaller dTcs), mirroring the paper's S1/S2 example.
	m := ir.NewModule("m")
	b := ir.NewBuilder(m.NewFunction("f"))
	p := b.Port("p", 16)
	src := b.Op(ir.KindAdd, 16, p, p)
	imm := b.Op(ir.KindSub, 16, src, p)
	div := b.Op(ir.KindDiv, 16, p, p)
	late := b.Op(ir.KindSub, 16, src, div)
	_ = imm
	_ = late
	s, err := hls.ScheduleModule(m, hls.DefaultClock())
	if err != nil {
		t.Fatal(err)
	}
	bind := hls.BindModule(s)
	g := graph.Build(m, bind)
	ex := NewExtractor(m, s, bind, g, fpga.XC7Z020())
	// src's dt_LUT_succ_sum: imm contributes res/1-ish, late contributes
	// res/dt with dt >> 1, so the sum must be dominated by but larger than
	// the max term.
	v := ex.Vector(src)
	sum := v[idx(t, "dt_LUT_succ_sum")]
	max := v[idx(t, "dt_LUT_succ_max")]
	if sum <= 0 || max <= 0 {
		t.Fatalf("dt features empty: sum=%v max=%v", sum, max)
	}
	if sum <= max {
		t.Errorf("sum %v must exceed single max term %v with two consumers", sum, max)
	}
}

// TestScratchNeighborhoodsMatchGraphQueries pins the scratch-based BFS of
// context() to the graph package's reference queries: the cached
// neighborhoods, rings and edge aggregates must equal what NeighborsK,
// Preds/Succs and EdgeStatsK compute with their per-call maps. This is the
// guard that the allocation-free rewrite did not change a single feature
// value.
func TestScratchNeighborhoodsMatchGraphQueries(t *testing.T) {
	ex, m, _ := extractorFor(t)
	ring2 := func(n *graph.Node, dir int) []*graph.Node {
		one := n.NeighborsK(1, dir)
		inOne := make(map[*graph.Node]bool, len(one))
		for _, x := range one {
			inOne[x] = true
		}
		var out []*graph.Node
		for _, x := range n.NeighborsK(2, dir) {
			if !inOne[x] {
				out = append(out, x)
			}
		}
		return out
	}
	sameNodes := func(tag string, op *ir.Op, got, want []*graph.Node) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("op %s %s: %d nodes, want %d", op.Name, tag, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("op %s %s: node %d is #%d, want #%d (order must match NeighborsK discovery)",
					op.Name, tag, i, got[i].ID, want[i].ID)
			}
		}
	}
	for _, op := range m.AllOps() {
		c := ex.context(op)
		n := c.node
		sameNodes("n1pred", op, c.n1pred, n.Preds())
		sameNodes("n1succ", op, c.n1succ, n.Succs())
		sameNodes("n1both", op, c.n1both, n.NeighborsK(1, graph.DirBoth))
		sameNodes("n2pred", op, c.n2pred, ring2(n, graph.DirPred))
		sameNodes("n2succ", op, c.n2succ, ring2(n, graph.DirSucc))
		sameNodes("n2both", op, c.n2both, ring2(n, graph.DirBoth))
		wt, wc, wm := n.EdgeStatsK(2)
		if c.edge2Total != wt || c.edge2Count != wc || c.edge2Max != wm {
			t.Fatalf("op %s edge stats (%d,%d,%d), want (%d,%d,%d)",
				op.Name, c.edge2Total, c.edge2Count, c.edge2Max, wt, wc, wm)
		}
	}
}

func TestVectorIntoMatchesVector(t *testing.T) {
	ex, m, _ := extractorFor(t)
	dst := make([]float64, NumFeatures)
	for _, op := range m.AllOps() {
		want := ex.Vector(op)
		got := ex.VectorInto(dst, op)
		if &got[0] != &dst[0] {
			t.Fatal("VectorInto did not fill the caller's buffer")
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("op %s feature %q: VectorInto %v, Vector %v", op.Name, Names()[i], got[i], want[i])
			}
		}
	}
}

func TestVectorIntoRejectsWrongLength(t *testing.T) {
	ex, m, _ := extractorFor(t)
	defer func() {
		if recover() == nil {
			t.Fatal("short dst did not panic")
		}
	}()
	ex.VectorInto(make([]float64, NumFeatures-1), m.AllOps()[0])
}

// TestVectorIntoAllocationFree is the allocation regression guard of the
// parallelism PR: once the extractor's scratch has warmed up, extracting a
// feature vector into a caller-provided buffer must not allocate at all.
func TestVectorIntoAllocationFree(t *testing.T) {
	ex, m, _ := extractorFor(t)
	ops := m.AllOps()
	dst := make([]float64, NumFeatures)
	for _, op := range ops { // warm the scratch to steady-state capacity
		ex.VectorInto(dst, op)
	}
	avg := testing.AllocsPerRun(100, func() {
		for _, op := range ops {
			ex.VectorInto(dst, op)
		}
	})
	if avg != 0 {
		t.Fatalf("VectorInto allocates %v objects per extraction sweep, want 0", avg)
	}
}

func BenchmarkVectorInto(b *testing.B) {
	ex, m, _ := benchExtractor(b)
	ops := m.AllOps()
	dst := make([]float64, NumFeatures)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex.VectorInto(dst, ops[i%len(ops)])
	}
}

func BenchmarkVector(b *testing.B) {
	ex, m, _ := benchExtractor(b)
	ops := m.AllOps()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex.Vector(ops[i%len(ops)])
	}
}

// benchExtractor mirrors extractorFor for benchmarks.
func benchExtractor(b *testing.B) (*Extractor, *ir.Module, map[string]*ir.Op) {
	b.Helper()
	m := ir.NewModule("m")
	f := m.NewFunction("top")
	bld := ir.NewBuilder(f).At("t.cpp", 1)
	p := bld.Port("p", 32)
	a := bld.Array("mem", 128, 16, 4)
	mul := bld.Op(ir.KindMul, 16, bld.OpBits(ir.KindTrunc, 16, p, 16), bld.Const(16))
	ld := bld.Load(a, nil)
	add := bld.Op(ir.KindAdd, 16, mul, ld)
	bld.Ret(add)
	s, err := hls.ScheduleModule(m, hls.DefaultClock())
	if err != nil {
		b.Fatal(err)
	}
	bind := hls.BindModule(s)
	g := graph.Build(m, bind)
	ex := NewExtractor(m, s, bind, g, fpga.XC7Z020())
	return ex, m, map[string]*ir.Op{"p": p, "mul": mul, "ld": ld, "add": add}
}

// TestVectorIgnoresOpIDLayout: the extractor's per-op table is indexed by
// op ID, but IDs only have to be unique, not dense — a module parsed from
// text can carry huge, negative or (before validation) repeated IDs. Every
// vector must come out the same whatever the IDs are.
func TestVectorIgnoresOpIDLayout(t *testing.T) {
	ex, m, _ := extractorFor(t)
	ops := m.AllOps()
	want := make([][]float64, len(ops))
	for i, op := range ops {
		want[i] = ex.Vector(op)
	}
	for i, op := range ops {
		switch i % 3 {
		case 0:
			op.ID = 1<<40 + i
		case 1:
			op.ID = -1 - i
		case 2:
			op.ID = 0
		}
	}
	sparse := NewExtractor(m, ex.Sched, ex.Bind, ex.Graph, ex.Dev)
	for i, op := range ops {
		got := sparse.Vector(op)
		for j := range got {
			if math.Float64bits(got[j]) != math.Float64bits(want[i][j]) {
				t.Fatalf("op %s feature %q: %v with remapped IDs, %v before", op.Name, Names()[j], got[j], want[i][j])
			}
		}
	}
}
