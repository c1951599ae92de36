package features_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/bench"
	"repro/internal/features"
	"repro/internal/fpga"
	"repro/internal/graph"
	"repro/internal/hls"
	"repro/internal/ir"
)

// goldenFeatureDigest is the SHA-256 of every feature value of every op
// (AllOps order, little-endian Float64bits) over goldenModules. One bit of
// one feature of one op changes it, so a speed-up of the extractor must
// leave it alone; only a deliberate change to a feature's definition may
// update it.
const goldenFeatureDigest = "55b29a78c6158a23271b72a1077455c1c5623a49df67470eca0b86b77c781a61"

// designMix is the six-design prediction mix: Face Detection under the
// four Table VI directive sets, Digit Recognition + Spam Filtering, and
// BNN + 3D Rendering + Optical Flow.
func designMix() []*ir.Module {
	return []*ir.Module{
		bench.FaceDetection(bench.WithDirectives()),
		bench.FaceDetection(bench.WithoutDirectives()),
		bench.FaceDetection(bench.NotInline()),
		bench.FaceDetection(bench.Replication()),
		bench.DigitSpam(),
		bench.BNNRenderFlow(),
	}
}

// goldenModules is the design mix followed by the training modules.
func goldenModules() []*ir.Module {
	return append(designMix(), bench.TrainingModules()...)
}

// newExtractor runs the HLS front half on m under the default clock and
// the XC7Z020 device, the settings PredictModule uses by default.
func newExtractor(tb testing.TB, m *ir.Module) *features.Extractor {
	tb.Helper()
	s, err := hls.ScheduleModule(m, hls.DefaultClock())
	if err != nil {
		tb.Fatal(err)
	}
	b := hls.BindModule(s)
	return features.NewExtractor(m, s, b, graph.Build(m, b), fpga.XC7Z020())
}

// TestGoldenFeatureDigest pins every feature value on the real benchmark
// designs, not just the toy design the unit tests use.
func TestGoldenFeatureDigest(t *testing.T) {
	h := sha256.New()
	dst := make([]float64, features.NumFeatures)
	var buf [8]byte
	rows := 0
	for _, m := range goldenModules() {
		ex := newExtractor(t, m)
		for _, op := range m.AllOps() {
			for _, v := range ex.VectorInto(dst, op) {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				h.Write(buf[:])
			}
			rows++
		}
	}
	got := hex.EncodeToString(h.Sum(nil))
	if got != goldenFeatureDigest {
		t.Fatalf("feature digest over %d rows = %s, want %s", rows, got, goldenFeatureDigest)
	}
}

// TestVectorIntoAllocationFreeFaceDetection is the allocation guard on a
// real design: the per-op aggregates live in the extractor's scratch, so
// once it has warmed up over every op, a full extraction sweep of the
// optimized Face Detection design allocates nothing.
func TestVectorIntoAllocationFreeFaceDetection(t *testing.T) {
	m := bench.FaceDetection(bench.WithDirectives())
	ex := newExtractor(t, m)
	ops := m.AllOps()
	dst := make([]float64, features.NumFeatures)
	for _, op := range ops {
		ex.VectorInto(dst, op)
	}
	avg := testing.AllocsPerRun(3, func() {
		for _, op := range ops {
			ex.VectorInto(dst, op)
		}
	})
	if avg != 0 {
		t.Fatalf("VectorInto allocates %v objects per Face Detection sweep, want 0", avg)
	}
}

// BenchmarkExtractDesigns times feature extraction over the six-design
// prediction mix — the extractor's construction plus one VectorInto per
// op — and reports it per extracted row. Scheduling, binding and the graph
// are built once outside the timer.
func BenchmarkExtractDesigns(b *testing.B) {
	var exs []*features.Extractor
	rows := 0
	for _, m := range designMix() {
		exs = append(exs, newExtractor(b, m))
		rows += m.NumOps()
	}
	dst := make([]float64, features.NumFeatures)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, d := range exs {
			ex := features.NewExtractor(d.Mod, d.Sched, d.Bind, d.Graph, d.Dev)
			for _, op := range d.Mod.AllOps() {
				ex.VectorInto(dst, op)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
}

// BenchmarkFrontHalfDesigns times the HLS front half PredictModule runs
// before the forest — schedule, bind, graph.Build and NewExtractor — over
// the six-design prediction mix, one iteration per mix. Feature rows are
// not extracted (BenchmarkExtractDesigns covers VectorInto).
func BenchmarkFrontHalfDesigns(b *testing.B) {
	mods := designMix()
	dev := fpga.XC7Z020()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range mods {
			s, err := hls.ScheduleModule(m, hls.DefaultClock())
			if err != nil {
				b.Fatal(err)
			}
			bd := hls.BindModule(s)
			features.NewExtractor(m, s, bd, graph.Build(m, bd), dev)
		}
	}
}
