package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/features"
)

// nearRows returns rows that differ from a base row only in ways a
// value-keyed table would merge: the last word, the sign of a zero, and a
// NaN's payload. Every row must be its own entry.
func nearRows(width int) [][]float64 {
	base := make([]float64, width)
	for j := range base {
		base[j] = float64(j % 7)
	}
	variant := func(j int, v float64) []float64 {
		r := append([]float64(nil), base...)
		r[j] = v
		return r
	}
	last := width - 1
	return [][]float64{
		base,
		variant(last, base[last]+1),
		variant(last, math.Nextafter(base[last], math.Inf(1))),
		variant(3, 0),
		variant(3, math.Copysign(0, -1)),
		variant(last, math.Float64frombits(0x7ff8000000000001)),
		variant(last, math.Float64frombits(0x7ff8000000000002)),
		variant(last, math.Float64frombits(0xfff8000000000001)),
	}
}

// TestRowSetKeysOnBits: rows differing only in their last word, in −0
// versus +0, or in a NaN's payload are distinct entries, and re-adding
// any row returns its own index. It runs with the real hash and with
// every row forced onto one hash, where only the bitwise compare tells
// the rows apart.
func TestRowSetKeysOnBits(t *testing.T) {
	const width = features.NumFeatures
	rows := nearRows(width)
	for _, forced := range []bool{false, true} {
		hash := func(r []float64) uint64 {
			if forced {
				return 42
			}
			return hashRow(r)
		}
		s := newRowSet(width, len(rows))
		for i, r := range rows {
			if idx := s.add(r, hash(r)); idx != i || s.len() != i+1 {
				t.Fatalf("forced=%v: first add of row %d = %d with %d distinct rows, want a new row %d", forced, i, idx, s.len(), i)
			}
		}
		for i, r := range rows {
			if idx := s.add(append([]float64(nil), r...), hash(r)); idx != i || s.len() != len(rows) {
				t.Fatalf("forced=%v: re-add of row %d = %d with %d distinct rows, want %d of %d", forced, i, idx, s.len(), i, len(rows))
			}
			if !sameBits(s.row(i), r) {
				t.Fatalf("forced=%v: stored row %d differs from the row added", forced, i)
			}
		}
	}
	if a, b := hashRow(rows[3]), hashRow(rows[4]); a == b {
		t.Errorf("+0 and -0 rows hash alike (%#x)", a)
	}
}

// TestRowSetLongProbeChains fills the table to its sizing limit with rows
// spread over only a few hashes, so probe chains run far past their home
// slots and wrap around the table, and checks every row still finds its
// own index.
func TestRowSetLongProbeChains(t *testing.T) {
	const width, n = 5, 200
	rng := rand.New(rand.NewSource(3))
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, width)
		for j := range rows[i] {
			rows[i][j] = float64(rng.Intn(4))
		}
		rows[i][0] = float64(i) // all distinct
	}
	s := newRowSet(width, n)
	// Hashes near the top of the table make the chains wrap.
	hash := func(i int) uint64 { return uint64(len(s.slots) - 1 - i%4) }
	for i, r := range rows {
		if idx := s.add(r, hash(i)); idx != i || s.len() != i+1 {
			t.Fatalf("first add of row %d = %d with %d distinct rows", i, idx, s.len())
		}
	}
	for i := n - 1; i >= 0; i-- {
		if idx := s.add(rows[i], hash(i)); idx != i || s.len() != n {
			t.Fatalf("re-add of row %d = %d with %d distinct rows", i, idx, s.len())
		}
	}
}

// sinkSet keeps the sets the allocation test builds on the heap.
var sinkSet *rowSet

// TestRowSetZeroAlloc: a set allocates its first block up front, so
// adding rows, new or repeated, allocates nothing while the distinct rows
// fit in it.
func TestRowSetZeroAlloc(t *testing.T) {
	rows := batchRows(rowBlockRows, 5)
	empty := testing.AllocsPerRun(20, func() {
		sinkSet = newRowSet(features.NumFeatures, 4*len(rows))
	})
	full := testing.AllocsPerRun(20, func() {
		sinkSet = newRowSet(features.NumFeatures, 4*len(rows))
		for _, r := range rows {
			sinkSet.add(r, hashRow(r))
			sinkSet.add(r, hashRow(r))
		}
	})
	if full != empty {
		t.Fatalf("%d adds allocated %.1f times beyond the set's own %.1f", 2*len(rows), full-empty, empty)
	}
}

// BenchmarkRowDedup is the worst case of PredictModule's deduplication:
// hash, probe and insert rows that are all distinct, so every row pays
// the table and nothing is saved. Compare its ns/row with
// BenchmarkPredictorBatch's per-row forest cost.
func BenchmarkRowDedup(b *testing.B) {
	const n = 4096
	rows := batchRows(n, 99)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := newRowSet(features.NumFeatures, n)
		for _, r := range rows {
			s.add(r, hashRow(r))
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n*b.N), "ns/row")
}
