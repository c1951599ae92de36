package ir

import (
	"bytes"
	"strings"
	"testing"
)

// checkIndices asserts the dense-index invariants on every live op of m:
// each Index is unique and below IndexBound, so a table of IndexBound
// entries gives every op a slot of its own.
func checkIndices(tb testing.TB, m *Module) {
	tb.Helper()
	owner := make([]*Op, m.IndexBound())
	for _, o := range m.AllOps() {
		i := o.Index()
		if i < 0 || i >= len(owner) {
			tb.Fatalf("op %s: Index %d outside [0, %d)", o.Name, i, len(owner))
		}
		if prev := owner[i]; prev != nil {
			tb.Fatalf("ops %s and %s share Index %d", prev.Name, o.Name, i)
		}
		owner[i] = o
	}
}

func TestIndexAfterBuilder(t *testing.T) {
	m := textRoundTripModule()
	checkIndices(t, m)
	if m.IndexBound() != m.NumOps() {
		t.Fatalf("builder module: IndexBound %d, %d ops: indices are not dense", m.IndexBound(), m.NumOps())
	}
}

func TestIndexAfterInline(t *testing.T) {
	m, _, leaf, _ := buildCallPair(t)
	before := m.IndexBound()
	if err := InlineFunction(m, leaf); err != nil {
		t.Fatal(err)
	}
	checkIndices(t, m)
	// The clones take fresh indices; the inlined body keeps its own.
	if m.IndexBound() <= before {
		t.Fatalf("IndexBound %d after inlining, %d before: clones took no new index", m.IndexBound(), before)
	}
}

func TestIndexAfterReplicateProducer(t *testing.T) {
	m := NewModule("m")
	b := NewBuilder(m.NewFunction("top"))
	p := b.Port("p", 8)
	shared := b.Op(KindNot, 8, p)
	b.Ret(b.Op(KindAdd, 8, shared, b.Op(KindXor, 8, shared, b.Op(KindAnd, 8, shared, p))))
	if clones := ReplicateProducer(m, shared); len(clones) != 2 {
		t.Fatalf("%d clones, want 2", len(clones))
	}
	if err := Validate(m); err != nil {
		t.Fatal(err)
	}
	checkIndices(t, m)
}

func TestIndexAfterOptimize(t *testing.T) {
	m := NewModule("m")
	b := NewBuilder(m.NewFunction("top"))
	x, y := b.Port("x", 8), b.Port("y", 8)
	a1 := b.Op(KindAdd, 8, x, y)
	a2 := b.Op(KindAdd, 8, x, y) // CSE folds it into a1
	b.Op(KindMul, 8, a1, y)      // dead
	b.Ret(b.Op(KindXor, 8, a1, a2))
	bound := m.IndexBound()
	folded, removed := Optimize(m)
	if folded == 0 || removed == 0 {
		t.Fatalf("Optimize folded %d and removed %d; the test needs both", folded, removed)
	}
	checkIndices(t, m)
	if m.IndexBound() != bound {
		t.Fatalf("IndexBound %d after Optimize, %d before: removed ops keep their index", m.IndexBound(), bound)
	}
	EliminateDeadOps(m)
	checkIndices(t, m)
}

// TestIndexAfterParseText: a parsed module numbers its ops densely in text
// order whatever IDs the text gives them.
func TestIndexAfterParseText(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteText(&buf, textRoundTripModule()); err != nil {
		t.Fatal(err)
	}
	back, err := ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	checkIndices(t, back)
	sparse := "module m\nfunc top top\n" +
		"  %9223372036854775807 = port \"p\" i32\n" +
		"  %-9223372036854775808 = not i32 %9223372036854775807\n" +
		"  %-3 = ret i32 %-9223372036854775808\n"
	m, err := ParseText(strings.NewReader(sparse))
	if err != nil {
		t.Fatal(err)
	}
	checkIndices(t, m)
	for i, o := range m.Top.Ops {
		if o.Index() != i {
			t.Fatalf("op %d (ID %d) has Index %d", i, o.ID, o.Index())
		}
	}
	if m.IndexBound() != 3 {
		t.Fatalf("IndexBound %d, want 3", m.IndexBound())
	}
}
