package graph

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/hls"
	"repro/internal/ir"
)

// diamond builds p -> (a, b) -> c with known widths.
func diamond() (*ir.Module, *ir.Op, *ir.Op, *ir.Op, *ir.Op) {
	m := ir.NewModule("m")
	b := ir.NewBuilder(m.NewFunction("f"))
	p := b.Port("p", 32)
	a := b.Op(ir.KindNot, 32, p)
	c := b.OpBits(ir.KindBitSel, 8, p, 8)
	d := b.Op(ir.KindAdd, 32, a, c)
	return m, p, a, c, d
}

func TestBuildUnmerged(t *testing.T) {
	m, p, a, c, d := diamond()
	g := Build(m, nil)
	if len(g.Nodes) != m.NumOps() {
		t.Fatalf("nodes = %d, want one per op (%d)", len(g.Nodes), m.NumOps())
	}
	np := g.NodeOf(p)
	if np.FanOut() != 32+8 {
		t.Errorf("port fanout = %d, want 40", np.FanOut())
	}
	nd := g.NodeOf(d)
	if nd.FanIn() != 32+8 {
		t.Errorf("d fanin = %d, want 40", nd.FanIn())
	}
	if len(np.Succs()) != 2 || len(nd.Preds()) != 2 {
		t.Error("diamond edges wrong")
	}
	_ = a
	_ = c
}

func TestBuildMergesSharedUnits(t *testing.T) {
	m := ir.NewModule("m")
	b := ir.NewBuilder(m.NewFunction("f"))
	cur := b.Port("p", 16)
	for i := 0; i < 4; i++ {
		cur = b.Op(ir.KindMul, 16, cur, cur) // serial -> one shared unit
	}
	s, err := hls.ScheduleModule(m, hls.DefaultClock())
	if err != nil {
		t.Fatal(err)
	}
	bind := hls.BindModule(s)
	g := Build(m, bind)
	// All four muls share one node (Fig. 4 merging).
	var mulNode *Node
	for _, n := range g.Nodes {
		if n.Kind == ir.KindMul {
			if mulNode != nil && mulNode != n {
				t.Fatal("muls split across nodes despite sharing")
			}
			mulNode = n
		}
	}
	if mulNode == nil || !mulNode.IsMerged() || len(mulNode.Ops) != 4 {
		t.Fatalf("merged node wrong: %+v", mulNode)
	}
	// The serial chain becomes a self-loop and is dropped: merged node only
	// connects to the port.
	for _, e := range mulNode.In {
		if e.From == mulNode {
			t.Error("self loop survived merging")
		}
	}
	// Merged hardware counted once.
	if mulNode.Res().DSP != hls.Characterize(ir.KindMul, 16).Res.DSP {
		t.Errorf("merged node resources = %+v, want one instance", mulNode.Res())
	}
}

func TestParallelEdgesCombine(t *testing.T) {
	m := ir.NewModule("m")
	b := ir.NewBuilder(m.NewFunction("f"))
	p := b.Port("p", 16)
	// add uses p twice -> one combined edge of weight 32.
	add := b.Op(ir.KindAdd, 16, p, p)
	g := Build(m, nil)
	na := g.NodeOf(add)
	if len(na.In) != 1 {
		t.Fatalf("parallel edges not combined: %d", len(na.In))
	}
	if na.In[0].Wires != 32 {
		t.Errorf("combined weight = %d, want 32", na.In[0].Wires)
	}
}

// TestEdgesMatchReference checks the sort-and-merge edge construction
// against a map-based reference on a random DAG with repeated operands and
// shared units: one edge per dependent (from, to) node pair with the
// operand wires summed, no self-loops, and every In and Out list ordered
// by the other endpoint's node ID.
func TestEdgesMatchReference(t *testing.T) {
	m := ir.NewModule("m")
	b := ir.NewBuilder(m.NewFunction("f"))
	rng := rand.New(rand.NewSource(7))
	vals := []*ir.Op{b.Port("p", 32), b.Port("q", 16)}
	kinds := []ir.OpKind{ir.KindAdd, ir.KindMul, ir.KindXor, ir.KindSub}
	for i := 0; i < 300; i++ {
		x := vals[rng.Intn(len(vals))]
		y := vals[len(vals)-1-rng.Intn(min(len(vals), 8))]
		if i%5 == 0 {
			y = x // a repeated operand: two parallel dependences
		}
		vals = append(vals, b.Op(kinds[rng.Intn(len(kinds))], 8+rng.Intn(25), x, y))
	}
	b.Ret(vals[len(vals)-1])
	s, err := hls.ScheduleModule(m, hls.DefaultClock())
	if err != nil {
		t.Fatal(err)
	}
	bind := hls.BindModule(s)
	for _, bd := range []*hls.Binding{nil, bind} {
		g := Build(m, bd)
		type pair struct{ from, to int }
		want := make(map[pair]int)
		for _, o := range m.AllOps() {
			for _, e := range o.Operands {
				if from, to := g.NodeOf(e.Def), g.NodeOf(o); from != to {
					want[pair{from.ID, to.ID}] += e.Bits
				}
			}
		}
		edges := 0
		for _, n := range g.Nodes {
			for i, e := range n.Out {
				if e.From != n || (i > 0 && n.Out[i-1].To.ID >= e.To.ID) {
					t.Fatalf("node %d: Out list not ordered by To", n.ID)
				}
				if w := want[pair{n.ID, e.To.ID}]; w != e.Wires {
					t.Fatalf("edge %d->%d: %d wires, want %d", n.ID, e.To.ID, e.Wires, w)
				}
				edges++
			}
			for i, e := range n.In {
				if e.To != n || (i > 0 && n.In[i-1].From.ID >= e.From.ID) {
					t.Fatalf("node %d: In list not ordered by From", n.ID)
				}
			}
		}
		if edges != len(want) {
			t.Fatalf("%d edges, want %d", edges, len(want))
		}
		if bd != nil && len(g.Nodes) == m.NumOps() {
			t.Fatal("no units shared: the test needs merged nodes")
		}
	}
}

func TestPortNodes(t *testing.T) {
	m, p, _, _, _ := diamond()
	g := Build(m, nil)
	if !g.NodeOf(p).IsPort() {
		t.Error("port op not flagged as port node")
	}
}

func TestNeighborsK(t *testing.T) {
	// Chain p -> a -> b -> c.
	m := ir.NewModule("m")
	bb := ir.NewBuilder(m.NewFunction("f"))
	p := bb.Port("p", 8)
	a := bb.Op(ir.KindNot, 8, p)
	b2 := bb.Op(ir.KindNot, 8, a)
	c := bb.Op(ir.KindNot, 8, b2)
	g := Build(m, nil)
	na := g.NodeOf(a)
	if got := len(na.NeighborsK(1, DirPred)); got != 1 {
		t.Errorf("1-hop preds = %d", got)
	}
	if got := len(na.NeighborsK(2, DirSucc)); got != 2 {
		t.Errorf("2-hop succs = %d", got)
	}
	both := na.NeighborsK(2, DirBoth)
	if len(both) != 3 { // p, b2, c
		t.Errorf("2-hop both = %d, want 3", len(both))
	}
	for _, n := range both {
		if n == na {
			t.Error("self included in neighborhood")
		}
	}
	_ = c
}

func TestMaxEdge(t *testing.T) {
	m, p, _, _, d := diamond()
	g := Build(m, nil)
	w, fi, fo := g.NodeOf(d).MaxEdge()
	if w != 32 {
		t.Errorf("max edge = %d", w)
	}
	if fi != 32.0/40.0 {
		t.Errorf("frac of fanin = %v", fi)
	}
	if fo != 0 {
		t.Errorf("frac of fanout on sink node = %v", fo)
	}
	_ = p
}

func TestEdgeStatsK(t *testing.T) {
	m, p, _, _, _ := diamond()
	g := Build(m, nil)
	total, count, max := g.NodeOf(p).EdgeStatsK(2)
	// Diamond has 4 edges total: p->a (32), p->c (8), a->d (32), c->d (8).
	if count != 4 {
		t.Errorf("edge count = %d, want 4", count)
	}
	if total != 80 {
		t.Errorf("edge total = %d, want 80", total)
	}
	if max != 32 {
		t.Errorf("edge max = %d", max)
	}
}

func TestGraphDeterminism(t *testing.T) {
	m1, _, _, _, _ := diamond()
	m2, _, _, _, _ := diamond()
	g1 := Build(m1, nil)
	g2 := Build(m2, nil)
	if len(g1.Nodes) != len(g2.Nodes) {
		t.Fatal("node counts differ")
	}
	for i := range g1.Nodes {
		if g1.Nodes[i].Kind != g2.Nodes[i].Kind ||
			g1.Nodes[i].FanIn() != g2.Nodes[i].FanIn() ||
			g1.Nodes[i].FanOut() != g2.Nodes[i].FanOut() {
			t.Fatalf("node %d differs across identical builds", i)
		}
	}
}

func TestWriteDOT(t *testing.T) {
	m, p, _, _, _ := diamond()
	g := Build(m, nil)
	var buf strings.Builder
	if err := g.WriteDOT(&buf, 0); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"digraph", "shape=box", "->", "label=32", "}"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
	// Truncation cap keeps large graphs bounded.
	var small strings.Builder
	if err := g.WriteDOT(&small, 2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(small.String(), "more nodes") {
		t.Error("truncation marker missing")
	}
	_ = p
}
