// Package graph builds the paper's dependency graph (Sec. III-A2): one node
// per IR operation, directed edges between dependent operations weighted by
// the number of wires of the connection, operations that share one RTL
// module merged into a single combined node (Fig. 4), and "port"-type nodes
// marking which operators meet at the same function I/O port. The feature
// extractor reads interconnection, resource and #Resource/ΔTcs features off
// this graph, including the two-hop neighborhoods the paper found most
// influential.
package graph

import (
	"cmp"
	"slices"

	"repro/internal/hls"
	"repro/internal/ir"
)

// Node is one dependency-graph vertex: a single operation, or several
// operations merged because they share a functional unit.
type Node struct {
	ID   int
	Ops  []*ir.Op
	Kind ir.OpKind
	// Bitwidth is the widest member operation.
	Bitwidth int

	In  []*Edge
	Out []*Edge

	// res caches Characterize(Kind, Bitwidth).Res: the extractor reads a
	// node's resources once per feature, and characterization is pure.
	res hls.Resources
}

// IsMerged reports whether the node combines shared operations.
func (n *Node) IsMerged() bool { return len(n.Ops) > 1 }

// IsPort reports whether the node represents a function I/O port.
func (n *Node) IsPort() bool { return n.Kind == ir.KindPort }

// Res returns the characterized resource usage of the node's hardware: one
// functional-unit instance (merged operations share it, so it is counted
// once, exactly why the paper merges the nodes).
func (n *Node) Res() hls.Resources { return n.res }

// FanIn returns the summed wire weight of incoming edges.
func (n *Node) FanIn() int {
	w := 0
	for _, e := range n.In {
		w += e.Wires
	}
	return w
}

// FanOut returns the summed wire weight of outgoing edges.
func (n *Node) FanOut() int {
	w := 0
	for _, e := range n.Out {
		w += e.Wires
	}
	return w
}

// Edge is a directed, wire-weighted dependence between nodes. Parallel
// dependences between the same pair are combined with their wire counts
// summed.
type Edge struct {
	From, To *Node
	Wires    int
}

// Graph is the module-wide dependency graph.
type Graph struct {
	Nodes []*Node
	// OfOp holds each op's node at its ir.Op.Index.
	OfOp []*Node
}

// NodeOf returns the node holding o, or nil for an op the graph never saw.
func (g *Graph) NodeOf(o *ir.Op) *Node {
	if i := uint(o.Index()); i < uint(len(g.OfOp)) {
		return g.OfOp[i]
	}
	return nil
}

// Build constructs the graph for a module. When binding is non-nil (and
// binds m), operations bound to one shared functional unit collapse into a
// combined node; passing nil keeps one node per operation (the pre-merge
// graph).
func Build(m *ir.Module, binding *hls.Binding) *Graph {
	var ops []*ir.Op
	var units []*hls.FU
	if binding != nil {
		ops, units = binding.Sched.Ops, binding.Units
	} else {
		ops = m.AllOps()
	}
	// Units partition the ops they bind, so no graph has more nodes than
	// ops, and one slab holds them all.
	slab := make([]Node, len(ops))
	g := &Graph{Nodes: make([]*Node, 0, len(ops)), OfOp: make([]*Node, m.IndexBound())}
	newNode := func(ops []*ir.Op) {
		n := &slab[len(g.Nodes)]
		*n = Node{ID: len(g.Nodes), Ops: ops, Kind: ops[0].Kind}
		for _, o := range ops {
			n.Bitwidth = max(n.Bitwidth, o.Bitwidth)
			g.OfOp[o.Index()] = n
		}
		n.res = hls.Characterize(n.Kind, n.Bitwidth).Res
		g.Nodes = append(g.Nodes, n)
	}
	for _, u := range units {
		newNode(u.Ops)
	}
	// Every op not bound to a unit (all of them without a binding; none a
	// binder produces) gets a node of its own.
	for i, o := range ops {
		if g.OfOp[o.Index()] == nil {
			newNode(ops[i : i+1 : i+1])
		}
	}
	g.buildEdges(ops)
	return g
}

// buildEdges adds the dependence edges: parallel dependences between two
// nodes combine into one edge with their wires summed, and self-loops
// created by merging are dropped. Edges are ordered by (from, to) node ID,
// in each node's In and Out lists too.
func (g *Graph) buildEdges(ops []*ir.Op) {
	type dep struct {
		key   uint64 // from<<32 | to
		wires int
	}
	n := 0
	for _, o := range ops {
		n += len(o.Operands)
	}
	deps := make([]dep, 0, n)
	for _, o := range ops {
		to := g.OfOp[o.Index()]
		for _, e := range o.Operands {
			from := g.NodeOf(e.Def)
			if from == nil || from == to {
				continue
			}
			deps = append(deps, dep{uint64(from.ID)<<32 | uint64(to.ID), e.Bits})
		}
	}
	slices.SortFunc(deps, func(a, b dep) int { return cmp.Compare(a.key, b.key) })
	// Merge runs of one (from, to) pair in place, counting node degrees.
	nIn := make([]int32, len(g.Nodes))
	nOut := make([]int32, len(g.Nodes))
	merged := deps[:0]
	for _, d := range deps {
		if k := len(merged) - 1; k >= 0 && merged[k].key == d.key {
			merged[k].wires += d.wires
			continue
		}
		merged = append(merged, d)
		nOut[d.key>>32]++
		nIn[uint32(d.key)]++
	}
	// Carve every node's In and Out from one backing array, then append the
	// edges in (from, to) order.
	edges := make([]Edge, len(merged))
	lists := make([]*Edge, 2*len(merged))
	for i, n := range g.Nodes {
		n.In, lists = lists[:0:nIn[i]], lists[nIn[i]:]
		n.Out, lists = lists[:0:nOut[i]], lists[nOut[i]:]
	}
	for i, d := range merged {
		e := &edges[i]
		*e = Edge{From: g.Nodes[d.key>>32], To: g.Nodes[uint32(d.key)], Wires: d.wires}
		e.From.Out = append(e.From.Out, e)
		e.To.In = append(e.To.In, e)
	}
}

// Preds returns the distinct predecessor nodes.
func (n *Node) Preds() []*Node {
	out := make([]*Node, 0, len(n.In))
	for _, e := range n.In {
		out = append(out, e.From)
	}
	return out
}

// Succs returns the distinct successor nodes.
func (n *Node) Succs() []*Node {
	out := make([]*Node, 0, len(n.Out))
	for _, e := range n.Out {
		out = append(out, e.To)
	}
	return out
}

// Hop direction selectors for NeighborsK.
const (
	// DirPred walks edges backwards (towards producers).
	DirPred = iota
	// DirSucc walks edges forwards (towards consumers).
	DirSucc
	// DirBoth walks both directions.
	DirBoth
)

// NeighborsK returns the distinct nodes reachable from n within at most k
// hops in the given direction, excluding n itself. k=1 gives the one-hop
// neighborhood; the paper's "after including two-hop neighbors" features
// use k=2.
func (n *Node) NeighborsK(k, dir int) []*Node {
	seen := map[*Node]bool{n: true}
	frontier := []*Node{n}
	var out []*Node
	for hop := 0; hop < k; hop++ {
		var next []*Node
		for _, cur := range frontier {
			if dir == DirPred || dir == DirBoth {
				for _, e := range cur.In {
					if !seen[e.From] {
						seen[e.From] = true
						next = append(next, e.From)
						out = append(out, e.From)
					}
				}
			}
			if dir == DirSucc || dir == DirBoth {
				for _, e := range cur.Out {
					if !seen[e.To] {
						seen[e.To] = true
						next = append(next, e.To)
						out = append(out, e.To)
					}
				}
			}
		}
		frontier = next
	}
	return out
}

// MaxEdge returns the largest wire weight among the node's direct
// connections and that edge's share of the node's fan-in and fan-out — the
// paper's "max number of wires among all connections" features.
func (n *Node) MaxEdge() (wires int, fracIn, fracOut float64) {
	for _, e := range n.In {
		if e.Wires > wires {
			wires = e.Wires
		}
	}
	for _, e := range n.Out {
		if e.Wires > wires {
			wires = e.Wires
		}
	}
	if fi := n.FanIn(); fi > 0 {
		fracIn = float64(wires) / float64(fi)
	}
	if fo := n.FanOut(); fo > 0 {
		fracOut = float64(wires) / float64(fo)
	}
	return wires, fracIn, fracOut
}

// EdgeStatsK aggregates the wire weights of all edges incident to the k-hop
// neighborhood of n (edges with at least one endpoint in the neighborhood
// or at n): total weight, edge count, and the maximum single edge.
func (n *Node) EdgeStatsK(k int) (total, count, max int) {
	nodes := append([]*Node{n}, n.NeighborsK(k, DirBoth)...)
	inSet := make(map[*Node]bool, len(nodes))
	for _, x := range nodes {
		inSet[x] = true
	}
	seen := make(map[*Edge]bool)
	for _, x := range nodes {
		for _, e := range x.In {
			if !seen[e] && (inSet[e.From] || inSet[e.To]) {
				seen[e] = true
				total += e.Wires
				count++
				if e.Wires > max {
					max = e.Wires
				}
			}
		}
		for _, e := range x.Out {
			if !seen[e] && (inSet[e.From] || inSet[e.To]) {
				seen[e] = true
				total += e.Wires
				count++
				if e.Wires > max {
					max = e.Wires
				}
			}
		}
	}
	return total, count, max
}
