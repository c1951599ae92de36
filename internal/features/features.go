// Package features implements the paper's feature extraction (Sec. III-B,
// Table II): 302 features per IR operation in seven categories — Bitwidth,
// Interconnection, Resource (per LUT/FF/DSP/BRAM), Timing, #Resource/ΔTcs,
// Operator Type and Global Information. Features are computed on the merged
// dependency graph (shared functional units count once), use schedule
// control states for the ΔTcs terms, and include the two-hop-neighborhood
// variants the paper found most influential.
package features

import (
	"fmt"

	"repro/internal/fpga"
	"repro/internal/graph"
	"repro/internal/hls"
	"repro/internal/ir"
)

// Category labels one of the paper's seven feature categories.
type Category int

// The seven categories of Table II.
const (
	CatBitwidth Category = iota
	CatInterconnect
	CatResource
	CatTiming
	CatResourceDT
	CatOpType
	CatGlobal

	categoryCount
)

// CategoryCount is the number of feature categories.
const CategoryCount = int(categoryCount)

func (c Category) String() string {
	switch c {
	case CatBitwidth:
		return "Bitwidth"
	case CatInterconnect:
		return "Interconnection"
	case CatResource:
		return "Resource"
	case CatTiming:
		return "Timing"
	case CatResourceDT:
		return "#Resource/dTcs"
	case CatOpType:
		return "Operator Type"
	case CatGlobal:
		return "Global Information"
	}
	return "?"
}

// NumFeatures is the paper's feature-vector length.
const NumFeatures = 302

// spec is one registered feature.
type spec struct {
	name string
	cat  Category
	eval func(*Extractor, *opCtx) float64
}

var registry []spec

func register(name string, cat Category, eval func(*Extractor, *opCtx) float64) {
	registry = append(registry, spec{name: name, cat: cat, eval: eval})
}

// Names returns the 302 feature names in vector order.
func Names() []string {
	out := make([]string, len(registry))
	for i, s := range registry {
		out[i] = s.name
	}
	return out
}

// Categories returns the category of each feature in vector order.
func Categories() []Category {
	out := make([]Category, len(registry))
	for i, s := range registry {
		out[i] = s.cat
	}
	return out
}

// Extractor computes feature vectors for one implemented design. It caches
// per-function aggregates and dense per-op and per-node tables, so per-op
// extraction reads slices instead of maps, and it reuses per-op scratch
// state (neighborhood buffers, BFS marks, aggregates) across Vector calls
// so extraction allocates only the output vector.
//
// An Extractor is NOT safe for concurrent use: the scratch state makes
// Vector/VectorInto calls mutually exclusive. The parallel dataset builder
// respects this by constructing one Extractor per module and extracting on
// a single goroutine.
type Extractor struct {
	Mod   *ir.Module
	Sched *hls.Schedule
	Bind  *hls.Binding
	Graph *graph.Graph
	Dev   *fpga.Device

	funcInfo map[*ir.Function]*funcInfo
	topInfo  *funcInfo
	emptyFI  *funcInfo
	nLive    int
	devRes   [hls.ResourceTypeCount]float64

	// opTab caches Graph.OfOp and Sched.Slots by ir.Op ID; nodeTab holds
	// each graph node's resources and fan-in/fan-out by graph.Node ID.
	opTab   []opEntry
	nodeTab []nodeEntry

	// Scratch reused by context(): one opCtx plus BFS generation marks
	// indexed by graph-node ID.
	opScratch opCtx
	seen      []int
	gen       int
}

// opEntry is one op's graph node and schedule slot. The op pointer makes
// the entry self-checking: an op whose ID has no entry, or whose entry
// belongs to another op, is looked up in the maps instead.
type opEntry struct {
	op   *ir.Op
	node *graph.Node
	slot hls.OpSlot
}

// nodeEntry is one graph node's per-type resources and wire sums.
type nodeEntry struct {
	res           [hls.ResourceTypeCount]float64
	fanIn, fanOut int
}

type funcInfo struct {
	res      [hls.ResourceTypeCount]float64
	estClock float64
	latency  int64
	memWords float64
	memBanks float64
	memBits  float64
	memPrims float64
	mux      hls.MuxStats
}

// resByType converts r to a dense float vector in ByType order.
func resByType(r hls.Resources) (v [hls.ResourceTypeCount]float64) {
	for t := range v {
		v[t] = float64(r.ByType(t))
	}
	return v
}

// NewExtractor prepares feature extraction from the HLS artifacts of a
// design. The graph must be the merged dependency graph of the same module
// and binding.
func NewExtractor(m *ir.Module, s *hls.Schedule, b *hls.Binding, g *graph.Graph, dev *fpga.Device) *Extractor {
	e := &Extractor{
		Mod:      m,
		Sched:    s,
		Bind:     b,
		Graph:    g,
		Dev:      dev,
		funcInfo: make(map[*ir.Function]*funcInfo),
		devRes:   resByType(dev.Totals),
	}
	e.buildTables()
	for _, f := range m.LiveFuncs() {
		fi := &funcInfo{res: resByType(b.FuncBoundResources(f)), mux: b.FuncMuxStats(f)}
		worst := 0.0
		for _, o := range f.Ops {
			if d := e.lookup(o).slot.FinishDelay; d > worst {
				worst = d
			}
		}
		fi.estClock = worst + s.Clock.UncertaintyNS
		if fs := s.Funcs[f]; fs != nil {
			fi.latency = fs.LatencyCycles
		}
		for _, a := range f.Arrays {
			fi.memWords += float64(a.Words)
			fi.memBanks += float64(a.Banks)
			fi.memBits += float64(a.Bits)
			fi.memPrims += float64(a.Primitives())
		}
		e.funcInfo[f] = fi
		if f.IsTop {
			e.topInfo = fi
		}
	}
	if e.topInfo == nil {
		e.topInfo = &funcInfo{}
	}
	e.emptyFI = &funcInfo{}
	e.nLive = len(m.LiveFuncs())
	e.seen = make([]int, len(g.Nodes))
	return e
}

// buildTables fills nodeTab and opTab. The builder numbers ops densely,
// but a module parsed from text may carry any unique IDs, so opTab stops
// at a few times the op count and ops past it read through the maps.
func (e *Extractor) buildTables() {
	e.nodeTab = make([]nodeEntry, len(e.Graph.Nodes))
	for _, n := range e.Graph.Nodes {
		e.nodeTab[n.ID] = nodeEntry{res: resByType(n.Res()), fanIn: n.FanIn(), fanOut: n.FanOut()}
	}
	size := 0
	for o := range e.Graph.OfOp {
		if o.ID >= size {
			size = o.ID + 1
		}
	}
	size = min(size, 4*len(e.Graph.OfOp)+64)
	e.opTab = make([]opEntry, size)
	for o, n := range e.Graph.OfOp {
		if o.ID >= 0 && o.ID < size && e.opTab[o.ID].op == nil {
			e.opTab[o.ID] = opEntry{op: o, node: n, slot: e.Sched.Slots[o]}
		}
	}
}

// lookup returns o's graph node and schedule slot: nil and the zero slot
// when o is missing from Graph.OfOp or Sched.Slots, as a map miss reads.
func (e *Extractor) lookup(o *ir.Op) opEntry {
	if id := uint(o.ID); id < uint(len(e.opTab)) && e.opTab[id].op == o {
		return e.opTab[id]
	}
	return opEntry{op: o, node: e.Graph.OfOp[o], slot: e.Sched.Slots[o]}
}

// opCtx holds everything the registry reads about one op, computed once
// per op by context(). It lives in the Extractor's scratch and is
// overwritten by the next Vector call; evaluators must not retain it.
type opCtx struct {
	op   *ir.Op
	node *graph.Node
	self *nodeEntry
	slot hls.OpSlot
	fi   *funcInfo
	char hls.OpCharacter

	n1both []*graph.Node // one-hop neighborhood (both directions)
	n1pred []*graph.Node // one-hop, predecessor side (== distinct preds)
	n1succ []*graph.Node // one-hop, successor side (== distinct succs)
	n2pred []*graph.Node // second ring, predecessor side
	n2succ []*graph.Node // second ring, successor side
	n2both []*graph.Node // second ring, both directions

	// Aggregates of each neighborhood above.
	pred1, succ1, both1, pred2, succ2, both2 ringStats

	// Wire-weight aggregates of all edges incident to the two-hop
	// neighborhood, matching graph.Node.EdgeStatsK(2).
	edge2Total, edge2Count, edge2Max int

	// The node's largest direct edge and its share of fan-in and fan-out,
	// as graph.Node.MaxEdge returns them.
	maxEdgeWires                  int
	maxEdgeFracIn, maxEdgeFracOut float64

	dt dtStats
}

// ringStats aggregates one neighborhood in a single pass: per-type
// resource sums and maxima (maxima start at 0), the operator-kind
// histogram indexed by ir.OpKind (its KindPort entry is the port count),
// and the summed fan-in and fan-out wires. Every sum visits the nodes in
// neighborhood order.
type ringStats struct {
	res, max      [hls.ResourceTypeCount]float64
	kinds         [ir.KindCount + 1]float64
	fanIn, fanOut float64
}

func (r *ringStats) collect(e *Extractor, ring []*graph.Node) {
	*r = ringStats{}
	for _, x := range ring {
		ne := &e.nodeTab[x.ID]
		for t, v := range ne.res {
			r.res[t] += v
			if v > r.max[t] {
				r.max[t] = v
			}
		}
		if k := uint(x.Kind); k < uint(len(r.kinds)) {
			r.kinds[k]++
		}
		r.fanIn += float64(ne.fanIn)
		r.fanOut += float64(ne.fanOut)
	}
}

// dtStats are the #Resource/ΔTcs aggregates of one op, per resource type:
// resource/ΔTcs summed (and maximized) over the direct producers and
// consumers, and summed through the second ring with the ΔTcs of both hops
// added up.
type dtStats struct {
	predSum, predMax, succSum, succMax, pred2Sum, succ2Sum [hls.ResourceTypeCount]float64
}

// collect walks the op's operand and user edges once, computing each
// edge's ΔTcs once and applying it to all resource types. Nodes that are
// missing from the graph or are the op's own (merged) node contribute
// nothing.
func (d *dtStats) collect(e *Extractor, c *opCtx) {
	*d = dtStats{}
	for _, ed := range c.op.Operands {
		mid := e.lookup(ed.Def)
		dt1 := float64(hls.SlotDeltaTcs(mid.slot, c.slot))
		if mid.node != nil && mid.node != c.node {
			addRatio(&d.predSum, &d.predMax, &e.nodeTab[mid.node.ID].res, dt1)
		}
		for _, ed2 := range ed.Def.Operands {
			far := e.lookup(ed2.Def)
			if far.node == nil || far.node == c.node {
				continue
			}
			dt := dt1 + float64(hls.SlotDeltaTcs(far.slot, mid.slot))
			addRatio(&d.pred2Sum, nil, &e.nodeTab[far.node.ID].res, dt)
		}
	}
	for _, u := range c.op.Users() {
		mid := e.lookup(u)
		dt1 := float64(hls.SlotDeltaTcs(c.slot, mid.slot))
		if mid.node != nil && mid.node != c.node {
			addRatio(&d.succSum, &d.succMax, &e.nodeTab[mid.node.ID].res, dt1)
		}
		for _, u2 := range u.Users() {
			far := e.lookup(u2)
			if far.node == nil || far.node == c.node {
				continue
			}
			dt := dt1 + float64(hls.SlotDeltaTcs(mid.slot, far.slot))
			addRatio(&d.succ2Sum, nil, &e.nodeTab[far.node.ID].res, dt)
		}
	}
}

// addRatio adds res/dt to sum and, when max is non-nil, raises max to it,
// per resource type.
func addRatio(sum, max, res *[hls.ResourceTypeCount]float64, dt float64) {
	for t, r := range res {
		v := r / dt
		sum[t] += v
		if max != nil && v > max[t] {
			max[t] = v
		}
	}
}

func (e *Extractor) context(op *ir.Op) *opCtx {
	ent := e.lookup(op)
	node := ent.node
	if node == nil {
		panic(fmt.Sprintf("features: op %s missing from graph", op.Name))
	}
	c := &e.opScratch
	c.op = op
	c.node = node
	c.self = &e.nodeTab[node.ID]
	c.slot = ent.slot
	c.fi = e.funcInfo[op.Func]
	c.char = hls.Characterize(op.Kind, op.Bitwidth)
	if c.fi == nil {
		c.fi = e.emptyFI
	}
	c.n1pred, c.n2pred = e.walk2(node, graph.DirPred, c.n1pred, c.n2pred)
	c.n1succ, c.n2succ = e.walk2(node, graph.DirSucc, c.n1succ, c.n2succ)
	// The DirBoth walk runs last so its generation marks are still live for
	// the edge aggregation below.
	c.n1both, c.n2both = e.walk2(node, graph.DirBoth, c.n1both, c.n2both)
	c.edge2Total, c.edge2Count, c.edge2Max = e.edgeStats2(c)
	c.maxEdgeWires, c.maxEdgeFracIn, c.maxEdgeFracOut = node.MaxEdge()
	c.pred1.collect(e, c.n1pred)
	c.succ1.collect(e, c.n1succ)
	c.both1.collect(e, c.n1both)
	c.pred2.collect(e, c.n2pred)
	c.succ2.collect(e, c.n2succ)
	c.both2.collect(e, c.n2both)
	c.dt.collect(e, c)
	return c
}

// walk2 is a two-hop BFS from n collecting the one-hop neighborhood and the
// second ring into the reused hop1/hop2 scratch slices, preserving
// graph.Node.NeighborsK discovery order (per frontier node: In edges, then
// Out edges). Visited marks use a fresh generation of e.seen, so no map or
// per-call allocation is needed.
func (e *Extractor) walk2(n *graph.Node, dir int, hop1, hop2 []*graph.Node) (h1, h2 []*graph.Node) {
	e.gen++
	g := e.gen
	e.seen[n.ID] = g
	hop1, hop2 = hop1[:0], hop2[:0]
	if dir == graph.DirPred || dir == graph.DirBoth {
		for _, ed := range n.In {
			if e.seen[ed.From.ID] != g {
				e.seen[ed.From.ID] = g
				hop1 = append(hop1, ed.From)
			}
		}
	}
	if dir == graph.DirSucc || dir == graph.DirBoth {
		for _, ed := range n.Out {
			if e.seen[ed.To.ID] != g {
				e.seen[ed.To.ID] = g
				hop1 = append(hop1, ed.To)
			}
		}
	}
	for _, cur := range hop1 {
		if dir == graph.DirPred || dir == graph.DirBoth {
			for _, ed := range cur.In {
				if e.seen[ed.From.ID] != g {
					e.seen[ed.From.ID] = g
					hop2 = append(hop2, ed.From)
				}
			}
		}
		if dir == graph.DirSucc || dir == graph.DirBoth {
			for _, ed := range cur.Out {
				if e.seen[ed.To.ID] != g {
					e.seen[ed.To.ID] = g
					hop2 = append(hop2, ed.To)
				}
			}
		}
	}
	return hop1, hop2
}

// edgeStats2 aggregates the wire weights of all edges incident to the
// two-hop neighborhood of c.node, equal to graph.Node.EdgeStatsK(2) but
// allocation-free: it reuses the generation marks left by the DirBoth walk
// (which flag exactly {node} ∪ n1both ∪ n2both) and dedups each edge by
// counting it at its To endpoint when that endpoint is in the set, and at
// its From endpoint otherwise.
func (e *Extractor) edgeStats2(c *opCtx) (total, count, max int) {
	g := e.gen
	add := func(w int) {
		total += w
		count++
		if w > max {
			max = w
		}
	}
	scan := func(x *graph.Node) {
		for _, ed := range x.In { // x == ed.To, in the set: canonical endpoint
			add(ed.Wires)
		}
		for _, ed := range x.Out { // counted at To's In scan unless To is outside
			if e.seen[ed.To.ID] != g {
				add(ed.Wires)
			}
		}
	}
	scan(c.node)
	for _, x := range c.n1both {
		scan(x)
	}
	for _, x := range c.n2both {
		scan(x)
	}
	return total, count, max
}

// Vector computes the 302-entry feature vector of one operation.
func (e *Extractor) Vector(op *ir.Op) []float64 {
	return e.VectorInto(make([]float64, len(registry)), op)
}

// VectorInto computes the feature vector of op into dst, which must have
// length NumFeatures, and returns dst. It is the allocation-free variant of
// Vector used by the dataset builder, which extracts thousands of ops per
// design into one preallocated backing array, and by PredictModule, which
// extracts into one reused block of rows.
func (e *Extractor) VectorInto(dst []float64, op *ir.Op) []float64 {
	if len(dst) != len(registry) {
		panic(fmt.Sprintf("features: VectorInto dst length %d, want %d", len(dst), len(registry)))
	}
	c := e.context(op)
	for i, s := range registry {
		dst[i] = s.eval(e, c)
	}
	return dst
}

// ---------------------------------------------------------------------------
// Shared helpers.

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
