package ir

import "fmt"

// Builder constructs the dataflow graph of one function. It tracks the
// current loop scope and source line so benchmark generators read like the
// HLS programs they model.
type Builder struct {
	F    *Function
	loop *Loop
	src  SourceLoc
}

// NewBuilder returns a builder appending operations to f.
func NewBuilder(f *Function) *Builder {
	return &Builder{F: f}
}

// At sets the source location recorded on subsequently created operations.
func (b *Builder) At(file string, line int) *Builder {
	b.src = SourceLoc{File: file, Line: line}
	return b
}

// Line advances only the source line, keeping the file.
func (b *Builder) Line(line int) *Builder {
	b.src.Line = line
	return b
}

// EnterLoop opens a new loop scope nested in the current one. Operations
// created until the matching ExitLoop belong to the loop.
func (b *Builder) EnterLoop(name string, trips int) *Loop {
	m := b.F.Module
	l := &Loop{
		ID:        m.nextLoopID,
		Name:      name,
		TripCount: trips,
		Unroll:    1,
		Func:      b.F,
		Parent:    b.loop,
	}
	m.nextLoopID++
	if b.loop != nil {
		b.loop.Kids = append(b.loop.Kids, l)
	}
	b.F.Loops = append(b.F.Loops, l)
	b.loop = l
	return l
}

// ExitLoop closes the innermost loop scope.
func (b *Builder) ExitLoop() {
	if b.loop == nil {
		panic("ir: ExitLoop without matching EnterLoop")
	}
	b.loop = b.loop.Parent
}

// CurLoop returns the innermost open loop scope, or nil.
func (b *Builder) CurLoop() *Loop { return b.loop }

// Array declares an on-chip memory in the function.
func (b *Builder) Array(name string, words, bits, banks int) *Array {
	if banks < 1 {
		banks = 1
	}
	if banks > words {
		banks = words
	}
	a := &Array{Name: name, Words: words, Bits: bits, Banks: banks, Func: b.F}
	b.F.Arrays = append(b.F.Arrays, a)
	return a
}

// Op creates an operation of the given kind and result bitwidth. Each
// operand contributes its full bitwidth as edge weight; use OpBits for
// partial-bus taps.
func (b *Builder) Op(kind OpKind, bitwidth int, operands ...*Op) *Op {
	edges := make([]Operand, len(operands))
	for i, d := range operands {
		edges[i] = Operand{Def: d, Bits: d.Bitwidth}
	}
	return b.OpEdges(kind, bitwidth, edges...)
}

// OpBits creates an operation whose single operand contributes only `bits`
// wires — the partial-bus case the paper uses to motivate edge weights.
func (b *Builder) OpBits(kind OpKind, bitwidth int, def *Op, bits int) *Op {
	return b.OpEdges(kind, bitwidth, Operand{Def: def, Bits: bits})
}

// OpEdges creates an operation from explicit weighted edges.
func (b *Builder) OpEdges(kind OpKind, bitwidth int, edges ...Operand) *Op {
	if !kind.Valid() {
		panic(fmt.Sprintf("ir: invalid op kind %d", int(kind)))
	}
	if bitwidth <= 0 {
		panic(fmt.Sprintf("ir: op %s with non-positive bitwidth %d", kind, bitwidth))
	}
	m := b.F.Module
	o := m.newOp(&Op{
		ID:        m.nextOpID,
		Kind:      kind,
		Bitwidth:  bitwidth,
		Func:      b.F,
		Loop:      b.loop,
		Src:       b.src,
		ReplicaOf: -1,
		Operands:  edges,
	})
	m.nextOpID++
	for i := range edges {
		e := &o.Operands[i]
		if e.Def == nil {
			panic("ir: nil operand def")
		}
		if e.Bits <= 0 || e.Bits > e.Def.Bitwidth {
			e.Bits = e.Def.Bitwidth
		}
		e.Def.users = append(e.Def.users, o)
	}
	o.Name = defaultOpName(kind, o.ID)
	b.F.Ops = append(b.F.Ops, o)
	return o
}

// Port declares a function I/O port of the given width. Ports participate
// in the dependency graph as "port"-type nodes per the paper.
func (b *Builder) Port(name string, bitwidth int) *Op {
	o := b.Op(KindPort, bitwidth)
	o.Name = name
	return o
}

// Const materializes a constant of the given width.
func (b *Builder) Const(bitwidth int) *Op {
	return b.Op(KindConst, bitwidth)
}

// Load reads one word from an array. addr may be nil for affine accesses
// whose address computation is folded away.
func (b *Builder) Load(a *Array, addr *Op) *Op {
	var o *Op
	if addr != nil {
		o = b.Op(KindLoad, a.Bits, addr)
	} else {
		o = b.Op(KindLoad, a.Bits)
	}
	o.Array = a
	return o
}

// Store writes one word to an array and yields a 1-bit done token.
func (b *Builder) Store(a *Array, val *Op, addr *Op) *Op {
	var o *Op
	if addr != nil {
		o = b.Op(KindStore, 1, val, addr)
	} else {
		o = b.Op(KindStore, 1, val)
	}
	o.Array = a
	return o
}

// Call creates a call operation into callee, recording the call-graph edge.
// The result width is the callee's nominal return width (first Ret operand
// width, or 1).
func (b *Builder) Call(callee *Function, args ...*Op) *Op {
	w := 1
	for _, o := range callee.Ops {
		if o.Kind == KindRet && len(o.Operands) > 0 {
			w = o.Operands[0].Bits
		}
	}
	c := b.Op(KindCall, w, args...)
	c.Name = "call_" + callee.Name
	seen := false
	for _, cf := range b.F.Callees {
		if cf == callee {
			seen = true
			break
		}
	}
	if !seen {
		b.F.Callees = append(b.F.Callees, callee)
	}
	return c
}

// Ret creates the function return.
func (b *Builder) Ret(vals ...*Op) *Op {
	w := 1
	if len(vals) > 0 {
		w = vals[0].Bitwidth
	}
	return b.Op(KindRet, w, vals...)
}

// ReduceTree builds a balanced binary reduction over vals using the given
// kind (e.g. a balanced adder tree), returning the root. It is a convenience
// shared by several benchmark generators.
func (b *Builder) ReduceTree(kind OpKind, bitwidth int, vals []*Op) *Op {
	if len(vals) == 0 {
		panic("ir: ReduceTree over empty slice")
	}
	level := vals
	for len(level) > 1 {
		var next []*Op
		for i := 0; i+1 < len(level); i += 2 {
			next = append(next, b.Op(kind, bitwidth, level[i], level[i+1]))
		}
		if len(level)%2 == 1 {
			next = append(next, level[len(level)-1])
		}
		level = next
	}
	return level[0]
}
