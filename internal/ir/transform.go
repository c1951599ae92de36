package ir

import "fmt"

// UnrolledLoop builds a loop whose body is replicated `factor` times, the
// way an UNROLL directive replicates hardware. body is invoked once per
// copy; operations created in copies > 0 are marked as replicas of the
// corresponding operation in copy 0 (matched by creation order), which the
// dataset sample filter uses to spot marginal operations of unrolled loops.
func (b *Builder) UnrolledLoop(name string, trips, factor int, body func(copy int)) *Loop {
	if factor < 1 {
		factor = 1
	}
	if factor > trips {
		factor = trips
	}
	l := b.EnterLoop(name, trips)
	l.Unroll = factor

	var originals []*Op
	for c := 0; c < factor; c++ {
		start := len(b.F.Ops)
		body(c)
		created := b.F.Ops[start:]
		if c == 0 {
			originals = append([]*Op(nil), created...)
			continue
		}
		for i, o := range created {
			if i < len(originals) {
				o.ReplicaOf = originals[i].ID
				o.ReplicaIdx = c
			}
		}
	}
	b.ExitLoop()
	return l
}

// PipelinedLoop builds a loop marked for pipelining with the given
// initiation interval.
func (b *Builder) PipelinedLoop(name string, trips, ii int, body func()) *Loop {
	l := b.EnterLoop(name, trips)
	l.Pipelined = true
	if ii < 1 {
		ii = 1
	}
	l.II = ii
	body()
	b.ExitLoop()
	return l
}

// InlineFunction inlines every call site of callee throughout the module,
// cloning the callee body into each caller (the effect of an INLINE
// directive). The callee is marked Inlined and drops out of the live set.
// Port ops of the callee are wired to the call arguments; the call result
// is rewired to the cloned return value.
func InlineFunction(m *Module, callee *Function) error {
	if callee.IsTop {
		return fmt.Errorf("ir: cannot inline top function %q", callee.Name)
	}
	for _, f := range callee.Callees {
		if !f.Inlined {
			return fmt.Errorf("ir: inline %q: callee %q must be inlined first", callee.Name, f.Name)
		}
	}
	for _, caller := range m.Funcs {
		if caller == callee || caller.Inlined {
			continue
		}
		if err := inlineInto(m, caller, callee); err != nil {
			return err
		}
	}
	callee.Inlined = true
	return nil
}

func inlineInto(m *Module, caller, callee *Function) error {
	// Collect call sites first: cloning appends to caller.Ops.
	var calls []*Op
	for _, o := range caller.Ops {
		if o.Kind == KindCall && o.Name == "call_"+callee.Name {
			calls = append(calls, o)
		}
	}
	for _, call := range calls {
		if err := inlineCall(m, caller, callee, call); err != nil {
			return err
		}
	}
	if len(calls) > 0 {
		// Drop the call-graph edge; the callee's own edges transfer.
		kept := caller.Callees[:0]
		for _, cf := range caller.Callees {
			if cf != callee {
				kept = append(kept, cf)
			}
		}
		caller.Callees = kept
		for _, cf := range callee.Callees {
			found := false
			for _, have := range caller.Callees {
				if have == cf {
					found = true
					break
				}
			}
			if !found {
				caller.Callees = append(caller.Callees, cf)
			}
		}
	}
	return nil
}

func inlineCall(m *Module, caller, callee *Function, call *Op) error {
	ports := callee.PortOps()
	if len(call.Operands) < len(ports) {
		return fmt.Errorf("ir: call %s passes %d args, callee %q has %d ports",
			call.Name, len(call.Operands), callee.Name, len(ports))
	}
	clone := make(map[*Op]*Op, len(callee.Ops))
	// Map callee ports straight to the caller-side argument defs.
	for i, p := range ports {
		clone[p] = call.Operands[i].Def
	}
	var retVal *Op
	for _, o := range callee.Ops {
		if o.Kind == KindPort {
			continue
		}
		if o.Kind == KindRet {
			if len(o.Operands) > 0 {
				retVal = clone[o.Operands[0].Def]
			}
			continue
		}
		c := m.newOp(&Op{
			ID:         m.nextOpID,
			Kind:       o.Kind,
			Name:       fmt.Sprintf("%s.%s", callee.Name, o.Name),
			Bitwidth:   o.Bitwidth,
			Func:       caller,
			Loop:       call.Loop,
			Src:        o.Src,
			Array:      o.Array,
			ReplicaOf:  o.ReplicaOf,
			ReplicaIdx: o.ReplicaIdx,
		})
		m.nextOpID++
		for _, e := range o.Operands {
			d, ok := clone[e.Def]
			if !ok {
				return fmt.Errorf("ir: inline %q: operand %s defined after use", callee.Name, e.Def.Name)
			}
			c.Operands = append(c.Operands, Operand{Def: d, Bits: e.Bits})
			d.users = append(d.users, c)
		}
		clone[o] = c
		caller.Ops = append(caller.Ops, c)
	}
	// Callee arrays become caller arrays (fresh instance per call site).
	for _, a := range callee.Arrays {
		caller.Arrays = append(caller.Arrays, &Array{
			Name:  fmt.Sprintf("%s.%s.%d", callee.Name, a.Name, call.ID),
			Words: a.Words, Bits: a.Bits, Banks: a.Banks, Func: caller,
		})
	}
	// Rewire consumers of the call result to the cloned return value, then
	// detach the call op from the graph.
	if retVal == nil {
		retVal = call.Operands[0].Def // degenerate callee: forward first arg
	}
	for _, u := range call.users {
		for i := range u.Operands {
			if u.Operands[i].Def == call {
				u.Operands[i].Def = retVal
				if u.Operands[i].Bits > retVal.Bitwidth {
					u.Operands[i].Bits = retVal.Bitwidth
				}
				retVal.users = append(retVal.users, u)
			}
		}
	}
	call.users = nil
	for _, e := range call.Operands {
		removeUser(e.Def, call)
	}
	removeOp(caller, call)
	return nil
}

func removeUser(def, user *Op) {
	for i, u := range def.users {
		if u == user {
			def.users = append(def.users[:i], def.users[i+1:]...)
			return
		}
	}
}

func removeOp(f *Function, op *Op) {
	for i, o := range f.Ops {
		if o == op {
			f.Ops = append(f.Ops[:i], f.Ops[i+1:]...)
			return
		}
	}
}

// ReplicateProducer clones the producer op once per user beyond the first,
// so each consumer reads a private copy. This models the paper's case-study
// "Replication" fix: copying shared input data so classifiers no longer fan
// out from one completely partitioned array. It returns the clones created.
func ReplicateProducer(m *Module, producer *Op) []*Op {
	users := append([]*Op(nil), producer.users...)
	if len(users) <= 1 {
		return nil
	}
	f := producer.Func
	var clones []*Op
	for _, u := range users[1:] {
		c := m.newOp(&Op{
			ID:        m.nextOpID,
			Kind:      producer.Kind,
			Name:      fmt.Sprintf("%s.rep%d", producer.Name, len(clones)+1),
			Bitwidth:  producer.Bitwidth,
			Func:      f,
			Loop:      producer.Loop,
			Src:       producer.Src,
			Array:     producer.Array,
			ReplicaOf: -1,
		})
		m.nextOpID++
		for _, e := range producer.Operands {
			c.Operands = append(c.Operands, e)
			e.Def.users = append(e.Def.users, c)
		}
		for i := range u.Operands {
			if u.Operands[i].Def == producer {
				u.Operands[i].Def = c
				c.users = append(c.users, u)
			}
		}
		removeUser(producer, u)
		f.Ops = append(f.Ops, c)
		clones = append(clones, c)
	}
	return clones
}
