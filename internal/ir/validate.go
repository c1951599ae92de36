package ir

import "fmt"

// Validate checks structural invariants of the module's IR:
//
//   - operation IDs are unique module-wide;
//   - every operand edge stays within one function;
//   - def/user lists are mutually consistent;
//   - edge weights are positive and never exceed the producer width;
//   - loops belong to the function that lists them;
//   - the top function exists and is not inlined.
//
// It returns the first violation found, or nil.
func Validate(m *Module) error {
	_, err := ValidatedOps(m)
	return err
}

// ValidatedOps is Validate returning AllOps on success. The duplicate-ID
// check walks adjacent pairs of the ID-sorted op list, which is the list
// AllOps returns, so a caller that needs both sorts once.
func ValidatedOps(m *Module) ([]*Op, error) {
	if m.Top == nil {
		return nil, fmt.Errorf("ir: module %q has no top function", m.Name)
	}
	if m.Top.Inlined {
		return nil, fmt.Errorf("ir: top function %q is inlined", m.Top.Name)
	}
	for _, f := range m.Funcs {
		if f.Inlined {
			continue
		}
		for _, l := range f.Loops {
			if l.Func != f {
				return nil, fmt.Errorf("ir: loop %q listed by %q but owned by %q", l.Name, f.Name, l.Func.Name)
			}
			if l.TripCount < 1 {
				return nil, fmt.Errorf("ir: loop %q has trip count %d", l.Name, l.TripCount)
			}
		}
		for _, o := range f.Ops {
			if o.Func != f {
				return nil, fmt.Errorf("ir: op %s listed by %q but owned by %q", o.Name, f.Name, o.Func.Name)
			}
			if o.Bitwidth <= 0 {
				return nil, fmt.Errorf("ir: op %s has bitwidth %d", o.Name, o.Bitwidth)
			}
			if o.Kind.IsMemory() && o.Array == nil {
				return nil, fmt.Errorf("ir: memory op %s has no array", o.Name)
			}
			for _, e := range o.Operands {
				if e.Def == nil {
					return nil, fmt.Errorf("ir: op %s has nil operand", o.Name)
				}
				if e.Def.Func != f {
					return nil, fmt.Errorf("ir: op %s uses %s across function boundary (%q -> %q)",
						o.Name, e.Def.Name, e.Def.Func.Name, f.Name)
				}
				if e.Bits <= 0 || e.Bits > e.Def.Bitwidth {
					return nil, fmt.Errorf("ir: op %s edge from %s has weight %d (producer width %d)",
						o.Name, e.Def.Name, e.Bits, e.Def.Bitwidth)
				}
				if !hasUser(e.Def, o) {
					return nil, fmt.Errorf("ir: op %s missing from user list of %s", o.Name, e.Def.Name)
				}
			}
			for _, u := range o.users {
				if !hasOperand(u, o) {
					return nil, fmt.Errorf("ir: stale user %s on op %s", u.Name, o.Name)
				}
			}
		}
	}
	ops := m.AllOps()
	for i := 1; i < len(ops); i++ {
		if prev, o := ops[i-1], ops[i]; prev.ID == o.ID {
			return nil, fmt.Errorf("ir: duplicate op ID %d (%s and %s)", o.ID, prev.Name, o.Name)
		}
	}
	return ops, nil
}

func hasUser(def, user *Op) bool {
	for _, u := range def.users {
		if u == user {
			return true
		}
	}
	return false
}

func hasOperand(user, def *Op) bool {
	for _, e := range user.Operands {
		if e.Def == def {
			return true
		}
	}
	return false
}
