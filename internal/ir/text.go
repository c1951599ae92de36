package ir

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Textual IR: a line-oriented, human-readable serialization of a module,
// good enough to diff designs, store regression inputs, and move designs
// between tools. WriteText and ParseText round-trip every structural
// property the flow consumes (ops, operand taps, arrays, loops, source
// locations, replica marks, call-graph edges, non-default op names); op
// IDs are preserved.
//
// Format sketch:
//
//	module face_detection
//	func face_detect top calls=filter_pixel
//	  array window_buf words=64 bits=8 banks=64
//	  loop 0 scan_windows trips=40000 unroll=4 pipeline ii=2 parent=-1
//	  %3 = port "img_in" i32 @face_detect.cpp:12
//	  %7 = add i16 %3:16, %5 @face_detect.cpp:78 loop=0 replica=3/1
//	  %9 = load i8 mem=window_buf %8 @face_detect.cpp:60
//	  %12 = call "call_filter_pixel" i16 %9

// WriteText serializes the module's live functions.
func WriteText(w io.Writer, m *Module) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "module %s\n", m.Name)
	for _, f := range m.LiveFuncs() {
		role := ""
		if f.IsTop {
			role = " top"
		}
		// Call-graph edges: only live callees are serialized — inlined
		// functions no longer exist as text and their edges are dead
		// (resolution skips inlined callees anyway).
		var callees []string
		for _, cf := range f.Callees {
			if !cf.Inlined {
				callees = append(callees, cf.Name)
			}
		}
		if len(callees) > 0 {
			role += " calls=" + strings.Join(callees, ",")
		}
		fmt.Fprintf(bw, "func %s%s\n", f.Name, role)
		for _, a := range f.Arrays {
			fmt.Fprintf(bw, "  array %s words=%d bits=%d banks=%d\n", a.Name, a.Words, a.Bits, a.Banks)
		}
		loops := append([]*Loop(nil), f.Loops...)
		sort.Slice(loops, func(i, j int) bool { return loops[i].ID < loops[j].ID })
		for _, l := range loops {
			parent := -1
			if l.Parent != nil {
				parent = l.Parent.ID
			}
			attrs := fmt.Sprintf("trips=%d unroll=%d parent=%d", l.TripCount, l.Unroll, parent)
			if l.Pipelined {
				attrs += fmt.Sprintf(" pipeline ii=%d", l.II)
			}
			fmt.Fprintf(bw, "  loop %d %s %s\n", l.ID, l.Name, attrs)
		}
		for _, o := range f.Ops {
			if err := writeOp(bw, o); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

func writeOp(bw *bufio.Writer, o *Op) error {
	var sb strings.Builder
	fmt.Fprintf(&sb, "  %%%d = %s", o.ID, o.Kind)
	// Names are only written when they carry information: ports always (the
	// port name is the external interface), other ops when the name differs
	// from the kind_id default the parser would regenerate. Call ops depend
	// on this — rtl resolves the callee through the "call_<name>" op name.
	if o.Kind == KindPort || o.Name != defaultOpName(o.Kind, o.ID) {
		fmt.Fprintf(&sb, " %q", o.Name)
	}
	fmt.Fprintf(&sb, " i%d", o.Bitwidth)
	if o.Array != nil {
		fmt.Fprintf(&sb, " mem=%s", o.Array.Name)
	}
	for _, e := range o.Operands {
		if e.Bits != e.Def.Bitwidth {
			fmt.Fprintf(&sb, " %%%d:%d", e.Def.ID, e.Bits)
		} else {
			fmt.Fprintf(&sb, " %%%d", e.Def.ID)
		}
	}
	if !o.Src.IsZero() {
		fmt.Fprintf(&sb, " @%s:%d", o.Src.File, o.Src.Line)
	}
	if o.Loop != nil {
		fmt.Fprintf(&sb, " loop=%d", o.Loop.ID)
	}
	if o.IsReplica() {
		fmt.Fprintf(&sb, " replica=%d/%d", o.ReplicaOf, o.ReplicaIdx)
	}
	sb.WriteByte('\n')
	_, err := bw.WriteString(sb.String())
	return err
}

// ParseText reconstructs a module from WriteText output. The result passes
// Validate and preserves op IDs, so provenance stays stable across a
// round-trip.
func ParseText(r io.Reader) (*Module, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<22)
	var m *Module
	var f *Function
	opByID := make(map[int]*Op)
	loopByID := make(map[int]*Loop)
	type loopFix struct {
		loop   *Loop
		parent int
	}
	var loopFixes []loopFix
	type calleeFix struct {
		f     *Function
		names []string
	}
	var calleeFixes []calleeFix
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch {
		case fields[0] == "module":
			if len(fields) != 2 {
				return nil, fmt.Errorf("ir: line %d: malformed module header", lineNo)
			}
			m = NewModule(fields[1])
		case fields[0] == "func":
			if m == nil {
				return nil, fmt.Errorf("ir: line %d: func before module", lineNo)
			}
			if len(fields) < 2 {
				return nil, fmt.Errorf("ir: line %d: func without a name", lineNo)
			}
			f = m.NewFunction(fields[1])
			for _, tok := range fields[2:] {
				switch {
				case tok == "top":
					m.SetTop(f)
				case strings.HasPrefix(tok, "calls="):
					// Callees can be declared later in the text; resolve
					// after the whole module is parsed.
					calleeFixes = append(calleeFixes, calleeFix{f, strings.Split(tok[6:], ",")})
				default:
					return nil, fmt.Errorf("ir: line %d: bad func attr %q", lineNo, tok)
				}
			}
		case fields[0] == "array":
			if f == nil {
				return nil, fmt.Errorf("ir: line %d: array outside func", lineNo)
			}
			if len(fields) < 2 {
				return nil, fmt.Errorf("ir: line %d: array without a name", lineNo)
			}
			a := &Array{Name: fields[1], Func: f}
			for _, kv := range fields[2:] {
				k, v, ok := cutKV(kv)
				if !ok {
					return nil, fmt.Errorf("ir: line %d: bad array attr %q", lineNo, kv)
				}
				n, err := strconv.Atoi(v)
				if err != nil {
					return nil, fmt.Errorf("ir: line %d: %v", lineNo, err)
				}
				switch k {
				case "words":
					a.Words = n
				case "bits":
					a.Bits = n
				case "banks":
					a.Banks = n
				}
			}
			f.Arrays = append(f.Arrays, a)
		case fields[0] == "loop":
			if f == nil {
				return nil, fmt.Errorf("ir: line %d: loop outside func", lineNo)
			}
			if len(fields) < 3 {
				return nil, fmt.Errorf("ir: line %d: loop without an ID and a name", lineNo)
			}
			id, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("ir: line %d: %v", lineNo, err)
			}
			l := &Loop{ID: id, Name: fields[2], Unroll: 1, Func: f}
			parent := -1
			for _, kv := range fields[3:] {
				if kv == "pipeline" {
					l.Pipelined = true
					continue
				}
				k, v, ok := cutKV(kv)
				if !ok {
					return nil, fmt.Errorf("ir: line %d: bad loop attr %q", lineNo, kv)
				}
				n, err := strconv.Atoi(v)
				if err != nil {
					return nil, fmt.Errorf("ir: line %d: %v", lineNo, err)
				}
				switch k {
				case "trips":
					l.TripCount = n
				case "unroll":
					l.Unroll = n
				case "ii":
					l.II = n
				case "parent":
					parent = n
				}
			}
			f.Loops = append(f.Loops, l)
			loopByID[l.ID] = l
			loopFixes = append(loopFixes, loopFix{l, parent})
			if l.ID >= m.nextLoopID {
				m.nextLoopID = l.ID + 1
			}
		case strings.HasPrefix(fields[0], "%"):
			if f == nil {
				return nil, fmt.Errorf("ir: line %d: op outside func", lineNo)
			}
			o, err := parseOp(m, f, fields, opByID, loopByID)
			if err != nil {
				return nil, fmt.Errorf("ir: line %d: %w", lineNo, err)
			}
			opByID[o.ID] = o
		default:
			return nil, fmt.Errorf("ir: line %d: unrecognized directive %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if m == nil {
		return nil, fmt.Errorf("ir: empty input")
	}
	for _, fix := range loopFixes {
		if fix.parent >= 0 {
			p, ok := loopByID[fix.parent]
			if !ok {
				return nil, fmt.Errorf("ir: loop %d references unknown parent %d", fix.loop.ID, fix.parent)
			}
			fix.loop.Parent = p
			p.Kids = append(p.Kids, fix.loop)
		}
	}
	funcByName := make(map[string]*Function, len(m.Funcs))
	for _, fn := range m.Funcs {
		funcByName[fn.Name] = fn
	}
	for _, fix := range calleeFixes {
		for _, name := range fix.names {
			cf, ok := funcByName[name]
			if !ok {
				return nil, fmt.Errorf("ir: func %s calls unknown function %q", fix.f.Name, name)
			}
			fix.f.Callees = append(fix.f.Callees, cf)
		}
	}
	if err := Validate(m); err != nil {
		return nil, fmt.Errorf("ir: parsed module invalid: %w", err)
	}
	return m, nil
}

func parseOp(m *Module, f *Function, fields []string, opByID map[int]*Op, loopByID map[int]*Loop) (*Op, error) {
	// %ID = kind ["name"] iW [mem=a] [%op[:bits]...] [@file:line] [loop=N] [replica=R/I]
	id, err := strconv.Atoi(strings.TrimPrefix(fields[0], "%"))
	if err != nil || len(fields) < 4 || fields[1] != "=" {
		return nil, fmt.Errorf("malformed op header")
	}
	kind := kindByName(fields[2])
	if !kind.Valid() {
		return nil, fmt.Errorf("unknown op kind %q", fields[2])
	}
	o := &Op{ID: id, Kind: kind, Func: f, ReplicaOf: -1}
	o.Name = defaultOpName(kind, id)
	rest := fields[3:]
	if len(rest) > 0 && strings.HasPrefix(rest[0], "\"") {
		// WriteText quotes names with %q; anything else is not a name.
		if o.Name, err = strconv.Unquote(rest[0]); err != nil {
			return nil, fmt.Errorf("bad op name %s", rest[0])
		}
		rest = rest[1:]
	}
	if len(rest) == 0 || !strings.HasPrefix(rest[0], "i") {
		return nil, fmt.Errorf("missing bitwidth")
	}
	w, err := strconv.Atoi(rest[0][1:])
	if err != nil {
		return nil, fmt.Errorf("bad bitwidth %q", rest[0])
	}
	o.Bitwidth = w
	for _, tok := range rest[1:] {
		switch {
		case strings.HasPrefix(tok, "mem="):
			name := tok[4:]
			for _, a := range f.Arrays {
				if a.Name == name {
					o.Array = a
				}
			}
			if o.Array == nil {
				return nil, fmt.Errorf("unknown array %q", name)
			}
		case strings.HasPrefix(tok, "%"):
			spec := tok[1:]
			bits := -1
			if c := strings.IndexByte(spec, ':'); c >= 0 {
				bits, err = strconv.Atoi(spec[c+1:])
				if err != nil {
					return nil, fmt.Errorf("bad operand tap %q", tok)
				}
				spec = spec[:c]
			}
			did, err := strconv.Atoi(spec)
			if err != nil {
				return nil, fmt.Errorf("bad operand %q", tok)
			}
			def, ok := opByID[did]
			if !ok {
				return nil, fmt.Errorf("operand %%%d not yet defined", did)
			}
			if bits < 0 {
				bits = def.Bitwidth
			}
			o.Operands = append(o.Operands, Operand{Def: def, Bits: bits})
			def.users = append(def.users, o)
		case strings.HasPrefix(tok, "@"):
			loc := tok[1:]
			c := strings.LastIndexByte(loc, ':')
			if c < 0 {
				return nil, fmt.Errorf("bad source loc %q", tok)
			}
			ln, err := strconv.Atoi(loc[c+1:])
			if err != nil {
				return nil, fmt.Errorf("bad source line %q", tok)
			}
			o.Src = SourceLoc{File: loc[:c], Line: ln}
		case strings.HasPrefix(tok, "loop="):
			lid, err := strconv.Atoi(tok[5:])
			if err != nil {
				return nil, fmt.Errorf("bad loop ref %q", tok)
			}
			l, ok := loopByID[lid]
			if !ok {
				return nil, fmt.Errorf("unknown loop %d", lid)
			}
			o.Loop = l
		case strings.HasPrefix(tok, "replica="):
			var root, idx int
			if _, err := fmt.Sscanf(tok, "replica=%d/%d", &root, &idx); err != nil {
				return nil, fmt.Errorf("bad replica mark %q", tok)
			}
			o.ReplicaOf = root
			o.ReplicaIdx = idx
		default:
			return nil, fmt.Errorf("unrecognized token %q", tok)
		}
	}
	f.Ops = append(f.Ops, o)
	if id >= m.nextOpID {
		m.nextOpID = id + 1
	}
	return o, nil
}

// defaultOpName is the name NewBuilder assigns when the caller never names
// the op; such names carry no information and are omitted from the text.
func defaultOpName(kind OpKind, id int) string {
	return fmt.Sprintf("%s_%d", kind, id)
}

func cutKV(s string) (k, v string, ok bool) {
	i := strings.IndexByte(s, '=')
	if i < 0 {
		return "", "", false
	}
	return s[:i], s[i+1:], true
}

// kindByName resolves the textual kind name.
func kindByName(name string) OpKind {
	for _, k := range AllKinds() {
		if k.String() == name {
			return k
		}
	}
	return KindInvalid
}
