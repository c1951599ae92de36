package fleet

import (
	"bytes"
	"testing"

	"repro/internal/flow"
	"repro/internal/ir"
)

// FuzzDecodeSpec drives arbitrary bytes through the worker's decoder for
// the build spec a coordinator serves. No input may panic; an accepted
// spec has modules and label runs, re-encodes to bytes that decode to the
// same spec, and materializes (or fails to) without panicking.
func FuzzDecodeSpec(f *testing.F) {
	// A small design keeps the seeds short, so the fuzzer's minimization
	// of each new input stays cheap.
	m := ir.NewModule("fz")
	b := ir.NewBuilder(m.NewFunction("fz_top")).At("fz.cpp", 1)
	p := b.Port("p", 8)
	b.Ret(b.Op(ir.KindAdd, 8, p, p))
	spec, err := NewBuildSpec([]*ir.Module{m}, fleetFlow(), 2, flow.DefaultRetryPolicy())
	if err != nil {
		f.Fatal(err)
	}
	valid, err := EncodeSpec(spec)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(valid)-1])
	f.Add([]byte(`{"modules":[{"name":"m","text":"module m\nfunc"}],"label_runs":1}`))
	f.Add([]byte(`{"modules":[],"label_runs":1}`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSpec(data)
		if err != nil {
			return
		}
		if len(s.Modules) == 0 || s.LabelRuns < 1 {
			t.Fatalf("accepted a spec with %d modules and %d label runs", len(s.Modules), s.LabelRuns)
		}
		enc, err := EncodeSpec(s)
		if err != nil {
			t.Fatalf("accepted spec does not re-encode: %v", err)
		}
		back, err := DecodeSpec(enc)
		if err != nil {
			t.Fatalf("re-encoded spec does not decode: %v", err)
		}
		if enc2, _ := EncodeSpec(back); !bytes.Equal(enc, enc2) {
			t.Fatalf("spec round trip is not a fixpoint:\n%s\n%s", enc, enc2)
		}
		s.Materialize()
	})
}
