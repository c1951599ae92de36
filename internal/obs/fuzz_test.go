package obs

import (
	"testing"
	"time"
)

// FuzzDecodeSpanBatch drives arbitrary bytes through the coordinator's
// decoder for the span batches workers ship back. No input may panic; an
// accepted batch yields one span per wire span, and importing it under a
// local root adds exactly those spans, none starting or ending before the
// local epoch.
func FuzzDecodeSpanBatch(f *testing.F) {
	tr := NewTracer()
	base := time.Date(2026, 8, 1, 9, 0, 0, 0, time.UTC)
	step := 0
	tr.SetClock(func() time.Time { step++; return base.Add(time.Duration(step) * time.Millisecond) })
	root := tr.start(nil, "flow", []Attr{String("module", "m"), Int("run", 3)})
	child := root.Child("place", Float("score", 1.5), Bool("ok", true))
	child.Event("retry", Int("attempt", 2))
	child.End()
	root.End()
	valid := EncodeSpanBatch(tr, "trace123", "workerA")
	if valid == nil {
		f.Fatal("encode returned nil for a non-empty tracer")
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(valid)-1])
	f.Add([]byte(`{"spans":[{"id":1,"parent":1,"root":1,"start_ns":-5,"end_ns":-9}]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		batch, spans, err := DecodeSpanBatch(data)
		if err != nil {
			return
		}
		if len(spans) != len(batch.Spans) {
			t.Fatalf("%d wire spans decoded to %d spans", len(batch.Spans), len(spans))
		}
		local := NewTracer()
		lroot := local.start(nil, "fleet.build", nil)
		local.Import(spans, batch.Proc, lroot, -time.Second)
		lroot.End()
		got := local.Spans()
		if len(got) != len(spans)+1 {
			t.Fatalf("import of %d spans left %d spans", len(spans), len(got))
		}
		for _, s := range got {
			if s.Start < 0 || s.End < 0 {
				t.Fatalf("imported span %q at [%v, %v], before the local epoch", s.Name, s.Start, s.End)
			}
			for _, e := range s.Events {
				if e.At < 0 {
					t.Fatalf("imported event %q at %v, before the local epoch", e.Name, e.At)
				}
			}
		}
	})
}
