package ir

import (
	"bytes"
	"testing"
)

// FuzzParseText drives arbitrary bytes through the IR text parser, which
// reads module text off the network in a fleet build. No input may panic,
// and an accepted module must be valid and serialize to text that parses
// back to the same text: what a worker accepts, it hashes as the
// coordinator does.
func FuzzParseText(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteText(&buf, textRoundTripModule()); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(valid)-1])
	f.Add([]byte("module m\nfunc top top\n%0 = port \"p\" i32\n%1 = ret i32 %0\n"))
	f.Add([]byte("module m\nfunc top top\n%0 = port \"p\" i32\n%1 = ret i32 %0:"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ParseText(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := Validate(m); err != nil {
			t.Fatalf("accepted module fails Validate: %v", err)
		}
		var first bytes.Buffer
		if err := WriteText(&first, m); err != nil {
			t.Fatalf("accepted module does not serialize: %v", err)
		}
		back, err := ParseText(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("serialized module does not parse: %v\n%s", err, first.String())
		}
		var second bytes.Buffer
		if err := WriteText(&second, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("text round trip is not a fixpoint:\n%s\n---\n%s", first.String(), second.String())
		}
	})
}
