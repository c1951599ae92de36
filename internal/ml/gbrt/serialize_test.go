package gbrt

import (
	"encoding/json"
	"math/rand"
	"testing"
)

func TestGBRTSerializeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	X, y := stepData(300, 4, rng)
	m := New(30, 0.1, 5)
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back Model
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if m.Predict(X[i]) != back.Predict(X[i]) {
			t.Fatalf("prediction %d differs after reload", i)
		}
	}
	// Importance survives too.
	a, b := m.FeatureImportance(), back.FeatureImportance()
	for j := range a {
		if a[j] != b[j] {
			t.Fatal("importance differs after reload")
		}
	}
}

// TestGBRTRoundTripBatchForest checks that a reloaded model rebuilds its
// flattened forest: the batch fast path on the reloaded model must agree
// bitwise with the original model's per-row Predict.
func TestGBRTRoundTripBatchForest(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	X, y := stepData(250, 5, rng)
	m := New(20, 0.15, 9)
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back Model
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	out := make([]float64, len(X))
	back.PredictBatchInto(out, X)
	for i, x := range X {
		if want := m.Predict(x); out[i] != want {
			t.Fatalf("reloaded batch prediction %d = %v, want %v", i, out[i], want)
		}
	}
}

func TestGBRTUnmarshalRejectsCorruptTrees(t *testing.T) {
	var m Model
	bad := `{"trees":[[{"f":0,"l":99,"r":1},{"f":-1,"v":1}]],"thresholds":[[0.5]]}`
	if err := json.Unmarshal([]byte(bad), &m); err == nil {
		t.Fatal("dangling children accepted")
	}
	// A split whose child is itself (or any earlier node) would loop
	// forever at predict time.
	for _, loop := range []string{
		`{"trees":[[{"f":0,"t":1,"l":0,"r":0}]],"thresholds":[[1]]}`,
		`{"trees":[[{"f":0,"t":1,"l":1,"r":2},{"f":0,"t":2,"l":0,"r":2},{"f":-1,"v":1}]],"thresholds":[[1]]}`,
	} {
		if err := json.Unmarshal([]byte(loop), &m); err == nil {
			t.Fatalf("looping tree accepted: %s", loop)
		}
	}
	// A split feature must index the model's own feature set.
	for _, f := range []string{
		`{"trees":[[{"f":1,"t":1,"l":1,"r":2},{"f":-1,"v":1},{"f":-1,"v":2}]],"thresholds":[[1]]}`,
		`{"trees":[[{"f":0,"t":1,"l":1,"r":2},{"f":-1,"v":1},{"f":-1,"v":2}]]}`,
	} {
		if err := json.Unmarshal([]byte(f), &m); err == nil {
			t.Fatalf("out-of-range split feature accepted: %s", f)
		}
	}
	ok := `{"trees":[[{"f":0,"t":1,"l":1,"r":2},{"f":-1,"v":1},{"f":-1,"v":2}]],"thresholds":[[1]]}`
	if err := json.Unmarshal([]byte(ok), &m); err != nil {
		t.Fatalf("well-formed tree rejected: %v", err)
	}
	empty := `{"trees":[[]]}`
	if err := json.Unmarshal([]byte(empty), &m); err == nil {
		t.Fatal("empty tree accepted")
	}
	if err := json.Unmarshal([]byte("{"), &m); err == nil {
		t.Fatal("truncated JSON accepted")
	}
}
