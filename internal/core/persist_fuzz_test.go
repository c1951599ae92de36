package core

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/features"
	"repro/internal/ml"
	"repro/internal/ml/lasso"
)

// corpusPredictor hand-assembles a small valid predictor (Lasso weights,
// identity-ish scaler) so the fuzzer starts from an accepted payload
// without training anything.
func corpusPredictor() *Predictor {
	scaler := &ml.Scaler{
		Mean: make([]float64, features.NumFeatures),
		Std:  make([]float64, features.NumFeatures),
	}
	for j := range scaler.Std {
		scaler.Std[j] = 1
	}
	p := &Predictor{Kind: Linear, scaler: scaler, models: make(map[dataset.Target]ml.Regressor)}
	for i, t := range dataset.Targets {
		w := make([]float64, features.NumFeatures)
		w[i] = 0.5
		p.models[t] = &lasso.Model{Alpha: 0.01, Weights: w, Intercept: float64(i)}
	}
	return p
}

// gbrtArtifact is a hand-written GBRT predictor whose three models are one
// split on feature 0; children is spliced into every split.
func gbrtArtifact(children string) string {
	mean := strings.TrimSuffix(strings.Repeat("0,", features.NumFeatures), ",")
	std := strings.TrimSuffix(strings.Repeat("1,", features.NumFeatures), ",")
	model := fmt.Sprintf(`{"base":1,"trees":[[{"f":0,"t":0.5,%s},{"f":-1,"v":1},{"f":-1,"v":2}]],"thresholds":[[0.5]],"split_count":[1]}`, children)
	var ms []string
	for _, t := range dataset.Targets {
		ms = append(ms, fmt.Sprintf("%q:%s", t.String(), model))
	}
	return fmt.Sprintf(`{"kind":%d,"num_features":%d,"scaler":{"Mean":[%s],"Std":[%s]},"models":{%s}}`,
		int(GBRT), features.NumFeatures, mean, std, strings.Join(ms, ","))
}

// FuzzLoadPredictor feeds arbitrary bytes to the predictor loader:
// corrupted or truncated payloads must produce an error, never a panic,
// and any accepted predictor must survive a predict + save/load round-trip
// with finite outputs.
func FuzzLoadPredictor(f *testing.F) {
	var valid bytes.Buffer
	if err := corpusPredictor().Save(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"kind":7,"num_features":302}`))
	f.Add([]byte(`{"kind":0,"num_features":302,"scaler":{"Mean":[0],"Std":[0]}}`))
	f.Add(bytes.Replace(valid.Bytes(), []byte("0.5"), []byte("1e999"), 1))
	f.Add(valid.Bytes()[:valid.Len()/2])
	f.Add([]byte(gbrtArtifact(`"l":1,"r":2`)))
	f.Add([]byte(gbrtArtifact(`"l":0,"r":0`))) // self-loop: must not hang the probe

	probe := make([]float64, features.NumFeatures)
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := LoadPredictor(bytes.NewReader(data))
		if err != nil {
			return
		}
		// An accepted predictor must be fully usable: finite predictions
		// and a clean save/load round-trip.
		v, h, a := p.PredictSample(probe)
		for _, x := range []float64{v, h, a} {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatalf("accepted predictor yields non-finite prediction (%v, %v, %v)", v, h, a)
			}
		}
		var buf bytes.Buffer
		if err := p.Save(&buf); err != nil {
			t.Fatalf("accepted predictor failed to save: %v", err)
		}
		if _, err := LoadPredictor(&buf); err != nil {
			t.Fatalf("round-trip of accepted predictor failed: %v", err)
		}
	})
}
