package core

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/dataset"
	"repro/internal/features"
	"repro/internal/ml"
	"repro/internal/ml/ann"
	"repro/internal/ml/gbrt"
	"repro/internal/ml/lasso"
)

// predictorJSON is the persisted form of a trained predictor: the model
// kind, the feature scaler and one serialized regressor per congestion
// target. The feature count is stored so stale models fail loudly when the
// feature layout evolves.
type predictorJSON struct {
	Kind        ModelKind                  `json:"kind"`
	NumFeatures int                        `json:"num_features"`
	Scaler      *ml.Scaler                 `json:"scaler"`
	Models      map[string]json.RawMessage `json:"models"`
}

// Save serializes the trained predictor as JSON.
func (p *Predictor) Save(w io.Writer) error {
	out := predictorJSON{
		Kind:        p.Kind,
		NumFeatures: features.NumFeatures,
		Scaler:      p.scaler,
		Models:      make(map[string]json.RawMessage, len(p.models)),
	}
	for _, t := range dataset.Targets {
		m, ok := p.models[t]
		if !ok {
			return fmt.Errorf("core: save: predictor missing model for %s", t)
		}
		raw, err := json.Marshal(m)
		if err != nil {
			return fmt.Errorf("core: save %s: %w", t, err)
		}
		out.Models[t.String()] = raw
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// LoadPredictor restores a predictor saved with Save. The decoded payload
// is validated before it is returned — unknown model kinds, a wrong or
// missing feature scaler, non-finite weights and structurally broken
// models all fail here with a descriptive error instead of panicking (or
// silently predicting garbage) later at predict time.
func LoadPredictor(r io.Reader) (*Predictor, error) {
	var in predictorJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("core: load predictor: %w", err)
	}
	known := false
	for _, k := range ModelKinds {
		if in.Kind == k {
			known = true
		}
	}
	if !known {
		return nil, fmt.Errorf("core: load predictor: unknown model kind %d", int(in.Kind))
	}
	if in.NumFeatures != features.NumFeatures {
		return nil, fmt.Errorf("core: load predictor: model was trained on %d features, library has %d",
			in.NumFeatures, features.NumFeatures)
	}
	if err := validScaler(in.Scaler); err != nil {
		return nil, fmt.Errorf("core: load predictor: %w", err)
	}
	p := &Predictor{Kind: in.Kind, scaler: in.Scaler, models: make(map[dataset.Target]ml.Regressor)}
	for _, t := range dataset.Targets {
		raw, ok := in.Models[t.String()]
		if !ok {
			return nil, fmt.Errorf("core: load predictor: missing model for %s", t)
		}
		var m ml.Regressor
		switch in.Kind {
		case Linear:
			m = &lasso.Model{}
		case ANN:
			m = &ann.Model{}
		case GBRT:
			m = &gbrt.Model{}
		}
		if err := json.Unmarshal(raw, m); err != nil {
			return nil, fmt.Errorf("core: load predictor %s: %w", t, err)
		}
		p.models[t] = m
	}
	if err := p.compile(); err != nil {
		return nil, fmt.Errorf("core: load predictor: %w", err)
	}
	if err := p.probe(); err != nil {
		return nil, fmt.Errorf("core: load predictor: %w", err)
	}
	return p, nil
}

// LoadPredictorFile restores a predictor from a file saved with Save.
// It is the one validated load path the server's startup and hot-reload
// share: the artifact is fully decoded, validated and probed before the
// file handle is released, so a caller holding the returned predictor
// never observes a half-loaded model.
func LoadPredictorFile(path string) (*Predictor, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: load predictor: %w", err)
	}
	defer f.Close()
	p, err := LoadPredictor(f)
	if err != nil {
		return nil, fmt.Errorf("core: load predictor %s: %w", path, err)
	}
	return p, nil
}

// validScaler rejects scalers that would corrupt or crash prediction:
// wrong vector lengths, non-finite statistics, and deviations ≤ 0 (the
// GBRT threshold fold is exact only for a positive deviation; FitScaler
// never produces one below 1e-12).
func validScaler(s *ml.Scaler) error {
	if s == nil {
		return fmt.Errorf("missing scaler")
	}
	if len(s.Mean) != features.NumFeatures || len(s.Std) != features.NumFeatures {
		return fmt.Errorf("scaler has %d/%d statistics, want %d", len(s.Mean), len(s.Std), features.NumFeatures)
	}
	for j := range s.Mean {
		if !finite(s.Mean[j]) || !finite(s.Std[j]) {
			return fmt.Errorf("scaler statistic %d is not finite", j)
		}
		if s.Std[j] <= 0 {
			return fmt.Errorf("scaler deviation %d is %v, want > 0", j, s.Std[j])
		}
	}
	return nil
}

// probe runs one prediction on a zero feature vector. A corrupt model —
// truncated tree arrays, mismatched layer shapes, NaN weights — either
// panics (recovered here) or yields a non-finite estimate; both become
// load-time errors.
func (p *Predictor) probe() (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("model probe panicked (corrupt payload): %v", r)
		}
	}()
	v, h, a := p.PredictSample(make([]float64, features.NumFeatures))
	if !finite(v) || !finite(h) || !finite(a) {
		return fmt.Errorf("model probe produced non-finite prediction (V=%v H=%v Avg=%v)", v, h, a)
	}
	return nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
