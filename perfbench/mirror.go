package main

import (
	"encoding/json"
	"fmt"
	"os"

	congest "repro"
	"repro/internal/dataset"
	"repro/internal/ml"
)

// predictMirror replays Predictor.PredictBatchInto from outside the
// program — scaler, then one forest walk per target — so the traced run
// can time each layer. The scaler is read from the artifact (the
// predictor keeps its own private); the forests are the loaded
// predictor's own models.
type predictMirror struct {
	scaler *ml.Scaler
	models [3]ml.Regressor
	mat    ml.Matrix
	rows   [][]float64
}

func newPredictMirror(p *congest.Predictor, modelPath string) (*predictMirror, error) {
	b, err := os.ReadFile(modelPath)
	if err != nil {
		return nil, err
	}
	var art struct {
		Scaler *ml.Scaler `json:"scaler"`
	}
	if err := json.Unmarshal(b, &art); err != nil || art.Scaler == nil {
		return nil, fmt.Errorf("reading the scaler from %s: %v", modelPath, err)
	}
	pm := &predictMirror{scaler: art.Scaler}
	for i, t := range dataset.Targets {
		if pm.models[i] = p.Model(t); pm.models[i] == nil {
			return nil, fmt.Errorf("predictor has no %s model", t)
		}
	}
	return pm, nil
}

// predictBatch fills vert, horiz and avg for feats, recording a
// core.predict_batch span with ml.scaler and ml.forest children.
func (pm *predictMirror) predictBatch(tr *tracer, parent, op int, vert, horiz, avg []float64, feats [][]float64) error {
	sp := tr.begin("core.predict_batch", parent, op)
	defer tr.end(sp)
	for i, row := range feats {
		if len(row) != pm.scaler.Width() {
			return fmt.Errorf("row %d has %d features, want %d", i, len(row), pm.scaler.Width())
		}
	}
	s := tr.begin("ml.scaler", sp, op)
	pm.scaler.TransformRowsInto(&pm.mat, feats)
	pm.rows = pm.mat.RowViews(pm.rows)
	tr.end(s)
	for i, out := range [3][]float64{vert, horiz, avg} {
		f := tr.begin("ml.forest", sp, op)
		ml.PredictBatchInto(pm.models[i], pm.rows, out)
		tr.end(f)
	}
	return nil
}
