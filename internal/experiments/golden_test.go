package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/features"
)

// Golden digests of the quick reproduction, captured before the HLS front
// half's refactors. A change that moves any of them changed what the build,
// the models or PredictModule compute.
const (
	// goldenQuickDataset is the SHA-256 of the quick paper dataset: every
	// sample's identity, source location, raw feature bits and label bits.
	goldenQuickDataset = "19e4e32a7194f61b8e60a4d97f1770cca1f28c4369fba64b14befc24232362f2"
	// goldenQuickTableIV is the SHA-256 of the quick Table IV's MAE and
	// MedAE bits, row by row and target by target.
	goldenQuickTableIV = "fb080d04defd100a9ca4fa443e2b87d0eecb1e1775082a73acca352af2eb4563"
	// goldenQuickHotspots is the SHA-256 of HotspotDetection's per-line
	// predicted hotspots (PredictModule over Face Detection) and its scores.
	goldenQuickHotspots = "02941fd3d6731db54402547f82aab433326bfe9d287a6bf9bec76b4bacb9ccee"
)

// digest accumulates values into a SHA-256 in a fixed binary layout.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}

func (d *digest) f64(v float64) { d.u64(math.Float64bits(v)) }

func (d *digest) integer(v int) { d.u64(uint64(int64(v))) }

func (d *digest) str(s string) {
	d.integer(len(s))
	d.h.Write([]byte(s))
}

func (d *digest) flag(v bool) {
	if v {
		d.u64(1)
	} else {
		d.u64(0)
	}
}

func (d *digest) hex() string { return hex.EncodeToString(d.h.Sum(nil)) }

// datasetDigest hashes every bit of the dataset the models train on.
func datasetDigest(ds *dataset.Dataset) string {
	d := newDigest()
	for _, n := range ds.FeatureNames {
		d.str(n)
	}
	for _, s := range ds.Samples {
		d.str(s.Design)
		d.integer(s.OpID)
		d.integer(int(s.Kind))
		d.str(s.Src.String())
		d.integer(len(s.Features))
		for _, f := range s.Features {
			d.f64(f)
		}
		d.f64(s.VertPct)
		d.f64(s.HorizPct)
		d.f64(s.AvgPct)
		d.flag(s.Margin)
		d.flag(s.Replica)
		d.integer(s.ReplicaRoot)
	}
	return d.hex()
}

// TestQuickReproductionGolden pins the quick reproduction end to end: the
// dataset bytes, every Table IV model's accuracy bits and the predicted
// hotspots all match digests captured before the front-half refactors, and
// the paper's claims that hold at quick scale hold. (That GBRT beats the
// other models is a full-scale claim: at quick scale Linear wins.)
func TestQuickReproductionGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset build in -short mode")
	}
	if raceEnabled {
		t.Skip("numeric pin; too slow under the race detector")
	}
	cfg := quickCfg()
	ds, _, err := cfg.PaperDataset()
	if err != nil {
		t.Fatal(err)
	}
	if got := datasetDigest(ds); got != goldenQuickDataset {
		t.Errorf("quick dataset digest %s, want %s", got, goldenQuickDataset)
	}

	iv, err := TableIVOn(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	d := newDigest()
	for _, r := range iv.Rows {
		d.integer(int(r.Kind))
		d.flag(r.Filtered)
		for _, tg := range dataset.Targets {
			d.f64(r.Acc[tg].MAE)
			d.f64(r.Acc[tg].MedAE)
		}
	}
	if got := d.hex(); got != goldenQuickTableIV {
		t.Errorf("quick Table IV digest %s, want %s\n%s", got, goldenQuickTableIV, iv.Format())
	}
	// Filtering marginal operations lowers every model's MAE on every
	// target. Rows are {Linear, ANN, GBRT} unfiltered, then filtered.
	nk := len(core.ModelKinds)
	for i := 0; i < nk; i++ {
		raw, filt := iv.Rows[i], iv.Rows[i+nk]
		if raw.Filtered || !filt.Filtered || raw.Kind != filt.Kind {
			t.Fatalf("Table IV row order: %v/%v then %v/%v", raw.Kind, raw.Filtered, filt.Kind, filt.Filtered)
		}
		for _, tg := range dataset.Targets {
			if filt.Acc[tg].MAE >= raw.Acc[tg].MAE {
				t.Errorf("%v/%v: filtering did not lower MAE (%.2f -> %.2f)",
					raw.Kind, tg, raw.Acc[tg].MAE, filt.Acc[tg].MAE)
			}
		}
	}

	v, err := TableVOn(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	wantTop := map[features.Category]bool{
		features.CatResource: true, features.CatInterconnect: true, features.CatGlobal: true,
	}
	for _, tg := range dataset.Targets {
		rank := v.Ranking[tg]
		if len(rank) < 3 {
			t.Fatalf("%v: only %d categories ranked", tg, len(rank))
		}
		for _, ci := range rank[:3] {
			if !wantTop[ci.Category] {
				t.Errorf("%v: top three %v, %v, %v; want {Resource, Interconnection, Global Information}",
					tg, rank[0].Category, rank[1].Category, rank[2].Category)
				break
			}
		}
	}

	// HotspotDetection, on the dataset already built: the same predictor,
	// the same design, and the hotspots PredictModule yields for it.
	pred, err := core.Train(ds, core.TrainOptions{Kind: core.GBRT, Filter: true, Seed: cfg.Seed})
	if err != nil {
		t.Fatal(err)
	}
	design := bench.FaceDetection(bench.WithDirectives())
	preds, err := pred.PredictModule(design, cfg.Flow)
	if err != nil {
		t.Fatal(err)
	}
	hd, err := HotspotDetectionModule(cfg, pred, design)
	if err != nil {
		t.Fatal(err)
	}
	d = newDigest()
	for _, h := range core.Hotspots(preds) {
		d.str(h.Loc.String())
		d.integer(h.Ops)
		d.f64(h.MaxAvg)
		d.f64(h.MeanV)
		d.f64(h.MeanH)
	}
	d.integer(hd.Lines)
	d.f64(hd.Spearman)
	for _, k := range []int{1, 3, 5, 10} {
		d.f64(hd.PrecisionAtK[k])
	}
	for _, l := range hd.TopPredicted {
		d.str(l)
	}
	if got := d.hex(); got != goldenQuickHotspots {
		t.Errorf("quick hotspot digest %s, want %s\n%s", got, goldenQuickHotspots, hd.Format())
	}
}
