package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/flow"
)

// TestBuildSkipsFailedModule is acceptance criterion (b): a module whose
// routing keeps failing after every retry surfaces a flow.StageError
// matching flow.ErrUnroutable, while the build still returns the samples
// of the surviving modules.
func TestBuildSkipsFailedModule(t *testing.T) {
	mods := tinyModules()
	victim := mods[0].Name
	cfg := quickFlow()
	cfg.Faults = faults.ForDesign(victim, faults.FailFirst(flow.StageRoute, 99, flow.ErrUnroutable))

	opts := BuildOptions{LabelRuns: 1, Retry: flow.RetryPolicy{MaxAttempts: 2, SeedStride: 1}}
	ds, results, sum, err := BuildDatasetContext(context.Background(), mods, cfg, opts)
	if err == nil {
		t.Fatal("failed module produced no error")
	}
	if !errors.Is(err, flow.ErrUnroutable) {
		t.Fatalf("joined error lost ErrUnroutable: %v", err)
	}
	var se *flow.StageError
	if !errors.As(err, &se) || se.Stage != flow.StageRoute || se.Design != victim {
		t.Fatalf("joined error lost stage context: %v", err)
	}
	if ds == nil || ds.Len() == 0 {
		t.Fatal("surviving module produced no samples")
	}
	for _, s := range ds.Samples {
		if s.Design == victim {
			t.Fatalf("failed module %q leaked samples into the dataset", victim)
		}
	}
	if len(results) != 1 || results[0].Mod.Name != mods[1].Name {
		t.Fatalf("results should hold only the surviving module, got %d", len(results))
	}
	if sum.Modules != 2 || sum.Succeeded != 1 || len(sum.Failed) != 1 || sum.Failed[0].Module != victim {
		t.Fatalf("bad summary: %+v", sum)
	}
	if !strings.Contains(sum.Format(), victim) {
		t.Fatalf("summary does not name the skipped module: %q", sum.Format())
	}
}

func TestBuildRetryRecoversInjectedFailure(t *testing.T) {
	mods := tinyModules()[:1]
	cfg := quickFlow()
	cfg.Faults = faults.FailFirst(flow.StageRoute, 1, flow.ErrUnroutable)

	opts := BuildOptions{LabelRuns: 1, Retry: flow.RetryPolicy{MaxAttempts: 2, SeedStride: 104729}}
	ds, results, sum, err := BuildDatasetContext(context.Background(), mods, cfg, opts)
	if err != nil {
		t.Fatalf("retry did not recover the build: %v", err)
	}
	if ds.Len() == 0 || len(results) != 1 {
		t.Fatal("recovered build returned no data")
	}
	if sum.Succeeded != 1 || len(sum.Failed) != 0 {
		t.Fatalf("bad summary: %+v", sum)
	}
	if got := results[0].Config.Attempt; got != 1 {
		t.Fatalf("succeeded on attempt %d, want 1 (re-rolled seed)", got)
	}
}

func TestBuildCancelledContextAborts(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, _, err := BuildDatasetContext(ctx, tinyModules(), quickFlow(), BuildOptions{LabelRuns: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}
