package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/faults"
	"repro/internal/flow"
	"repro/internal/ir"
)

// TestCellIndexRoundTrip pins the module-major grid layout the executor
// contract depends on: cell k covers module k/labelRuns, run k%labelRuns.
func TestCellIndexRoundTrip(t *testing.T) {
	const labelRuns = 3
	for k := 0; k < 12; k++ {
		c := Cell{Module: k / labelRuns, Run: k % labelRuns}
		if got := c.Index(labelRuns); got != k {
			t.Fatalf("cell %+v: index %d, want %d", c, got, k)
		}
	}
}

// TestCellConfigMatchesLocalSeeds pins the per-run seed derivation shared
// by the local pool and remote executors: base + run*7919, everything else
// untouched.
func TestCellConfigMatchesLocalSeeds(t *testing.T) {
	cfg := quickFlow()
	cfg.Seed = 42
	for run := 0; run < 4; run++ {
		rc := CellConfig(cfg, run)
		if want := int64(42 + run*7919); rc.Seed != want {
			t.Fatalf("run %d: seed %d, want %d", run, rc.Seed, want)
		}
		rc.Seed = cfg.Seed
		if rc != cfg {
			t.Fatalf("run %d: CellConfig changed fields other than Seed", run)
		}
	}
}

// TestBuildDatasetExecLocalEquivalence is the determinism contract the
// distributed fleet builds on: a build whose cells run through a
// CellExecutor (here the in-process LocalExecutor at several widths) is
// byte-identical to BuildDatasetContext — rows, labels, result seeds,
// summary and joined error text — on both the clean and the
// injected-failure path.
func TestBuildDatasetExecLocalEquivalence(t *testing.T) {
	for _, inject := range []bool{false, true} {
		tag := "clean"
		if inject {
			tag = "injected-failure"
		}
		dsSeq, resSeq, sumSeq, errSeq := buildWith(t, 1, inject)
		for _, workers := range []int{1, 4} {
			exec := LocalExecutor(workers, flow.RetryPolicy{MaxAttempts: 2, SeedStride: 104729})
			mods := tinyModules()
			cfg := quickFlow()
			if inject {
				cfg.Faults = faults.ForDesign(mods[0].Name,
					faults.FailFirst(flow.StageRoute, 99, flow.ErrUnroutable))
			}
			opts := BuildOptions{
				LabelRuns: 2,
				Retry:     flow.RetryPolicy{MaxAttempts: 2, SeedStride: 104729},
			}
			dsExec, resExec, sumExec, errExec := BuildDatasetExec(context.Background(), mods, cfg, opts, exec)
			assertSameBuild(t, tag, dsSeq, resSeq, sumSeq, errSeq, dsExec, resExec, sumExec, errExec)
		}
	}
}

// TestBuildDatasetExecAbort pins the abort semantics: an executor-level
// error (transport death, not a per-cell flow failure) fails every module
// that still had cells outstanding, matching a cancelled worker pool.
func TestBuildDatasetExecAbort(t *testing.T) {
	boom := errors.New("coordinator lost")
	exec := CellExecutor(func(ctx context.Context, _ []*ir.Module, cells []Cell, _ []flow.Config) ([]CellOutcome, error) {
		return nil, boom
	})
	_, results, sum, err := BuildDatasetExec(context.Background(), tinyModules(), quickFlow(),
		BuildOptions{LabelRuns: 2}, exec)
	if err == nil || !strings.Contains(err.Error(), "coordinator lost") {
		t.Fatalf("aborted build error = %v, want executor error", err)
	}
	if len(results) != 0 || sum.Succeeded != 0 {
		t.Fatalf("aborted build kept results: %d results, %+v", len(results), sum)
	}
	if len(sum.Failed) != sum.Modules {
		t.Fatalf("aborted build failed %d of %d modules, want all", len(sum.Failed), sum.Modules)
	}
}

// TestBuildDatasetExecShortReturn pins the alignment check: an executor
// returning the wrong number of outcomes is a build-level failure, never a
// silent truncation.
func TestBuildDatasetExecShortReturn(t *testing.T) {
	exec := CellExecutor(func(ctx context.Context, _ []*ir.Module, cells []Cell, _ []flow.Config) ([]CellOutcome, error) {
		return make([]CellOutcome, len(cells)-1), nil
	})
	_, _, _, err := BuildDatasetExec(context.Background(), tinyModules(), quickFlow(),
		BuildOptions{LabelRuns: 2}, exec)
	if err == nil || !strings.Contains(err.Error(), "outcomes") {
		t.Fatalf("short executor return error = %v, want outcome-count error", err)
	}
}

// cancelOnDesign is a faults.Injector that injects nothing: it cancels the
// build's context when the flow checks a stage of design.
type cancelOnDesign struct {
	design string
	cancel context.CancelFunc
}

func (c cancelOnDesign) Check(design, _ string, _ int) error {
	if design == c.design {
		c.cancel()
	}
	return nil
}

// TestBuildDatasetCancelMidBuildKeepsFinishedModules pins the cancellation
// contract on both local entry points: a build cancelled once its first
// module has finished keeps that module's samples, result and flow runs,
// and reports the cancellation.
func TestBuildDatasetCancelMidBuildKeepsFinishedModules(t *testing.T) {
	const labelRuns = 2
	type buildFunc func(context.Context, []*ir.Module, flow.Config, BuildOptions) (*dataset.Dataset, []*flow.Result, *BuildSummary, error)
	entries := []struct {
		name  string
		build buildFunc
	}{
		{"BuildDatasetContext", BuildDatasetContext},
		{"BuildDatasetExec/LocalExecutor", func(ctx context.Context, mods []*ir.Module, cfg flow.Config, opts BuildOptions) (*dataset.Dataset, []*flow.Result, *BuildSummary, error) {
			return BuildDatasetExec(ctx, mods, cfg, opts, LocalExecutor(1, opts.Retry))
		}},
	}
	for _, e := range entries {
		t.Run(e.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			mods := tinyModules()
			cfg := quickFlow()
			cfg.Faults = cancelOnDesign{design: mods[1].Name, cancel: cancel}
			ds, results, sum, err := e.build(ctx, mods, cfg, BuildOptions{LabelRuns: labelRuns, Workers: 1})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if len(results) != 1 || results[0].Mod.Name != mods[0].Name {
				t.Fatalf("kept %d results, want module %q only", len(results), mods[0].Name)
			}
			if sum.Succeeded != 1 || sum.FlowRuns != labelRuns {
				t.Fatalf("summary %+v, want 1 module and %d flow runs", sum, labelRuns)
			}
			if ds == nil || ds.Len() == 0 {
				t.Fatal("finished module's samples were dropped")
			}
		})
	}
}
