package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/backtrace"
	"repro/internal/dataset"
	"repro/internal/flow"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// This file is the dataset build's cell layer: the (module × label-run)
// grid every build — local worker pool or distributed fleet — executes.
// The grid, the per-cell seed derivation and the index-ordered reduction
// are the entire determinism contract: any executor that returns the same
// per-cell flow results produces a byte-identical dataset, because
// assembly never depends on *who* ran a cell or *when* it finished.

// cellSeedStride separates the placement seeds of a module's label runs; a
// large prime keeps re-rolled retry seeds (flow.RetryPolicy.SeedStride)
// from colliding with neighbor runs.
const cellSeedStride = 7919

// Cell identifies one (module, label-run) flow execution within a dataset
// build grid. Cells are ordered module-major: cell index k covers module
// k/labelRuns at label run k%labelRuns.
type Cell struct {
	// Module indexes the build's module slice.
	Module int
	// Run is the zero-based label-averaging run.
	Run int
}

// Index returns the cell's position in the module-major grid.
func (c Cell) Index(labelRuns int) int { return c.Module*labelRuns + c.Run }

// CellConfig returns the exact flow configuration label run `run` of a
// build with base config cfg executes: the placement seed is derived from
// the run position alone, never from scheduling, which is what makes every
// executor (sequential, worker pool, build fleet) produce the same
// per-cell outcome.
func CellConfig(cfg flow.Config, run int) flow.Config {
	runCfg := cfg
	runCfg.Seed = cfg.Seed + int64(run)*cellSeedStride
	return runCfg
}

// CellOutcome is the result of executing one grid cell: the completed flow
// result, or the error that terminally failed it (after whatever retrying
// the executor performed).
type CellOutcome struct {
	Res *flow.Result
	Err error
}

// CellExecutor runs dataset-build grid cells on behalf of
// BuildDatasetExec. It receives the build's modules, the cells that
// actually need executing (checkpoint-restored modules are excluded) in
// grid order, and the per-cell flow configuration (cfgs[i] belongs to
// cells[i], with the seed already derived via CellConfig). It must return
// exactly one outcome per requested cell, aligned with the input order. A
// non-nil error aborts the build: the outcomes it did return are kept,
// and every unfinished cell (neither Res nor Err) is reported as failed
// with that error — a nil outcome slice fails every cell.
//
// LocalExecutor is the in-process implementation every local build runs
// on; the fleet coordinator (internal/fleet) is the remote one.
type CellExecutor func(ctx context.Context, mods []*ir.Module, cells []Cell, cfgs []flow.Config) ([]CellOutcome, error)

// BuildDatasetExec is BuildDatasetContext with cell execution delegated to
// exec: the grid enumeration, checkpoint restore, label-run reduction,
// summary accounting and error joining are exactly the local build's, so
// an executor that returns the same per-cell flow results yields a
// byte-identical dataset — the guarantee the distributed build fleet's
// determinism tests pin.
func BuildDatasetExec(ctx context.Context, mods []*ir.Module, cfg flow.Config, opts BuildOptions, exec CellExecutor) (*dataset.Dataset, []*flow.Result, *BuildSummary, error) {
	return buildDataset(ctx, mods, cfg, opts, exec)
}

// execCells runs the non-restored cells of the grid through a
// CellExecutor, scatters the outcomes back into the module-major cell
// array the reducer consumes, and back-traces every successful result.
func execCells(ctx context.Context, mods []*ir.Module, cfg flow.Config, labelRuns int, done []bool, exec CellExecutor) []runCell {
	grid := make([]runCell, len(mods)*labelRuns)
	var want []Cell
	var cfgs []flow.Config
	for k := range grid {
		mi, run := k/labelRuns, k%labelRuns
		if done[mi] {
			continue
		}
		want = append(want, Cell{Module: mi, Run: run})
		cfgs = append(cfgs, CellConfig(cfg, run))
	}
	outcomes, err := exec(ctx, mods, want, cfgs)
	if len(outcomes) != len(want) {
		if err == nil {
			err = fmt.Errorf("core: cell executor returned %d outcomes for %d cells", len(outcomes), len(want))
		}
		outcomes = make([]CellOutcome, len(want))
	}
	for i, c := range want {
		k := c.Index(labelRuns)
		o := outcomes[i]
		switch {
		case o.Err != nil:
			grid[k].err = o.Err
		case o.Res != nil:
			grid[k].res = o.Res
			grid[k].traced = backtrace.Trace(o.Res)
		case err != nil:
			// Abort semantics match a cancelled worker pool: a cell the
			// executor never finished carries the abort cause, and the
			// reducer reports its module as failed (or the whole build as
			// cancelled when the context is dead).
			grid[k].err = err
		default:
			grid[k].err = fmt.Errorf("core: cell executor returned no result for module %d run %d", c.Module, c.Run)
		}
	}
	return grid
}

// errRunSkipped marks a label run never executed because an earlier seed
// of the same module had already failed. The reduce stops at that earlier
// failure, so this sentinel never reaches a caller; it only saves flow
// runs the sequential build would not have made either.
var errRunSkipped = errors.New("core: label run skipped after an earlier seed failed")

// LocalExecutor returns the CellExecutor every in-process build runs on:
// cells fan out on a worker pool of the given width (see
// BuildOptions.Workers), each flow run retried under retry. Every cell
// opens a "module.run" span on the build's context and records its wall
// time in build.run_ms. Once a label run of a module fails, the module's
// later runs are skipped best-effort, mirroring the sequential early exit.
// The per-cell seed comes from cfgs alone, never from scheduling, so every
// width produces the same outcomes.
func LocalExecutor(workers int, retry flow.RetryPolicy) CellExecutor {
	return func(ctx context.Context, mods []*ir.Module, cells []Cell, cfgs []flow.Config) ([]CellOutcome, error) {
		out := make([]CellOutcome, len(cells))
		// failedAt[m] is the lowest label run of module m that has failed
		// so far (MaxInt64 = none yet).
		failedAt := make([]atomic.Int64, len(mods))
		for i := range failedAt {
			failedAt[i].Store(math.MaxInt64)
		}
		perr := parallel.ForEach(ctx, len(cells), workers, func(ctx context.Context, i int) {
			c, o := cells[i], cfgs[i].Obs
			run := int64(c.Run)
			if run > failedAt[c.Module].Load() {
				out[i].Err = errRunSkipped
				return
			}
			var sp *obs.Span
			t0 := time.Now()
			if obs.Tracing(ctx, o) {
				ctx, sp = obs.StartSpan(ctx, o, "module.run",
					obs.String("module", mods[c.Module].Name), obs.Int("label_run", run))
			}
			res, err := flow.RunWithRetry(ctx, mods[c.Module], cfgs[i], retry)
			sp.SetError(err)
			sp.End()
			o.ObserveMs(obs.MetricBuildRunMs, time.Since(t0))
			if err != nil {
				for {
					cur := failedAt[c.Module].Load()
					if run >= cur || failedAt[c.Module].CompareAndSwap(cur, run) {
						break
					}
				}
			}
			out[i] = CellOutcome{Res: res, Err: err}
		})
		return out, perr
	}
}
