// Fleet-mode entry points: the `build` command (local or coordinating a
// worker fleet) and the -join worker loop. Both sides assemble the exact
// dataset a sequential `build -workers 1` produces — the fleet protocol
// verifies every completion against its flow.CacheKey, so distribution
// changes wall time, never bytes.
package main

import (
	"context"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/flow"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/store"
)

// fleetFlags carries the build/fleet command-line options from realMain.
type fleetFlags struct {
	serveBuilds string        // coordinator listen address ("" = build locally)
	join        string        // coordinator address to pull work from ("" = not a worker)
	leaseTTL    time.Duration // coordinator lease expiry
	name        string        // worker name ("" = worker-<pid>)
	addrFile    string        // coordinator writes its bound address here
	breachDir   string        // breach captures land here (the -store-dir, when set)
	modules     string        // comma-separated bench.Catalog names ("" = training set)
	labelRuns   int           // placement seeds averaged per label
	moves       int           // placer move budget override (0 = default)
	out         string        // encoded dataset artifact path ("" = don't write)
}

// buildModules resolves the -modules list against the benchmark catalog.
// An empty list means the paper's three training implementations.
func buildModules(names string) ([]*ir.Module, error) {
	if names == "" {
		return bench.TrainingModules(), nil
	}
	catalog := bench.Catalog()
	var mods []*ir.Module
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		gen, ok := catalog[name]
		if !ok {
			return nil, fmt.Errorf("unknown module %q (see bench.Catalog)", name)
		}
		mods = append(mods, gen(bench.WithDirectives()))
	}
	return mods, nil
}

// runBuild executes the `build` command: construct the dataset over the
// requested modules and write the canonical encoded artifact to -out.
// With -serve-builds it coordinates a worker fleet instead of running
// cells in-process; the artifact is byte-identical either way.
func runBuild(ctx context.Context, cfg experiments.Config, ff fleetFlags) error {
	mods, err := buildModules(ff.modules)
	if err != nil {
		return err
	}
	fcfg := cfg.Flow
	if ff.moves > 0 {
		fcfg.Place.Moves = ff.moves
	}
	labelRuns := ff.labelRuns
	if labelRuns < 1 {
		labelRuns = core.LabelRuns
	}
	opts := core.BuildOptions{
		LabelRuns:  labelRuns,
		Retry:      flow.DefaultRetryPolicy(),
		Workers:    cfg.Workers,
		Checkpoint: cfg.Checkpoint,
	}

	exec := core.LocalExecutor(opts.Workers, opts.Retry)
	var coord *fleet.Coordinator
	if ff.serveBuilds != "" {
		spec, err := fleet.NewBuildSpec(mods, fcfg, labelRuns, opts.Retry)
		if err != nil {
			return err
		}
		coord, err = fleet.NewCoordinator(spec, fleet.CoordinatorOptions{
			LeaseTTL: ff.leaseTTL,
			Obs:      fcfg.Obs,
		})
		if err != nil {
			return err
		}
		bound, shutdown, err := coord.Serve(ff.serveBuilds)
		if err != nil {
			return err
		}
		defer shutdown()
		// An observed coordinator also runs the flight recorder, so
		// /debug/metrics/history shows worker cell rates live and a breach
		// watcher can turn a lost worker into a profile capture on disk
		// (under the artifact store, next to the checkpoints it orphaned).
		if o := fcfg.Obs; o != nil {
			rec := obs.NewRecorder(o.Metrics(), obs.RecorderOptions{})
			o.Rec = rec
			rec.Start()
			defer rec.Stop()
			if ff.breachDir != "" {
				rules := []obs.BreachRule{{Metric: obs.MetricFleetWorkerLost, DeltaAtLeast: 1}}
				if obs.NewBreachWatcher(rec, rules, obs.BreachOptions{Dir: ff.breachDir, Log: o.Logger()}) != nil {
					fmt.Fprintf(os.Stderr, "hlscong: breach watcher armed: %s -> %s\n",
						obs.MetricFleetWorkerLost, ff.breachDir)
				}
			}
		}
		if ff.addrFile != "" {
			if err := os.WriteFile(ff.addrFile, []byte(bound), 0o644); err != nil {
				return fmt.Errorf("write -fleet-addr-file: %w", err)
			}
		}
		fmt.Fprintf(os.Stderr, "hlscong: coordinating fleet build on %s (%d modules × %d label runs)\n",
			bound, len(mods), labelRuns)
		exec = coord.Execute
	}

	ds, _, summary, buildErr := core.BuildDatasetExec(ctx, mods, fcfg, opts, exec)
	if coord != nil {
		st := coord.StatusSnapshot()
		fmt.Fprintf(os.Stderr,
			"hlscong: fleet: %d cells done, %d failed, %d steals, %d leases expired, %d duplicate, %d rejected completions\n",
			st.Done, st.Failed, st.Steals, st.Lost, st.Dups, st.Bad)
		for name, cells := range st.Workers {
			fmt.Fprintf(os.Stderr, "hlscong: fleet:   worker %s: %d cells\n", name, cells)
		}
		// Leave the server up briefly so idle workers observe Done on their
		// next lease poll and exit cleanly instead of hitting a dead socket.
		time.Sleep(200 * time.Millisecond)
	}
	if ds == nil {
		return buildErr
	}
	fmt.Print(summary.Format())
	fmt.Printf("dataset: %d samples, %d features\n", ds.Len(), len(ds.FeatureNames))
	if ff.out != "" {
		payload := store.EncodeDataset(ds)
		if err := os.WriteFile(ff.out, payload, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %d bytes to %s\n", len(payload), ff.out)
	}
	return buildErr
}

// runWorker joins the coordinator at ff.join and runs cells until the
// build finishes or ctx is cancelled. The worker's cache (and through it
// the shared artifact store, when -store-dir points at one) dedupes cells
// it has run before — a re-queued or stolen cell replays from disk.
func runWorker(ctx context.Context, ff fleetFlags, cache flow.Cache, o *obs.Observer) error {
	name := ff.name
	if name == "" {
		name = fmt.Sprintf("worker-%d", os.Getpid())
	}
	client := fleet.NewClient(ff.join, nil)
	w, err := fleet.Join(client, fleet.WorkerOptions{Name: name, Cache: cache, Obs: o})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "hlscong: worker %s joined fleet at %s\n", name, ff.join)
	completed, err := w.Run(ctx)
	fmt.Fprintf(os.Stderr, "hlscong: worker %s done: %d cells completed\n", name, completed)
	return err
}
