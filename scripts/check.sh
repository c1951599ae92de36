#!/usr/bin/env sh
# Tier-1 verification: build, vet, test, and race-test the whole module.
# This is the gate every PR must keep green (see ROADMAP.md).
set -eu
cd "$(dirname "$0")/.."

# Scratch files of the steps that have no directory of their own; the
# EXIT traps below remove it.
CHECK_TMP="$(mktemp -d)"
trap 'rm -rf "$CHECK_TMP"' EXIT

# step ends the running step, printing its wall time, and starts the next
# one; "step" with no name just ends the last.
CHECK_T0="$(date +%s)"
STEP_NAME=""
STEP_T0=0
step() {
	if [ -n "$STEP_NAME" ]; then
		echo "-- $STEP_NAME: $(($(date +%s) - STEP_T0))s"
	fi
	STEP_NAME="${1:-}"
	STEP_T0="$(date +%s)"
	if [ -n "$STEP_NAME" ]; then
		echo "== $STEP_NAME =="
	fi
}

step "go build"
go build ./...

step "go vet"
go vet ./...

step "go test"
go test ./...

step "go test -race"
go test -race ./...

# The parallel execution layer's reproduction contract: a concurrent build
# must be byte-identical to the sequential one — through BuildDatasetContext
# and through BuildDatasetExec with LocalExecutor — with one module.run span
# per cell and the finished modules kept on cancellation, and the parallel
# hot paths must be clean under the race detector even while being timed.
step "parallel determinism (-race)"
go test -race -count=1 -run 'TestBuildDatasetDeterministicAcrossWorkers|TestBuildDatasetExecLocalEquivalence|TestBuildDatasetObservability|TestBuildDatasetCancelMidBuild' \
	./internal/core/

step "parallel bench smoke (-race)"
go test -race -run '^$' -bench 'BenchmarkBuildDataset$' -benchtime=1x .

# The fast-path reproduction contract: the incremental placer and the
# O(1)-pattern router must be byte-identical to the frozen pre-optimization
# kernels kept under test, and the router's steady state must not allocate.
step "kernel equivalence"
go test -count=1 -run 'TestPlaceEquivalentToReference|TestRouteEquivalentToReference|TestRouterReuseAcrossFlows|TestRouteAllSteadyStateAllocs' \
	./internal/place/ ./internal/route/

# The flow cache's reproduction contract: a second identical dataset build
# against a warm cache must report hits while producing byte-identical
# output, including with the cache shared across parallel workers.
step "flow-cache hit-rate smoke (-race)"
go test -race -count=1 -run 'TestBuildDatasetFlowCache' ./internal/core/

# The ML fast-path reproduction contract: the flat-matrix trainers (GBRT
# with shared binning, ANN, lasso), the pooled metrics/scaler and the CV
# grid search must be byte-identical to the frozen pre-optimization
# implementations kept under test — across seeds, under the race detector.
step "ml equivalence (-race)"
go test -race -count=1 -run 'Equivalence' \
	./internal/ml/ ./internal/ml/gbrt/ ./internal/ml/ann/ ./internal/ml/lasso/

# Steady-state serving must not allocate — the models' batch paths and the
# predictor's (compiled GBRT included). Runs without -race on purpose:
# the race detector makes sync.Pool drop Puts at random, which makes
# allocation counts meaningless (the guards skip themselves there).
step "ml zero-alloc guards"
go test -count=1 -run 'ZeroAlloc' ./internal/ml/ ./internal/core/

# The feature extractor's reproduction contract: every feature of every op
# of the benchmark designs matches the golden digest, the scratch BFS
# matches the graph package's reference queries, extraction allocates
# nothing once warm (toy design and Face Detection), and PredictModule's
# distinct-row scoring scores every op exactly as PredictSample does: its
# row table keys on bits (−0/+0 and NaN payloads stay apart), survives
# long probe chains, and adds rows without allocating. The front half keys
# its tables by the dense op index: every IR transform and the text parser
# keep indices unique and in bounds, and a design whose text IR carries
# sparse, huge and negative op IDs predicts bit-equal to the builder's.
step "feature extraction identity + zero-alloc"
go test -count=1 \
	-run 'TestGoldenFeatureDigest|TestScratchNeighborhoodsMatchGraphQueries|TestVectorIntoAllocationFree' \
	./internal/features/
go test -count=1 -run 'TestPredictModuleBlockBoundaries|TestPredictModuleEmptyModule|TestRowSet|TestPredictModuleSparseTextIDs' ./internal/core/
go test -count=1 -run 'TestIndexAfter' ./internal/ir/

# The serving layer's allocation contract: the whole /predict hot path —
# admission, pooled decode (both wire formats), coalescing, prediction,
# response encoding — and the 429 shed path must be allocation-free once
# warm.
step "serve zero-alloc guards"
go test -count=1 -run 'ZeroAlloc' ./internal/serve/

# The striped-metrics contract: a registry fed an operation sequence
# through striped counters/gauges/histograms must snapshot identically to
# a plain registry fed the same sequence, and the stripes must be clean
# and sum correctly under the race detector.
step "striped metrics equivalence (-race)"
go test -count=1 -run 'TestStripedSnapshotEquivalence' ./internal/obs/
go test -race -count=1 -run 'TestStripedConcurrency' ./internal/obs/

# The multi-core serving contract, under the race detector: sharded
# responses byte-identical to single-shard, all-shards-saturated bursts
# shed fast with stripe-summed counters, and a reload mid-load never
# serves two model generations in one batch.
step "sharded serve invariants (-race)"
go test -race -count=1 \
	-run 'TestShardedPredictionsMatchSingleShard|TestAllShardsSaturatedSheds|TestReloadSingleGenerationPerBatch|TestShardedGracefulDrain' \
	./internal/serve/

# The observability layer's contract, end to end: a quick observed run must
# write a loadable Chrome trace containing a span per flow stage and a
# metrics snapshot carrying the canonical flow series (obscheck validates
# both), observation must never change results (the *ObserverInert /
# *DoesNotChangeResult tests), the disabled fast path must not allocate,
# and the shared registry/tracer must be race-clean under the same worker
# pool the builder uses.
step "observability smoke (quick run + artifact validation)"
go run ./cmd/hlscong -quick -workers 2 \
	-trace "$CHECK_TMP/obs_trace.json" -metrics "$CHECK_TMP/obs_metrics.json" table1 > /dev/null
go run ./cmd/obscheck -trace "$CHECK_TMP/obs_trace.json" -metrics "$CHECK_TMP/obs_metrics.json"

step "obs invariants (zero-alloc, golden trace, -race)"
go test -count=1 -run 'TestDisabledSpanZeroAlloc|TestChromeTraceGolden' ./internal/obs/
go test -race -count=1 -run 'TestRegistryConcurrency|TestTracerConcurrency' ./internal/obs/
go test -race -count=1 -run 'ObserverInert|DoesNotChangeResult' ./internal/core/ ./internal/flow/

# The telemetry layer's derivation rules: counter-reset handling, empty
# and first-sample windows, ring wraparound, Prometheus text rendering,
# breach-capture rate limiting, and the span-batch codec + Import remap
# that trace stitching is built on.
step "recorder / prom / breach / stitching unit tests"
go test -count=1 \
	-run 'TestRecorder|TestBucketQuantile|TestProm|TestBreach|TestTraceContext|TestSpanBatch|TestEncodeSpanBatch|TestDecodeSpanBatch|TestTracerImport|TestChromeTraceLanes' \
	./internal/obs/

# The persistence layer's reproduction contract, across a real process
# kill: a checkpointed build is SIGKILLed mid-sweep (right after its second
# store put — results persisted, no module block yet), then rerun against
# the same store directory. The rerun must complete, draw on the store
# (nonzero store.hit), produce an artifact byte-identical to a never-killed
# build, and leave a store with zero quarantined entries.
step "crash recovery (kill -9 mid-build, resume, byte-identical)"
go build -o "$CHECK_TMP/storecheck" ./cmd/storecheck
CRASH_TMP="$(mktemp -d)"
trap 'rm -rf "$CRASH_TMP" "$CHECK_TMP"' EXIT
"$CHECK_TMP/storecheck" -dir "$CRASH_TMP/ref" -build -modules digit_recognition \
	-label-runs 2 -moves 3000 -out "$CRASH_TMP/ref.art" > /dev/null
set +e
"$CHECK_TMP/storecheck" -dir "$CRASH_TMP/crash" -build -modules digit_recognition \
	-label-runs 2 -moves 3000 -crash-after-puts 2 > /dev/null 2>&1
crash_rc=$?
set -e
if [ "$crash_rc" -eq 0 ]; then
	echo "FAIL: crash run exited cleanly instead of dying mid-build"
	exit 1
fi
"$CHECK_TMP/storecheck" -dir "$CRASH_TMP/crash" -build -modules digit_recognition \
	-label-runs 2 -moves 3000 -out "$CRASH_TMP/resumed.art" |
	tee "$CRASH_TMP/resume.txt"
cmp "$CRASH_TMP/ref.art" "$CRASH_TMP/resumed.art" || {
	echo "FAIL: resumed artifact differs from the never-killed build"
	exit 1
}
grep -q 'store: hit=[1-9]' "$CRASH_TMP/resume.txt" || {
	echo "FAIL: resume never hit the persistent store"
	exit 1
}
"$CHECK_TMP/storecheck" -dir "$CRASH_TMP/crash" > /dev/null

# The store's decode path must also survive hostile bytes: a short bounded
# fuzz run on top of the checked-in seed corpus (which go test replays).
step "store decode fuzz smoke (5s)"
go test -run '^$' -fuzz 'FuzzStoreDecode' -fuzztime 5s ./internal/store/ > /dev/null

# The serving codec faces raw network bytes; its hand-rolled JSON parser
# gets the same bounded-fuzz treatment.
step "serve codec fuzz smoke (5s)"
go test -run '^$' -fuzz 'FuzzDecodeJSONRows' -fuzztime 5s ./internal/serve/ > /dev/null

# The fleet's wire decoders read bytes off the network too: the build spec
# a worker fetches, the IR text inside it, and the span batches workers
# ship back to the coordinator.
step "fleet spec fuzz smoke (5s)"
go test -run '^$' -fuzz 'FuzzDecodeSpec' -fuzztime 5s ./internal/fleet/ > /dev/null

step "IR text fuzz smoke (5s)"
go test -run '^$' -fuzz 'FuzzParseText' -fuzztime 5s ./internal/ir/ > /dev/null

step "span batch fuzz smoke (5s)"
go test -run '^$' -fuzz 'FuzzDecodeSpanBatch' -fuzztime 5s ./internal/obs/ > /dev/null

# The serving daemon's contract, end to end over real HTTP: train a quick
# artifact, serve it multi-shard, predict against it, prove the sharded
# server's responses byte-identical to a single-shard server's (congload
# -probe), hot-reload it (a valid swap bumps the generation; a corrupt
# artifact is rejected with the old model still serving), then drain
# gracefully on SIGTERM with load in flight.
step "congserve smoke (2 shards: serve, probe identity, hot-reload, drain)"
SERVE_TMP="$(mktemp -d)"
SERVE_PID=""
trap 'rm -rf "$CRASH_TMP" "$SERVE_TMP" "$CHECK_TMP"; [ -n "$SERVE_PID" ] && kill -9 "$SERVE_PID" 2> /dev/null || true' EXIT
go build -o "$SERVE_TMP/congserve" ./cmd/congserve
go build -o "$SERVE_TMP/congload" ./cmd/congload
go build -o "$SERVE_TMP/congtop" ./cmd/congtop
go build -o "$SERVE_TMP/obscheck" ./cmd/obscheck
"$SERVE_TMP/congserve" -train-quick -model "$SERVE_TMP/model.json" -kind gbrt > /dev/null
# The recorder samples every 100ms and the breach threshold (p99 > 1µs) is
# below any real request latency, so the first busy window triggers a
# capture; the 10m rate limit then pins the capture count at exactly one.
"$SERVE_TMP/congserve" -model "$SERVE_TMP/model.json" -addr 127.0.0.1:0 \
	-addr-file "$SERVE_TMP/addr.txt" -log-level warn -shards 2 \
	-history-interval 100ms -breach-dir "$SERVE_TMP/breach" \
	-breach-p99-us 1 -breach-min-interval 10m &
SERVE_PID=$!
i=0
while [ ! -s "$SERVE_TMP/addr.txt" ]; do
	i=$((i + 1))
	[ "$i" -gt 100 ] && { echo "FAIL: congserve never wrote its address"; exit 1; }
	sleep 0.1
done
ADDR="$(cat "$SERVE_TMP/addr.txt")"
curl -sf "http://$ADDR/healthz" | grep -q '"status": "ok"' || {
	echo "FAIL: /healthz not ok"
	exit 1
}
"$SERVE_TMP/congload" -addr "$ADDR" -n 200 -concurrency 2 -rows 32 > "$SERVE_TMP/load.json"
grep -q '"errors": 0' "$SERVE_TMP/load.json" || {
	echo "FAIL: /predict load run had errors"
	exit 1
}
grep -q '"server"' "$SERVE_TMP/load.json" || {
	echo "FAIL: congload report carries no server-side metrics delta"
	exit 1
}
# Telemetry surface over the same live server: the Prometheus exposition
# must pass the strict checker, the history ring must have samples,
# congtop must render a frame from it, and the sub-microsecond breach
# threshold must have produced exactly one capture — the rate limit turns
# a sustained breach into one directory, not one per sample.
sleep 0.3
curl -sf "http://$ADDR/debug/metrics/prom" > "$SERVE_TMP/metrics.prom"
"$SERVE_TMP/obscheck" -prom "$SERVE_TMP/metrics.prom"
curl -sf "http://$ADDR/debug/metrics/history" | grep -q '"seq"' || {
	echo "FAIL: /debug/metrics/history has no samples"
	exit 1
}
"$SERVE_TMP/congtop" -addr "$ADDR" -once > "$SERVE_TMP/congtop.txt"
grep -q 'sample #' "$SERVE_TMP/congtop.txt" || {
	echo "FAIL: congtop -once did not render a recorder sample"
	cat "$SERVE_TMP/congtop.txt"
	exit 1
}
captures="$(ls -d "$SERVE_TMP"/breach/breach-* 2> /dev/null | wc -l)"
[ "$captures" -eq 1 ] || {
	echo "FAIL: $captures breach captures, want exactly 1 (rate-limited)"
	exit 1
}
for f in reason.json history.json heap.pprof; do
	# shellcheck disable=SC2144
	[ -s "$SERVE_TMP"/breach/breach-*/"$f" ] || {
		echo "FAIL: breach capture is missing $f"
		exit 1
	}
done
# Byte-identity across shard counts: a 1-shard server over the same
# artifact must answer the probe with the exact bytes the 2-shard one did.
"$SERVE_TMP/congserve" -model "$SERVE_TMP/model.json" -addr 127.0.0.1:0 \
	-addr-file "$SERVE_TMP/addr1.txt" -log-level warn -shards 1 &
SERVE1_PID=$!
i=0
while [ ! -s "$SERVE_TMP/addr1.txt" ]; do
	i=$((i + 1))
	[ "$i" -gt 100 ] && { echo "FAIL: 1-shard congserve never wrote its address"; exit 1; }
	sleep 0.1
done
"$SERVE_TMP/congload" -addr "$ADDR" -probe "$SERVE_TMP/probe2.bin"
"$SERVE_TMP/congload" -addr "$(cat "$SERVE_TMP/addr1.txt")" -probe "$SERVE_TMP/probe1.bin"
kill -TERM "$SERVE1_PID" && wait "$SERVE1_PID" || {
	echo "FAIL: 1-shard congserve did not drain cleanly"
	exit 1
}
cmp "$SERVE_TMP/probe1.bin" "$SERVE_TMP/probe2.bin" || {
	echo "FAIL: sharded predictions differ from single-shard"
	exit 1
}
curl -sf -X POST "http://$ADDR/reload" | grep -q '"generation": 2' || {
	echo "FAIL: valid reload did not bump the generation"
	exit 1
}
echo junk > "$SERVE_TMP/model.json"
code="$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$ADDR/reload")"
[ "$code" = 422 ] || {
	echo "FAIL: corrupt artifact reload answered $code, want 422"
	exit 1
}
"$SERVE_TMP/congload" -addr "$ADDR" -n 50 -concurrency 1 -rows 8 > /dev/null || {
	echo "FAIL: serving stopped after a rejected reload"
	exit 1
}
"$SERVE_TMP/congload" -addr "$ADDR" -duration 2s -concurrency 2 -rows 32 \
	> "$SERVE_TMP/drain.json" 2> /dev/null &
LOAD_PID=$!
sleep 0.4
kill -TERM "$SERVE_PID"
serve_rc=0
wait "$SERVE_PID" || serve_rc=$?
SERVE_PID=""
[ "$serve_rc" -eq 0 ] || {
	echo "FAIL: congserve exited $serve_rc on SIGTERM, want graceful 0"
	exit 1
}
wait "$LOAD_PID" || true
grep -q '"preds": [1-9]' "$SERVE_TMP/drain.json" || {
	echo "FAIL: no request completed during the drain window"
	exit 1
}

# The fleet's reproduction contract, across real processes and a real
# worker death: a coordinator shards the build over two worker processes
# sharing one artifact store, one worker is SIGKILLed mid-cell, the lease
# expires, the survivor reruns the orphaned cell, and the assembled
# artifact is byte-identical to a sequential single-process build.
step "fleet build (2 workers, one SIGKILLed, byte-identical)"
FLEET_TMP="$(mktemp -d)"
FLEET_W1=""
FLEET_W2=""
FLEET_COORD=""
trap 'rm -rf "$CRASH_TMP" "$SERVE_TMP" "$FLEET_TMP" "$CHECK_TMP"; [ -n "$SERVE_PID" ] && kill -9 "$SERVE_PID" 2> /dev/null; for p in "$FLEET_COORD" "$FLEET_W1" "$FLEET_W2"; do [ -n "$p" ] && kill -9 "$p" 2> /dev/null; done; true' EXIT
go build -o "$FLEET_TMP/hlscong" ./cmd/hlscong
# The move budget makes each cell take seconds, so the SIGKILL at 1.5s
# lands mid-cell with the doomed worker's lease still outstanding.
FLEET_ARGS="-modules face_detection -label-runs 2 -moves 20000000"
# shellcheck disable=SC2086
"$FLEET_TMP/hlscong" -workers 1 $FLEET_ARGS -out "$FLEET_TMP/ref.art" build > /dev/null
# shellcheck disable=SC2086
"$FLEET_TMP/hlscong" -serve-builds 127.0.0.1:0 -fleet-addr-file "$FLEET_TMP/addr.txt" \
	-fleet-lease 2s $FLEET_ARGS -out "$FLEET_TMP/fleet.art" build \
	> /dev/null 2> "$FLEET_TMP/coord.log" &
FLEET_COORD=$!
i=0
while [ ! -s "$FLEET_TMP/addr.txt" ]; do
	i=$((i + 1))
	[ "$i" -gt 100 ] && { echo "FAIL: fleet coordinator never wrote its address"; exit 1; }
	sleep 0.1
done
FLEET_ADDR="$(cat "$FLEET_TMP/addr.txt")"
"$FLEET_TMP/hlscong" -join "$FLEET_ADDR" -fleet-name doomed \
	-store-dir "$FLEET_TMP/store" > /dev/null 2>&1 &
FLEET_W1=$!
"$FLEET_TMP/hlscong" -join "$FLEET_ADDR" -fleet-name survivor \
	-store-dir "$FLEET_TMP/store" > /dev/null 2>&1 &
FLEET_W2=$!
sleep 1.5
kill -9 "$FLEET_W1" 2> /dev/null || true
FLEET_W1=""
coord_rc=0
wait "$FLEET_COORD" || coord_rc=$?
FLEET_COORD=""
wait "$FLEET_W2" 2> /dev/null || true
FLEET_W2=""
[ "$coord_rc" -eq 0 ] || {
	echo "FAIL: fleet coordinator exited $coord_rc"
	cat "$FLEET_TMP/coord.log"
	exit 1
}
grep -Eq '[1-9][0-9]* leases expired' "$FLEET_TMP/coord.log" || {
	echo "FAIL: no lease expired — the SIGKILLed worker's cell was never orphaned"
	cat "$FLEET_TMP/coord.log"
	exit 1
}
cmp "$FLEET_TMP/ref.art" "$FLEET_TMP/fleet.art" || {
	echo "FAIL: fleet artifact differs from the sequential build"
	exit 1
}

# The distributed-tracing contract, across real processes: a traced
# 2-worker fleet build must produce ONE stitched Chrome trace on the
# coordinator — a single fleet.build root on the local lane, a named lane
# per worker (trace context propagated over the lease header, span
# batches shipped back on completions), every worker span inside the
# build interval, and one flow span per cell. obscheck -stitched asserts
# all of it.
step "stitched fleet trace (2 workers, one trace, lanes validated)"
STITCH_COORD=""
STITCH_W1=""
STITCH_W2=""
trap 'rm -rf "$CRASH_TMP" "$SERVE_TMP" "$FLEET_TMP" "$CHECK_TMP"; [ -n "$SERVE_PID" ] && kill -9 "$SERVE_PID" 2> /dev/null; for p in "$FLEET_COORD" "$FLEET_W1" "$FLEET_W2" "$STITCH_COORD" "$STITCH_W1" "$STITCH_W2"; do [ -n "$p" ] && kill -9 "$p" 2> /dev/null; done; true' EXIT
rm -f "$FLEET_TMP/addr.txt"
"$FLEET_TMP/hlscong" -serve-builds 127.0.0.1:0 -fleet-addr-file "$FLEET_TMP/addr.txt" \
	-modules digit_recognition -label-runs 4 -moves 3000 \
	-trace "$FLEET_TMP/fleet_trace.json" -metrics "$FLEET_TMP/fleet_metrics.json" \
	build > /dev/null 2> "$FLEET_TMP/stitch.log" &
STITCH_COORD=$!
i=0
while [ ! -s "$FLEET_TMP/addr.txt" ]; do
	i=$((i + 1))
	[ "$i" -gt 100 ] && { echo "FAIL: stitched coordinator never wrote its address"; exit 1; }
	sleep 0.1
done
STITCH_ADDR="$(cat "$FLEET_TMP/addr.txt")"
"$FLEET_TMP/hlscong" -join "$STITCH_ADDR" -fleet-name wA > /dev/null 2>&1 &
STITCH_W1=$!
"$FLEET_TMP/hlscong" -join "$STITCH_ADDR" -fleet-name wB > /dev/null 2>&1 &
STITCH_W2=$!
stitch_rc=0
wait "$STITCH_COORD" || stitch_rc=$?
STITCH_COORD=""
wait "$STITCH_W1" 2> /dev/null || true
STITCH_W1=""
wait "$STITCH_W2" 2> /dev/null || true
STITCH_W2=""
[ "$stitch_rc" -eq 0 ] || {
	echo "FAIL: stitched-trace coordinator exited $stitch_rc"
	cat "$FLEET_TMP/stitch.log"
	exit 1
}
"$SERVE_TMP/obscheck" -trace "$FLEET_TMP/fleet_trace.json" -stitched -lanes 2

step
echo "tier-1 checks passed in $(($(date +%s) - CHECK_T0))s"
