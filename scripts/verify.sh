#!/usr/bin/env bash
# Repo verification gate: the tier-1 build+test check (plus a build of the
# standalone benchmark/ package against the same sources), formatting, a
# zero-warning clippy pass over every target, a zero-warning doc build,
# the registry lint gate, the paper-fidelity gate, the results staleness
# gate, the engine parity and speed gate, the cost-model calibration gate,
# and remap, chaos, tenants, metrics, CLI, and serve smoke tests — 17
# steps, one `==>` line each.
# (The tracing smoke test, tests/tests/trace_smoke.rs, runs inside
# `cargo test -q`. `scripts/loc.sh` prints the line counts ROADMAP.md
# quotes; it gates nothing.) Run from the repo root:
#
#   scripts/verify.sh
#
set -euo pipefail
cd "$(dirname "$0")/.."
trap 'rm -rf "${RESULTS_TMP:-}" "${BENCH_TMP:-}" "${CHAOS_ERR:-}" "${TENANTS_TMP:-}" "${METRICS_TMP:-}" "${SERVE_TMP:-}"' EXIT

echo "==> cargo fmt --all -- --check"
cargo fmt --all -- --check

echo "==> cargo build --release"
cargo build --release

# benchmark/ is its own package with path dependencies into crates/*: a
# refactor that breaks a name benchmark/src/{layers,engine}.rs binds to
# must fail here, not in the pipeline that runs the benchmark.
echo "==> cargo build --release (benchmark/)"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml

echo "==> cargo test -q"
cargo test -q

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo '==> RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps'
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

# Static analysis gate: the shipped registry must be free of lint errors
# and every warning covered by an explicit allow-list entry (see
# crates/workloads/src/lint_allow.rs).
echo "==> repro lint --all --deny-warnings"
cargo run --quiet --release -p subcore-experiments --bin repro -- lint --all --deny-warnings \
    > /dev/null

# Fidelity gate: the committed results/ must reproduce every headline
# claim of the paper within its tolerance (repro summary exits 1 if any
# claim reads DRIFT or MISSING).
echo "==> repro summary"
cargo run --quiet --release -p subcore-experiments --bin repro -- summary

# Staleness gate: the committed results/ must be what this tree writes. A
# cache-free `repro all` (about 135 s on 2 vCPUs) regenerates every figure
# into a temp dir, and each tracked CSV must match it byte for byte. The
# list comes from git because the ignored results/run_telemetry.csv sits
# beside the tracked files. (tests/tests/results_fresh.rs checks a fast
# slice of the same figures inside `cargo test`.)
echo "==> repro all --no-cache: tracked results/*.csv match a fresh run"
RESULTS_TMP="$(mktemp -d)"
cargo run --quiet --release -p subcore-experiments --bin repro -- all --no-cache \
    --out "$RESULTS_TMP" > /dev/null
stale=0
for csv in $(git ls-files 'results/*.csv'); do
    cmp "$csv" "$RESULTS_TMP/${csv#results/}" || stale=1
done
if [ "$stale" != 0 ]; then
    echo "stale results/: regenerate with \`repro all --no-cache\` and commit" >&2
    exit 1
fi
rm -rf "$RESULTS_TMP"

# Engine parity and speed gate: one short traced run (default seed 1) of
# each engine workload of the unchanged benchmark/. The run exits nonzero
# if any adaptive, Reference, windowed or metrics-on pass over its cases
# misses golden.json. Its Reference and metrics-on passes must equal the
# adaptive ones in whole RunStats (engine.mode_parity_mismatches 0), and
# engine.reference_ratio (per-case Reference / adaptive wall, geomean)
# must hold the workload's floor. Each floor is 0.88 x the median of
# seven such runs (seeds 1-7) of the tree that set it, on a 2-vCPU VM with
# host.speed 0.53-0.73: engine_dense read 1.24-1.63 (median 1.347),
# engine_sparse 1.43-1.78 (median 1.680). A run is one pass per variant,
# so host-speed swings move the ratio: identical engines have read
# 1.12-1.63 (dense) and 1.24-1.78 (sparse), so a ratio-only failure can be
# noise; a golden or parity failure never is.
echo "==> benchmark run --trace 1 (engine_dense, engine_sparse): golden, parity, reference_ratio"
BENCH_TMP="$(mktemp -d)"
for gate in engine_dense:1.185 engine_sparse:1.478; do
    workload="${gate%:*}"
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
        run --workload "$workload" --trace 1 --seconds 5 --out "$BENCH_TMP" \
        > "$BENCH_TMP/$workload.txt"
    awk -v workload="$workload" -v floor="${gate#*:}" '
        $1 == "engine.mode_parity_mismatches" { parity = $3 }
        $1 == "engine.reference_ratio" { ratio = $3 }
        END {
            printf "%s: mode_parity_mismatches %s, reference_ratio %s (floor %s)\n",
                workload, parity, ratio, floor
            exit (parity == "" || parity != 0 || ratio == "" || ratio < floor)
        }' "$BENCH_TMP/$workload.txt"
done

# Cost-model calibration gate: the static cycle estimator must rank the
# whole 112-app registry within Spearman >= 0.8 of simulated cycles
# (repro exits nonzero below the floor) and print its per-app evidence
# with --json.
echo "==> repro estimate --calibrate --json"
CALIBRATION_JSON="$(cargo run --quiet --release -p subcore-experiments --bin repro -- \
    estimate --calibrate --json)"
test -n "$CALIBRATION_JSON"

# Remap smoke: the conflict-free register remapper must produce evidence
# (and not crash) on a structured-bank stressor.
echo "==> repro opt pb-mriq"
cargo run --quiet --release -p subcore-experiments --bin repro -- opt pb-mriq \
    | grep -q "static bank cost"

# Fault-injection smoke: the named-fault drill (the first cell to start
# panics; mid-campaign kill; one journaled cell's cache entry corrupted;
# journal resume; journal-free replay that must re-simulate exactly the
# corrupted cell) must recover to results bit-exact with a fault-free
# reference run. Injected panics are raised without the panic hook, so
# the drill's stderr carries no panic report.
echo "==> repro chaos"
CHAOS_ERR="$(mktemp)"
cargo run --quiet --release -p subcore-experiments --bin repro -- chaos 2> "$CHAOS_ERR"
if grep -q "panicked at" "$CHAOS_ERR"; then
    echo "chaos drill: an injected fault printed a panic report" >&2
    exit 1
fi
rm -f "$CHAOS_ERR"

# Multi-tenant smoke: a 2-tenant rigid-vs-contention-aware sweep on the
# micro mixes must produce the interference matrix and deadline tables,
# and an immediate --resume rerun must replay every cell from the journal
# (exercising the tenants campaign's resume path).
echo "==> tenants smoke test (repro tenants + --resume)"
TENANTS_TMP="$(mktemp -d)"
cargo run --quiet --release -p subcore-experiments --bin repro -- tenants \
    --mix micro-skewed --mix micro-deadline --out "$TENANTS_TMP" > /dev/null
test -s "$TENANTS_TMP/tenants_micro-skewed.csv"
test -s "$TENANTS_TMP/tenants_deadlines.csv"
cargo run --quiet --release -p subcore-experiments --bin repro -- tenants \
    --mix micro-skewed --mix micro-deadline --resume --out "$TENANTS_TMP" \
    > /dev/null 2> "$TENANTS_TMP/resume.log"
grep -q "resumed from the journal" "$TENANTS_TMP/resume.log"
rm -rf "$TENANTS_TMP"

# Metrics smoke: a small campaign must leave a loadable snapshot stream
# under <out>/.metrics/, `repro top --once` must render a frame from it,
# and `repro metrics --prom` must emit validated Prometheus text carrying
# the supervisor's and the pool's families, and the session's count of
# fig3's nine simulations.
echo "==> metrics smoke test (repro fig3 + top --once + metrics --prom)"
METRICS_TMP="$(mktemp -d)"
cargo run --quiet --release -p subcore-experiments --bin repro -- fig3 --out "$METRICS_TMP" \
    > /dev/null
cargo run --quiet --release -p subcore-experiments --bin repro -- top --once --out "$METRICS_TMP" \
    > /dev/null
cargo run --quiet --release -p subcore-experiments --bin repro -- metrics --prom \
    --out "$METRICS_TMP" > "$METRICS_TMP/metrics.prom"
for family in subcore_supervisor_job_done subcore_pool_busy_us; do
    grep -q "^$family " "$METRICS_TMP/metrics.prom" \
        || { echo "metrics smoke: $family missing from metrics.prom" >&2; exit 1; }
done
grep -q "^subcore_session_sim 9$" "$METRICS_TMP/metrics.prom" \
    || { echo "metrics smoke: fig3's simulations bypassed the session" >&2; exit 1; }

# CLI smoke: the subcommands no other step runs. `--help` renders the
# command table, `status` reads the (empty) journal root of the metrics
# smoke's directory, and `trace-diff` must leave a non-empty diff report.
echo "==> CLI smoke test (repro --help + status + trace-diff)"
cargo run --quiet --release -p subcore-experiments --bin repro -- --help | grep -q "repro trace-diff "
cargo run --quiet --release -p subcore-experiments --bin repro -- status --out "$METRICS_TMP" \
    > /dev/null
cargo run --quiet --release -p subcore-experiments --bin repro -- trace-diff fma --window 256 \
    --out "$METRICS_TMP" > /dev/null
test -s "$METRICS_TMP"/traces/*.diff.txt

# Serve smoke: an ephemeral daemon (port 0, address discovered via the
# atomic --addr-file) must admit and settle a 2-case sweep, coalesce both
# a resubmitted spec (found by the spec, before admission) and an alias
# of a settled cell (`fig3` is `fma`'s kernel, found by the cell's key),
# answer the /healthz and validated-Prometheus /metrics probes (with the
# daemon's serve.* families and its session's session.* ones), and exit
# 0 within 2 s of a graceful drain (an idle daemon has nothing to wait
# for: no accept-loop tick may stand between drain and exit).
echo "==> serve smoke test (repro serve + submit --wait + jobs + drain)"
SERVE_TMP="$(mktemp -d)"
REPRO=./target/release/repro
"$REPRO" serve --out "$SERVE_TMP" --dir "$SERVE_TMP/queue" --port 0 \
    --addr-file "$SERVE_TMP/addr" 2> "$SERVE_TMP/serve.log" &
SERVE_PID=$!
"$REPRO" submit fma --design baseline --addr-file "$SERVE_TMP/addr" --wait > /dev/null
"$REPRO" submit fma --design rba --addr-file "$SERVE_TMP/addr" --wait > /dev/null
"$REPRO" submit fma --design baseline --addr-file "$SERVE_TMP/addr" > /dev/null
"$REPRO" submit fig3 --design baseline --addr-file "$SERVE_TMP/addr" > /dev/null
"$REPRO" jobs --addr-file "$SERVE_TMP/addr" | grep -q "done"
"$REPRO" jobs --addr-file "$SERVE_TMP/addr" --healthz | grep -q '"ok":true'
"$REPRO" jobs --addr-file "$SERVE_TMP/addr" --metrics > "$SERVE_TMP/serve.prom"
for family in subcore_serve_submitted subcore_serve_job_done subcore_session_sim; do
    grep -q "^$family " "$SERVE_TMP/serve.prom" \
        || { echo "serve smoke: $family missing from /metrics" >&2; exit 1; }
done
for sample in "subcore_serve_submitted 2" "subcore_serve_coalesced 2"; do
    grep -qx "$sample" "$SERVE_TMP/serve.prom" \
        || { echo "serve smoke: /metrics lacks \"$sample\"" >&2; exit 1; }
done
DRAIN_T0=$(date +%s%N)
"$REPRO" jobs --addr-file "$SERVE_TMP/addr" --drain > /dev/null
wait "$SERVE_PID"
DRAIN_MS=$(( ($(date +%s%N) - DRAIN_T0) / 1000000 ))
if [ "$DRAIN_MS" -gt 2000 ]; then
    echo "serve smoke: drain -> exit took ${DRAIN_MS} ms (limit 2000)" >&2
    exit 1
fi
rm -rf "$SERVE_TMP"

echo "verify: OK"
