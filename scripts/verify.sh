#!/usr/bin/env bash
# Repo verification gate: the tier-1 build+test check (plus a build of the
# standalone benchmark/ package against the same sources), formatting, a
# zero-warning clippy pass over every target, a zero-warning doc build,
# the registry lint gate, the cost-model calibration gate, and tracing,
# bench, remap, chaos, tenants, metrics, CLI, and serve smoke tests —
# 16 steps, one `==>` line each. (`scripts/loc.sh` prints the line counts
# ROADMAP.md quotes; it gates nothing.) Run from the repo root:
#
#   scripts/verify.sh
#
set -euo pipefail
cd "$(dirname "$0")/.."

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

# Tracing smoke test: a tiny traced run must produce a non-empty windowed
# series, and the traced run's RunStats must be bit-identical to the
# untraced run's (probes observe, never perturb).
echo "==> trace smoke test"
cargo test -q -p subcore-integration --test trace_smoke

# Engine-mode perf regression gate: the shipping engine must stay
# bit-exact with the polled reference on the headline workload subset AND
# hold the committed baseline (results/BENCH_engine.json): no case below
# 0.88x parity, geomean no lower than 0.88x the recorded geomean (one 12%
# timing-noise band for both). Timings are min-of-5 per mode, alternating.
# To re-record the baseline after an intentional change, run bench-engine
# without --check.
# This also doubles as the metrics-overhead gate: subcore-metrics is
# compiled into the engine path but gate-disabled here, so the baseline
# only holds if the disabled metrics path is genuinely free.
echo "==> repro bench-engine --check"
cargo run --quiet --release -p subcore-experiments --bin repro -- bench-engine --check

# Cost-model calibration gate: the static cycle estimator must rank the
# whole 112-app registry within Spearman >= 0.8 of simulated cycles
# (repro exits nonzero below the floor) and leave the per-app evidence at
# results/estimate_calibration.json for the paper digest.
echo "==> repro estimate --calibrate"
cargo run --quiet --release -p subcore-experiments --bin repro -- estimate --calibrate \
    > /dev/null
test -s results/estimate_calibration.json

# Remap smoke: the conflict-free register remapper must produce evidence
# (and not crash) on a structured-bank stressor.
echo "==> repro opt pb-mriq"
cargo run --quiet --release -p subcore-experiments --bin repro -- opt pb-mriq \
    | grep -q "static bank cost"

# Fault-injection smoke: a seeded chaos drill (injected panics, stalls,
# and cache corruption; mid-campaign kill; journal resume) must recover
# to results bit-exact with a fault-free reference run.
echo "==> repro chaos --seed 42 --fault-rate 0.3"
cargo run --quiet --release -p subcore-experiments --bin repro -- chaos --seed 42 --fault-rate 0.3

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
# and `repro metrics --prom` must emit validated Prometheus text.
echo "==> metrics smoke test (repro fig3 + top --once + metrics --prom)"
METRICS_TMP="$(mktemp -d)"
trap 'rm -rf "$METRICS_TMP" "${SERVE_TMP:-}"' EXIT
cargo run --quiet --release -p subcore-experiments --bin repro -- fig3 --out "$METRICS_TMP" \
    > /dev/null
cargo run --quiet --release -p subcore-experiments --bin repro -- top --once --out "$METRICS_TMP" \
    > /dev/null
cargo run --quiet --release -p subcore-experiments --bin repro -- metrics --prom \
    --out "$METRICS_TMP" > "$METRICS_TMP/metrics.prom"
test -s "$METRICS_TMP/metrics.prom"

# CLI smoke: the subcommands no other step runs. `--help` renders the
# command table, `status` reads the (empty) journal root of the metrics
# smoke's directory, and `trace-diff` must leave a non-empty diff report.
echo "==> CLI smoke test (repro --help + status + trace-diff)"
cargo run --quiet --release -p subcore-experiments --bin repro -- --help | grep -q bench-engine
cargo run --quiet --release -p subcore-experiments --bin repro -- status --out "$METRICS_TMP" \
    > /dev/null
cargo run --quiet --release -p subcore-experiments --bin repro -- trace-diff fma --window 256 \
    --out "$METRICS_TMP" > /dev/null
test -s "$METRICS_TMP"/traces/*.diff.txt

# Serve smoke: an ephemeral daemon (port 0, address discovered via the
# atomic --addr-file) must admit and settle a 2-case sweep, answer the
# /healthz and validated-Prometheus /metrics probes, and exit 0 within
# 2 s of a graceful drain (an idle daemon has nothing to wait for: no
# accept-loop or lease-monitor tick may stand between drain and exit).
echo "==> serve smoke test (repro serve + submit --wait + jobs + drain)"
SERVE_TMP="$(mktemp -d)"
REPRO=./target/release/repro
"$REPRO" serve --out "$SERVE_TMP" --dir "$SERVE_TMP/queue" --port 0 \
    --addr-file "$SERVE_TMP/addr" 2> "$SERVE_TMP/serve.log" &
SERVE_PID=$!
"$REPRO" submit fma --design baseline --addr-file "$SERVE_TMP/addr" --wait > /dev/null
"$REPRO" submit fma --design rba --addr-file "$SERVE_TMP/addr" --wait > /dev/null
"$REPRO" jobs --addr-file "$SERVE_TMP/addr" | grep -q "done"
"$REPRO" jobs --addr-file "$SERVE_TMP/addr" --healthz | grep -q '"ok":true'
"$REPRO" jobs --addr-file "$SERVE_TMP/addr" --metrics > "$SERVE_TMP/serve.prom"
test -s "$SERVE_TMP/serve.prom"
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
