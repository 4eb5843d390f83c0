#!/usr/bin/env bash
# Tier-1 gate: everything must pass before a PR lands.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo build --release =="
cargo build --release

echo "== cargo test -q =="
cargo test -q

echo "== cargo test -q --workspace =="
cargo test -q --workspace

# Explicit gate: the fault model must stay a seed-pure no-op by default
# (same-seed determinism + FaultConfig::default() byte-identity).
echo "== fault determinism gate (tests/faults.rs) =="
cargo test -q --test faults

# Metamorphic gate: semantics-preserving transforms (cache, workers, VP
# permutation, recovered faults) leave stitched paths bit-identical;
# semantics-weakening ones (smaller atlas) only reduce coverage, never
# audited accuracy. Seeds {1, 7, 42} are baked into the suite.
echo "== metamorphic suite (release, tests/metamorphic.rs) =="
cargo test -q --release --test metamorphic

# Telemetry gates: tracing off must be byte-neutral, tracing on must be
# deterministic across reruns and worker counts (fingerprint equality).
echo "== telemetry determinism gate (release, tests/metamorphic.rs) =="
cargo test -q --release --test metamorphic telemetry

# Stitch-trace audit gate: every accepted hop of a standard-scale campaign
# replays soundly against the oracle — zero Unsound, zero PolicyViolation
# (revtr-cli exits nonzero otherwise). Each seed runs both stop-set arms:
# the on arm additionally proves reused stop-set evidence replays sound.
echo "== stitch-trace audit gate (release, standard scale, seeds 1/7/42, stop sets off/on) =="
cargo build -q --release -p revtr-eval
for seed in 1 7 42; do
  ./target/release/revtr-cli audit --scale standard --seed "$seed" \
    | tail -n 1
  ./target/release/revtr-cli audit --scale standard --seed "$seed" --stop-sets on \
    | tail -n 1
done

# Probe-economy gate: campaign-wide stop sets must cut measurement probes
# per revtr by >= 25% on the standard campaign while coverage and accuracy
# stay within 0.02 of the stop-sets-off control (revtr-cli exits nonzero
# otherwise).
echo "== probe-economy gate (release, standard scale, seeds 1/7/42) =="
for seed in 1 7 42; do
  ./target/release/revtr-cli economy --scale standard --seed "$seed" \
    | tail -n 2
done

# Telemetry profile gate: the metrics subcommand must produce a populated
# per-stage report (it exits nonzero on flag or scale errors).
echo "== telemetry profile gate (release, smoke scale) =="
./target/release/revtr-cli metrics --scale smoke | tail -n 3

# Monitor neutrality gate: judging a campaign must not change its
# identity — the monitor's campaign fingerprints are byte-identical to
# the plain telemetry profile's at the same seed.
echo "== monitor neutrality gate (release, smoke seed 1) =="
metrics_fp=$(./target/release/revtr-cli metrics --scale smoke --seed 1 | grep '^fingerprints:')
monitor_fp=$(./target/release/revtr-cli monitor --scale smoke --seed 1 | grep '^fingerprints:')
if [ "$metrics_fp" != "$monitor_fp" ]; then
  echo "monitor perturbed the campaign:"
  echo "  metrics: $metrics_fp"
  echo "  monitor: $monitor_fp"
  exit 1
fi
echo "neutral: $monitor_fp"

# SLO monitor gate: the clean standard configuration reports zero
# violations at every pinned seed (revtr-cli monitor exits nonzero on any
# firing alert). Since PR 10 the policy also carries the memory budget:
# mem.total.hiwater under the 64 MiB ceiling and control-block capacity
# headroom >= 0.90, so this loop doubles as the memory-budget gate...
echo "== SLO monitor + memory-budget gate (release, standard scale, seeds 1/7/42) =="
for seed in 1 7 42; do
  ./target/release/revtr-cli monitor --scale standard --seed "$seed" \
    | tail -n 1
done

# ...while a faulted campaign (30% transient loss, no retry budget) must
# provably fire the coverage and stuck-request alerts.
echo "== SLO monitor fault-detection gate (release, smoke, loss 0.3) =="
if faulted_out=$(./target/release/revtr-cli monitor --scale smoke --seed 1 --loss 0.3 --budget 1); then
  echo "faulted run passed the SLO gate — monitor is blind"; exit 1
fi
echo "$faulted_out" | grep -q 'coverage-floor' || { echo "coverage alert missing"; exit 1; }
echo "$faulted_out" | grep -q 'stuck-requests' || { echo "stuck-request alert missing"; exit 1; }
echo "$faulted_out" | tail -n 1

# Resource-forensics gate: the profiler must (a) leave the campaign
# identity untouched — profile-on fingerprints equal the plain metrics
# run's — and (b) account at least 8 subsystems in its byte ledger. The
# seed-42 smoke rendering is additionally pinned byte-for-byte by the
# metrics_golden suite below; the strict flag allow-list is covered by
# the eval CLI tests.
echo "== resource-forensics gate (release, smoke seed 1) =="
profile_out=$(./target/release/revtr-cli profile --scale smoke --seed 1)
profile_fp=$(echo "$profile_out" | grep '^fingerprints:' | sed 's/ *resources.*//')
metrics_prefix=$(echo "$metrics_fp" | sed 's/ *(.*//')
if [ "$metrics_prefix" != "$profile_fp" ]; then
  echo "profiling perturbed the campaign:"
  echo "  metrics: $metrics_prefix"
  echo "  profile: $profile_fp"
  exit 1
fi
ledgers=$(echo "$profile_out" | grep -cE '^(netsim|probing|atlas|engine|service|telemetry)\.')
if [ "$ledgers" -lt 8 ]; then
  echo "profile ledger table too thin: $ledgers subsystems"; exit 1
fi
echo "neutral: $profile_fp ($ledgers ledgers)"

# Hostile-Internet scenario conformance gate: every adversarial profile
# must (a) bite — the stock campaign's fingerprint departs from clean —
# and (b) be repaired or held by the hardened engine with zero unsound
# adoptions (revtr-cli scenario exits nonzero on any profile verdict
# failing). Three pinned master seeds, same as the SLO gate.
echo "== scenario conformance gate (release, standard scale, seeds 1/7/42) =="
for seed in 1 7 42; do
  ./target/release/revtr-cli scenario --scale standard --seed "$seed" \
    | tail -n 1
done

# Scenario SLO must-fire gate: under each adversarial profile the stock
# monitor must raise an alert (exit nonzero) and the firing rule set must
# include the profile's signature rule — a monitor that stays green under
# a hostile Internet is blind. An all-zero-severity profile must still
# pass the full scenario policy (the verification-mode probe allowance is
# calibrated for exactly this).
echo "== scenario SLO must-fire gate (release, standard seed 1) =="
scenario_must_fire() {
  profile=$1; rule=$2
  if out=$(./target/release/revtr-cli monitor --scale standard --seed 1 --scenario "$profile"); then
    echo "$profile passed the SLO gate — monitor is blind"; exit 1
  fi
  echo "$out" | grep -Eq "$rule +[a-z]+ +FAIL" || { echo "$profile: expected $rule alert missing"; exit 1; }
  echo "$profile: fires $rule"
}
scenario_must_fire spoof-filter-rollout coverage-floor
scenario_must_fire dbr-violation-region dbr-verify-mismatch
scenario_must_fire lying-rr-responders accuracy-floor
scenario_must_fire asymmetric-rate-limiters transient-exhaustion
scenario_must_fire poisoned-atlas accuracy-floor
./target/release/revtr-cli monitor --scale standard --seed 1 \
  --scenario dbr-violation-region --severity 0 | tail -n 1

# Perf-regression sentinel: re-run the standard benchmark and compare
# against the committed BENCH_PR10.json baseline (bench-compare exits
# nonzero past tolerance). The baseline runs with stop sets on — the
# production configuration — so the sentinel also guards the stop-set
# hit rates, and since PR 10 the per-ledger mem.*.hiwater footprints:
# a 20%-inflated high-water mark fails the compare.
echo "== perf-regression sentinel (release, standard seed 1 vs BENCH_PR10.json) =="
bench_new=$(mktemp /tmp/bench_pr10.XXXXXX.json)
./target/release/revtr-cli bench-report --scale standard --seed 1 --stop-sets on --file "$bench_new"
./target/release/revtr-cli bench-compare BENCH_PR10.json "$bench_new" | tail -n 1
rm -f "$bench_new"

# Concurrency gate: the event loop must sustain 50 000 in-flight reverse
# traceroutes in one campaign (revtr-cli exits nonzero if any request is
# dropped or the peak falls short).
echo "== concurrency smoke gate (release, 50k in flight) =="
./target/release/revtr-cli concurrency-smoke --inflight 50000 | tail -n 1

# Engine A/B gate: the event loop must not be slower than the scoped
# thread pool it replaced on the standard campaign (the identical
# workload at requested width 8; fingerprint-equal by the metamorphic
# suite above). The verdict is a paired-median wall ratio with a 5%
# noise allowance; one fresh-process retry, because per-process code
# layout alone can bias sub-second walls past the allowance.
echo "== engine A/B gate (release, standard seed 1, w8 vs q8) =="
./target/release/revtr-cli engine-ab --scale standard --seed 1 --workers 8 | tail -n 1 \
  || ./target/release/revtr-cli engine-ab --scale standard --seed 1 --workers 8 | tail -n 1

# Loadtest gate: the production traffic model at standard scale. Each
# pinned seed runs the steady pattern (clean service: full SLO policy,
# zero sheds, quiescent ladder) and the flash-crowd pattern (overload:
# only the lowest class sheds, gold goodput holds >= 98%, the ladder
# engages and recovers). Every run also proves the per-arrival results
# fingerprint, per-class accounting, and ladder-transition log are
# bit-identical across dispatch workers {1, 4, 16} (revtr-cli loadtest
# exits nonzero on any determinism or judgment failure).
echo "== loadtest gate (release, standard scale, seeds 1/7/42, steady + flash-crowd) =="
for seed in 1 7 42; do
  ./target/release/revtr-cli loadtest --scale standard --seed "$seed" --pattern steady \
    | tail -n 1
  ./target/release/revtr-cli loadtest --scale standard --seed "$seed" --pattern flash-crowd \
    | tail -n 1
done

# Standard-scale metrics golden (seed 42): TSV bytes and campaign
# fingerprints pinned under crates/eval/tests/goldens/standard42.
echo "== metrics golden gate (release, standard seed 42) =="
cargo test -q --release -p revtr-eval --test metrics_golden -- --ignored

echo "== cargo clippy --workspace --all-targets -- -D warnings =="
# Every crate, bench and test target except the vendored dependency
# shims. -D clippy::disallowed-methods enforces clippy.toml: no
# wall-clock sleeps, no free thread spawns (the engine is an event loop).
cargo clippy --workspace --all-targets \
  --exclude criterion --exclude rand --exclude proptest --exclude parking_lot \
  --exclude serde --exclude serde_derive --exclude serde_json \
  -- -D warnings -D clippy::disallowed-methods

# The audit crate is the arbiter of everyone else's soundness, and the
# telemetry crate sits inside every hot path: both are additionally held
# to no-unwrap (a panicking auditor proves nothing; a panicking tracer
# would violate behaviour-neutrality).
echo "== clippy unwrap gate (crates/audit, crates/telemetry) =="
cargo clippy -p revtr-audit --all-targets -- -D warnings -D clippy::unwrap_used
cargo clippy -p revtr-telemetry --all-targets -- -D warnings -D clippy::unwrap_used

echo "== cargo fmt --check =="
cargo fmt --check

echo "CI OK"
