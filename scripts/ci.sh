#!/usr/bin/env bash
# The full local/CI gate, runnable fully offline (all dependencies are
# vendored; `--offline` is passed to every cargo invocation).
#
#   scripts/ci.sh          # fmt, clippy -D warnings, rustdoc -D warnings, build, tests, corpus replay
#   scripts/ci.sh --full   # additionally runs the #[ignore]d deep-exploration tests
#
# Deterministic by default: the vendored proptest draws from a fixed seed.
# Override with SBU_PROPTEST_SEED=<u64> to explore a different stream, and
# SBU_PROPTEST_CASES=<n> to scale property-test case counts.

set -euo pipefail
cd "$(dirname "$0")/.."

FULL=0
if [[ "${1:-}" == "--full" ]]; then
    FULL=1
fi

step() { printf '\n==> %s\n' "$*"; }

step "rustfmt (check only)"
cargo fmt --all --check

step "clippy (warnings are errors)"
cargo clippy --workspace --all-targets --offline -- -D warnings

step "rustdoc (warnings are errors: a deleted name must not leave a dangling intra-doc link)"
# The vendored stand-ins are excluded: vendored proptest has a doc warning
# of its own.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline \
    --exclude proptest --exclude rand --exclude criterion --exclude parking_lot

step "release build (both feature configs: obs off is the default, obs on must build too)"
cargo build --release --offline
cargo build --release --offline --features obs

step "workspace tests"
cargo test --quiet --workspace --offline

step "obs-enabled tests (instrumented crates; same suites, metrics live)"
cargo test --quiet --offline --features obs \
    -p sbu-obs -p sbu-mem -p sbu-sticky -p sbu-core -p sbu-stress -p sbu-scenario \
    -p sbu-service -p sbu-bench
cargo test --quiet --offline --features obs

step "schedule-corpus replay"
cargo test --quiet --offline --test corpus_replay

step "corpus regeneration is deterministic"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
cp tests/corpus/*.sbu-sched "$tmp/"
cargo run --quiet --offline --example gen_corpus >/dev/null
for f in tests/corpus/*.sbu-sched; do
    cmp -s "$f" "$tmp/$(basename "$f")" || {
        echo "corpus file $f changed after regeneration" >&2
        exit 1
    }
done

step "native stress smoke (deterministic seed, online monitor; universal-block mixes apply and apply_batch in one list)"
cargo run --release --quiet --offline --example stress -- \
    --threads 4 --ops 20000 --seed 7
cargo run --release --quiet --offline --example stress -- \
    --workload universal-block --threads 4 --ops 4000 --seed 7
cargo run --release --quiet --offline --example stress -- \
    --threads 4 --ops 8000 --seed 7 --inject torn-jam
obs_verdict=$(cargo run --release --quiet --offline --features obs --example stress -- \
    --threads 4 --ops 8000 --seed 7 --inject torn-jam)
grep -q "lies injected" <<<"$obs_verdict" || {
    echo "obs-enabled stress verdict did not cite the injection counter" >&2
    exit 1
}

step "crash-restart smoke (durable torture, offline check_durable verdict)"
cargo run --release --quiet --offline --example stress -- \
    --crash-restart --workload recoverable-counter --threads 3 --ops 288 --seed 11
cargo run --release --quiet --offline --example stress -- \
    --crash-restart --workload recoverable-jam --threads 3 --ops 288 --seed 11 \
    --torn seeded:11 --iters 5
cargo run --release --quiet --offline --example stress -- \
    --crash-restart --workload recoverable-jam --threads 3 --ops 288 --seed 7 \
    --eras 6 --torn lying

step "scenario-matrix smoke (5 scenarios x objects x backends; exit 0 = honest cells PASS, adversary cells CAUGHT)"
cargo run --release --quiet --offline -p sbu-bench --bin exp -- scenarios \
    --scenario steady-state,crash-storm,adversary-storm,lossy-transport,shard-crash-storm \
    --seed 7 --out "$tmp/scenarios"
for report in SCENARIO_STEADY_STATE_REPORT.md SCENARIO_CRASH_STORM_REPORT.md \
    SCENARIO_ADVERSARY_STORM_REPORT.md SCENARIO_LOSSY_TRANSPORT_REPORT.md \
    SCENARIO_SHARD_CRASH_STORM_REPORT.md BENCH_scenarios.json; do
    [[ -f "$tmp/scenarios/$report" ]] || {
        echo "scenario matrix did not write $report" >&2
        exit 1
    }
done

step "scenario determinism self-compare (two capped same-seed runs must write byte-identical artifacts and be regression-free)"
for run in cov-base cov-cur; do
    cargo run --release --quiet --offline -p sbu-bench --bin exp -- scenarios \
        --scenario steady-state,lossy-transport,shard-crash-storm \
        --seed 7 --max-threads 1 --out "$tmp/$run"
done
for artifact in SCENARIO_STEADY_STATE_REPORT.md SCENARIO_LOSSY_TRANSPORT_REPORT.md \
    SCENARIO_SHARD_CRASH_STORM_REPORT.md BENCH_scenarios.json; do
    cmp "$tmp/cov-base/$artifact" "$tmp/cov-cur/$artifact" || {
        echo "$artifact differs between two capped same-seed runs" >&2
        exit 1
    }
done
cargo run --release --quiet --offline -p sbu-bench --bin exp -- scenarios \
    --compare "$tmp/cov-base/BENCH_scenarios.json" "$tmp/cov-cur/BENCH_scenarios.json"

step "perf smoke (E8 vs checked-in baseline; >30% regression fails)"
if [[ -f benchmarks/BENCH_e8_baseline.json ]]; then
    cargo run --release --quiet --offline -p sbu-bench --bin exp -- \
        e8 --baseline benchmarks/BENCH_e8_baseline.json
else
    echo "benchmarks/BENCH_e8_baseline.json absent; perf smoke skipped"
fi

step "universal construction on real threads (exp e10 e11: monitored torture and durability tax at 1-8 threads)"
cargo run --release --quiet --offline -p sbu-bench --bin exp -- e10 e11 >/dev/null

step "service unit tests (dark config; the obs config ran in the obs-enabled block above)"
cargo test --quiet --offline -p sbu-service

step "per-key footprint guard (release: a materialized key must add at most 16 KiB of RSS)"
cargo test --release --offline -p sbu-service --test footprint

step "repo benchmark self-tests (plain and traced; a public-API change that breaks benchmark/ fails here)"
cargo test --quiet --offline --manifest-path benchmark/Cargo.toml
cargo test --quiet --offline --manifest-path benchmark/Cargo.toml --features trace

step "service throughput smoke (exp e12 --smoke: 4 shards must not lose to 1 shard at 4 clients)"
rm -f OBS_e12.json
cargo run --release --quiet --offline --features obs -p sbu-bench --bin exp -- e12 --smoke >/dev/null
grep -Eq '"service\.route": [1-9]' OBS_e12.json || {
    echo "OBS_e12.json missing a non-zero service.route counter" >&2
    exit 1
}

step "fault-plane smoke (exp e13 --smoke: full lossy profile, zero lost acked ops)"
rm -f OBS_e13.json
cargo run --release --quiet --offline --features obs -p sbu-bench --bin exp -- e13 --smoke >/dev/null
grep -Eq '"service\.inject\.drop": [1-9]' OBS_e13.json || {
    echo "OBS_e13.json missing a non-zero service.inject.drop counter" >&2
    exit 1
}

step "fault-plane sweep (exp e13 under obs: exactly-once, amplification within 1/(1-p)^2 + margin at every drop rate)"
cargo run --release --quiet --offline --features obs -p sbu-bench --bin exp -- e13

step "block-apply smoke (exp e14 --smoke: blocks must not lose to per-command at 4 threads; every arm reads its counter back)"
rm -f OBS_e14.json
cargo run --release --quiet --offline --features obs -p sbu-bench --bin exp -- e14 --smoke >/dev/null
grep -Eq '"core\.batch_size"' OBS_e14.json || {
    echo "OBS_e14.json missing the core.batch_size histogram" >&2
    exit 1
}

step "lossy in-process loadgen (closed and open legs under the lossy profile; exit 0 only when both are exactly-once)"
cargo run --release --quiet --offline --example service_loadgen -- \
    --mode mixed --lossy --ops 2000 --clients 2 --workers 2 --shards 4 >/dev/null

step "socket transport smoke (exp e15 --smoke: lossy unix socket, exactly-once with live accepts)"
rm -f OBS_e15.json
cargo run --release --quiet --offline --features obs -p sbu-bench --bin exp -- e15 --smoke >/dev/null
grep -Eq '"service\.accept": [1-9]' OBS_e15.json || {
    echo "OBS_e15.json missing a non-zero service.accept counter" >&2
    exit 1
}

step "socket transport sweep (exp e15 under obs: every leg exactly-once, socket legs with live accepts and reads)"
cargo run --release --quiet --offline --features obs -p sbu-bench --bin exp -- e15

step "fast-path equivalence (paper scans vs fast paths vs blocks, both feature configs)"
cargo test --quiet --offline -p sbu-core --test fastpath_equivalence
cargo test --quiet --offline -p sbu-core --test fastpath_equivalence --features obs

step "observability smoke (obs-enabled exp e8 must fire the frontier instruments)"
rm -f OBS_e8.json
cargo run --release --quiet --offline --features obs -p sbu-bench --bin exp -- e8 >/dev/null
grep -Eq '"core\.frontier_hit": [1-9]' OBS_e8.json || {
    echo "OBS_e8.json missing a non-zero core.frontier_hit counter" >&2
    exit 1
}

if [[ "$FULL" == 1 ]]; then
    step "deep exploration sweeps (#[ignore]d tests, release)"
    cargo test --quiet --release --workspace --offline -- --ignored
fi

step "CI green"
