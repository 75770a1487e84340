#!/usr/bin/env bash
# Offline CI gate for the SecCloud workspace.
#
# Runs the formatting, lint, and tier-1 test gates exactly as the driver
# does — no network access required (the workspace has zero external
# dependencies). Usage: ./ci.sh
#
# The panic, index, arithmetic and wildcard-arm policy lives in clippy:
# `clippy.toml` plus `#![deny(clippy::…)]` attributes on the crate roots
# of core/cloudsim/ibs/resilience/testkit, on `crates/core/src/wire.rs`
# and on the four sampling/backoff files; the clippy step below enforces it.
#
# SECCLOUD_TESTKIT_CASES scales the property/fault suites (default 200;
# a nightly run would use 2000). SECCLOUD_TESTKIT_SEED replays a failure.
set -euo pipefail
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE=true
export SECCLOUD_TESTKIT_CASES="${SECCLOUD_TESTKIT_CASES:-200}"

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy -D warnings (with the crates' denies: unwrap/expect/panic macros, indexing_slicing, arithmetic_side_effects, wildcard arms) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustdoc -D warnings: no broken or private intra-doc link: cargo doc --workspace --no-deps =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== tier-1 build, plus every workspace binary the steps below run: cargo build --release --workspace =="
cargo build --release --workspace

echo "== benchmark/ builds against the crates' public API: cargo check (benchmark/Cargo.lock restored) =="
# The benchmark is its own workspace with a lock that cargo rewrites on
# every build; check it against the crates as they are, then put the
# committed lock back byte for byte, on failure too.
mkdir -p target/benchmark-check
cp benchmark/Cargo.lock target/benchmark-check/Cargo.lock.committed
restore_bench_lock() { cp target/benchmark-check/Cargo.lock.committed benchmark/Cargo.lock; }
trap restore_bench_lock EXIT
cargo check --offline --manifest-path benchmark/Cargo.toml --target-dir target/benchmark-check
restore_bench_lock
trap - EXIT

echo "== seccloud-lint (token rules + interprocedural taint / panic_path / ctflow / vartime / atomics / locks / blocking / deadline; panic, index, arithmetic and wildcard arms are clippy's, above) =="
lint_start=$(date +%s%N)
./target/release/seccloud-lint
lint_end=$(date +%s%N)
echo "lint wall-clock: $(( (lint_end - lint_start) / 1000000 )) ms (single-threaded)"

echo "== seccloud-lint SARIF artifact: valid JSON with the expected rule ids =="
./target/release/seccloud-lint --format sarif > target/seccloud-lint.sarif
python3 - <<'EOF'
import json
with open("target/seccloud-lint.sarif") as f:
    sarif = json.load(f)
assert sarif["version"] == "2.1.0", sarif["version"]
rules = {r["id"] for r in sarif["runs"][0]["tool"]["driver"]["rules"]}
expected = {"secret", "ct", "unsafe", "transport", "annotation", "taint", "panic_path",
            "arith", "ctflow", "vartime", "atomics", "locks", "blocking", "deadline"}
assert rules == expected, (
    f"SARIF driver.rules drifted: missing {sorted(expected - rules)}, unexpected {sorted(rules - expected)}"
)
print(f"sarif ok: {len(rules)} rules, {len(sarif['runs'][0]['results'])} results")
EOF

echo "== seccloud-lint baseline drift vs crates/baselines (both directions) =="
./target/release/seccloud-lint --baseline > target/seccloud-lint-baseline.json
if ! diff -u crates/baselines/seccloud-lint-baseline.json target/seccloud-lint-baseline.json; then
    echo "lint baseline drifted — additions *and* removals must be committed deliberately"
    echo "(regenerate with: ./target/release/seccloud-lint --baseline > crates/baselines/seccloud-lint-baseline.json)"
    exit 1
fi

echo "== every suite once: cargo test --workspace -q (tier-1 cargo test -q is its root-package subset) =="
cargo test --workspace -q

echo "== GT cofactor sweep: no prime below 2^32 divides h_T = Phi12(p)/r, the batch check's 2^-64 bound (release build) =="
sweep_start=$(date +%s%N)
cargo test --release -q -p seccloud-pairing --lib -- --ignored --exact params::tests::cofactor_has_no_prime_factor_below_2_32
sweep_end=$(date +%s%N)
echo "cofactor sweep wall-clock: $(( (sweep_end - sweep_start) / 1000000 )) ms (includes the release test build)"

echo "== scale smoke bench: enrollment, per-shard commitments, epoch rotation, both cache arms =="
# ≤10k simulated users, end to end through the release binary.
./target/release/bench_scale --smoke --out target/BENCH_scale_smoke.json

echo "== pairing smoke bench: every BENCH_pairing.json field, unit prices included, one call each; its field set must equal the committed file's =="
./target/release/bench_pairing --smoke --out target/BENCH_pairing_smoke.json
python3 - <<'EOF'
import json
def keys(doc):
    # Top-level fields plus the fields of each array's rows.
    out = set(doc)
    for name, value in doc.items():
        if isinstance(value, list):
            out |= {f"{name}[].{k}" for row in value for k in row}
    return out
with open("BENCH_pairing.json") as f:
    committed = keys(json.load(f))
with open("target/BENCH_pairing_smoke.json") as f:
    emitted = keys(json.load(f))
assert committed == emitted, (
    f"BENCH_pairing.json fields drifted from bench_pairing's output: "
    f"only committed {sorted(committed - emitted)}, only emitted {sorted(emitted - committed)}"
)
print(f"BENCH_pairing.json schema ok: {len(committed)} fields")
EOF

echo "== paper tables: table1, fig5 and table2 run once on the shared timers (output in target/, not diffed: timings vary) =="
for b in table1 fig5 table2; do
    ./target/release/${b} > "target/${b}.txt"
done

echo "== examples: every examples/*.rs runs to a zero exit, and multi_server_cloud again over loopback TCP (--net) =="
cargo build --release --examples
for src in examples/*.rs; do
    ex=$(basename "$src" .rs)
    ./target/release/examples/${ex} > "target/example-${ex}.txt"
done
./target/release/examples/multi_server_cloud --net > target/example-multi_server_cloud-net.txt

echo "== experiments drift: deterministic paper-figure outputs match experiments/*.txt =="
# detection_sim is deterministic too, but takes ~50 s; it is left to manual reruns.
for b in fig4 optimal_t pool_detection; do
    if ! ./target/release/${b} | diff -u "experiments/${b}.txt" -; then
        echo "experiments/${b}.txt is stale (regenerate with: ./target/release/${b} > experiments/${b}.txt)"
        exit 1
    fi
done

echo "== fault-injection suite under three more seeds (seed 0 ran above) =="
for seed in 1 2 3; do
    SECCLOUD_TESTKIT_SEED=$seed cargo test -q --test fault_injection
done

echo "CI OK"
