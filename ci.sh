#!/usr/bin/env bash
# Offline CI gate for the SecCloud workspace.
#
# Runs the formatting, lint, and tier-1 test gates exactly as the driver
# does — no network access required (the workspace has zero external
# dependencies). Usage: ./ci.sh
#
# SECCLOUD_TESTKIT_CASES scales the property/fault suites (default 200;
# a nightly run would use 2000). SECCLOUD_TESTKIT_SEED replays a failure.
set -euo pipefail
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE=true
export SECCLOUD_TESTKIT_CASES="${SECCLOUD_TESTKIT_CASES:-200}"

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

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

echo "== seccloud-lint (token rules + interprocedural taint / panic_path / arith / dispatch / ctflow / vartime / atomics / locks / blocking / deadline) =="
lint_start=$(date +%s%N)
./target/release/seccloud-lint
lint_end=$(date +%s%N)
echo "lint wall-clock: $(( (lint_end - lint_start) / 1000000 )) ms (SECCLOUD_THREADS=${SECCLOUD_THREADS:-auto})"

echo "== seccloud-lint determinism: serial and 4-thread runs must emit identical reports =="
SECCLOUD_THREADS=1 ./target/release/seccloud-lint --baseline > target/seccloud-lint-t1.json
SECCLOUD_THREADS=4 ./target/release/seccloud-lint --baseline > target/seccloud-lint-t4.json
if ! diff -u target/seccloud-lint-t1.json target/seccloud-lint-t4.json; then
    echo "lint output depends on worker scheduling — findings/allowances must be deterministic"
    exit 1
fi

echo "== seccloud-lint fixture suites (each rule catches its seeded violation, passes its clean twin) =="
for bad in panic index secret ct unsafe transport taint_bad panic_path_bad \
           arith_bad dispatch_bad ctflow_bad vartime_bad atomics_bad \
           locks_bad blocking_bad deadline_bad; do
    if ./target/release/seccloud-lint "crates/analyzer/tests/fixtures/${bad}.rs" > /dev/null; then
        echo "fixture ${bad}.rs should have tripped its rule (exit 1), but passed"
        exit 1
    fi
done
for clean in clean taint_clean panic_path_clean arith_clean dispatch_clean \
             ctflow_clean vartime_clean atomics_clean \
             locks_clean blocking_clean deadline_clean; do
    ./target/release/seccloud-lint "crates/analyzer/tests/fixtures/${clean}.rs" > /dev/null
done

echo "== seccloud-lint SARIF artifact: valid JSON with the expected rule ids =="
./target/release/seccloud-lint --format sarif > target/seccloud-lint.sarif
python3 - <<'EOF'
import json
with open("target/seccloud-lint.sarif") as f:
    sarif = json.load(f)
assert sarif["version"] == "2.1.0", sarif["version"]
rules = {r["id"] for r in sarif["runs"][0]["tool"]["driver"]["rules"]}
expected = {"panic", "index", "secret", "ct", "unsafe", "transport", "annotation",
            "taint", "panic_path", "arith", "dispatch", "ctflow", "vartime", "atomics",
            "locks", "blocking", "deadline"}
missing = expected - rules
assert not missing, f"SARIF driver.rules missing ids: {sorted(missing)}"
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

echo "== scale smoke bench: enrollment, per-shard commitments, epoch rotation, both cache arms =="
# ≤10k simulated users, end to end through the release binary.
./target/release/bench_scale --smoke --out target/BENCH_scale_smoke.json

echo "== pairing smoke bench: every BENCH_pairing.json field, unit prices included, one call each =="
./target/release/bench_pairing --smoke --out target/BENCH_pairing_smoke.json

echo "== paper tables: table1, fig5 and table2 run once on the shared timers (output in target/, not diffed: timings vary) =="
for b in table1 fig5 table2; do
    ./target/release/${b} > "target/${b}.txt"
done

echo "== experiments drift: deterministic paper-figure outputs match experiments/*.txt =="
# detection_sim is deterministic too, but takes ~50 s; it is left to manual reruns.
for b in fig4 optimal_t pool_detection; do
    if ! ./target/release/${b} | diff -u "experiments/${b}.txt" -; then
        echo "experiments/${b}.txt is stale (regenerate with: ./target/release/${b} > experiments/${b}.txt)"
        exit 1
    fi
done

echo "== fault/property/recovery suites: serial and 4-thread (${SECCLOUD_TESTKIT_CASES} cases) =="
SECCLOUD_THREADS=1 cargo test -q --test fault_injection --test wire_roundtrip --test batch_users
SECCLOUD_THREADS=4 cargo test -q --test fault_injection --test wire_roundtrip --test batch_users

echo "== internal fan-outs (parallel_map / parallel_map_mut callers): serial and 4-worker =="
fanout_suites=(-p seccloud-parallel -p seccloud-core -p seccloud-merkle -p seccloud-ibs
               -p seccloud-cloudsim -p seccloud-registry -p seccloud --lib --test extensions)
SECCLOUD_THREADS=1 cargo test -q "${fanout_suites[@]}"
SECCLOUD_THREADS=4 cargo test -q "${fanout_suites[@]}"

echo "== socket runtime suite: real TCP + chaos proxy, serial and 4-worker server =="
SECCLOUD_THREADS=1 cargo test -q --test net_rpc
SECCLOUD_THREADS=4 cargo test -q --test net_rpc

echo "CI OK"
