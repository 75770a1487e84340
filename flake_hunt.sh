#!/usr/bin/env bash
# Flake hunt: run every workspace test N times and report each test whose
# outcome changed between runs.
#
# Usage: ./flake_hunt.sh N        (N ≥ 2; each run takes a few minutes)
#
# Run i (0-based) sets SECCLOUD_TESTKIT_SEED=i, so seeded property
# cases vary between runs. Each run is
# `cargo test --workspace --no-fail-fast` with the harness's per-test
# listing (the listing `-q` hides), kept under target/flake-hunt/.
# A test is listed as CHANGED when it passed in some runs and failed in
# others: a flake, or a failure that depends on the seed (rerun it under
# the listed run's seed to tell which). One that fails
# in every run is listed as FAILED. Exits 1 if any test is listed.
set -euo pipefail
cd "$(dirname "$0")"

runs="${1:?usage: ./flake_hunt.sh N}"
if ! [[ "$runs" =~ ^[0-9]+$ ]] || (( runs < 2 )); then
    echo "N must be an integer ≥ 2" >&2
    exit 2
fi
export CARGO_NET_OFFLINE=true
out=target/flake-hunt
mkdir -p "$out"

cargo build --workspace --tests -q
for (( i = 0; i < runs; i++ )); do
    echo "== run $i of $runs: SECCLOUD_TESTKIT_SEED=$i =="
    SECCLOUD_TESTKIT_SEED=$i cargo test --workspace --no-fail-fast > "$out/run-$i.log" 2>&1 || true
done

python3 - "$out" "$runs" <<'EOF'
import re
import sys

out, runs = sys.argv[1], int(sys.argv[2])
# "Running tests/x.rs (target/debug/deps/x-0123abcd...)" names the binary
# by its file with the build hash dropped; "Doc-tests crate" by its crate.
running = re.compile(
    r"^\s*(?:Running .*\((?:.*/)?([^/()]+?)(?:-[0-9a-f]{16})?\)\s*$|Doc-tests (\S+))"
)
result = re.compile(r"^test (.+) \.\.\. (ok|FAILED|ignored)")
outcomes = {}  # (binary, test) -> {run: outcome}
for i in range(runs):
    binary = "?"
    with open(f"{out}/run-{i}.log", errors="replace") as f:
        for line in f:
            m = running.match(line)
            if m:
                binary = m.group(1) or f"doc:{m.group(2)}"
                continue
            m = result.match(line)
            if m:
                outcomes.setdefault((binary, m.group(1)), {})[i] = m.group(2)

changed, failing = [], []
for key, seen in sorted(outcomes.items()):
    kinds = set(seen.values()) - {"ignored"}
    if len(kinds) > 1 or len(seen) != runs:
        changed.append((key, seen))
    elif kinds == {"FAILED"}:
        failing.append(key)

print(f"{len(outcomes)} tests over {runs} runs")
for (binary, test), seen in changed:
    runs_desc = ", ".join(f"run {i}: {seen.get(i, 'absent')}" for i in range(runs))
    print(f"CHANGED {binary} {test}  ({runs_desc})")
for binary, test in failing:
    print(f"FAILED  {binary} {test}  (every run)")
if not changed and not failing:
    print("no test changed outcome between runs")
sys.exit(1 if changed or failing else 0)
EOF
