#!/usr/bin/env python3
"""Repeated runs of the benchmark and the agreement check between two sets.

    python3 benchmark/sweep.py run DIR [--seeds 1-10] [--workloads a,b]
                                       [--seconds S] [--trace 0|1]
    python3 benchmark/sweep.py agree DIR_A DIR_B

`run` invokes the command in BENCHMARK.json once per workload and seed from
the repository root, stores each run's result line as
DIR/<workload>/<seed>.json and prints, per metric, the median, the quartiles
and the interquartile range as a share of the median. `agree` prints the
same for two such directories and checks, per workload and end-to-end
metric, that the second median is not worse than the first by more than
the metric's bound. A metric whose spread in either set exceeds its bound is
reported as unresolved, unless every run of the second set reads better than
every run of the first. Both exit non-zero when a run fails, a spread exceeds
its bound or a check does not hold.
"""

import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summary(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def load(directory):
    """{workload: {metric: [values]}} from a directory of runs."""
    out = {}
    for path in sorted(pathlib.Path(directory).glob("*/*.json")):
        metrics = json.loads(path.read_text())["metrics"]
        per = out.setdefault(path.parent.name, {})
        for name, m in metrics.items():
            per.setdefault(name, []).append(m["value"])
    return out


def bounds():
    return {m["name"]: m for m in SPEC["end_to_end"]}


def report(runs):
    spec = bounds()
    ok = True
    for workload, metrics in runs.items():
        print(f"{workload}:")
        for name, values in metrics.items():
            med, q1, q3, spread = summary(values)
            bound = spec.get(name, {}).get("bound")
            note = ""
            if bound is not None:
                note = f"bound {bound:.2f}"
                if spread > bound:
                    note += "  SPREAD EXCEEDS BOUND"
                    ok = False
                elif spread > bound / 3:
                    note += "  (spread above a third of the bound)"
            print(f"  {name:<36} median {med:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}"
                  f"  iqr/median {spread:7.4f}  n={len(values)}  {note}")
    return ok


def run(argv):
    directory = pathlib.Path(argv[0])
    opts = dict(zip(argv[1::2], argv[2::2]))
    names = opts.get("--workloads")
    workloads = names.split(",") if names else [w["name"] for w in SPEC["workloads"]]
    seconds = opts.get("--seconds", str(SPEC["run_seconds"]))
    trace = opts.get("--trace", "0")
    ok = True
    for workload in workloads:
        (directory / workload).mkdir(parents=True, exist_ok=True)
        for seed in seeds(opts.get("--seeds", "1-10")):
            cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", seconds, "--trace", trace]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if proc.returncode != 0 or not result.get("correct"):
                ok = False
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                continue
            (directory / workload / f"{seed}.json").write_text(lines[-1] + "\n")
            (directory / workload / f"{seed}.log").write_text(proc.stderr)
            print(f"{workload} seed {seed}: ok", file=sys.stderr)
    return report(load(directory)) and ok


def agree(dir_a, dir_b):
    a, b = load(dir_a), load(dir_b)
    ok = True
    for workload in sorted(set(a) | set(b)):
        print(f"{workload}:")
        for spec in SPEC["end_to_end"]:
            name = spec["name"]
            va, vb = a.get(workload, {}).get(name), b.get(workload, {}).get(name)
            if not va or not vb:
                print(f"  {name:<14} missing from one set")
                ok = False
                continue
            (ma, *_, sa), (mb, *_, sb) = summary(va), summary(vb)
            lower = spec["better"] == "lower"
            worse = (mb - ma) / ma if lower else (ma - mb) / ma
            all_better = max(vb) < min(va) if lower else min(vb) > max(va)
            if max(sa, sb) > spec["bound"] and not all_better:
                verdict = "UNRESOLVED"
            else:
                verdict = "agree" if worse <= spec["bound"] else "DISAGREE"
            ok &= verdict == "agree"
            print(f"  {name:<14} A {ma:12.4f} (iqr/med {sa:.4f})  B {mb:12.4f} (iqr/med {sb:.4f})"
                  f"  B worse by {worse:+.4f}  bound {spec['bound']:.2f}  {verdict}")
    return ok


def main():
    if len(sys.argv) >= 3 and sys.argv[1] == "run":
        return 0 if run(sys.argv[2:]) else 1
    if len(sys.argv) == 4 and sys.argv[1] == "agree":
        return 0 if agree(sys.argv[2], sys.argv[3]) else 1
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
