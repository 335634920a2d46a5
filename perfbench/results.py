#!/usr/bin/env python3
"""Collect and compare result sets of the perfbench benchmark.

Run from the repository root:

  python3 perfbench/results.py sweep --workload social_gate --seeds 1-10 \
      --seconds 10 --trace 0 --out A.jsonl
  python3 perfbench/results.py ab --base ../parent --new . --seeds 1-10 \
      --out-base A.jsonl --out-new B.jsonl
  python3 perfbench/results.py spread A.jsonl [B.jsonl]
  python3 perfbench/results.py compare A.jsonl B.jsonl

A result set is a JSONL file; each line is one run:
  {"workload": ..., "seed": ..., "trace": 0|1, "exit": code, "wall_s": s,
   "result": {...}}
where "result" is the run's last stdout line.

`ab` runs a parent checkout (A) and a change (B) alternately, seed by seed,
so that drift of the machine over a sweep hits both sides alike.

`spread` gives, per (workload, end-to-end metric), the median, quartiles and
inter-quartile range as a share of the median, against the metric's bound in
BENCHMARK.json; with a second set it also checks that the second median is
not worse than the first by more than the bound.

`compare` gives a verdict per (metric, workload), each workload in its own
row: better / worse / unchanged / unresolved, or "behaviour change" for a
behaviour metric.  A gain needs at least 10 seed-paired runs, the change (B)
to win at least 9 of 10 of them, ties counting for neither, the medians to
differ by more than the parent's (A's) inter-quartile range, and B to fail
no more runs or operations than A.  A metric whose spread exceeds its
bound is unresolved unless every run of B reads better than every run of A;
otherwise a median worse than A's by more than the bound is worse, and
anything else unchanged.  A behaviour metric (`epsilon_final`) is
deterministic: any difference between A and B is a behaviour change to
explain, never a gain or a loss.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCHMARK = Path("BENCHMARK.json")
# Deterministic outputs of the system, not timings.
BEHAVIOUR_METRICS = {"epsilon_final"}
MIN_PAIRS = 10


def load_benchmark(root="."):
    return json.loads((Path(root) / BENCHMARK).read_text())


def metric_specs(bench, trace):
    """name -> spec dict for the metrics a run with `trace` reports."""
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m for m in bench[key]}


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_one(bench, root, workload, seed, seconds, trace):
    """Runs the benchmark once in checkout `root`; returns the record."""
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds or bench["run_seconds"]),
        "--trace", str(trace),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=str(Path(root).resolve() / ".bench_build"))
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    wall_s = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    ok = result is not None and result.get("correct") and proc.returncode == 0
    print(f"{root}: {workload} seed {seed}: exit {proc.returncode}, "
          f"{'correct' if ok else 'FAILED'}, {wall_s:.1f} s", file=sys.stderr)
    if not ok:
        sys.stderr.write(proc.stderr[-2000:])
    return {"workload": workload, "seed": seed, "trace": trace,
            "exit": proc.returncode, "wall_s": wall_s, "result": result}


def append(path, record):
    with open(path, "a") as out:
        out.write(json.dumps(record) + "\n")


def sweep(args):
    bench = load_benchmark()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    for workload in workloads:
        for seed in parse_seeds(args.seeds):
            append(args.out, run_one(bench, ".", workload, seed, args.seconds, args.trace))


def ab(args):
    bench = load_benchmark(args.new)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    sides = [(args.base, args.out_base), (args.new, args.out_new)]
    for workload in workloads:
        for i, seed in enumerate(parse_seeds(args.seeds)):
            # Alternate which side runs first, so neither always runs warm.
            for root, out in sides if i % 2 == 0 else sides[::-1]:
                append(out, run_one(bench, root, workload, seed, args.seconds, args.trace))


def load_set(path):
    """(runs, failures): runs maps (workload, trace) -> {seed: metrics} of the
    correct runs; failures maps (workload, trace) -> [failed runs, runs,
    failed operations, attempted operations]."""
    runs, failures = {}, {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        key = (rec["workload"], rec.get("trace", 0))
        tally = failures.setdefault(key, [0, 0, 0, 0])
        tally[1] += 1
        res = rec.get("result")
        if res:
            tally[2] += res.get("failed", 0)
            tally[3] += res.get("attempted", 0)
        if not res or not res.get("correct") or rec.get("exit") != 0:
            tally[0] += 1
            print(f"{path}: {rec['workload']} seed {rec['seed']} failed; left out",
                  file=sys.stderr)
            continue
        metrics = {k: v["value"] for k, v in res["metrics"].items()}
        runs.setdefault(key, {})[rec["seed"]] = metrics
    return runs, failures


def summary(values):
    """(median, q1, q3, inter-quartile range as a share of the median)."""
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    share = (q3 - q1) / abs(med) if med else float("inf")
    return med, q1, q3, share


def worse_by(spec, base, new):
    """Relative amount by which `new` is worse than `base` (negative: better)."""
    rel = (new - base) / abs(base) if base else 0.0
    return rel if spec["better"] == "lower" else -rel


def spread(args):
    bench = load_benchmark()
    sets = [load_set(p)[0] for p in args.sets]
    specs = metric_specs(bench, 0)
    steady = True
    print(f"{'workload':<16} {'metric':<20} {'median':>14} {'iqr/med':>8} {'bound':>6}  verdict")
    for key in sorted(sets[0]):
        workload, trace = key
        if trace:
            continue
        for name, spec in specs.items():
            values = [m[name] for m in sets[0][key].values() if name in m]
            if not values:
                continue
            med, _, _, share = summary(values)
            bound = spec["bound"]
            if share > bound:
                verdict = "TOO WIDE"
                steady = False
            else:
                verdict = "steady" if share < bound / 3 else "within bound"
            line = f"{workload:<16} {name:<20} {med:>14.6g} {share:>8.4f} {bound:>6}  {verdict}"
            if len(sets) > 1 and key in sets[1]:
                other = [m[name] for m in sets[1][key].values() if name in m]
                med2, _, _, share2 = summary(other)
                drift = worse_by(spec, med, med2)
                line += f"  second: median {med2:.6g} ({drift:+.4f}), iqr/med {share2:.4f}"
                if share2 > bound:
                    line += " TOO WIDE"
                    steady = False
                if drift > bound:
                    line += " WORSE THAN BOUND"
                    steady = False
            print(line)
    return 0 if steady else 1


def compare(args):
    bench = load_benchmark()
    (base, base_fail), (new, new_fail) = load_set(args.base), load_set(args.new)
    print(f"{'metric':<26} {'workload':<16} {'A median':>13} {'B median':>13} "
          f"{'change':>8} {'wins':>7}  verdict")
    for key in sorted(set(base_fail) | set(new_fail)):
        fa, fb = base_fail.get(key, [0] * 4), new_fail.get(key, [0] * 4)
        if fa[0] or fb[0] or fa[2] or fb[2]:
            print(f"failures {key[0]} (trace {key[1]}): A {fa[0]}/{fa[1]} runs, "
                  f"{fa[2]}/{fa[3]} operations; B {fb[0]}/{fb[1]} runs, {fb[2]}/{fb[3]} operations")
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        fa, fb = base_fail[key], new_fail[key]
        b_fails_more = fb[0] > fa[0] or fb[2] > fa[2]
        specs = metric_specs(bench, trace)
        for name, spec in specs.items():
            seeds = sorted(s for s in set(base[key]) & set(new[key])
                           if name in base[key][s] and name in new[key][s])
            if not seeds:
                continue
            a = [base[key][s][name] for s in seeds]
            b = [new[key][s][name] for s in seeds]
            med_a, q1_a, q3_a, share_a = summary(a)
            med_b, _, _, share_b = summary(b)
            if spec["better"] == "lower":
                wins = sum(y < x for x, y in zip(a, b))
                losses = sum(y > x for x, y in zip(a, b))
                all_better = max(b) < min(a)
            else:
                wins = sum(y > x for x, y in zip(a, b))
                losses = sum(y < x for x, y in zip(a, b))
                all_better = min(b) > max(a)
            worse = worse_by(spec, med_a, med_b)
            bound = spec.get("bound")
            apart = abs(med_b - med_a) > (q3_a - q1_a)
            gained = wins >= 0.9 * len(seeds) and worse < 0 and apart
            if name in BEHAVIOUR_METRICS:
                verdict = "behaviour change" if a != b else "unchanged"
            elif len(seeds) < MIN_PAIRS:
                verdict = f"unresolved (only {len(seeds)} paired seeds)"
            elif gained and b_fails_more:
                verdict = "unresolved (B fails more)"
            elif gained:
                verdict = "better"
            elif bound is None:
                # Per-layer metrics carry no bound: the same pair rule, mirrored.
                lost = losses >= 0.9 * len(seeds) and worse > 0 and apart
                verdict = "worse" if lost else "unchanged (no bound)"
            elif max(share_a, share_b) > bound and not all_better:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "worse"
            else:
                verdict = "unchanged"
            print(f"{name:<26} {workload:<16} {med_a:>13.6g} {med_b:>13.6g} "
                  f"{-worse:>+8.4f} {wins:>3}/{len(seeds):<3}  {verdict}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)
    for name, help_text in [("sweep", "run the benchmark over seeds into a result set"),
                            ("ab", "run a parent and a change alternately into two sets")]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--workload", action="append", help="default: every workload")
        p.add_argument("--seeds", default="1-10")
        p.add_argument("--seconds", type=int, help="default: run_seconds")
        p.add_argument("--trace", type=int, default=0, choices=[0, 1])
        if name == "sweep":
            p.add_argument("--out", required=True)
        else:
            p.add_argument("--base", required=True, help="parent checkout (A)")
            p.add_argument("--new", required=True, help="changed checkout (B)")
            p.add_argument("--out-base", required=True)
            p.add_argument("--out-new", required=True)
    p = sub.add_parser("spread", help="steadiness of one result set (and drift to a second)")
    p.add_argument("sets", nargs="+")
    p = sub.add_parser("compare", help="verdict per (metric, workload): A is the parent")
    p.add_argument("base")
    p.add_argument("new")
    args = parser.parse_args()
    return {"sweep": sweep, "ab": ab, "spread": spread, "compare": compare}[args.cmd](args) or 0


if __name__ == "__main__":
    sys.exit(main())
