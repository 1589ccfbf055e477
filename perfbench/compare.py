#!/usr/bin/env python3
"""Collect sets of benchmark runs and check them against BENCHMARK.json.

    python3 perfbench/compare.py collect --out DIR [--runs 10] [--traced 1]
                                         [--workload NAME ...] [--first-seed 1]
    python3 perfbench/compare.py report DIR [OTHER_DIR]

`collect` runs perfbench/run.py once per seed and workload (seeds
first-seed, first-seed+1, ...) with the run length BENCHMARK.json sets,
plus `--traced` traced runs from the first seed, and appends each result
to DIR/<workload>.jsonl as {"seed": n, "trace": 0|1, "result": {...}}.

`report` prints, per workload and end-to-end metric, the median and the
spread (the distance between the first and third quartile of the runs,
as a share of their median) against the metric's bound. Given a second
set, it also prints how far the second median moved in the worse
direction, whether the failed share of operations is the same, and
whether every deterministic per-layer count (*_calls, *_cycles,
*_events, *_ops) is identical for the same seed. It exits 1 when a
spread (setup_s excepted) or a move exceeds its bound, or a share or a
count differs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DETERMINISTIC_SUFFIXES = ("_calls", "_cycles", "_events", "_ops")


def load_spec(path=None):
    with open(path or os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def last_json_line(text):
    lines = [l for l in text.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def collect(args):
    spec = load_spec()
    os.makedirs(args.out, exist_ok=True)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    plan = [(s, "0") for s in range(args.first_seed,
                                     args.first_seed + args.runs)]
    plan += [(args.first_seed, "1")] * args.traced
    for w in workloads:
        for seed, trace in plan:
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", w, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", trace]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout + proc.stderr)
                print("run failed: %s" % " ".join(cmd), file=sys.stderr)
                return 1
            row = {"seed": seed, "trace": int(trace),
                   "result": last_json_line(proc.stdout)}
            with open(os.path.join(args.out, w + ".jsonl"), "a") as f:
                f.write(json.dumps(row) + "\n")
            print("%s seed %d trace %s: done" % (w, seed, trace))
    return 0


def read_set(directory):
    """{workload: [row, ...]} for every <workload>.jsonl in directory."""
    out = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".jsonl"):
            with open(os.path.join(directory, name)) as f:
                out[name[:-6]] = [json.loads(l) for l in f if l.strip()]
    return out


def spread(values):
    """(median, (q3 - q1) / median) as statistics.quantiles gives them."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def failed_share(rows):
    attempted = sum(r["result"]["attempted"] for r in rows)
    failed = sum(r["result"]["failed"] for r in rows)
    return failed, attempted


def worse_by(metric, first, second):
    """Share by which the second median is worse than the first."""
    if first == 0:
        return 0.0
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def report(sets, spec, out=sys.stdout):
    """Print the comparison; return the number of checks that failed."""
    bad = 0
    e2e = spec["end_to_end"]
    for w in [w["name"] for w in spec["workloads"]]:
        runs = [s.get(w, []) for s in sets]
        untraced = [[r for r in rs if r["trace"] == 0] for rs in runs]
        if not all(untraced):
            print("%s: no untraced runs" % w, file=out)
            bad += 1
            continue
        print("%s (%s runs)" % (w, "/".join(str(len(u)) for u in untraced)),
              file=out)
        for m in e2e:
            meds = []
            cells = []
            for rows in untraced:
                med, spr = spread([r["result"]["metrics"][m["name"]]["value"]
                                   for r in rows])
                meds.append(med)
                gated = m["name"] != "setup_s"
                ok = not gated or spr <= m["bound"]
                bad += not ok
                cells.append("median %.6g spread %.4f%s" % (
                    med, spr, "" if ok else " > bound"))
            line = "  %-14s bound %.2f  %s" % (
                m["name"], m["bound"], " | ".join(cells))
            if len(meds) == 2:
                moved = worse_by(m, meds[0], meds[1])
                ok = moved <= m["bound"]
                bad += not ok
                line += "  worse by %+.4f%s" % (moved,
                                                "" if ok else " > bound")
            print(line, file=out)
        shares = [failed_share(u) for u in untraced]
        same = all(f * shares[0][1] == shares[0][0] * a for f, a in shares)
        bad += not same
        print("  failed/attempted %s%s" % (
            ", ".join("%d/%d" % s for s in shares),
            "" if same else "  (shares differ)"), file=out)
        if len(runs) == 2:
            bad += compare_counts(w, runs, out)
    return bad


def compare_counts(workload, runs, out):
    """Deterministic per-layer counts must match for the same seed."""
    traced = [{r["seed"]: r["result"]["metrics"] for r in rs if r["trace"]}
              for rs in runs]
    seeds = sorted(set(traced[0]) & set(traced[1]))
    differ = []
    for seed in seeds:
        for name, m in traced[0][seed].items():
            if not name.endswith(DETERMINISTIC_SUFFIXES):
                continue
            other = traced[1][seed].get(name, {}).get("value")
            if other != m["value"]:
                differ.append("%s seed %d: %s vs %s" % (
                    name, seed, m["value"], other))
    if not seeds:
        print("  no traced runs of a common seed", file=out)
        return 0
    print("  deterministic counts: %s" % (
        "identical" if not differ else "; ".join(differ)), file=out)
    return 1 if differ else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--out", required=True)
    c.add_argument("--runs", type=int, default=10)
    c.add_argument("--traced", type=int, default=1)
    c.add_argument("--first-seed", type=int, default=1)
    c.add_argument("--workload", action="append")
    r = sub.add_parser("report")
    r.add_argument("dirs", nargs="+")
    args = ap.parse_args()
    if args.cmd == "collect":
        return collect(args)
    if len(args.dirs) > 2:
        ap.error("report takes one or two run directories")
    bad = report([read_set(d) for d in args.dirs], load_spec())
    print("PASS" if bad == 0 else "FAIL: %d check(s) outside bounds" % bad)
    return 0 if bad == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
