#!/usr/bin/env python3
"""Builds stm_bench from source and runs the repository benchmark.

Run one workload (the last line of stdout is the JSON result):

    python3 e2e_bench/run.py --workload query_mix --seed 1 --seconds 10 --trace 0

Record runs for calibration or an A/B comparison (JSON Lines, one record
per run), then compare two record files, or show one file's spread:

    python3 e2e_bench/run.py --record a.jsonl --runs 5 [--seed-base 1] [--exe PATH]
    python3 e2e_bench/run.py --ab OLD_EXE NEW_EXE --runs 10 --out pair
    python3 e2e_bench/run.py --compare a.jsonl [b.jsonl]

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
repository root; state directories and traces go next to it.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build_root():
    p = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return p if p.is_absolute() else ROOT / p


def build():
    """Configures (once) and builds stm_bench; returns the binary's path."""
    out = build_root() / "stm_bench"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs,
                  "--target", "stm_bench"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr,
                          timeout=BUILD_TIMEOUT_S).returncode != 0:
            sys.exit(f"run.py: build step failed: {' '.join(cmd)}")
    return out / "stm_bench"


def run_binary(exe, workload, seed, seconds, trace=False, json_out=None):
    """Runs one workload; returns (exit code, stdout)."""
    work = build_root() / "work"
    work.mkdir(parents=True, exist_ok=True)
    cmd = [str(exe), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--work-dir={work}"]
    if trace:
        traces = build_root() / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd.append(f"--trace={traces / f'{workload}-seed{seed}.json'}")
    if json_out:
        cmd.append(f"--json={json_out}")
    env = dict(os.environ, TMPDIR=str(work))
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                          timeout=RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout


def check_result(stdout, trace):
    """The last line must name exactly the metrics BENCHMARK.json lists."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    want = {m["name"] for m in spec()["per_layer" if trace else "end_to_end"]}
    got = set(result.get("metrics", {}))
    if got != want:
        sys.exit(f"run.py: metrics {sorted(got ^ want)} differ from "
                 "BENCHMARK.json")


def cmd_run(args):
    names = [w["name"] for w in spec()["workloads"]]
    if args.workload not in names:
        sys.exit(f"run.py: unknown workload {args.workload!r}; one of {names}")
    exe = build()
    code, out = run_binary(exe, args.workload, args.seed, args.seconds,
                           trace=bool(args.trace))
    sys.stdout.write(out)
    sys.stdout.flush()
    if code != 0:
        sys.exit(code)
    check_result(out, bool(args.trace))


def record(exes, outs, runs, seed_base, seconds, workloads):
    """Runs `runs` seeds of every workload on each binary, alternating which
    binary goes first from one seed to the next."""
    for i in range(runs):
        order = list(zip(exes, outs))
        if i % 2:
            order.reverse()
        for w in workloads:
            for exe, out in order:
                code, stdout = run_binary(exe, w, seed_base + i, seconds,
                                          json_out=out)
                status = "ok" if code == 0 else f"exit {code}"
                print(f"{Path(out).name} {w} seed {seed_base + i}: {status}",
                      file=sys.stderr)
                if code != 0:
                    sys.stderr.write(stdout)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                if not rec["traced"]:
                    runs.setdefault(rec["workload"], []).append(rec)
    return runs


def cmd_compare(paths):
    """One file: each metric's spread (IQR / median) against a third of its
    bound. Two files: medians, quartiles, the change, pairs won, and a flag:
    WORSE past the bound, unresolved when either spread exceeds the bound."""
    sides = [load(p) for p in paths]
    metrics = spec()["end_to_end"]
    bad = 0
    header = f"{'workload':<16} {'metric':<12} {'median A':>12} {'IQR A':>20}"
    if len(sides) == 2:
        header += f" {'median B':>12} {'IQR B':>20} {'change':>8} {'A/B won':>9}"
    print(header + "  flag")
    for w in sides[0]:
        for m in metrics:
            cols, stats = [], []
            for side in sides:
                v = [r["end_to_end"][m["name"]]["value"]
                     for r in side.get(w, [])]
                if not v:
                    break
                q1, med, q3 = quartiles(v)
                stats.append((v, med, (q3 - q1) / med if med else 0.0))
                cols.append(f"{med:>12.5g} {f'{q1:.4g}..{q3:.4g}':>20}")
            if len(stats) != len(sides):
                continue
            sign = 1 if m["better"] == "lower" else -1
            if len(stats) == 1:
                spread = stats[0][2]
                flag = "ok" if spread < m["bound"] / 3 else "SPREAD"
                cols.append(f" spread {100 * spread:.1f}%")
            else:
                (va, ma, sa), (vb, mb, sb) = stats
                change = (mb - ma) / ma if ma else 0.0
                won_a = sum(sign * (a - b) < 0 for a, b in zip(va, vb))
                won_b = sum(sign * (b - a) < 0 for a, b in zip(va, vb))
                pairs = max(1, min(len(va), len(vb)))
                b_always_better = all(sign * (b - a) < 0 for a in va for b in vb)
                if sign * change > m["bound"]:
                    flag = "WORSE"
                elif max(sa, sb) > m["bound"] and not b_always_better:
                    flag = "unresolved"
                else:
                    flag = "ok"
                cols.append(f" {100 * change:>+7.1f}% "
                            f"{won_a / pairs:>4.0%}/{won_b / pairs:<4.0%}")
            bad += flag != "ok"
            print(f"{w:<16} {m['name']:<12} " + " ".join(cols) + f"  {flag}")
    return 1 if bad else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec()["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", metavar="OUT")
    p.add_argument("--ab", nargs=2, metavar=("OLD_EXE", "NEW_EXE"))
    p.add_argument("--out", metavar="PREFIX")
    p.add_argument("--exe")
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--seed-base", type=int, default=1)
    p.add_argument("--compare", nargs="+", metavar="FILE")
    args = p.parse_args()

    workloads = [w["name"] for w in spec()["workloads"]]
    if args.compare:
        sys.exit(cmd_compare(args.compare[:2]))
    if args.record:
        exe = args.exe or build()
        record([exe], [args.record], args.runs, args.seed_base, args.seconds,
               workloads)
    elif args.ab:
        if not args.out:
            sys.exit("run.py: --ab needs --out PREFIX")
        record(args.ab, [f"{args.out}-a.jsonl", f"{args.out}-b.jsonl"],
               args.runs, args.seed_base, args.seconds, workloads)
    elif args.workload:
        cmd_run(args)
    else:
        p.error("give --workload, --record, --ab or --compare")


if __name__ == "__main__":
    main()
