#!/usr/bin/env python3
"""Repeated runs of one workload: medians, spreads and trace overhead.

    python3 perfbench/report.py --workload node-replay --runs 10 --traced 3

Runs perfbench/run.py once per seed (seeds --seed0, --seed0+1, ...), then
prints, per end-to-end metric, the median, the quartiles as
statistics.quantiles(values, n=4) gives them, and the spread (distance
between the quartiles as a share of the median) next to the metric's bound
in BENCHMARK.json. With --traced N it adds N traced runs and reports the
trace overhead: traced trace.host_s_per_sim_s against the untraced
host_s_per_sim_s, each with its spread. Nothing here gates; it reports.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--trace", str(trace)]
    if seconds:
        cmd += ["--seconds", str(seconds)]
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    if out.returncode != 0:
        sys.exit("run failed (seed %d, trace %d): %s" %
                 (seed, trace, out.stderr.strip()[-2000:]))
    lines = out.stdout.strip().splitlines()
    detail = json.loads(lines[-2][len("perfbench "):])
    return json.loads(lines[-1]), detail


def stats(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--traced", type=int, default=0,
                    help="traced runs for the trace-overhead report")
    ap.add_argument("--out", help="also write the summary as JSON here")
    a = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    values, incorrect = {}, []
    for i in range(a.runs):
        res, _ = run(a.workload, a.seed0 + i, a.seconds, 0)
        if not res["correct"] or res["failed"]:
            incorrect.append(a.seed0 + i)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    summary = {"workload": a.workload, "runs": a.runs,
               "seeds": [a.seed0, a.seed0 + a.runs - 1],
               "incorrect_seeds": incorrect, "end_to_end": {}}
    print("%s: %d runs, seeds %d..%d, incorrect: %s" %
          (a.workload, a.runs, a.seed0, a.seed0 + a.runs - 1,
           incorrect or "none"))
    print("%-22s %14s %14s %14s %8s %6s" %
          ("metric", "median", "q1", "q3", "spread", "bound"))
    for m in spec["end_to_end"]:
        med, q1, q3, spread = stats(values[m["name"]])
        summary["end_to_end"][m["name"]] = {
            "median": med, "q1": q1, "q3": q3, "spread": spread,
            "bound": m["bound"], "values": values[m["name"]]}
        print("%-22s %14.6g %14.6g %14.6g %8.4f %6.2f" %
              (m["name"], med, q1, q3, spread, m["bound"]))

    if a.traced:
        traced = []
        for i in range(a.traced):
            res, _ = run(a.workload, a.seed0 + i, a.seconds, 1)
            traced.append(res["metrics"]["trace.host_s_per_sim_s"]["value"])
        t_med, _, _, t_spread = stats(traced)
        u_med, _, _, u_spread = stats(values["host_s_per_sim_s"])
        summary["trace_overhead"] = {
            "untraced_median": u_med, "untraced_spread": u_spread,
            "traced_median": t_med, "traced_spread": t_spread,
            "traced_runs": a.traced, "ratio": t_med / u_med}
        print("trace overhead: traced %.6g s/s (spread %.3f, %d runs) vs "
              "untraced %.6g s/s (spread %.3f): %.3fx" %
              (t_med, t_spread, a.traced, u_med, u_spread, t_med / u_med))
    if a.out:
        with open(a.out, "w") as f:
            json.dump(summary, f, indent=1)


if __name__ == "__main__":
    main()
