#!/usr/bin/env python3
"""End-to-end + per-layer benchmark of the NiLiCon simulator (README.md).

    python3 perfbench/run.py --workload redis-epoch --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --selfcheck

Builds perfbench/ (a standalone CMake project over ../src) on first use,
runs the nlc_perfbench driver for one workload and prints, as its last
line, one JSON object with the keys correct, attempted, failed and
metrics. With --trace 0 the metrics are the end-to-end metrics named in
BENCHMARK.json, with --trace 1 the per-layer metrics (a separate run with
the flight recorder on). The line before it is the driver's full result:
run manifest, output checks, paper references and context numbers.

Exits non-zero, without a result line, if the build fails, the driver
fails or exits non-zero (teardown aborts included), or a metric is missing.
"""
import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DRIVER_TIMEOUT_S = 170

# Simulated numbers with a paper counterpart. Everything measured with
# replay commit or N = 3 is labelled unvalidated instead.
PAPER_REFS = {
    "redis-epoch": {
        "core.stop_ms_mean": (18.9, "Table III: redis stop time (ms)"),
        "kernel.dirty_pages_mean": (6300, "Table III: redis dirty pages"),
    },
    "ssdb-failover-n3": {
        "core.failover.detect_ms": (90, "Section VII-B: ~90 ms detection"),
    },
}
UNVALIDATED = {
    "node-replay": "replay commit (HyCoR design): no paper counterpart",
    "ssdb-failover-n3": "N=3 quorum replication: no paper counterpart "
                        "(except the detection latency)",
}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (first time) and builds the driver; returns its path."""
    bdir = build_dir()
    # Compiler temporaries go inside the build tree, not the system /tmp.
    tmp = os.path.join(bdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    log_path = os.path.join(bdir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "--target", "nlc_perfbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                               env=env) != 0:
                log.flush()
                with open(log_path) as f:
                    tail = f.read()[-3000:]
                fail("build failed (%s):\n%s" % (" ".join(cmd), tail))
    exe = os.path.join(bdir, "nlc_perfbench")
    if not os.path.exists(exe):
        fail("driver binary missing after build")
    return exe


def source_digest():
    """SHA-256 over the simulator and benchmark sources (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith((".cpp", ".hpp", ".txt", ".py")):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unavailable (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def run_driver(exe, args):
    """Runs the driver; returns (returncode, stdout). Kills it on timeout."""
    proc = subprocess.Popen([exe] + args, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("driver timed out after %d s" % DRIVER_TIMEOUT_S)
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true",
                    help="equivalence and correctness self-check")
    a = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        fail("BENCHMARK.json not found at the checkout root")
    with open(spec_path) as f:
        spec = json.load(f)
    exe = build()

    if a.selfcheck:
        rc, out = run_driver(exe, ["--selfcheck"])
        sys.stdout.write(out)
        sys.exit(rc)

    names = [w["name"] for w in spec["workloads"]]
    if a.workload not in names:
        fail("unknown workload %r (have: %s)" % (a.workload, ", ".join(names)))
    seconds = a.seconds if a.seconds else spec["run_seconds"]
    rc, out = run_driver(exe, ["--workload", a.workload, "--seed",
                               str(a.seed), "--seconds", str(seconds),
                               "--trace", str(a.trace)])
    if rc != 0:
        fail("driver exited with code %d" % rc)
    lines = [l for l in out.splitlines() if l.startswith("RESULT ")]
    if len(lines) != 1:
        fail("driver printed no result")
    res = json.loads(lines[0][len("RESULT "):])

    wanted = spec["per_layer"] if a.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        v = res["metrics"].get(m["name"])
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            fail("metric %s missing or not a number" % m["name"])
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    extra = set(res["metrics"]) - set(metrics)
    if extra:
        fail("driver reported undeclared metrics: %s" % sorted(extra))

    res["manifest"]["git_commit"] = git_commit()
    res["manifest"]["source_digest"] = source_digest()
    if a.trace:
        refs = {}
        for name, (paper, source) in PAPER_REFS.get(a.workload, {}).items():
            refs[name] = {"measured": res["metrics"][name], "paper": paper,
                          "source": source}
        res["paper_refs"] = refs
    res["validation"] = UNVALIDATED.get(
        a.workload, "paper configuration (epoch commit, N=1)")
    print("perfbench " + json.dumps(res, sort_keys=False))
    print(json.dumps({"correct": bool(res["correct"]),
                      "attempted": int(res["attempted"]),
                      "failed": int(res["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
