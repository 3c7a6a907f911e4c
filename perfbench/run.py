#!/usr/bin/env python3
"""Build and run the stgcheck benchmark (see perfbench/README.md).

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test [--seed N] [--seconds S]

The first form builds the driver and stg_checkd from source (into
$CARGO_TARGET_DIR, default .bench_build) if needed, runs one workload and
prints the driver's report; the last stdout line is the JSON result. The
second runs every workload twice with the same seed and checks that the
deterministic counts repeat exactly.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["oneshot_default", "oneshot_saturation", "daemon_mixed"]
DRIVER_TIMEOUT_S = 170


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures (once) and builds the driver; returns False on failure."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "perfbench_driver",
                  "-j", jobs])
    with open(os.path.join(out, "perfbench-build.log"), "a") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                print(f"perfbench: build failed: {' '.join(cmd)} "
                      f"(log: {log.name})", file=sys.stderr)
                return False
    return True


# What the results and the cached oracle references depend on: the program's
# sources and the benchmark's own.
DIGESTED = ("src", "examples", "CMakeLists.txt", "perfbench/src",
            "perfbench/CMakeLists.txt")


def source_digest():
    """A digest of the files under DIGESTED."""
    digest = hashlib.sha256()
    for top in DIGESTED:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()[:16]


def revision(digest):
    """The git revision when ROOT is a git work tree, else the digest."""
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = rev.stdout.splitlines()
        if rev.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            return "git:" + lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "tree:" + digest


def driver_cmd(workload, seed, seconds, trace, out_file):
    out = build_dir()
    digest = source_digest()
    return [os.path.join(out, "perfbench_driver"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--checkd", os.path.join(out, "stgcheck", "stg_checkd"),
            "--socket", os.path.relpath(os.path.join(out, "perfbench.sock"), ROOT),
            "--nets-dir", os.path.join(ROOT, "examples", "nets"),
            "--revision", revision(digest), "--out", out_file,
            # Explicit references depend only on the digested sources: keep
            # them per digest so each checkout builds every state graph once.
            "--oracle-cache", os.path.join(out, "oracle", digest)]


def run_driver(cmd, capture):
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=DRIVER_TIMEOUT_S,
                              capture_output=capture, text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: driver timed out", file=sys.stderr)
        return None


def self_test(seed, seconds):
    """Two traced runs per workload with one seed: counts must repeat."""
    ok = True
    for workload in WORKLOADS:
        docs = []
        for rep in (1, 2):
            out_file = os.path.join(build_dir(), f"selftest-{workload}-{rep}.json")
            proc = run_driver(driver_cmd(workload, seed, seconds, 1, out_file), True)
            if proc is None or proc.returncode != 0:
                print(f"{workload}: run {rep} failed", file=sys.stderr)
                return False
            with open(out_file) as fh:
                docs.append(json.load(fh))
        counts = []
        for doc in docs:
            c = {"peak_live_nodes_max": doc["end_to_end"]["peak_live_nodes_max"]["value"]}
            for name, m in doc["per_layer"].items():
                if name in ("traversal.passes", "traversal.images",
                            "engine.relation_nodes") or name.startswith("bdd.op_calls."):
                    c[name] = m["value"]
            counts.append(c)
        diff = {k: (counts[0][k], counts[1].get(k)) for k in counts[0]
                if counts[0][k] != counts[1].get(k)}
        status = "ok" if not diff else f"DIFFERS {diff}"
        print(f"{workload}: {len(counts[0])} counts compared, {status}")
        ok = ok and not diff
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    if not build():
        return 1
    if args.self_test:
        return 0 if self_test(args.seed, args.seconds) else 1
    out_file = os.path.join(build_dir(), "results",
                            f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    os.makedirs(os.path.dirname(out_file), exist_ok=True)
    sys.stdout.flush()
    proc = run_driver(driver_cmd(args.workload, args.seed, args.seconds,
                                 args.trace, out_file), False)
    return 1 if proc is None else proc.returncode


if __name__ == "__main__":
    sys.exit(main())
