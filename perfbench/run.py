#!/usr/bin/env python3
"""End-to-end benchmark entry point: builds fdm_serve and fdm_bench from
this source tree, runs one workload, and prints the result line last.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --check [--runs 5] [--workloads a,b] [--seed-base 7001]

Run from the repository root. The build tree is $CARGO_TARGET_DIR when set
(relative paths are taken from the repository root), else .bench_build.
Build output goes to stderr; stdout ends with one JSON object:
{"correct", "attempted", "failed", "metrics"}, whose metrics are the ones
BENCHMARK.json lists for the mode; fdm_bench's other figures are on an
{"ungated": ...} line before it.

--check runs two sets of runs of the same build on every workload (each
run on its own seed; each set includes one held-out seed never used while
the benchmark was tuned) and prints, per end-to-end metric, each set's
median, its quartile spread as a share of the median, the bound from
BENCHMARK.json, and how far the second median moved from the first. It
fails when a gated metric's spread or drift goes past its bound.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170
HELD_OUT_SEED = 90001


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the two targets; False on failure."""
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    jobs = str(max(1, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(out), "--target", "fdm_serve", "fdm_bench",
           "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr,
                          stderr=sys.stderr).returncode == 0


def source_id():
    """The git commit when this is a checkout with history, else a content
    hash of everything the build reads."""
    try:
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0:
            return head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for sub in ("src", "tools", "perfbench"):
        files += sorted(p for p in (ROOT / sub).rglob("*") if p.is_file())
    for path in files:
        if path.exists():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:16]


def run_once(workload, seed, seconds, trace, commit):
    """Runs fdm_bench; returns (exit code, stdout lines)."""
    out = build_dir()
    work = out / ("work-%d" % os.getpid())
    cmd = [str(out / "fdm_bench"), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--serve_bin", str(out / "fdm" / "fdm_serve"), "--work_dir",
           str(work), "--commit", commit]
    # Own process group, so a timeout also takes down the servers it forked.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("fdm_bench timed out after %ds" % RUN_TIMEOUT_S)
        return 1, []
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, stdout.splitlines()


def parse_result(lines):
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    return result if isinstance(result, dict) and set(result) == keys else None


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def single(args):
    if not build():
        log("build failed")
        return 1
    code, lines = run_once(args.workload, args.seed, args.seconds, args.trace,
                           source_id())
    result = parse_result(lines)
    if code != 0 or result is None:
        log("run failed (exit %d)" % code)
        return 1
    # The result line carries exactly the metrics BENCHMARK.json lists for
    # this mode; fdm_bench's other figures go on the line before it.
    listed = [m["name"] for m in
              load_spec()["per_layer" if args.trace else "end_to_end"]]
    metrics = result["metrics"]
    missing = [name for name in listed if name not in metrics]
    if missing:
        log("run did not report %s" % ", ".join(missing))
        return 1
    for line in lines[:-1]:
        print(line)
    ungated = {k: v for k, v in metrics.items() if k not in listed}
    if ungated:
        print(json.dumps({"ungated": ungated}))
    result["metrics"] = {name: metrics[name] for name in listed}
    print(json.dumps(result))
    return 0


def spread(values):
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else float("inf"), med


def check(args):
    spec = load_spec()
    workloads = ([w["name"] for w in spec["workloads"]] if not args.workloads
                 else args.workloads.split(","))
    seconds = spec["run_seconds"]
    if not build():
        log("build failed")
        return 1
    commit = source_id()
    ok = True
    for workload in workloads:
        sets = []
        for s in range(2):
            seeds = [args.seed_base + 1000 * s + i for i in range(args.runs - 1)]
            seeds.append(HELD_OUT_SEED + s)
            values = {}
            for seed in seeds:
                code, lines = run_once(workload, seed, seconds, 0, commit)
                result = parse_result(lines)
                if code != 0 or result is None or not result["correct"]:
                    log("%s seed %d failed: %s" % (workload, seed,
                                                   lines[-1] if lines else code))
                    ok = False
                    continue
                for name, m in result["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
            sets.append(values)
        print("== %s (2 sets x %d runs)" % (workload, args.runs))
        print("%-22s %12s %12s %8s %8s %8s %7s %8s" %
              ("metric", "median1", "median2", "iqr1", "iqr2", "iqr_all",
               "bound", "worse2"))
        # Gated metrics are flagged against their bound; the figures
        # fdm_bench reports beyond them are listed after, for information.
        listed = {m["name"] for m in spec["end_to_end"]}
        rows = spec["end_to_end"] + [
            {"name": name, "better": "lower", "bound": None}
            for name in sets[0] if name not in listed]
        for m in rows:
            name = m["name"]
            if any(len(v.get(name, [])) < 2 for v in sets):
                print("%-22s missing" % name)
                ok = False
                continue
            (iqr1, med1), (iqr2, med2) = (spread(v[name]) for v in sets)
            iqr_all, _ = spread(sets[0][name] + sets[1][name])
            worse = ((med2 - med1) / med1 if m["better"] == "lower"
                     else (med1 - med2) / med1) if med1 else 0.0
            flag = ""
            if m["bound"] is None:
                flag = " (ungated)"
            elif max(iqr1, iqr2, iqr_all) > m["bound"]:
                flag, ok = " SPREAD>BOUND", False
            if m["bound"] is not None and worse > m["bound"]:
                flag, ok = flag + " DRIFT>BOUND", False
            bound = "-" if m["bound"] is None else "%.0f%%" % (100 * m["bound"])
            print("%-22s %12.6g %12.6g %7.1f%% %7.1f%% %7.1f%% %7s %7.1f%%%s"
                  % (name, med1, med2, 100 * iqr1, 100 * iqr2, 100 * iqr_all,
                     bound, 100 * worse, flag))
        sys.stdout.flush()
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seed-base", type=int, default=7001)
    args = parser.parse_args()
    if args.check:
        return check(args)
    if not args.workload:
        parser.error("--workload is required")
    return single(args)


if __name__ == "__main__":
    sys.exit(main())
