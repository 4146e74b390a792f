#!/usr/bin/env python3
"""libcontig benchmark entry point.

Builds perfbench_driver (and libcontig) from source, runs one workload
and prints, as its last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, measured with
tracing off. With --trace 1 the workload runs twice, untraced and then
traced with a span around every library call; the metrics are the
per-layer ones from the traced run plus the tracing overhead between
the two. Which metrics a run prints, and their units, come from
BENCHMARK.json.

    python3 perfbench/run.py --workload xlat_replay --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --bless     # rewrite perfbench/expected.json

Run it from the repository root. Build outputs, the trace work files
and span dumps go under $CARGO_TARGET_DIR (default .bench_build).
See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED = os.path.join(HERE, "expected.json")
WORKLOADS = ("xlat_replay", "fault_grid", "overcommit")
DEFAULT_SEED = 1
DRIVER_TIMEOUT_S = 170

BENCHMARK = os.path.join(HERE, os.pardir, "BENCHMARK.json")


def pick(values, section):
    """BENCHMARK.json's metrics of `section` from `values`, with units."""
    with open(BENCHMARK) as f:
        units = {m["name"]: m["unit"] for m in json.load(f)[section]}
    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError("the driver reported no " + ", ".join(missing))
    return {k: {"value": values[k], "unit": u} for k, u in units.items()}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def clean_env():
    """The environment minus every CONTIG_* variable, and their names."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("CONTIG_")}
    return env, sorted(k for k in os.environ if k.startswith("CONTIG_"))


def build(target, env):
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "--target", target, "-j", jobs],
                   check=True, stdout=sys.stderr, env=env)
    return os.path.join(out, target)


def git_commit():
    if not os.path.isdir(".git"):
        return "unknown"
    p = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                       text=True)
    return p.stdout.strip() if p.returncode == 0 else "unknown"


def run_driver(driver, env, args):
    p = subprocess.run([driver] + args, capture_output=True, text=True,
                       env=env, timeout=DRIVER_TIMEOUT_S)
    sys.stderr.write(p.stderr)
    if p.returncode != 0:
        raise RuntimeError("perfbench_driver exited with %d" % p.returncode)
    return json.loads(p.stdout.strip().splitlines()[-1])


def driver_args(a, work, commit, smoke=False, expected=True):
    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--work-dir", work,
            "--commit", commit]
    if expected:
        args += ["--expected", EXPECTED]
    if smoke:
        args.append("--smoke")
    return args


def report(run, label):
    info = " ".join("%s=%s" % kv for kv in run["run_info"].items())
    log("%s %s seed=%d: %s" % (label, run["workload"], run["seed"], info))
    log("  %d cells (%d beyond p90), checked against %s; %d of %d failed"
        % (run["cells"], run["cells_beyond_p90"], run["reference"],
           run["failed"], run["attempted"]))
    log("  host factor %.3f (set-up %.3f); raw cell time %.2f s, raw "
        "set-up median %.3f s"
        % (run["host_factor"], run["host_factor_setup"],
           run["wall_s_raw"], statistics.median(run["setup_s_raw"])))
    for f in run["failures"]:
        log("  FAILED " + f)


def bench(a):
    env, cleared = clean_env()
    if cleared:
        log("cleared from the environment: " + " ".join(cleared))
    driver = build("perfbench_driver", env)
    commit = git_commit()
    work = os.path.join(build_dir(), "work", str(os.getpid()))
    os.makedirs(work, exist_ok=True)
    try:
        plain = run_driver(driver, env,
                           driver_args(a, work, commit) + ["--trace", "0"])
        report(plain, "untraced")
        runs = [plain]
        if a.trace:
            spans_dir = os.path.join(build_dir(), "spans")
            os.makedirs(spans_dir, exist_ok=True)
            spans = os.path.join(spans_dir, "%s-seed%d.jsonl"
                                 % (a.workload, a.seed))
            traced = run_driver(driver, env,
                                driver_args(a, work, commit)
                                + ["--trace", "1", "--spans", spans])
            report(traced, "traced")
            runs.append(traced)
            layers = dict(traced["per_layer"])
            wall = plain["end_to_end"]["wall_s"]
            layers["ledger.tracing_overhead"] = (
                traced["end_to_end"]["wall_s"] / wall - 1.0)
            log("  spans: " + spans)
            metrics = pick(layers, "per_layer")
        else:
            metrics = pick(plain["end_to_end"], "end_to_end")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def bless(a):
    """Store every kind's first-pass digest at the default seed."""
    env, _ = clean_env()
    driver = build("perfbench_driver", env)
    work = os.path.join(build_dir(), "work", str(os.getpid()))
    os.makedirs(work, exist_ok=True)
    out = {"seed": DEFAULT_SEED, "full": {}, "smoke": {}}
    try:
        for w in WORKLOADS:
            for size in ("full", "smoke"):
                a.workload, a.seed = w, DEFAULT_SEED
                run = run_driver(driver, env,
                                 driver_args(a, work, "unknown",
                                             smoke=size == "smoke",
                                             expected=False))
                if run["failed"]:
                    raise RuntimeError("%s/%s does not reproduce its first "
                                       "pass: %s" % (w, size,
                                                     run["failures"][0]))
                out[size][w] = run["first_pass"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(EXPECTED, "w") as f:
        json.dump(out, f, indent=2, sort_keys=True)
        f.write("\n")
    log("wrote " + EXPECTED)


def selftest(_a):
    env, _ = clean_env()
    test = build("perfbench_selftest", env)
    sys.exit(subprocess.run([test], env=env).returncode)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--bless", action="store_true")
    a = p.parse_args()
    try:
        if a.selftest:
            selftest(a)
        elif a.bless:
            bless(a)
        elif a.workload:
            bench(a)
        else:
            p.error("--workload, --selftest or --bless is required")
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            RuntimeError, ValueError, OSError) as e:
        log("perfbench: %s" % e)
        sys.exit(1)


if __name__ == "__main__":
    main()
