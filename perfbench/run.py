#!/usr/bin/env python3
"""One seeded benchmark for pathalias: map build, update-to-serve, serving and
bulk resolve.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root (or anywhere: it changes to the root).  It builds
the shipped tools and the benchmark tool from source into .bench_build
($CARGO_TARGET_DIR if set), generates the workload's inputs from the seed,
drives pathalias / routedb / routedbd as a user does, checks every output, and
prints as its last stdout line (per workload, with `all`) one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics of
the traced in-process replay.  --variant selects the README's reference
configurations (shards4, threads4, image1m, udp).  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import client  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {"setup_s": "s", "op_ms": "ms", "peak_rss_mib": "MiB"}
TARGETS = ["perfbench_tool", "pathalias", "routedb", "routedbd"]


def build():
    """Configures and builds the tools; returns {name: path}.  Exits 1 on failure."""
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "perfbench-build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", HERE, "-B", build_dir, *generator,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1),
                      "--target", *TARGETS])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.close()
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-3000:])
                sys.stderr.write(f"perfbench: build failed; see {log_path}\n")
                sys.exit(1)
    bins = {"perfbench_tool": os.path.join(build_dir, "perfbench_tool")}
    for tool in TARGETS[1:]:
        bins[tool] = os.path.join(build_dir, "pathalias", tool)
    return bins


def fingerprint():
    """The machine and build a result was measured on."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    cache = {}
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                key, _, value = line.strip().partition("=")
                cache[key.split(":")[0]] = value
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    commit = ""
    if os.path.exists(os.path.join(ROOT, ".git")) and shutil.which("git"):
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                text=True).stdout.strip()
    if not commit:  # not a git checkout: identify the sources by content
        digest = hashlib.sha256()
        for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
            dirs.sort()
            for name in sorted(files):
                with open(os.path.join(base, name), "rb") as f:
                    digest.update(name.encode() + f.read())
        commit = "sources-sha256:" + digest.hexdigest()[:16]
    return {"cpu": cpu, "nproc": os.cpu_count(), "kernel": platform.release(),
            "compiler": version, "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
            "commit": commit}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--variant", default="",
                        choices=("", "shards4", "threads4", "image1m", "udp"))
    parser.add_argument("--self-test", action="store_true",
                        help="show every output check catching its seeded corruption")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.stderr.write(f"perfbench: no pathalias sources under {ROOT}\n")
        return 2
    os.chdir(ROOT)
    bins = build()
    client.LAUNCHER = bins["perfbench_tool"]
    if args.self_test:
        import selftest
        try:
            return selftest.run(bins)
        finally:
            client.reap_all()

    stamp = fingerprint()
    print("fingerprint " + json.dumps(stamp))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        if not run_workload(name, args, bins, stamp):
            return 1
    return 0


def run_workload(name, args, bins, stamp):
    """Runs one workload and prints its report and result line; False if it crashed."""
    work = os.path.join(".bench_work", name)
    if os.path.exists(work):
        shutil.rmtree(work)
    os.makedirs(work)
    ctx = workloads.Context(bins=bins, work=work, seed=args.seed, seconds=args.seconds,
                            variant=args.variant)
    try:
        if args.trace:
            result = workloads.traced(ctx, name)
        else:
            result = workloads.WORKLOADS[name](ctx)
    except Exception:  # a crashed run reports itself, then fails
        traceback.print_exc()
        return False
    finally:
        client.reap_all()
    units = workloads.PER_LAYER if args.trace else END_TO_END
    for line in result.report:
        print(line)
    for problem in result.problems:
        print("CHECK FAILED: " + problem)
    for metric, value in result.metrics.items():
        print(f"{metric} {value} {units[metric]}")
    print(f"{name}: attempted {result.attempted}, failed {result.failed}")
    output = {"correct": not result.problems, "attempted": result.attempted,
              "failed": result.failed,
              "metrics": {metric: {"value": result.metrics[metric], "unit": unit}
                          for metric, unit in units.items()}}
    with open(os.path.join(work, "result.json"), "w") as f:
        json.dump({"fingerprint": stamp, "workload": name, "seed": args.seed,
                   "variant": args.variant, "report": result.report, **output}, f, indent=1)
    print(json.dumps(output))
    return True


if __name__ == "__main__":
    sys.exit(main())
