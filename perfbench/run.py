#!/usr/bin/env python3
"""Runs one perfbench workload and prints its result as the last line.

    python3 perfbench/run.py --workload stl_table --seed 0 --seconds 10 --trace 0

Run it from anywhere inside a checkout of the repository. Each run:

1. builds the gpustl libraries, gpustld and the perfbench runner in Release
   mode into .bench_build/ (incremental after the first run);
2. generates the seed-independent ATPG inputs once per source tree into
   .bench_build/inputs/<source digest>/ (about 30 s, outside every metric);
3. empties .bench_work/<workload>/ so that no run inherits a store,
   distrib dir or daemon state;
4. runs the workload, forwards its output, checks the campaign report
   against perfbench/golden.json, and prints the result line last.

Any build failure, report mismatch or invalid run exits non-zero without
a result line. See perfbench/README.md for the workloads and metrics.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
BUILD = os.path.join(REPO, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
WORKLOADS = ("stl_table", "service_mix", "distrib_fleet")
GOLDEN = os.path.join(HERE, "golden.json")
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def nproc():
    return len(os.sched_getaffinity(0))


def run_quiet(cmd):
    """Runs a build step, showing its output only when it fails."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-8000:])
        fail("build step failed: " + " ".join(cmd), 2)


def build():
    if not os.path.isfile(os.path.join(REPO, "src", "CMakeLists.txt")):
        fail("no gpustl sources next to perfbench/ (expected src/)", 2)
    if shutil.which("cmake") is None:
        fail("cmake not found", 2)
    if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", CMAKE_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd)
    run_quiet(["cmake", "--build", CMAKE_DIR, "-j", str(nproc()),
               "--target", "perfbench", "gpustld"])
    return (os.path.join(CMAKE_DIR, "perfbench"),
            os.path.join(CMAKE_DIR, "gpustl_tools", "gpustld"))


def source_digest():
    """Digest of every file the generated inputs depend on."""
    h = hashlib.sha256()
    for top in ("src", "bench", os.path.join("perfbench", "src")):
        for dirpath, dirnames, filenames in os.walk(os.path.join(REPO, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, REPO).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def inputs(runner):
    """The ATPG-derived PTPs, generated once per source tree."""
    root = os.path.join(BUILD, "inputs")
    final = os.path.join(root, source_digest())
    if os.path.isdir(final):
        return final
    tmp = final + ".tmp.%d" % os.getpid()
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    proc = subprocess.run([runner, "gen-inputs", "--inputs", tmp],
                          stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        fail("input generation failed")
    os.rename(tmp, final)
    return final


def run_workload(cmd):
    """Runs the workload runner in its own process group, forwards every
    output line but the result line, and returns the parsed result."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("workload timed out after %d s" % RUN_TIMEOUT_S)
    finally:
        # The runner reaps gpustld and its forked workers itself; this only
        # catches stragglers of a runner that died abnormally.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if proc.returncode != 0:
        fail("workload exited with code %d" % proc.returncode, proc.returncode)
    try:
        return json.loads(lines[-1])
    except ValueError:
        fail("workload printed no result line")


def check_golden(workload, seed, report_path):
    """stl_table and distrib_fleet render the same report; both must match
    the committed digest of their seed, when one is committed."""
    if workload == "service_mix":
        return
    with open(report_path, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()
    with open(GOLDEN) as f:
        table = json.load(f)["stl_table_report_sha256"]
    expected = table.get(str(seed))
    if expected is None:
        print("report digest %s (no golden digest for seed %d)" % (digest, seed))
    elif expected != digest:
        fail("campaign report for seed %d does not match the golden digest "
             "(%s, expected %s); see %s" % (seed, digest, expected,
                                            report_path))
    else:
        print("report digest matches the golden digest for seed %d" % seed)


def check_names(result, trace):
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        bench = json.load(f)
    wanted = [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]
    if sorted(result["metrics"]) != sorted(wanted):
        fail("result metrics do not match BENCHMARK.json")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0", 2)

    runner, gpustld = build()
    inputs_dir = inputs(runner)
    work = os.path.join(REPO, ".bench_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    result = run_workload([
        runner, args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
        "--inputs", inputs_dir, "--work", work, "--gpustld", gpustld,
        "--nproc", str(nproc())])
    check_golden(args.workload, args.seed, os.path.join(work, "report.txt"))
    check_names(result, args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
