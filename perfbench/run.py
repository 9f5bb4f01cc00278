#!/usr/bin/env python3
"""Run one jroute benchmark workload on XCV1000.

    python3 perfbench/run.py --workload session_service --seed 1 \
        --seconds 25 --trace 0
    python3 perfbench/run.py --selftest

Builds the program from the checkout's sources into .bench_build/ (or
$CARGO_TARGET_DIR when set), runs the workload once and prints its report.
The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}} with the
end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
--selftest runs the benchmark's own tests, which show that every
correctness check fails when its expectation is broken.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("session_service", "session_direct", "long_service")
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, d)


def child_env():
    # The program reads arming switches (JROUTE_DRC_PARANOID, JROUTE_PROF,
    # ...) from the environment; none may leak into a measurement. An
    # empty JROUTE_BENCH_RECORD keeps any run-record writer off the
    # tracked BENCH_service.json.
    env = {k: v for k, v in os.environ.items() if not k.startswith("JROUTE_")}
    env["JROUTE_BENCH_RECORD"] = ""
    return env


def build(out):
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "perfbench_build.log")
    with open(log_path, "w") as log:
        def step(cmd):
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                               cwd=ROOT) != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed: " + " ".join(cmd))

        configured = any(os.path.exists(os.path.join(out, f))
                         for f in ("build.ninja", "Makefile"))
        if not configured:
            cmd = ["cmake", "-S", HERE, "-B", out,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            step(cmd)
        step(["cmake", "--build", out, "--target", "perfbench_run",
              "perfbench_selftest", "-j", str(os.cpu_count() or 1)])


def last_json(stdout):
    lines = [l for l in stdout.splitlines() if l.strip()]
    if not lines:
        return None
    try:
        obj = json.loads(lines[-1])
    except ValueError:
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    return obj if isinstance(obj, dict) and set(obj) == keys else None


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--plan-threads", type=int, default=0,
                   help="service planning threads (0: the thread budget)")
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if not args.selftest and args.workload is None:
        p.error("--workload is required")

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src"))):
        fail("the jroute program is missing: expected its CMakeLists.txt "
             "and src/ next to perfbench/ in " + ROOT, code=2)

    out = build_dir()
    build(out)

    if args.selftest:
        sys.exit(subprocess.call([os.path.join(out, "perfbench_selftest")],
                                 env=child_env(), cwd=ROOT))

    cmd = [os.path.join(out, "perfbench_run"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--plan-threads", str(args.plan_threads)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=child_env(),
                              cwd=ROOT, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run timed out after %d s" % RUN_TIMEOUT_S)
    result = last_json(proc.stdout)
    body = proc.stdout.splitlines()
    for line in body[:-1] if result else body:
        print(line)
    if result is None:
        fail("the run printed no result (exit code %d)" % proc.returncode)
    if proc.returncode != 0 or not result["correct"]:
        print(json.dumps(result))
        fail("a correctness check failed (exit code %d)" % proc.returncode)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
