#!/usr/bin/env python3
"""Build and run the Converse benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload fanin|halo|tasks_sim|wire|all \
        --seed N --seconds S --trace 0|1

Run from the repository root.  Builds the runtime library and the
perfbench program from source (optimized, checks off) into
$CARGO_TARGET_DIR or .bench_build, runs one workload (or all four, one
after another, in one perfbench process), and passes its output through.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Any failure to build or run
exits non-zero without printing that line.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fanin", "halo", "tasks_sim", "wire", "all")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_root):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the Converse sources (src/) are not next to perfbench/")
    os.makedirs(build_root, exist_ok=True)
    build_dir = os.path.join(build_root, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def run(cmd, env):
    """Run perfbench in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out = None
    # A perfbench that died or hung may leave its forked wire processes.
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    if out is None:
        proc.communicate()
        fail(f"perfbench exceeded {RUN_TIMEOUT_S} s")
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build_root = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_root)

    # CONVERSE_* variables would change the measured program (or, for
    # CONVERSE_NODE, turn it into one rank of a multi-process job): the
    # program fixes every knob itself, so they are recorded and removed.
    env = dict(os.environ)
    scrubbed = sorted(k for k in env if k.startswith("CONVERSE_"))
    for k in scrubbed:
        del env[k]
    print("scrubbed_env " + json.dumps(scrubbed))

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           # Relative: Unix socket paths must stay short.
           "--rundir", os.path.relpath(build_root, ROOT)]
    if args.trace:
        traces = os.path.join(build_root, "traces")
        os.makedirs(traces, exist_ok=True)
        name = f"{args.workload}-seed{args.seed}"
        # With "all" perfbench appends .<workload>.json per workload.
        cmd += ["--trace-out", os.path.join(
            traces, name if args.workload == "all" else name + ".json")]
    code, out = run(cmd, env)
    lines = out.rstrip("\n").split("\n")
    if code != 0:
        sys.stdout.write(out if code == 3 else "")
        fail(f"perfbench exited with code {code}")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail("perfbench printed no result line")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line")
    sys.stdout.write(out if out.endswith("\n") else out + "\n")


if __name__ == "__main__":
    main()
