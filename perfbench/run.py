#!/usr/bin/env python3
"""Build and run the pim-nw benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (the libraries under src/
plus the benchmark program) as Release into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset, then runs one workload in a
process of its own. The last stdout line is the result JSON; its metric
names and units are checked against BENCHMARK.json.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Per-layer metrics of layers a workload never calls report 0: pairwise_long
# bypasses service, dispatch and session; allvsall_16s bypasses service and
# dispatch; serve_mixed never opens a session.
BYPASSED = {
    "pairwise_long": ("service.", "dispatch.", "backend.", "session.",
                      "loadgen."),
    "allvsall_16s": ("service.", "dispatch.", "backend.", "loadgen."),
    "serve_mixed": ("session.",),
}

CHILD_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def source_revision():
    """Commit SHA when run in a git checkout, else a digest of the sources."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                                 cwd=ROOT, capture_output=True, text=True,
                                 timeout=10)
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/CMakeLists.txt next to perfbench/: run from a full "
             "checkout of the repository")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release",
         "-DPIMNW_GIT_SHA=" + source_revision()],
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench"],
    ]
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))
    return build_dir


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json not found at the repository root")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail("unknown workload " + args.workload)
    if args.seed < 0:
        fail("--seed must be a non-negative integer")

    build_dir = build()
    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        command += ["--spans", os.path.join(
            build_dir, "spans-%s-seed%d.json" % (args.workload, args.seed))]
    child = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True)
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        fail("%s did not finish within %d s"
             % (args.workload, CHILD_TIMEOUT_S))
    lines = stdout.rstrip("\n").split("\n")
    if child.returncode != 0 or not lines[-1].startswith("{"):
        sys.stdout.write(stdout)
        sys.exit(child.returncode or 1)

    result = json.loads(lines[-1])
    wanted = spec["per_layer" if args.trace == "1" else "end_to_end"]
    metrics = result["metrics"]
    extra = set(metrics) - {m["name"] for m in wanted}
    if extra:
        fail("metrics missing from BENCHMARK.json: "
             + ", ".join(sorted(extra)))
    ordered = {}
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            bypassed = BYPASSED[args.workload]
            if args.trace == "1" and m["name"].startswith(bypassed):
                got = {"value": 0.0, "unit": m["unit"]}
            else:
                fail("%s did not report %s" % (args.workload, m["name"]))
        if got["unit"] != m["unit"]:
            fail("%s is in %s, BENCHMARK.json says %s"
                 % (m["name"], got["unit"], m["unit"]))
        ordered[m["name"]] = got
    result["metrics"] = ordered
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
