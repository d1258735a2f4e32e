#!/usr/bin/env python3
"""adaptsim benchmark.

Builds the benchmark binary (perfbench/CMakeLists.txt, which compiles
the adaptsim library from src/) in Release mode, runs one workload
and prints, as the last line of stdout, one JSON object with the keys
correct, attempted, failed and metrics.

    python3 perfbench/run.py --workload fig4-cold --seed 1 \
        --seconds 20 --trace 0

Run it from the repository root.  The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) and every
data dir a run writes lives under $CARGO_TARGET_DIR/perfbench-runs and
is removed afterwards.  No ADAPTSIM_* variable reaches the binary, and
the run fails if it changed any file of the tree's subdirectories
(data/ included) outside the build directory.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("fig4-cold", "fig4-warm", "chip-adapt")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build_root():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"))


def build(jobs):
    """Configure (once) and build the binary; returns its path."""
    out = os.path.join(build_root(), "perfbench")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            return None
    cmd = ["cmake", "--build", out, "-j", str(jobs)]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(out, "adaptsim_perfbench")


def tree_files(skip):
    """The files a run must leave byte-identical, as relative paths:
    every file in a subdirectory of the checkout (data/ included)
    outside @skip, and BENCHMARK.json.  Other top-level files are left
    out so that a caller may log the run next to the checkout's
    root files."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        res = subprocess.run(
            ["git", "ls-files", "-z", "--cached", "--others",
             "--exclude-standard"],
            cwd=ROOT, stdout=subprocess.PIPE, check=True)
        files = [p for p in res.stdout.decode().split("\0")
                 if p and os.path.lexists(os.path.join(ROOT, p))]
        return sorted(p for p in files if checked(p))
    files = []
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = [d for d in dirnames
                       if os.path.join(dirpath, d) != skip and d != ".git"]
        for f in filenames:
            files.append(os.path.relpath(os.path.join(dirpath, f), ROOT))
    return sorted(p for p in files if checked(p))


def checked(rel):
    return "/" in rel or rel == "BENCHMARK.json"


def file_hashes(files):
    hashes = {}
    for rel in files:
        with open(os.path.join(ROOT, rel), "rb") as f:
            hashes[rel] = hashlib.sha256(f.read()).hexdigest()
    return hashes


def source_id(hashes):
    h = hashlib.sha256()
    for rel in sorted(hashes):
        if rel.startswith(("src/", "perfbench/")):
            h.update((rel + "\0" + hashes[rel]).encode())
    ident = "src-" + h.hexdigest()[:12]
    if os.path.isdir(os.path.join(ROOT, ".git")):
        res = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             cwd=ROOT, stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL)
        if res.returncode == 0:
            ident += ",commit-" + res.stdout.decode().strip()
    return ident


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=2010)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--print-digests", action="store_true",
                    help="print every output digest (for freezing)")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no adaptsim sources next to perfbench/; nothing to build")
        return 3
    expected = expected_metrics(args.trace)

    jobs = max(1, min(4, os.cpu_count() or 1))
    binary = build(jobs)
    if binary is None:
        log("build failed")
        return 3

    skip = os.path.normpath(build_root())
    tree_before = file_hashes(tree_files(skip))
    data_root = os.path.join(build_root(), "perfbench-runs",
                             "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(data_root, ignore_errors=True)
    os.makedirs(data_root)

    env = {k: v for k, v in os.environ.items()
           if not k.startswith("ADAPTSIM_")}
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--data-root", data_root,
           "--digests", os.path.join(HERE, "digests.txt"),
           "--source-id", source_id(tree_before)]
    if args.print_digests:
        cmd.append("--print-digests")
    proc = subprocess.Popen(cmd, cwd=data_root, env=env,
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log("benchmark binary exceeded %d s" % RUN_TIMEOUT_S)
        return 4
    finally:
        shutil.rmtree(data_root, ignore_errors=True)

    lines = out.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("benchmark binary exited %d without a result" % proc.returncode)
        return 4

    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    if printed != expected:
        log("metrics differ from BENCHMARK.json: %s"
            % sorted(set(printed.items()) ^ set(expected.items())))
        return 4

    # The tree (committed data/ included) must be byte-identical.
    tree_after = file_hashes(tree_files(skip))
    changed = sorted(p for p in tree_before.keys() | tree_after.keys()
                     if tree_before.get(p) != tree_after.get(p))
    if changed:
        log("the run changed %d file(s) of the tree: %s"
            % (len(changed), changed[:10]))
        result["correct"] = False

    print(json.dumps(result))
    ok = result["correct"] and result["failed"] == 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
