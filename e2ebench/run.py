#!/usr/bin/env python3
"""Build and run balbench's end-to-end benchmark (see README.md here).

Run from the repository root:

  python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 e2ebench/run.py --selftest            # seconds-scale self-test
  python3 e2ebench/run.py --write-references    # regenerate references.json

The benchmark is compiled as its own CMake package (Release) into
$CARGO_TARGET_DIR/e2ebench, default .bench_build/e2ebench; build output
goes to stderr so the result stays the last line of stdout.  Scratch
files (the sweep's journals, trace files) go to .bench_work.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(env):
    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(build_root, "e2ebench")
    # Keep the compiler's temporary files inside the build tree.
    env["TMPDIR"] = os.path.join(build_dir, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs], stdout=sys.stderr,
                   check=True, env=env)
    return os.path.join(build_dir, "balbench_e2e")


def main():
    env = dict(os.environ)
    # The provenance stamp asks git for the revision; never let it search
    # the directories above this checkout.
    env["GIT_CEILING_DIRECTORIES"] = os.path.dirname(ROOT)
    try:
        binary = build(env)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"e2ebench: build failed: {e}", file=sys.stderr)
        return 1
    # The binary reads e2ebench/references.json and writes .bench_work/
    # relative to the repository root.
    return subprocess.run([binary, *sys.argv[1:]], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
