#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds perfbench (Release, library targets
only) under $CARGO_TARGET_DIR, or .bench_build when unset, runs the
requested workload and relays its output. The last line of stdout is the
result JSON; before it come the program description (nproc, compiler)
and the commit and source digest of the measured code. Exits non-zero,
printing no result, when the checkout holds no library sources, the build
fails, the program fails, or its metrics disagree with BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("solve-forest", "solve-gadget", "mpc-sim", "serve-churn")
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_base():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return base if base.is_absolute() else ROOT / base


def build(build_dir):
    """Configure once, then build the perfbench target (a no-op when current)."""
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(build_dir)]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_quiet(configure, "configure")
    jobs = str(min(os.cpu_count() or 1, 4))
    run_quiet(["cmake", "--build", str(build_dir), "--target", "perfbench",
               "--parallel", jobs], "build")
    return build_dir / "perfbench"


def run_quiet(command, what):
    result = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    if result.returncode != 0:
        sys.stderr.write(result.stdout + result.stderr)
        fail(f"{what} failed")


def source_digest():
    """sha256 over the library and benchmark sources: names the measured code
    in checkouts that are not git repositories."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit():
    if not (ROOT / ".git").exists():
        return "none"
    result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True)
    return result.stdout.strip() if result.returncode == 0 else "none"


def check_metrics(result, trace):
    """The program's metric set must be exactly BENCHMARK.json's for the mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        fail(f"metrics disagree with BENCHMARK.json: missing {missing}, extra {extra}, "
             f"or units differ")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").exists():
        fail(f"no library sources under {ROOT / 'src'}; run from a full checkout", 2)
    base = build_base()
    binary = build(base / "perfbench")
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--work-dir", str(base / "inputs")]
    try:
        result = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(result.stderr)
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        fail(f"{args.workload} exited with code {result.returncode}")
    check_metrics(json.loads(lines[-1]), args.trace == "1")
    print(f"# commit={commit()} src_sha256={source_digest()}")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
