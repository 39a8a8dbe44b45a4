"""Record one point of the performance trajectory in BENCH_<pr>.json.

    python3 bench/record.py <pr-number>

Run from the root of a source checkout. It runs the benchmark declared in
`BENCHMARK.json` once per workload (seed 1, the declared `run_seconds`,
untraced) and then the tier-1 test command, and writes `BENCH_<pr>.json`
at the root: each workload's end-to-end metrics with `correct`,
`attempted`, `failed`, and the percentile and sample count behind
`latency_tail_ms`; the tier-1 wall time and outcome, the total line
count of `src/orbichar/*.py` (`src_lines`) and each module's share of it
(`src_lines_by_module`), the Python version, the CPU count and the git
SHA of the checkout. It also writes `layers`, the per-layer timings on
fixed inputs that `bench/layers.py` measures (see there). Standard
library only; nothing under `perfbench/` is changed.
"""

from __future__ import annotations

import glob
import json
import os
import platform
import subprocess
import sys
import time

import layers

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 1
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def run_workload(command: list[str], workload: str, seconds: float) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(SEED),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    *_, report_line, result_line = done.stdout.splitlines()
    latency = json.loads(report_line)["report"]["latency"]
    result = json.loads(result_line)
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "tail_percentile": latency["tail_percentile"],
        "samples": latency["samples"],
    }


def src_lines_by_module() -> dict[str, int]:
    counts = {}
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "orbichar", "*.py"))):
        with open(path, encoding="utf-8") as handle:
            counts[os.path.basename(path)[: -len(".py")]] = sum(1 for _ in handle)
    return counts


def run_tier1() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    start = time.perf_counter()
    done = subprocess.run(TIER1, cwd=ROOT, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    lines = done.stdout.strip().splitlines()
    return {"wall_s": wall, "exit_code": done.returncode, "summary": lines[-1] if lines else ""}


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not argv[0].isdigit():
        print("usage: python3 bench/record.py <pr-number>", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    seconds = spec["run_seconds"]
    by_module = src_lines_by_module()
    record = {
        "pr": int(argv[0]),
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": bool(_git("status", "--porcelain", "--untracked-files=no")),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": SEED,
        "run_seconds": seconds,
        "src_lines": sum(by_module.values()),
        "src_lines_by_module": by_module,
        "workloads": {},
    }
    for workload in spec["workloads"]:
        name = workload["name"]
        print(f"bench: {name} ...", file=sys.stderr, flush=True)
        record["workloads"][name] = run_workload(spec["command"], name, seconds)
    print("bench: layers ...", file=sys.stderr, flush=True)
    record["layers"] = layers.measure()
    print("bench: tier-1 tests ...", file=sys.stderr, flush=True)
    record["tier1"] = run_tier1()
    path = os.path.join(ROOT, f"BENCH_{argv[0]}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
