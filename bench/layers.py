"""Time library layers on fixed inputs, for the `layers` object that record.py writes.

    python3 bench/layers.py

Run from anywhere; it imports orbichar from the `src` directory of its own
checkout and prints the `layers` object as JSON. `bench/record.py` calls
`measure()` and stores the same object. For each layer and each of its
fixed inputs, an entry holds:

- `ms`: the median over ROUNDS rounds of the best of REPEATS
  `time.process_time()` timings of NUMBER calls, in milliseconds per call;
- `iqr_ms`: the distance between the quartiles of those ROUNDS values;
- `sha256`: the digest of the call's output as compact JSON, so that a
  changed result shows next to a changed time.

Layers so far: `group_by_name` on C60, D40, D12xC3 and C6xC6, each output
written with `FiniteGroup.to_json()`. Standard library only.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from orbichar import group_by_name  # noqa: E402

ROUNDS, REPEATS, NUMBER = 9, 10, 20
GROUP_NAMES = ("C60", "D40", "D12xC3", "C6xC6")


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value, separators=(",", ":")).encode()).hexdigest()


def time_call(call) -> dict:
    """Median and quartile spread over rounds of the best-of-REPEATS time
    of NUMBER calls, in ms per call."""
    rounds = []
    for _ in range(ROUNDS):
        best = float("inf")
        for _ in range(REPEATS):
            start = time.process_time()
            for _ in range(NUMBER):
                call()
            best = min(best, time.process_time() - start)
        rounds.append(best / NUMBER * 1e3)
    q1, _, q3 = statistics.quantiles(rounds, n=4)
    return {"ms": statistics.median(rounds), "iqr_ms": q3 - q1}


def measure() -> dict:
    groups = {}
    for name in GROUP_NAMES:
        entry = time_call(lambda name=name: group_by_name(name))
        entry["sha256"] = _digest(group_by_name(name).to_json())
        groups[name] = entry
    return {
        "group_by_name": {
            "unit": "ms per call",
            "rounds": ROUNDS,
            "repeats": REPEATS,
            "number": NUMBER,
            "inputs": groups,
        }
    }


if __name__ == "__main__":
    json.dump(measure(), sys.stdout, indent=1)
    sys.stdout.write("\n")
