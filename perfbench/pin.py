"""Write perfbench/pinned.json: the frozen inputs and output digests.

    python3 perfbench/pin.py

Pins the sha256 of CLI stdout for every `enumerate` pool target, every
`construct` pool input and the two `verify-paper` examples, after checking
each answer with the oracle. Later changes must keep these outputs
byte-identical, so run this only to extend the pools, never to accept a
changed output. Construct inputs that fail today on the integer-string
digit limit are pinned without a digest; the oracle checks them once fixed.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import sys

import oracle
import run
import workloads

POOL_SEED = 20090213  # the construct pool is fixed, not drawn per run
POOL_PER_CLASS = 8
CONSTRUCT_LEVELS = {"lcm": range(2, 9), "product": range(2, 7)}

# Left out for run length only. Measured once each with `python3 -m
# orbichar enumerate --chi-es=T > /dev/null` on a 2-vCPU VM, Python 3.11.7.
ENUMERATE_EXCLUDED = {
    "-7/2": "26 s",
    "-4": "29 s",
    "-17/5": "379 s",
    "-35/12": "over 400 s (stopped)",
    "other targets in (-3, -8/3)": "not measured",
}
CONSTRUCT_EXCLUDED = {
    "product, L >= 7": "3.7 s for one L=7 input without --N",
}


def construct_pool() -> list[dict]:
    rng = random.Random(POOL_SEED)
    pool = []
    for mode, levels in CONSTRUCT_LEVELS.items():
        for level in levels:
            for _ in range(POOL_PER_CLASS):
                genus = rng.randint(0, 3)
                seeds = sorted(rng.sample(range(2, 201), 1 if level <= 2 else 2 ** (level - 2)))
                members = rng.choice([None, rng.randint(2, 6)])
                argv = ["construct", "--L", str(level), "--g", str(genus),
                        "--orders", ",".join(map(str, seeds)), "--equalize", mode]
                if members:
                    argv += ["--N", str(members)]
                pool.append({"argv": argv, "equalize": mode, "level": level,
                             "genus": genus, "members": members})
    return pool


def pin(client: run.Client, kind: str, argv, params=None) -> dict:
    req = workloads.Request(kind, tuple(argv), dict(params or {}))
    out = client.execute(req, 0)
    reason = client.check(req, 0, out)
    if reason == oracle.DIGIT_LIMIT:
        return {"sha256": None, "bytes": None}
    if reason is not None:
        raise SystemExit(f"refusing to pin {argv}: {reason}")
    return {"sha256": out.sha256, "bytes": out.nbytes}


def main() -> int:
    sys.path.insert(0, run.SRC)
    workdir = os.path.join(run.OUT, "pin")
    os.makedirs(workdir, exist_ok=True)
    try:
        client = run.Client(workdir)
        pinned = {
            "enumerate": {
                oracle.fmt(t): pin(client, "enumerate", ("enumerate", f"--chi-es={oracle.fmt(t)}"))
                for t in workloads.enumerate_pool()
            },
            "enumerate_excluded": ENUMERATE_EXCLUDED,
            "construct": [
                dict(entry, **pin(client, "construct", entry["argv"], dict(entry, sha256=None)))
                for entry in construct_pool()
            ],
            "construct_excluded": CONSTRUCT_EXCLUDED,
            "verify-paper": {
                name: pin(client, "verify-paper", ("verify-paper", name))
                for name in ("noneffective", "nonorientable")
            },
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(workloads.PINNED_PATH, "w", encoding="utf-8") as handle:
        json.dump(pinned, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
