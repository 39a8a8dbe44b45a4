"""Seeded request streams for the four benchmark workloads.

A stream is an endless sequence of cycles. Every cycle has the same mix of
request kinds; the seed picks the concrete inputs and their order. Where a
request's cost grows steeply with one input (cone order, group order,
corner order), that input is drawn stratified (see Spread), so that two
seeds put the same amount of work into a run.

Nothing here imports orbichar: the program only ever sees the generated
argv lists and library arguments.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice

from oracle import chi_levels, fmt, search_window_size

HERE = os.path.dirname(os.path.abspath(__file__))
PINNED_PATH = os.path.join(HERE, "pinned.json")


@dataclass(frozen=True)
class Request:
    """One client request: a CLI argv, in which "{tmp}" stands for the run's
    work directory and "{fpc}" for a fixed-point data file written there,
    or, for `mirrored`, a library call described by params. The params also
    hold what the oracle needs."""

    kind: str
    argv: tuple = ()
    params: dict = field(default_factory=dict)


def load_pinned() -> dict:
    with open(PINNED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def van_der_corput(i: int) -> float:
    x, f = 0.0, 0.5
    while i:
        if i & 1:
            x += f
        i >>= 1
        f /= 2
    return x


class Spread:
    """Stratified points in [0, 1) for an input whose cost grows steeply.

    Point i lies in stratum van_der_corput(i mod strata) of `strata` equal
    strata, at a seeded position in the middle quarter of it. Each block of
    `strata` points covers every stratum once and each prefix of a block is
    spread evenly, so seeds change the inputs but hardly the work they add
    up to, nor which inputs land at the tail percentile.
    """

    def __init__(self, rng: random.Random, strata: int):
        self.rng = rng
        self.strata = strata
        self.i = 0

    @property
    def block(self) -> int:
        """How many full blocks came before the next point."""
        return self.i // self.strata

    def next(self) -> float:
        base = van_der_corput(self.i % self.strata)
        self.i += 1
        return base + (0.375 + self.rng.random() / 4) / self.strata


def enumerate_pool() -> list[Fraction]:
    """Every p/q with q <= 12 in [-8/3, 2]: 216 targets."""
    return sorted(
        {Fraction(p, q) for q in range(1, 13) for p in range(-32, 25) if Fraction(-8, 3) <= Fraction(p, q) <= 2}
    )


# ---------------------------------------------------------------------------
# enumerate: one cycle is the whole pool in seeded order
# ---------------------------------------------------------------------------

def enumerate_cycles(seed: int, pinned: dict):
    rng = random.Random(seed)
    digests = pinned["enumerate"]
    targets = [fmt(t) for t in enumerate_pool()]
    while True:
        rng.shuffle(targets)
        yield [
            Request("enumerate", ("enumerate", f"--chi-es={t}"), dict(digests[t], target=t))
            for t in targets
        ]


# ---------------------------------------------------------------------------
# inverse: reconstruct on seeded signatures, plus search and malformed input
# ---------------------------------------------------------------------------

INVERSE_CYCLE = 50  # 1 large-order, 1 malformed, 1 search, 8 prefixes, 39 full

# Malformed inputs the CLI rejects with exit 2. A zero denominator is
# malformed too, but today it raises ZeroDivisionError (a known defect), so
# it is sent by the known-defect probe instead (see known_defect_requests).
MALFORMED = ("token", "odd-level-one", "shrinking-steps")

SEARCH_WINDOWS = sorted(
    (
        (g, k, m, level)
        for g in (0, 1)
        for k in (2, 3, 4)
        for m in range(6, 13)
        for level in (2, 3)
        if 200 <= search_window_size(g, k, m) <= 1350
    ),
    key=lambda w: (search_window_size(*w[:3]), w),
)


def _seq_argv(genus: int, cones, length: int) -> tuple:
    values = ",".join(fmt(v) for v in chi_levels(genus, cones, length))
    return ("reconstruct", f"--seq={values}")


def _small_signature(rng: random.Random):
    genus = rng.randint(0, 3)
    orders = [rng.randint(2, 60) for _ in range(rng.randint(1, 6))]
    cones = [(m, orders.count(m)) for m in sorted(set(orders))]
    return genus, cones


def _reconstruct(genus, cones, length, prefix=False) -> Request:
    params = {"genus": genus, "cones": cones, "prefix": prefix}
    return Request("reconstruct", _seq_argv(genus, cones, length), params)


def _large(rng: random.Random, spread: Spread) -> Request:
    # Blocks alternate one and two orders: at equal size two cost more.
    two = spread.block % 2 == 1
    top = round(10 ** (3 + 4 * spread.next()))
    orders = {top}
    if two:
        orders.add(round(10 ** (3 + rng.random() * (math.log10(top) - 3))))
    cones = [(m, rng.randint(1, 2)) for m in sorted(orders)]
    genus = rng.randint(0, 3)
    return _reconstruct(genus, cones, 2 * len(cones) + 1)


def _malformed(rng: random.Random, defect: str) -> Request:
    genus, cones = _small_signature(rng)
    values = [fmt(v) for v in chi_levels(genus, cones, 2 * len(cones) + 1)]
    if defect == "zero-denominator":
        values[rng.randrange(len(values))] = "1/0"
    elif defect == "token":
        values[rng.randrange(len(values))] = "x"
    elif defect == "odd-level-one":
        values[1] = str(int(values[1]) + 1)
    else:
        values[-1] = values[-2]
    return Request("malformed", ("reconstruct", "--seq=" + ",".join(values)), {"defect": defect})


def _search(spread: Spread) -> Request:
    g, k, m, level = SEARCH_WINDOWS[int(spread.next() * len(SEARCH_WINDOWS))]
    argv = ("search", "--g-max", str(g), "--k-max", str(k), "--m-max", str(m), "--L", str(level))
    return Request("search", argv, {"g_max": g, "k_max": k, "m_max": m, "level": level})


def inverse_cycles(seed: int, pinned: dict):
    rng = random.Random(seed)
    large, search = Spread(rng, 32), Spread(rng, 32)
    cycle = 0
    while True:
        malformed = _malformed(rng, MALFORMED[cycle % len(MALFORMED)])
        batch = [_large(rng, large), malformed, _search(search)]
        for i in range(INVERSE_CYCLE - len(batch)):
            genus, cones = _small_signature(rng)
            full = 2 * len(cones) + 1
            if i < 8:
                batch.append(_reconstruct(genus, cones, rng.randint(1, full - 1), prefix=True))
            else:
                batch.append(_reconstruct(genus, cones, full))
        rng.shuffle(batch)
        yield batch
        cycle += 1


# ---------------------------------------------------------------------------
# construct: pinned construct inputs, plus chi read-backs of their members
# ---------------------------------------------------------------------------

# (equalize, level) classes, one of each per cycle. Every input of these
# classes has a pinned digest. lcm L=8 and product L=6 fail today on the
# integer-string digit limit (a known defect) and are sent by the
# known-defect probe instead (see known_defect_requests).
CONSTRUCT_CLASSES = [("lcm", level) for level in range(2, 8)] + [
    ("product", level) for level in range(2, 6)
]
CHI_READS = 6
CHI_GAMMAS = ("trivial", "Z", "Z^2", "Z+Z/2", "Z/6", "F_2")


def _construct_request(entry: dict) -> Request:
    params = {k: entry[k] for k in ("level", "genus", "members", "sha256", "bytes")}
    return Request("construct", tuple(entry["argv"]), params)


def construct_cycles(seed: int, pinned: dict):
    rng = random.Random(seed)
    pool: dict[tuple, list] = {}
    for entry in pinned["construct"]:
        pool.setdefault((entry["equalize"], entry["level"]), []).append(entry)
    decks = {key: [] for key in pool}

    def draw(key):
        if not decks[key]:
            decks[key] = list(pool[key])
            rng.shuffle(decks[key])
        return decks[key].pop()

    index = 0
    while True:
        entries = [draw(key) for key in CONSTRUCT_CLASSES]
        rng.shuffle(entries)
        batch = []
        sources = []
        for entry in entries:
            req = _construct_request(entry)
            if entry["level"] <= 6:
                req.params["keep_members"] = True
                sources.append((index, entry))
            batch.append(req)
            index += 1
        for i in range(CHI_READS):
            source, entry = sources[rng.randrange(len(sources))]
            member = rng.randrange(entry["members"] or 2)
            path = f"{{tmp}}/member-{source}-{member}.json"
            params = {"source": source, "member": member}
            if i % 2 == 0:
                params["length"] = entry["level"]
                batch.append(Request("chi-seq", ("chi", "--sig", path, "--seq-len", str(entry["level"])), params))
            else:
                gamma = rng.choice(CHI_GAMMAS + (f"Z^{entry['level']}",))
                params["gamma"] = gamma
                batch.append(Request("chi-gamma", ("chi", "--sig", path, "--gamma", gamma), params))
            index += 1
        yield batch


# ---------------------------------------------------------------------------
# sectors: finite quotients, mirrored cylinders, paper checks, budget refusals
# ---------------------------------------------------------------------------

QUOTIENT_GAMMAS = ("trivial", "Z", "Z^2", "Z+Z/2", "Z/6", "F_2")


def group_order(name: str) -> int:
    order = 1
    for part in name.split("x"):
        order *= int(part[1:])
    return order


# Dihedral groups up to order 40 and direct products up to order 36, in
# order of size so that a spread draw covers small and large evenly.
IMAGE_GROUPS = sorted(
    [f"D{2 * n}" for n in range(2, 21)]
    + [
        "C2xC2", "C2xC3", "C2xC4", "C3xC3", "C2xC2xC2", "C2xC6", "C2xD6",
        "C3xC4", "C2xC2xC3", "C4xC4", "C2xC8", "C3xD6", "C2xC2xC4", "C2xD8",
        "C2xC10", "C2xD10", "C3xC6", "C4xC5", "C2xC12", "C3xD8", "C4xD6",
        "C2xC2xC6", "C5xC6", "C4xC8", "C2xC16", "C2xD16", "C3xC9", "C3xD12",
        "C6xC6", "D6xD6", "C3xC12", "D12xC3", "C2xC2xC9",
    ],
    key=lambda name: (group_order(name), name),
)
FPC_CHIS = (-2, 0, 1, 2, 3)


def _rotation(spread: Spread, gamma: str) -> Request:
    top = 12 if gamma == "Z^3" else 60
    n = 2 + int(spread.next() * (top - 1))
    argv = ("quotient", "--group", f"C{n}", "--fpc", "{fpc}", "--gamma", gamma)
    return Request("quotient-rotation", argv, {"n": n, "gamma": gamma})


def _images(rng, spread: Spread, gamma: str) -> Request:
    groups = [g for g in IMAGE_GROUPS if gamma != "Z^3" or group_order(g) <= 12]
    group = groups[int(spread.next() * len(groups))]
    chis = [rng.choice(FPC_CHIS) for _ in range(8)]
    argv = ("quotient", "--group", group, "--fpc", "{fpc}", "--gamma", gamma)
    return Request("quotient-images", argv, {"group": group, "gamma": gamma, "chis": chis})


def _mirrored(rng, spread: Spread, gamma: str) -> Request:
    # The largest corner sets the cost (about its cube); the others are small.
    top = 5 if gamma == "Z^3" else 61
    largest = 3 + 2 * int(spread.next() * (top - 1) / 2)
    corners = [largest] + [rng.randrange(3, min(largest, 11) + 1, 2) for _ in range(rng.randint(0, 2))]
    rng.shuffle(corners)
    cut = rng.randint(0, len(corners))
    params = {"boundary0": corners[:cut], "boundary1": corners[cut:], "gamma": gamma}
    return Request("mirrored", (), params)


def _over_budget(rng) -> Request:
    group = rng.choice(["C30", "C60", "D40", "C6xC6", "D36"])
    gamma = rng.choice(["Z^5", "F_5", "Z^4+Z/2"])
    argv = ("quotient", "--group", group, "--fpc", "{fpc}", "--gamma", gamma)
    return Request("over-budget", argv, {"gamma": gamma})


def sectors_cycles(seed: int, pinned: dict):
    """Per cycle: six rotation quotients (Z^2 and F_2, whose cost grows with
    n cubed, take turns), four image quotients, two mirrored cylinders, both
    paper checks and one budget refusal. The tail percentile then falls
    among the nonorientable paper checks, which are alike in cost, rather
    than between two steps of the cubic cost curve."""
    rng = random.Random(seed)
    gammas = QUOTIENT_GAMMAS + ("Z^3",)
    rotation = {gamma: Spread(rng, 16) for gamma in gammas}
    images = {gamma: Spread(rng, 16) for gamma in gammas}
    mirrored = {gamma: Spread(rng, 8) for gamma in gammas}
    cycle = 0
    slot = 0  # images and mirrored requests walk through the gammas in turn
    while True:
        cubic = ("Z^2", "F_2")[cycle % 2]
        batch = [_rotation(rotation[g], g) for g in gammas if g not in ("Z^2", "F_2")]
        batch.append(_rotation(rotation[cubic], cubic))
        for _ in range(4):
            gamma = gammas[slot % len(gammas)]
            batch.append(_images(rng, images[gamma], gamma))
            slot += 1
        for _ in range(2):
            gamma = gammas[slot % len(gammas)]
            batch.append(_mirrored(rng, mirrored[gamma], gamma))
            slot += 1
        for example in ("noneffective", "nonorientable"):
            batch.append(Request("verify-paper", ("verify-paper", example), dict(pinned["verify-paper"][example])))
        batch.append(_over_budget(rng))
        rng.shuffle(batch)
        yield batch
        cycle += 1


WORKLOADS = {
    "enumerate": enumerate_cycles,
    "inverse": inverse_cycles,
    "construct": construct_cycles,
    "sectors": sectors_cycles,
}

# Requests in one traced run: about half an untraced run's work.
TRACE_REQUESTS = {"enumerate": 108, "inverse": 800, "construct": 480, "sectors": 100}


# How many inputs of each known-defect class one run sends.
KNOWN_PER_CLASS = 2


def known_defect_requests(workload: str, seed: int, pinned: dict) -> list[Request]:
    """Inputs that hit a known defect today, sent once per run outside the
    measured stream: a fix then shows as a request that passes, and the
    measured stream stays the same work before and after it.

    inverse: reconstruct with a zero denominator (ZeroDivisionError).
    construct: pinned lcm L=8 and product L=6 inputs (integer-string digit
    limit; pinned without a digest, so the closed form checks them).
    """
    rng = random.Random(seed)
    if workload == "inverse":
        return [_malformed(rng, "zero-denominator") for _ in range(KNOWN_PER_CLASS)]
    if workload == "construct":
        reqs = []
        for key in (("lcm", 8), ("product", 6)):
            entries = [e for e in pinned["construct"] if (e["equalize"], e["level"]) == key]
            reqs += [_construct_request(e) for e in rng.sample(entries, KNOWN_PER_CLASS)]
        return reqs
    return []


def requests(workload: str, seed: int, pinned: dict, count: int) -> list[Request]:
    """The first `count` requests of a workload's stream."""
    stream = (req for cycle in WORKLOADS[workload](seed, pinned) for req in cycle)
    return list(islice(stream, count))
