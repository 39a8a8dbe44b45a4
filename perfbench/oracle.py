"""Correctness oracle for benchmark requests, independent of orbichar.

Every value is recomputed here from the closed forms, in plain ints and
Fractions, or by brute force over small finite groups. Nothing in this
module imports orbichar, so a defect in the program cannot hide in its own
checker.

`verdict(request, outcome)` returns None for a correct answer and a reason
tag otherwise. Reasons that start with "known:" mark the robustness
defects listed in ROADMAP.md. Inputs that hit them are sent only by the
known-defect probe, outside the measured stream; a known failure there
leaves the run correct.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import product
from math import comb, gcd

KNOWN = "known:"
ZERO_DENOMINATOR = KNOWN + "zero-denominator-traceback"
DIGIT_LIMIT = KNOWN + "int-str-digit-limit"


def fmt(value) -> str:
    """Rational in the CLI's text form: "p/q", or "p" for an integer."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


# ---------------------------------------------------------------------------
# Closed forms on (genus, [(order, count), ...])
# ---------------------------------------------------------------------------

def chi_levels(genus: int, cones, length: int) -> list[Fraction]:
    """Levels 0..length of 2 - 2g - k + sum(count * m**(l-1))."""
    base = 2 - 2 * genus - sum(count for _, count in cones)
    values = [Fraction(base) + sum(Fraction(count, order) for order, count in cones)]
    for level in range(1, length + 1):
        values.append(Fraction(base + sum(count * order ** (level - 1) for order, count in cones)))
    return values


def parse_gamma(spec: str):
    """("free", k) for "F_k"; ("abelian", rank, torsion) otherwise."""
    if spec == "trivial":
        return ("abelian", 0, ())
    if spec.startswith("F_"):
        return ("free", int(spec[2:]))
    rank, torsion = 0, []
    for part in spec.split("+"):
        if part == "Z":
            rank += 1
        elif part.startswith("Z^"):
            rank += int(part[2:])
        elif part.startswith("Z/"):
            torsion.append(int(part[2:]))
        else:
            raise ValueError(f"unknown group spec part {part!r}")
    return ("abelian", rank, tuple(torsion))


def hom_count_cyclic(spec: str, n: int) -> int:
    """|Hom(gamma, Z/n)|: n**rank * prod(gcd(d, n)); n**k for F_k."""
    gamma = parse_gamma(spec)
    if gamma[0] == "free":
        return n ** gamma[1]
    count = n ** gamma[1]
    for d in gamma[2]:
        count *= gcd(d, n)
    return count


def chi_gamma(genus: int, cones, spec: str) -> Fraction:
    base = 2 - 2 * genus - sum(count for _, count in cones)
    return base + sum(Fraction(count * hom_count_cyclic(spec, m), m) for m, count in cones)


def rotation_quotient(n: int, spec: str) -> Fraction:
    """Sector sum of Z/n rotating the sphere: 2 * |Hom(gamma, Z/n)| / n."""
    return Fraction(2 * hom_count_cyclic(spec, n), n)


def mirrored_value(corners, spec: str) -> Fraction:
    """chi_ES + sum((|Hom(gamma, Z/n)| - 1) / (2n)) over the odd corners."""
    chi_es = -Fraction(1, 2) * sum(1 - Fraction(1, n) for n in corners)
    return chi_es + sum(Fraction(hom_count_cyclic(spec, n) - 1, 2 * n) for n in corners)


def signature_json(genus: int, cones) -> dict:
    merged: dict[int, int] = {}
    for order, count in cones:
        merged[order] = merged.get(order, 0) + count
    return {
        "genus": genus,
        "cones": [{"order": m, "count": str(c)} for m, c in sorted(merged.items())],
    }


def _cones_of(member: dict):
    return [(entry["order"], int(entry["count"])) for entry in member["cones"]]


# ---------------------------------------------------------------------------
# Brute force: collision search windows
# ---------------------------------------------------------------------------

def _multisets(k: int, lo: int, hi: int):
    if k == 0:
        yield ()
        return
    for m in range(lo, hi + 1):
        for rest in _multisets(k - 1, m, hi):
            yield (m,) + rest


def search_groups(genus_max: int, count_max: int, order_max: int, level: int) -> list:
    """Collision groups of a window, canonicalized for comparison."""
    buckets: dict[tuple, list] = {}
    for genus in range(genus_max + 1):
        for k in range(count_max + 1):
            for orders in _multisets(k, 2, order_max):
                cones = [(m, orders.count(m)) for m in sorted(set(orders))]
                key = tuple(fmt(v) for v in chi_levels(genus, cones, level))
                buckets.setdefault(key, []).append(signature_json(genus, cones))
    return sorted(
        (list(values), sorted(sigs, key=json.dumps))
        for values, sigs in buckets.items()
        if len(sigs) >= 2
    )


def search_window_size(genus_max: int, count_max: int, order_max: int) -> int:
    """Number of signatures a window visits."""
    return (genus_max + 1) * sum(comb(order_max - 2 + j, j) for j in range(count_max + 1))


# ---------------------------------------------------------------------------
# Brute force: finite groups named as orbichar names them
# ---------------------------------------------------------------------------

class Group:
    """Multiplication on indices 0..order-1, with orbichar's index layout:
    Cn has i = r^i; D2n has r^i at i and s*r^i at n+i; in AxB the pair
    (x, y) sits at x*|B| + y."""

    def __init__(self, name: str):
        factors = []
        for part in name.split("x"):
            size = int(part[1:])
            if part[0] == "C":
                factors.append(_cyclic_table(size))
            elif part[0] == "D":
                factors.append(_dihedral_table(size // 2))
            else:
                raise ValueError(f"unknown group factor {part!r}")
        table = factors[0]
        for other in factors[1:]:
            nb = len(other)
            table = [
                [table[x1][x2] * nb + other[y1][y2] for x2 in range(len(table)) for y2 in range(nb)]
                for x1 in range(len(table))
                for y1 in range(nb)
            ]
        self.table = table
        self.order = len(table)
        self._closures: dict[frozenset, frozenset] = {}

    def closure(self, gens: frozenset) -> frozenset:
        if gens not in self._closures:
            seen = {0}
            frontier = [0]
            while frontier:
                frontier = [
                    self.table[a][g] for a in frontier for g in gens if self.table[a][g] not in seen
                ]
                seen.update(frontier)
            self._closures[gens] = frozenset(seen)
        return self._closures[gens]

    def power_is_identity(self, x: int, d: int) -> bool:
        value = 0
        for _ in range(d):
            value = self.table[value][x]
        return value == 0


def _cyclic_table(n: int):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def _dihedral_table(n: int):
    def mul(a, b):
        sa, ia = divmod(a, n)
        sb, ib = divmod(b, n)
        if not sa:
            return sb * n + ((ia + ib) % n if not sb else (ib - ia) % n)
        return (ia + ib) % n + n if not sb else (ib - ia) % n

    return [[mul(a, b) for b in range(2 * n)] for a in range(2 * n)]


def image_histogram(group: Group, spec: str) -> dict:
    """Number of homomorphisms gamma -> group per image subgroup."""
    gamma = parse_gamma(spec)
    elements = range(group.order)
    table = group.table
    if gamma[0] == "free":
        tuples = product(elements, repeat=gamma[1])
    else:
        _, rank, torsion = gamma
        pools = [elements] * rank + [
            [x for x in elements if group.power_is_identity(x, d)] for d in torsion
        ]
        tuples = (
            t
            for t in product(*pools)
            if all(table[a][b] == table[b][a] for i, a in enumerate(t) for b in t[i + 1:])
        )
    histogram: dict[frozenset, int] = {}
    for images in tuples:
        image = group.closure(frozenset(images))
        histogram[image] = histogram.get(image, 0) + 1
    return histogram


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------

class Oracle:
    """Checks outcomes; caches the brute-force parts across requests."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self._search: dict[tuple, list] = {}
        self._groups: dict[str, Group] = {}
        self._histograms: dict[tuple, dict] = {}

    def group(self, name: str) -> Group:
        if name not in self._groups:
            self._groups[name] = Group(name)
        return self._groups[name]

    def histogram(self, name: str, spec: str) -> dict:
        key = (name, spec)
        if key not in self._histograms:
            self._histograms[key] = image_histogram(self.group(name), spec)
        return self._histograms[key]

    def fpc(self, p) -> list[dict]:
        """Fixed-point data for a quotient request: every subgroup of Z/n
        with chi 2 for a rotation, a seeded chi per image subgroup for a
        named group, and none for a request the hom budget must refuse."""
        if "n" in p:
            n = p["n"]
            return [
                {"subgroup": list(range(0, n, n // d)), "chi": 2}
                for d in range(1, n + 1)
                if n % d == 0
            ]
        if "group" not in p:
            return []
        # chi must agree on conjugate subgroups, so it is a function of |H|.
        images = sorted(sorted(image) for image in self.histogram(p["group"], p["gamma"]))
        chis = p["chis"]
        return [{"subgroup": image, "chi": chis[len(image) % len(chis)]} for image in images]

    def member(self, p) -> dict:
        path = f"{self.workdir}/member-{p['source']}-{p['member']}.json"
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)

    def verdict(self, req, out) -> str | None:
        kind = req.kind
        p = req.params
        if kind == "malformed":
            if out.status == 2:
                return None
            if p["defect"] == "zero-denominator" and out.status == "uncaught:ZeroDivisionError":
                return ZERO_DENOMINATOR
            return f"wrong-status:{out.status}"
        if kind == "over-budget":
            return None if out.status == 3 else f"wrong-status:{out.status}"
        if kind == "construct" and out.status == 2 and "Exceeds the limit" in out.stderr:
            return DIGIT_LIMIT
        if out.status != 0:
            return f"wrong-status:{out.status}"
        pinned = p.get("sha256")
        if pinned is not None:
            # The pinned output passed the closed-form check when it was pinned.
            ok = out.sha256 == pinned and out.nbytes == p["bytes"]
            return None if ok else "wrong-digest"
        check = getattr(self, "_check_" + kind.replace("-", "_"))
        return check(p, out.text)

    # Each checker returns None or a reason.

    def _check_enumerate(self, p, text):
        return None  # only reached while pinning

    def _check_verify_paper(self, p, text):
        lines = text.splitlines()
        ok = lines and all(line.startswith("PASS: ") for line in lines[:-1])
        return None if ok else "wrong-value"

    def _check_reconstruct(self, p, text):
        got = json.loads(text)
        expected = signature_json(p["genus"], p["cones"])
        if got == expected:
            return None
        if p["prefix"] and got.get("status") == "insufficient-data":
            return None
        return "wrong-value"

    def _check_search(self, p, text):
        window = (p["g_max"], p["k_max"], p["m_max"], p["level"])
        if window not in self._search:
            self._search[window] = search_groups(*window)
        got = sorted(
            (group["values"], sorted(group["signatures"], key=json.dumps))
            for group in json.loads(text)
        )
        return None if got == self._search[window] else "wrong-value"

    def _check_construct(self, p, text):
        doc = json.loads(text)
        family = doc["family"]
        level = p["level"]
        size = p["members"] or 2
        sequences = [chi_levels(m["genus"], _cones_of(m), level) for m in family]
        keys = {json.dumps(m, sort_keys=True) for m in family}
        ok = (
            len(family) == size
            and all(m["genus"] == p["genus"] for m in family)
            and len(keys) == size
            and all(seq == sequences[0] for seq in sequences)
            and doc["verification"]["char_sequences"] == [[fmt(v) for v in seq] for seq in sequences]
            and doc["verification"]["agree_through_level"] == level
            and doc["verification"]["pairwise_distinct"] is True
        )
        return None if ok else "wrong-value"

    def _check_chi_seq(self, p, text):
        member = self.member(p)
        values = chi_levels(member["genus"], _cones_of(member), p["length"])
        return None if text == ",".join(fmt(v) for v in values) + "\n" else "wrong-value"

    def _check_chi_gamma(self, p, text):
        member = self.member(p)
        value = chi_gamma(member["genus"], _cones_of(member), p["gamma"])
        return None if text == fmt(value) + "\n" else "wrong-value"

    def _check_quotient_rotation(self, p, text):
        value = rotation_quotient(p["n"], p["gamma"])
        return None if text == fmt(value) + "\n" else "wrong-value"

    def _check_quotient_images(self, p, text):
        histogram = self.histogram(p["group"], p["gamma"])
        chis = {frozenset(e["subgroup"]): e["chi"] for e in self.fpc(p)}
        total = sum(count * chis[image] for image, count in histogram.items())
        value = Fraction(total, self.group(p["group"]).order)
        return None if text == fmt(value) + "\n" else "wrong-value"

    def _check_mirrored(self, p, text):
        value = mirrored_value(p["boundary0"] + p["boundary1"], p["gamma"])
        return None if text == fmt(value) + "\n" else "wrong-value"
