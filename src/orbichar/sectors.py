"""Finite-group machinery and sector-sum characteristics for global quotients.

A quotient of a manifold by a finite group decomposes its sectors over
conjugacy classes of homomorphisms into the group; each class contributes
the Euler characteristic of the fixed set of its image divided by the
centralizer order.  Manifolds are never represented here: a
FixedPointCharacter records the fixed-set Euler characteristic per
subgroup, which is all the sector sum needs.

This module doubles as an independent oracle for the closed-form
characteristics in `core`: the two are compared in the test suite on
rotation actions on the sphere.  Mirrored cylinders use the closed form of
their orientable double instead; their dihedral class sums are a test oracle.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from math import gcd

from .core import (
    FgAbelian,
    FreeGroup,
    GammaDescriptor,
    MirroredCylinder,
    OrbifoldSignature,
    Presented,
    chi_gamma,
    parse_int,
)

DEFAULT_HOM_BUDGET = 10**7
BUDGET_ENV_VAR = "ORBICHAR_HOM_BUDGET"


class HomBudgetExceeded(RuntimeError):
    """Hom enumeration would exceed the configured table-lookup budget."""


class FixedPointDataError(KeyError):
    """A required subgroup is missing from the fixed-point data."""


# ---------------------------------------------------------------------------
# Finite groups as multiplication tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True, eq=False, repr=False)
class FiniteGroup:
    """Explicit finite group: elements 0..order-1 with a multiplication table.

    The table is validated on construction (closure, identity, inverses,
    associativity) and immutable afterwards.
    """

    table: tuple[tuple[int, ...], ...]
    order: int = field(init=False)
    identity: int = field(init=False)
    inverse: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        rows = tuple(tuple(row) for row in self.table)
        order = len(rows)
        if order == 0 or any(len(row) != order for row in rows):
            raise ValueError("multiplication table must be square and nonempty")
        for row in rows:
            for entry in row:
                if type(entry) is not int or not 0 <= entry < order:
                    raise ValueError(f"table entry {entry!r} out of range")
        identity = None
        for e in range(order):
            if all(rows[e][x] == x == rows[x][e] for x in range(order)):
                identity = e
                break
        if identity is None:
            raise ValueError("table has no identity element")
        inverse = [None] * order
        for a in range(order):
            for b in range(order):
                if rows[a][b] == identity and rows[b][a] == identity:
                    inverse[a] = b
                    break
            if inverse[a] is None:
                raise ValueError(f"element {a} has no inverse")
        for a in range(order):
            for b in range(order):
                ab = rows[a][b]
                for c in range(order):
                    if rows[ab][c] != rows[a][rows[b][c]]:
                        raise ValueError(f"table is not associative at ({a},{b},{c})")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "table", rows)
        object.__setattr__(self, "identity", identity)
        object.__setattr__(self, "inverse", tuple(inverse))

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def conjugate(self, g: int, x: int) -> int:
        return self.table[self.table[g][x]][self.inverse[g]]

    def power(self, x: int, exponent: int) -> int:
        out = self.identity
        for _ in range(exponent % self.element_order(x)):
            out = self.table[out][x]
        return out

    def element_order(self, x: int) -> int:
        out, n = x, 1
        while out != self.identity:
            out = self.table[out][x]
            n += 1
        return n

    def subgroup_closure(self, elements) -> frozenset[int]:
        """Smallest subgroup containing the given elements (table saturation).

        In a finite group the words in the generators already form a
        subgroup, so a breadth-first closure under right multiplication
        by the generators suffices.
        """
        gens = list(set(elements))
        closed = {self.identity}
        frontier = [self.identity]
        while frontier:
            new = []
            for a in frontier:
                for g in gens:
                    ag = self.table[a][g]
                    if ag not in closed:
                        closed.add(ag)
                        new.append(ag)
            frontier = new
        return frozenset(closed)

    def to_json(self) -> dict:
        return {"order": self.order, "table": [list(row) for row in self.table]}

    @classmethod
    def from_json(cls, obj: dict) -> "FiniteGroup":
        if not isinstance(obj, dict):
            raise ValueError("group JSON must be an object")
        table = obj["table"]
        if not isinstance(table, list) or not all(isinstance(row, list) for row in table):
            raise ValueError("group table must be a list of rows")
        order = obj.get("order", len(table))
        if type(order) is not int or order != len(table):
            raise ValueError(f"declared order {order!r} does not match the table")
        return cls(table)


def cyclic_group(n: int) -> FiniteGroup:
    """Z/nZ; element i is the i-th power of the generator."""
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    return FiniteGroup([[(i + j) % n for j in range(n)] for i in range(n)])


def dihedral_group(n: int) -> FiniteGroup:
    """Dihedral group of order 2n: indices 0..n-1 are the rotations r^i,
    indices n..2n-1 are the reflections s*r^i."""
    if n < 1:
        raise ValueError(f"rotation count must be >= 1, got {n}")
    size = 2 * n
    table = [[0] * size for _ in range(size)]
    for i in range(n):
        for j in range(n):
            table[i][j] = (i + j) % n
            table[i][j + n] = n + (j - i) % n
            table[i + n][j] = n + (i + j) % n
            table[i + n][j + n] = (j - i) % n
    return FiniteGroup(table)


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    """Direct product; element (x, y) has index x * |b| + y."""
    nb = b.order
    size = a.order * nb
    table = [
        [a.table[x1][x2] * nb + b.table[y1][y2] for x2 in range(a.order) for y2 in range(nb)]
        for x1 in range(a.order)
        for y1 in range(nb)
    ]
    return FiniteGroup(table)


def group_by_name(name: str) -> FiniteGroup:
    """Builtin constructors: "C6", "D10" (dihedral of order 10), "C2xC3"."""
    factors = []
    for part in name.split("x"):
        part = part.strip()
        try:
            order = parse_int(part[1:], signed=False)
        except ValueError:
            order = None
        if part.startswith("C") and order is not None:
            factors.append(cyclic_group(order))
        elif part.startswith("D") and order is not None:
            if order % 2 != 0 or order < 2:
                raise ValueError(f"dihedral group order must be even, got {part!r}")
            factors.append(dihedral_group(order // 2))
        else:
            raise ValueError(f"unknown group name {part!r}")
    return reduce(direct_product, factors)


# ---------------------------------------------------------------------------
# Homomorphism enumeration and conjugacy classes
# ---------------------------------------------------------------------------

def enumerate_homs(
    gamma: GammaDescriptor, group: FiniteGroup, budget: int | None = None
) -> list[tuple[int, ...]]:
    """All homomorphisms from the described group into the finite group,
    as tuples of generator images.

    Images are chosen one generator at a time and a prefix is dropped once
    it fails: abelian descriptors need each image to commute with the ones
    before it (and x**d = e at a torsion generator of order d); a relator is
    checked as soon as its highest generator has an image.  Homs come in
    lexicographic order.  The search space |G|**generators and the number of
    generators are capped by the budget (parameter, ORBICHAR_HOM_BUDGET, or 10**7).
    """
    if isinstance(gamma, Presented):
        n_gens = len(gamma.generators)
    elif isinstance(gamma, FreeGroup):
        n_gens = gamma.rank
    elif isinstance(gamma, FgAbelian):
        n_gens = gamma.rank + len(gamma.torsion)
    else:
        raise TypeError(f"unsupported group descriptor: {gamma!r}")
    if budget is None:
        try:
            budget = parse_int(os.environ.get(BUDGET_ENV_VAR, str(DEFAULT_HOM_BUDGET)), signed=False)
        except ValueError as exc:
            raise ValueError(f"{BUDGET_ENV_VAR}: {exc}") from None
    # Each tuple has n_gens entries; past budget.bit_length() generators any
    # group of order >= 2 is over budget too, since 2**budget.bit_length() > budget.
    if n_gens > budget or group.order ** min(n_gens, budget.bit_length()) > budget:
        raise HomBudgetExceeded(
            f"homs on {n_gens} generators into a group of order {group.order} "
            f"exceed the budget of {budget}"
        )
    if group.order == 1:  # any rank up to the budget; a prefix search is quadratic in it
        return [(group.identity,) * n_gens]
    table, identity, elements = group.table, group.identity, range(group.order)
    abelian = isinstance(gamma, FgAbelian)
    candidates = [elements] * n_gens
    if abelian:
        candidates[gamma.rank:] = (
            [x for x in elements if group.power(x, d) == identity] for d in gamma.torsion
        )
    relators_at = [[] for _ in range(n_gens)]
    if isinstance(gamma, Presented):
        for word in gamma.words:
            relators_at[max(index for index, _ in word)].append(word)
    homs = [()]
    for options, words in zip(candidates, relators_at):
        homs = [
            prefix + (x,)
            for prefix in homs
            for x in options
            if (not abelian or all(table[x][y] == table[y][x] for y in prefix))
            and (not words or all(_evaluate(group, w, prefix + (x,)) == identity for w in words))
        ]
    return homs


def _evaluate(group: FiniteGroup, word, images: tuple[int, ...]) -> int:
    value = group.identity
    for index, exp in word:
        value = group.table[value][group.power(images[index], exp)]
    return value


@dataclass(frozen=True, slots=True)
class HomClass:
    """Conjugacy class of homomorphisms under simultaneous conjugation."""

    representative: tuple[int, ...]
    size: int
    centralizer_order: int
    image: frozenset[int]


def hom_classes(
    gamma: GammaDescriptor, group: FiniteGroup, budget: int | None = None
) -> list[HomClass]:
    """Partition the homomorphisms into conjugacy classes.

    The centralizer of a class is the stabilizer of any representative
    tuple; class size times centralizer order always equals the group
    order (checked).  Classes come in ascending order of their
    representative, the least member of each class.
    """
    return _partition(enumerate_homs(gamma, group, budget), group)


def _partition(homs: list[tuple[int, ...]], group: FiniteGroup) -> list[HomClass]:
    # enumerate_homs lists homs in lexicographic order and conjugation maps
    # homs to homs, so the first hom not yet seen is the least of its class.
    seen: set[tuple[int, ...]] = set()
    images: dict[frozenset[int], frozenset[int]] = {}  # equal closures share one set
    classes = []
    for rep in homs:
        if rep in seen:
            continue
        conjugates = [tuple(group.conjugate(g, x) for x in rep) for g in range(group.order)]
        orbit = set(conjugates)
        stabilizer = conjugates.count(rep)
        if len(orbit) * stabilizer != group.order:
            raise RuntimeError("orbit-stabilizer mismatch in conjugacy computation")
        seen |= orbit
        image = group.subgroup_closure(rep)
        classes.append(
            HomClass(
                representative=rep,
                size=len(orbit),
                centralizer_order=stabilizer,
                image=images.setdefault(image, image),
            )
        )
    return classes


# ---------------------------------------------------------------------------
# Fixed-point data and the sector sum
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True, eq=False, repr=False)
class FixedPointCharacter:
    """Euler characteristic of the fixed set, per subgroup.

    Keys are subgroups given as frozen sets of element indices; the data
    must cover every subgroup generated by the images of the homomorphisms
    being summed over.  chi_top is not monotone in the subgroup, so no
    consistency between nested subgroups is imposed.
    """

    chars: dict[frozenset[int], int]

    def __post_init__(self):
        normalized = {}
        for subgroup, chi in dict(self.chars).items():
            subgroup = frozenset(subgroup)
            if type(chi) is not int or any(type(x) is not int for x in subgroup):
                raise ValueError(
                    f"fixed-point chi {chi!r} and subgroup elements {set(subgroup)!r} "
                    "must be ints"
                )
            normalized[subgroup] = chi
        object.__setattr__(self, "chars", normalized)

    def chi(self, subgroup: frozenset[int]) -> int:
        try:
            return self.chars[frozenset(subgroup)]
        except KeyError:
            raise FixedPointDataError(
                f"no fixed-point value for subgroup {sorted(subgroup)}"
            ) from None

    def subgroups(self) -> list[frozenset[int]]:
        return sorted(self.chars, key=sorted)

    def to_json(self) -> list[dict]:
        return [
            {"subgroup": sorted(subgroup), "chi": chi}
            for subgroup, chi in sorted(self.chars.items(), key=lambda kv: sorted(kv[0]))
        ]

    @classmethod
    def from_json(cls, entries) -> "FixedPointCharacter":
        if not isinstance(entries, list) or not all(
            isinstance(e, dict)
            and isinstance(e.get("subgroup"), list)
            and all(type(x) is int for x in e["subgroup"])
            and type(e.get("chi")) is int
            for e in entries
        ):
            raise ValueError("fixed-point data must be a list of subgroup/chi objects")
        return cls({frozenset(entry["subgroup"]): entry["chi"] for entry in entries})


def chi_gamma_quotient(
    group: FiniteGroup,
    fixed: FixedPointCharacter,
    gamma: GammaDescriptor,
    budget: int | None = None,
) -> Fraction:
    """Characteristic of the sectors of a finite quotient.

    Computed twice, once as the sum over conjugacy classes of
    chi(fixed set of the image) / centralizer order, and once as the
    average over all homomorphisms of chi(fixed set); the two must agree
    exactly.  Both sums run over one enumeration of the homomorphisms.
    """
    homs = enumerate_homs(gamma, group, budget)
    classes = _partition(homs, group)
    by_classes = Fraction(0)
    for cls in classes:
        by_classes += Fraction(fixed.chi(cls.image), cls.centralizer_order)
    total = 0
    for hom in homs:
        total += fixed.chi(group.subgroup_closure(hom))
    by_average = Fraction(total, group.order)
    if by_classes != by_average:
        # every image in a class is a conjugate of the representative's
        for cls in classes:
            for g in range(group.order):
                other = frozenset(group.conjugate(g, x) for x in cls.image)
                if fixed.chi(other) != fixed.chi(cls.image):
                    raise ValueError(
                        f"fixed-point data is not conjugation-invariant: conjugate "
                        f"subgroups {sorted(cls.image)} and {sorted(other)} have chi "
                        f"{fixed.chi(cls.image)} and {fixed.chi(other)}"
                    )
        raise RuntimeError(
            f"sector sums disagree: {by_classes} by classes, {by_average} by average"
        )
    return by_classes


def rotation_sphere_action(n: int, step: int) -> tuple[FiniteGroup, FixedPointCharacter]:
    """Z/n acting on the sphere, the generator rotating by 2*pi*step/n.

    Every subgroup fixes either the whole sphere (when it lies in the
    kernel of the action) or exactly the two poles; the fixed-set Euler
    characteristic is 2 in both cases, recorded for every subgroup of Z/n.
    """
    if n < 1:
        raise ValueError(f"group order must be >= 1, got {n}")
    if not 1 <= step < n:
        raise ValueError(f"rotation step must satisfy 1 <= step < {n}, got {step}")
    group = cyclic_group(n)
    chars = {}
    for d in range(1, n + 1):
        if n % d == 0:
            chars[frozenset(range(0, n, n // d))] = 2
    return group, FixedPointCharacter(chars)


def rotation_kernel(n: int, step: int) -> frozenset[int]:
    """Subgroup of Z/n acting trivially under rotation by 2*pi*step/n."""
    if not 1 <= step < n:
        raise ValueError(f"rotation step must satisfy 1 <= step < {n}, got {step}")
    period = n // gcd(n, step)
    return frozenset(range(0, n, period))


# ---------------------------------------------------------------------------
# Sector sums for mirrored cylinders
# ---------------------------------------------------------------------------

def chi_gamma_mirrored(mc: MirroredCylinder, gamma: GammaDescriptor) -> Fraction:
    """Characteristic of the sectors of a mirrored cylinder: half the value
    of its orientable double, the torus with one cone point per corner.

    Beyond the identity sector, only classes of homs into a corner's D_n
    with image in the rotations Z/n contribute, each a point sector of
    weight 1/centralizer.  For odd n a reflection pairs each nontrivial
    hom with its inverse and the centralizer is Z/n, so the corner adds
    (|Hom(gamma, Z/n)| - 1)/(2n), plus -(1 - 1/n)/2 from chi_es_mirrored:
    (|Hom(gamma, Z/n)|/n - 1)/2 in all, half a cone point of the double.
    Classes whose image holds a reflection are circle sectors of Euler
    characteristic zero; this inventory is the model assumption behind
    restricting corner orders to odd values.
    """
    return chi_gamma(OrbifoldSignature.from_orders(1, *mc.corner_orders), gamma) / 2
