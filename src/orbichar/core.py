"""Exact invariants of closed, connected, effective, orientable 2-orbifolds.

An orbifold of this class is determined by the genus of its underlying
surface together with the multiset of its cone-point orders; both are kept
exact here (arbitrary-precision integers, `fractions.Fraction` values).
Nothing in this package touches floating point.

Cone multiplicities are stored as an order -> count map rather than a flat
list: the family constructions multiply cone counts by factors far beyond
machine-word range, while every characteristic formula is linear in the
multiplicities.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Union


class GammaSupportError(ValueError):
    """Raised when a group descriptor cannot be reduced to a supported form."""


# ---------------------------------------------------------------------------
# Rational serialization ("p/q", or "p" when the value is an integer)
# ---------------------------------------------------------------------------

def format_rational(value: Fraction | int) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


_INTEGER = re.compile(r"(-?)[0-9]+")


def parse_int(text: str, signed: bool = True) -> int:
    """ASCII decimal digits, after one minus sign only if ``signed``.

    ``int`` alone also reads underscores, a plus sign, surrounding
    whitespace and every Unicode decimal digit: ``int("1_0")`` and
    ``int("٣")`` are numbers to it, but not in any input format here.
    """
    match = _INTEGER.fullmatch(text)
    if match is None or (match.group(1) and not signed):
        raise ValueError(f"not {'an' if signed else 'a nonnegative'} integer: {text!r}")
    return int(text)


_KINDS = {None: "an integer", 0: "a nonnegative integer", 1: "a positive integer"}


def check_int(value, name: str, minimum: int | None = None) -> int:
    """``value`` itself if it is an int (a bool is not) and not below
    ``minimum``: the rule of parse_int, for values instead of text."""
    if type(value) is not int or (minimum is not None and value < minimum):
        kind = _KINDS.get(minimum, f"an integer >= {minimum}")
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    return value


def check_rational(value, name: str) -> Fraction:
    """``value`` as a Fraction if it is an int (a bool is not) or a Fraction."""
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise ValueError(f"{name} must be an int or Fraction, got {value!r}")
    return Fraction(value)


def json_field(obj: dict, name: str, kind: str):
    """``obj[name]``, or a ValueError naming the field a ``kind`` document lacks."""
    if name not in obj:
        raise ValueError(f"{kind} JSON has no {name!r} field")
    return obj[name]


def parse_rational(text: str) -> Fraction:
    text = text.strip()
    if "/" in text:
        num, _, den = text.partition("/")
        num, den = parse_int(num), parse_int(den, signed=False)  # a sign goes on p only
        if den == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(num, den)
    return Fraction(parse_int(text))


# ---------------------------------------------------------------------------
# Orbifold signatures
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class OrbifoldSignature:
    """Genus plus multiset of cone orders, the full diffeomorphism invariant.

    ``cones`` is given as an order -> count mapping or as ``(order, count)``
    pairs, and is stored merged as a sorted tuple of pairs with orders >= 2
    and counts >= 1; counts are arbitrary-precision.  Instances are
    immutable, hashable, and compare by exact equality of genus and cone
    multiset.
    """

    genus: int
    cones: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        check_int(self.genus, "genus", 0)
        merged: dict[int, int] = {}
        cones = self.cones
        for order, count in cones.items() if isinstance(cones, Mapping) else cones:
            check_int(order, "cone order", 2)
            merged[order] = merged.get(order, 0) + check_int(count, "cone count", 1)
        object.__setattr__(self, "cones", tuple(sorted(merged.items())))

    @classmethod
    def from_orders(cls, genus: int, *orders: int) -> "OrbifoldSignature":
        """Build a signature from a flat list of cone orders."""
        return cls(genus, [(m, 1) for m in orders])

    @classmethod
    def _trusted(cls, genus: int, cones: tuple[tuple[int, int], ...]) -> "OrbifoldSignature":
        """Store already-canonical fields unchecked: a nonnegative int genus
        and a sorted run-length tuple of distinct orders >= 2 with counts
        >= 1.  For internally generated values only."""
        sig = object.__new__(cls)
        object.__setattr__(sig, "genus", genus)
        object.__setattr__(sig, "cones", cones)
        return sig

    @property
    def cone_count(self) -> int:
        """Total number of cone points, counted with multiplicity."""
        return sum(count for _, count in self.cones)

    def count_of(self, order: int) -> int:
        for o, count in self.cones:
            if o == order:
                return count
        return 0

    def __repr__(self) -> str:
        inner = ",".join(
            str(order) if count == 1 else f"{order}^{count}"
            for order, count in self.cones
        )
        return f"Sigma_{self.genus}({inner})"

    def sort_key(self) -> tuple:
        """Canonical ordering key: (genus, cone count, order tuple).

        The order tuple is compared lexicographically without being
        expanded: at equal total cone count, negating the run lengths makes
        the run-length pairs compare exactly like the flat tuples.
        """
        return (self.genus, self.cone_count, tuple((o, -c) for o, c in self.cones))

    def to_json(self) -> dict:
        """Shared JSON form; counts are decimal strings (they may be huge)."""
        return {
            "genus": self.genus,
            "cones": [
                {"order": order, "count": str(count)} for order, count in self.cones
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "OrbifoldSignature":
        if not isinstance(obj, dict):
            raise ValueError("signature JSON must be an object")
        entries = obj.get("cones", [])
        if not isinstance(entries, list) or not all(
            isinstance(e, dict) and type(e.get("count")) in (int, str) for e in entries
        ):
            raise ValueError("signature cones must be a list of order/count objects")
        cones = []
        for entry in entries:
            count = entry["count"]
            order = json_field(entry, "order", "signature cone")
            cones.append((order, parse_int(count) if isinstance(count, str) else count))
        return cls(json_field(obj, "genus", "signature"), cones)


def parse_signature(text: str) -> OrbifoldSignature:
    """Parse the inline signature sugar ``Sigma_g(m1,m2,...)``.

    ``Σ`` and ``S`` are accepted in place of ``Sigma``; an entry ``m^c``
    stands for c cone points of order m.
    """
    match = re.fullmatch(r"\s*(?:Σ|Sigma|S)_([0-9]+)\(([^()]*)\)\s*", text)
    if match is None:
        raise ValueError(f"not a signature literal: {text!r}")
    genus = int(match.group(1))
    body = match.group(2).strip()
    cones: list[tuple[int, int]] = []
    if body:
        for entry in body.split(","):
            order, power, count = entry.partition("^")
            cones.append((parse_int(order.strip()), parse_int(count.strip()) if power else 1))
    return OrbifoldSignature(genus, cones)


# ---------------------------------------------------------------------------
# Finitely generated group descriptors
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class FreeGroup:
    """Free group on ``rank`` generators."""

    rank: int

    def __post_init__(self):
        check_int(self.rank, "rank", 0)


@dataclass(frozen=True, slots=True)
class FgAbelian:
    """Z^rank plus finite cyclic factors Z/d for d in ``torsion``.

    The torsion tuple is kept sorted as given; no invariant-factor reduction
    is performed.  Descriptor equality is therefore equality of normal forms,
    not group isomorphism (Z/2 + Z/3 and Z/6 compare unequal even though the
    groups are isomorphic).  Every computation here is insensitive to the
    choice of decomposition.
    """

    rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        check_int(self.rank, "rank", 0)
        torsion = tuple(sorted(check_int(d, "torsion coefficient", 2) for d in self.torsion))
        object.__setattr__(self, "torsion", torsion)


@dataclass(frozen=True, slots=True)
class Presented:
    """Finite presentation: generator names plus relator words.

    Relators are whitespace-separated words in the generators, each letter
    optionally carrying an integer exponent, e.g. ``"x y x^-1 y^-1"``;
    ``words`` holds each one parsed into (generator index, exponent) pairs.
    """

    generators: tuple[str, ...]
    relators: tuple[str, ...] = ()
    words: tuple[tuple[tuple[int, int], ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        object.__setattr__(self, "relators", tuple(self.relators))
        if len(set(self.generators)) != len(self.generators):
            raise ValueError("duplicate generator names")
        words = tuple(parse_word(word, self.generators) for word in self.relators)
        object.__setattr__(self, "words", words)


GammaDescriptor = Union[FreeGroup, FgAbelian, Presented]

TRIVIAL_GROUP = FgAbelian(0, ())

_WORD_TOKEN = re.compile(r"([A-Za-z][A-Za-z0-9_]*)(?:\^(-?[0-9]+))?")


def parse_word(word: str, generators: tuple[str, ...]) -> tuple[tuple[int, int], ...]:
    """Parse a relator word into (generator index, exponent) pairs."""
    out: list[tuple[int, int]] = []
    for token in word.split():
        match = _WORD_TOKEN.fullmatch(token)
        if match is None:
            raise ValueError(f"bad word token {token!r} in {word!r}")
        name, exp = match.group(1), match.group(2)
        if name not in generators:
            raise ValueError(f"unknown generator {name!r} in {word!r}")
        out.append((generators.index(name), int(exp) if exp is not None else 1))
    if not out:
        raise ValueError("empty relator word")
    return tuple(out)


def _diagonalize(matrix: list[list[int]]) -> list[int]:
    """Diagonal entries of an integer matrix under row/column operations.

    Smith-style reduction; divisibility normalization of the diagonal is not
    needed, since only the isomorphism type of the cokernel is used.
    """
    mat = [row[:] for row in matrix]
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    diag: list[int] = []
    top = 0
    while top < rows and top < cols:
        # find smallest nonzero entry in the remaining block as pivot
        pivot = None
        for i in range(top, rows):
            for j in range(top, cols):
                if mat[i][j] != 0 and (pivot is None or abs(mat[i][j]) < abs(mat[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        mat[top], mat[pi] = mat[pi], mat[top]
        for row in mat:
            row[top], row[pj] = row[pj], row[top]
        reduced = False
        for i in range(top + 1, rows):
            q = mat[i][top] // mat[top][top]
            if q:
                mat[i] = [a - q * b for a, b in zip(mat[i], mat[top])]
            if mat[i][top]:
                reduced = True
        for j in range(top + 1, cols):
            q = mat[top][j] // mat[top][top]
            if q:
                for row in mat:
                    row[j] -= q * row[top]
            if mat[top][j]:
                reduced = True
        if reduced:
            continue  # remainders left; pick a new, smaller pivot
        diag.append(abs(mat[top][top]))
        top += 1
    return diag


def abelianize(gamma: GammaDescriptor) -> FgAbelian:
    """Universal abelian quotient of the described group, in FgAbelian form."""
    if isinstance(gamma, FgAbelian):
        return gamma
    if isinstance(gamma, FreeGroup):
        return FgAbelian(gamma.rank, ())
    if isinstance(gamma, Presented):
        n_gens = len(gamma.generators)
        matrix = []
        for word in gamma.words:
            row = [0] * n_gens
            for index, exp in word:
                row[index] += exp
            matrix.append(row)
        diag = _diagonalize(matrix)
        nonzero = [d for d in diag if d != 0]
        rank = n_gens - len(nonzero)
        torsion = tuple(sorted(d for d in nonzero if d >= 2))
        return FgAbelian(rank, torsion)
    raise GammaSupportError(f"unsupported group descriptor: {gamma!r}")


def hom_count_cyclic(gamma: GammaDescriptor, m: int) -> int:
    """Number of homomorphisms from the described group into Z/mZ.

    For Z^l plus torsion factors Z/d the count is m^l times the product of
    gcd(d, m); the gcd factors do not depend on the chosen decomposition.
    """
    check_int(m, "modulus", 1)
    ab = abelianize(gamma)
    count = m ** ab.rank
    for d in ab.torsion:
        count *= gcd(d, m)
    return count


# ---------------------------------------------------------------------------
# Characteristic formulas
# ---------------------------------------------------------------------------

def chi_top(sig: OrbifoldSignature) -> int:
    """Euler characteristic of the underlying surface: 2 - 2g."""
    return 2 - 2 * sig.genus


def power_sum(sig: OrbifoldSignature, exponent: int) -> Fraction:
    """Sum of order**exponent over all cone points, with multiplicity.

    ``exponent`` -1 means the exact rational 1/order.
    """
    if check_int(exponent, "exponent") >= 0:
        return Fraction(sum(count * order ** exponent for order, count in sig.cones))
    # One common denominator: a Fraction sum would reduce after every term.
    powers = [order ** -exponent for order, _ in sig.cones]
    den = lcm(*powers)
    return Fraction(sum(count * (den // p) for (_, count), p in zip(sig.cones, powers)), den)


def chi_level(sig: OrbifoldSignature, level: int) -> Fraction:
    """The level-th characteristic 2 - 2g - k + sum(order**(level-1)).

    Level 0 gives the Euler-Satake characteristic (the exponent -1 means
    1/order exactly); level 1 recovers chi_top; every level >= 1 value is an
    integer.  Returned as an exact Fraction in all cases.
    """
    check_int(level, "level", 0)
    return Fraction(2 - 2 * sig.genus - sig.cone_count) + power_sum(sig, level - 1)


def chi_es(sig: OrbifoldSignature) -> Fraction:
    """Euler-Satake characteristic: 2 - 2g - k + sum(1/order)."""
    return chi_level(sig, 0)


def chi_gamma(sig: OrbifoldSignature, gamma: GammaDescriptor) -> Fraction:
    """Characteristic of the gamma-sectors of the signature's orbifold.

    Each cone point of order m carries one point sector of weight 1/m per
    nontrivial homomorphism into Z/mZ, on top of the identity sector; the
    closed form is 2 - 2g - k + sum(count * |HOM(gamma, Z/m)| / m).  Since
    all isotropy here is cyclic, only the abelianization of gamma matters.
    """
    ab = abelianize(gamma)
    # One common denominator, as in power_sum: a Fraction sum would reduce after every term.
    den = lcm(*(order for order, _ in sig.cones))
    total = sum(count * hom_count_cyclic(ab, order) * (den // order) for order, count in sig.cones)
    return Fraction((2 - 2 * sig.genus - sig.cone_count) * den + total, den)


def chi_gamma_times_manifold(
    sig: OrbifoldSignature, gamma: GammaDescriptor, manifold_chi: int
) -> Fraction:
    """Characteristic of the product with a closed manifold factor.

    The characteristic is multiplicative, so this is chi_gamma times the
    Euler characteristic of the manifold factor.
    """
    return chi_gamma(sig, gamma) * check_int(manifold_chi, "manifold_chi")


def is_diffeomorphic(a, b) -> bool:
    """Exact diffeomorphism test for signatures or mirrored cylinders.

    Signatures compare by genus and cone multiset.  Mirrored cylinders
    compare by the unordered pair of per-boundary corner multisets.
    """
    if isinstance(a, OrbifoldSignature) and isinstance(b, OrbifoldSignature):
        return a == b
    if isinstance(a, MirroredCylinder) and isinstance(b, MirroredCylinder):
        return sorted((a.boundary0, a.boundary1)) == sorted((b.boundary0, b.boundary1))
    raise TypeError(f"cannot compare {type(a).__name__} with {type(b).__name__}")


# ---------------------------------------------------------------------------
# Mirrored cylinders (the one supported non-orientable family)
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class MirroredCylinder:
    """Cylinder with mirrored boundary circles carrying corner reflectors.

    The underlying space is S^1 x [0,1]; each corner of order n sits in a
    dihedral group of order 2n.  Corner orders must be odd: the sector
    analysis relies on the centralizer of a reflection being exactly the
    group it generates.
    """

    boundary0: tuple[int, ...]
    boundary1: tuple[int, ...]

    def __post_init__(self):
        for attr in ("boundary0", "boundary1"):
            orders = tuple(sorted(check_int(n, "corner order", 2) for n in getattr(self, attr)))
            for n in orders:
                if n % 2 == 0:
                    raise ValueError(f"corner order must be odd, got {n}")
            object.__setattr__(self, attr, orders)

    @property
    def corner_orders(self) -> tuple[int, ...]:
        return tuple(sorted(self.boundary0 + self.boundary1))


def chi_es_mirrored(mc: MirroredCylinder) -> Fraction:
    """Euler-Satake characteristic of a mirrored cylinder.

    chi_top of the cylinder is 0 and each corner of order n contributes a
    deficit of (1 - 1/n)/2: half the value of the orientable double, the
    torus with one cone point of order n per corner.
    """
    return chi_es(OrbifoldSignature.from_orders(1, *mc.corner_orders)) / 2
