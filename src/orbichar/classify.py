"""Characteristic sequences and their inversion back to signatures.

The level-l characteristics of a signature determine it completely once
enough levels are known: consecutive differences of the sequence form an
exponential sum over the distinct cone orders, so an exact minimal linear
recurrence recovers the orders as integer roots of its characteristic
polynomial, and dividing out each root isolates its multiplicity.  All
arithmetic is rational and exact; there are no tolerances anywhere.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd, lcm
from typing import Iterator, Sequence, Union

from .core import OrbifoldSignature, chi_level


class InvalidSequenceError(ValueError):
    """The input is provably not a characteristic sequence of any signature."""


@dataclass(frozen=True, slots=True)
class InsufficientData:
    """The sequence is consistent with some signature but too short to commit."""

    reason: str


ReconstructResult = Union[OrbifoldSignature, InsufficientData]


def char_sequence(sig: OrbifoldSignature, length: int) -> list[Fraction]:
    """Characteristic values at levels 0..length, as exact Fractions."""
    if length < 0:
        raise ValueError(f"length must be nonnegative, got {length}")
    return [chi_level(sig, l) for l in range(length + 1)]


# ---------------------------------------------------------------------------
# Minimal linear recurrence over the rationals (Berlekamp-Massey)
# ---------------------------------------------------------------------------

def minimal_recurrence(seq: Sequence[Fraction | int]) -> tuple[list[Fraction], int]:
    """Shortest linear recurrence generating the whole sequence.

    Returns (coefficients, depth) with
    seq[j] == sum(coefficients[i] * seq[j-1-i] for i in range(depth))
    for every j >= depth.  The recurrence is uniquely determined by the data
    only when len(seq) >= 2 * depth.
    """
    current = [Fraction(1)]
    previous = [Fraction(1)]
    depth = 0
    shift = 1
    last_discrepancy = Fraction(1)
    for i, term in enumerate(seq):
        discrepancy = Fraction(term)
        for t in range(1, depth + 1):
            discrepancy += current[t] * seq[i - t]
        if discrepancy == 0:
            shift += 1
            continue
        update = current[:]
        scale = discrepancy / last_discrepancy
        if len(update) < len(previous) + shift:
            update.extend([Fraction(0)] * (len(previous) + shift - len(update)))
        for t, coeff in enumerate(previous):
            update[t + shift] -= scale * coeff
        if 2 * depth <= i:
            previous = current
            depth = i + 1 - depth
            last_discrepancy = discrepancy
            shift = 1
        else:
            shift += 1
        current = update
    return [-c for c in current[1 : depth + 1]], depth


def _horner(poly: list[int], x: int) -> tuple[int, int]:
    """Value and slope at x of poly, given highest degree first."""
    value = slope = 0
    for c in poly:
        slope = slope * x + value
        value = value * x + c
    return value, slope


def _divide_root(poly: list[int], r: int) -> list[int]:
    """Quotient of poly by (x - r); the remainder must be zero."""
    quotient = [poly[0]]
    for c in poly[1:-1]:
        quotient.append(quotient[-1] * r + c)
    return quotient


def _integer_roots(poly: list[int]) -> list[int] | None:
    """Roots of the monic poly, largest first, if all are distinct integers
    >= 2; None otherwise.  Newton steps from the trace, rounded down, never
    pass the largest root of a real-rooted polynomial, which is divided out
    before resuming below it; each step lowers x or removes a root."""
    roots: list[int] = []
    x = -poly[1]
    while len(poly) > 1:
        if x < 2:
            return None
        value, slope = _horner(poly, x)
        if value == 0:
            roots.append(x)
            poly = _divide_root(poly, x)
            x -= 1
        elif value < 0 or slope <= 0:
            return None
        else:
            x = max(1, (x * slope - value) // slope)
    return roots


def reconstruct(values: Sequence[Fraction | int]) -> ReconstructResult:
    """Invert a characteristic sequence back to its signature.

    The genus is read off the level-1 value; consecutive differences
    v_l = sum((m-1) * m**(l-1)) over cone orders m feed the recurrence
    fitting.  Returns InsufficientData when the data cannot pin the
    signature down (fewer than 2D differences for D distinct orders, or a
    failure that a longer consistent sequence could still repair); raises
    InvalidSequenceError when no signature at all can match.  A candidate is
    only ever returned after its full sequence reproduces the input.
    """
    values = [Fraction(v) for v in values]
    if len(values) < 2:
        raise InvalidSequenceError("need at least the level-0 and level-1 values")
    top = values[1]
    if top.denominator != 1 or top.numerator % 2 != 0 or top > 2:
        raise InvalidSequenceError("level-1 value must be an even integer <= 2")
    genus = (2 - int(top)) // 2

    diffs: list[int] = []
    for j in range(1, len(values) - 1):
        step = values[j + 1] - values[j]
        if step.denominator != 1 or step < 0:
            raise InvalidSequenceError(
                "level differences must be nonnegative integers"
            )
        diffs.append(int(step))

    if all(d == 0 for d in diffs):
        if values[0] == values[1]:
            return OrbifoldSignature(genus)
        # cone points exist but no difference data constrains them
        gap = values[1] - values[0]  # equals sum(1 - 1/m) over cones
        if diffs:
            raise InvalidSequenceError("constant tail with nonzero cone deficit")
        if gap < 0 or 2 * gap < int(gap) + 1:
            # no integer cone count k with k/2 <= gap < k exists
            raise InvalidSequenceError("cone deficit fits no cone count")
        return InsufficientData("only the Euler-Satake value constrains the cones")

    if 0 in diffs:
        raise InvalidSequenceError("difference sequence of a signature is positive")
    for j in range(len(diffs) - 1):
        # every cone order is >= 2, so the differences at least double
        if diffs[j + 1] < 2 * diffs[j]:
            raise InvalidSequenceError("differences must at least double per level")

    coefficients, depth = minimal_recurrence(diffs)
    if len(diffs) < 2 * depth:
        return InsufficientData(
            f"{len(diffs)} differences cannot determine a depth-{depth} recurrence"
        )

    def fail() -> ReconstructResult:
        if len(diffs) >= 2 * depth + 1:
            raise InvalidSequenceError("not a valid characteristic sequence")
        return InsufficientData(
            "determined recurrence admits no signature; a longer sequence may"
        )

    if any(c.denominator != 1 for c in coefficients):
        return fail()
    poly = [1] + [-int(c) for c in coefficients]
    roots = _integer_roots(poly)
    if roots is None:
        return fail()
    cones: dict[int, int] = {}
    for order in roots:
        # the quotient vanishes at every other order, so it isolates this
        # order's term (order - 1) * count * order**j of the differences
        quotient = _divide_root(poly, order)
        weight = sum(c * d for c, d in zip(reversed(quotient), diffs))
        count = Fraction(weight, _horner(quotient, order)[0] * (order - 1))
        if count <= 0 or count.denominator != 1:
            return fail()
        cones[order] = int(count)
    candidate = OrbifoldSignature(genus, cones)
    if char_sequence(candidate, len(values) - 1) != values:
        return fail()
    return candidate


# ---------------------------------------------------------------------------
# Finite enumeration of a given Euler-Satake characteristic
# ---------------------------------------------------------------------------

def _factorize(n: int) -> dict[int, int]:
    factors: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    d = 5
    while d * d <= n:
        for p in (d, d + 2):
            while n % p == 0:
                factors[p] = factors.get(p, 0) + 1
                n //= p
        d += 6
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def _iter_final_pairs(p: int, q: int, lo: int) -> Iterator[tuple[int, int]]:
    """Ordered pairs lo <= m1 <= m2 with 1/m1 + 1/m2 == p/q, p/q in lowest terms.

    With d = p*m1 - q the equation reads d * (p*m2 - q) == q*q, so the pairs
    are exactly the divisors d <= q of q*q with d == -q mod p, giving
    m1 = (d + q)/p and m2 = (q*q/d + q)/p, in ascending d.  The candidates
    are listed whichever way is cheaper: a stride-p scan of the residue
    class costs q/p steps, factoring q by trial division about sqrt(q), so
    the scan runs while q/p <= 64 or (q/p)**2 <= 16*q and the divisors of
    q*q are built otherwise (near-exhausted sums give q/p in the millions).
    """
    qq = q * q
    start = max(1, lo * p - q)  # m1 >= lo
    if q <= 64 * p or q <= 16 * p * p:
        divisors = [d for d in range(start + (-q - start) % p, q + 1, p) if qq % d == 0]
    else:
        divisors = [1]
        for prime, exp in _factorize(q).items():
            divisors = [d * prime**e for d in divisors for e in range(2 * exp + 1)]
        divisors = sorted(d for d in divisors if start <= d <= q and (d + q) % p == 0)
    for d in divisors:
        yield (d + q) // p, (qq // d + q) // p


def _iter_order_tuples(k: int, p: int, q: int, lo: int) -> Iterator[tuple[int, ...]]:
    """Nondecreasing order tuples of length k >= 1 with sum(1/m) == p/q > 0."""
    if k == 1:
        if q % p == 0 and q // p >= lo:
            yield (q // p,)
        return
    if k == 2:
        yield from _iter_final_pairs(p, q, lo)
        return
    m_lo = max(lo, -(-q // p))
    m_hi = k * q // p
    for m in range(m_lo, m_hi + 1):
        num, den = p * m - q, q * m
        if num == 0:
            continue  # k - 1 further positive terms cannot sum to zero
        shrink = gcd(num, den)
        for rest in _iter_order_tuples(k - 1, num // shrink, den // shrink, m):
            yield (m,) + rest


def _runs(orders: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """Run-length (order, count) pairs of a nondecreasing order tuple."""
    cones: list[tuple[int, int]] = []
    for m in orders:
        if cones and cones[-1][0] == m:
            cones[-1] = (m, cones[-1][1] + 1)
        else:
            cones.append((m, 1))
    return tuple(cones)


def iter_signatures_by_chi_es(target: Fraction | int) -> Iterator[OrbifoldSignature]:
    """All signatures with the given Euler-Satake characteristic, streamed in
    canonical order (genus, cone count, order tuple).

    The solution set is always finite: the characteristic bounds the genus
    by 2 - 2g >= target, then the cone count, then each order in turn
    through the exact remaining-sum window.
    """
    if isinstance(target, bool) or not isinstance(target, (int, Fraction)):
        raise ValueError(f"target must be an int or Fraction, got {target!r}")
    target = Fraction(target)
    genus = 0
    while Fraction(2 - 2 * genus) >= target:
        count_cap_twice = 2 * (Fraction(2 - 2 * genus) - target)
        for k in range(int(count_cap_twice) + 1):
            need = target - (2 - 2 * genus - k)  # required sum of 1/order
            if k == 0:
                if need == 0:
                    yield OrbifoldSignature._trusted(genus, ())
                continue
            if need <= 0 or 2 * need > k:
                continue
            for orders in _iter_order_tuples(k, need.numerator, need.denominator, 2):
                yield OrbifoldSignature._trusted(genus, _runs(orders))
        genus += 1


def enumerate_by_chi_es(target: Fraction | int) -> list[OrbifoldSignature]:
    """Materialized form of iter_signatures_by_chi_es (may be very large)."""
    return list(iter_signatures_by_chi_es(target))


# ---------------------------------------------------------------------------
# Brute-force collision search over a bounded window
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class CollisionGroup:
    """Signatures sharing one characteristic sequence through a given level."""

    values: tuple[Fraction, ...]
    signatures: tuple[OrbifoldSignature, ...]


def search_collisions(
    genus_max: int, count_max: int, order_max: int, level: int
) -> list[CollisionGroup]:
    """Group all signatures within the bounds by their characteristic
    sequence through ``level`` and return the groups of size >= 2.

    Order tuples are bucketed by an exact integer key: den times the level-0
    value, den = lcm(2..order_max), then the values at levels 1..level.  The
    key is summed straight from the tuple, (2 - 2g) * (den, 1, ..., 1) plus
    (den/m - den, 0, m - 1, ..., m**(level-1) - 1) per cone of order m, and
    only partitions: signatures are built for buckets of two or more, and a
    group's values are its members' char_sequence.  Windows are visited in
    canonical order, so groups and their members come out sorted.
    """
    if min(genus_max, count_max, order_max, level) < 0:
        raise ValueError("all bounds must be nonnegative")
    den = lcm(*range(2, order_max + 1))
    terms = {
        m: (den // m - den, *(m**e - 1 for e in range(level))) for m in range(2, order_max + 1)
    }
    buckets: dict[tuple[int, ...], list[tuple[int, tuple[int, ...]]]] = defaultdict(list)
    for genus in range(genus_max + 1):
        offset = ((2 - 2 * genus) * den, *(2 - 2 * genus,) * level)
        for k in range(count_max + 1):
            for orders in combinations_with_replacement(range(2, order_max + 1), k):
                key = tuple(map(sum, zip(offset, *map(terms.__getitem__, orders))))
                buckets[key].append((genus, orders))
    groups = []
    for members in buckets.values():
        if len(members) < 2:
            continue
        sigs = tuple(OrbifoldSignature.from_orders(genus, *orders) for genus, orders in members)
        sequences = {tuple(char_sequence(sig, level)) for sig in sigs}
        if len(sequences) != 1:
            raise RuntimeError(f"collision key grouped {sigs!r} with distinct sequences")
        groups.append(CollisionGroup(sequences.pop(), sigs))
    return groups
