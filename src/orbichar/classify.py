"""Characteristic sequences and their inversion back to signatures.

The level-l characteristics of a signature determine it completely once
enough levels are known: consecutive differences of the sequence form an
exponential sum over the distinct cone orders, so an exact minimal linear
recurrence recovers the orders as integer roots of its characteristic
polynomial, and dividing out each root isolates its multiplicity.  The
recurrence runs fraction-free over the integers, all arithmetic is exact,
and there are no tolerances anywhere.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, count
from math import gcd, lcm
from typing import Iterator, Sequence, Union

from .core import OrbifoldSignature, check_int, check_rational, chi_level


class InvalidSequenceError(ValueError):
    """The input is provably not a characteristic sequence of any signature."""


@dataclass(frozen=True, slots=True)
class InsufficientData:
    """The sequence is consistent with some signature but too short to commit."""

    reason: str


ReconstructResult = Union[OrbifoldSignature, InsufficientData]


def char_sequence(sig: OrbifoldSignature, length: int) -> list[Fraction]:
    """Characteristic values at levels 0..length, as exact Fractions."""
    return [chi_level(sig, l) for l in range(check_int(length, "length", 0) + 1)]


# ---------------------------------------------------------------------------
# Minimal linear recurrence, fraction-free over the integers (Berlekamp-Massey)
# ---------------------------------------------------------------------------

def minimal_recurrence(seq: Sequence[Fraction | int]) -> tuple[list[Fraction], int]:
    """Shortest linear recurrence generating the whole sequence.

    Returns (coefficients, depth) with
    seq[j] == sum(coefficients[i] * seq[j-1-i] for i in range(depth))
    for every j >= depth.  The recurrence is uniquely determined by the data
    only when len(seq) >= 2 * depth.

    Fraction-free Berlekamp-Massey (Massey, 1969) on the terms scaled to
    integers by the lcm of their denominators: C <- b*C - d*x**shift*B, over
    its content.  b starts at the scale, so C stays a multiple of the
    rational form; C[0] is never zero and divides it out at the end.
    """
    terms = [check_rational(term, "sequence value") for term in seq]
    scale = lcm(*(term.denominator for term in terms))
    ints = [term.numerator * (scale // term.denominator) for term in terms]
    current, previous = [1], [1]
    depth, shift, last_discrepancy = 0, 1, scale
    for i in range(len(ints)):
        discrepancy = sum(current[t] * ints[i - t] for t in range(depth + 1))
        if discrepancy == 0:
            shift += 1
            continue
        update = [last_discrepancy * c for c in current]
        update.extend([0] * (len(previous) + shift - len(update)))
        for t, coeff in enumerate(previous, shift):
            update[t] -= discrepancy * coeff
        content = gcd(*update)
        if 2 * depth <= i:
            previous, depth, last_discrepancy, shift = current, i + 1 - depth, discrepancy, 1
        else:
            shift += 1
        current = [c // content for c in update]
    return [Fraction(-c, current[0]) for c in current[1 : depth + 1]], depth


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
    values = [check_rational(v, "sequence value") for v in values]
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
        count, rest = divmod(weight, _horner(quotient, order)[0] * (order - 1))
        if count <= 0 or rest:
            return fail()
        cones[order] = count
    candidate = OrbifoldSignature(genus, cones)
    if char_sequence(candidate, len(values) - 1) != values:
        return fail()
    return candidate


# ---------------------------------------------------------------------------
# Finite enumeration of a given Euler-Satake characteristic
# ---------------------------------------------------------------------------

# Miller-Rabin with the first 13 prime bases is exact below this bound
# (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT = 3317044064679887385961981
# _factorize trial-divides by the primes below this (5 mod 6, where a
# second trial pass resumes), so every cofactor below its square is prime.
_TRIAL_LIMIT = 1025


def _passes_miller_rabin(n: int) -> bool:
    """False proves the odd n > 41 composite; True proves it prime below _MR_EXACT."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n: int) -> int:
    """A proper factor of the odd composite n (Brent, 1980)."""
    for c in count(1):
        y, r, g, x, ys, batch = 2, 1, 1, 2, 2, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    batch = batch * abs(x - y) % n
                g = gcd(batch, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: retrace one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


def _trial_divide(n: int, factors: Counter, d: int, stop: int) -> int:
    """Divide the primes in [d, stop) out of n, d == 5 mod 6 and 2, 3 gone,
    stopping early past sqrt(n); return the cofactor."""
    while d * d <= n and d < stop:
        for p in (d, d + 2):
            while n % p == 0:
                factors[p] += 1
                n //= p
        d += 6
    return n


def _factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1, exact, primes ascending.

    Trial division takes out the primes below _TRIAL_LIMIT.  A larger
    cofactor is proven prime by Miller-Rabin, or proven composite and split
    by Pollard-Brent, whose factors go through the same test.  A cofactor
    past _MR_EXACT that passes Miller-Rabin is only probably prime, so it
    goes back to trial division, which stays exact but costs sqrt(n).
    """
    factors: Counter = Counter()
    for p in (2, 3):
        while n % p == 0:
            factors[p] += 1
            n //= p
    pending = [_trial_divide(n, factors, 5, _TRIAL_LIMIT)]
    while pending:
        n = pending.pop()
        if n >= _TRIAL_LIMIT**2 and not _passes_miller_rabin(n):
            factor = _pollard_brent(n)
            pending += (factor, n // factor)
            continue
        if n >= _MR_EXACT:
            n = _trial_divide(n, factors, _TRIAL_LIMIT, n)
        if n > 1:
            factors[n] += 1
    return dict(sorted(factors.items()))


def _iter_final_pairs(p: int, q: int, lo: int) -> Iterator[tuple[int, int]]:
    """Ordered pairs lo <= m1 <= m2 with 1/m1 + 1/m2 == p/q, p/q in lowest terms.

    With d = p*m1 - q the equation reads d * (p*m2 - q) == q*q, so the pairs
    are exactly the divisors d <= q of q*q with d == -q mod p, giving
    m1 = (d + q)/p and m2 = (q*q/d + q)/p, in ascending d.  The candidates
    are listed whichever way is cheaper: a stride-p scan of the residue
    class costs q/p steps, so the scan runs while q/p <= 64 or
    (q/p)**2 <= 16*q and the divisors of q*q are built otherwise
    (near-exhausted sums give q/p in the millions).  The divisors are built
    prime by prime, dropping every partial product above q, which can
    only grow.
    """
    qq = q * q
    start = max(1, lo * p - q)  # m1 >= lo
    if q <= 64 * p or q <= 16 * p * p:
        divisors = [d for d in range(start + (-q - start) % p, q + 1, p) if qq % d == 0]
    else:
        divisors = [1]
        for prime, exp in _factorize(q).items():
            powers = [prime**e for e in range(1, 2 * exp + 1)]
            divisors += [x for d in divisors for power in powers if (x := d * power) <= q]
        residue = -q % p
        divisors = sorted(d for d in divisors if d >= start and d % p == residue)
    for d in divisors:
        yield (d + q) // p, (qq // d + q) // p


def _grow(runs: tuple[tuple[int, int], ...], m: int) -> tuple[tuple[int, int], ...]:
    """Run-length cones with one more cone of order m >= every order in runs."""
    if runs and runs[-1][0] == m:
        return runs[:-1] + ((m, runs[-1][1] + 1),)
    return runs + ((m, 1),)


def _iter_cones(
    k: int, p: int, q: int, lo: int, runs: tuple[tuple[int, int], ...]
) -> Iterator[tuple[tuple[int, int], ...]]:
    """Run-length cones: runs extended by k >= 1 nondecreasing orders >= lo
    with sum(1/m) == p/q > 0, where lo is the order of the last run (2 when
    runs is empty).  Each order joins the last run or opens a new one."""
    if k == 1:
        if q % p == 0 and q // p >= lo:
            yield _grow(runs, q // p)
        return
    if k == 2:
        for m1, m2 in _iter_final_pairs(p, q, lo):
            if m1 == lo or m1 == m2:
                yield _grow(_grow(runs, m1), m2)
            else:
                yield runs + ((m1, 1), (m2, 1))
        return
    m_lo = max(lo, -(-q // p))
    m_hi = k * q // p
    for m in range(m_lo, m_hi + 1):
        num, den = p * m - q, q * m
        if num == 0:
            continue  # k - 1 further positive terms cannot sum to zero
        shrink = gcd(num, den)
        yield from _iter_cones(k - 1, num // shrink, den // shrink, m, _grow(runs, m))


def iter_signatures_by_chi_es(target: Fraction | int) -> Iterator[OrbifoldSignature]:
    """All signatures with the given Euler-Satake characteristic, streamed in
    canonical order (genus, cone count, order tuple).

    The solution set is always finite: the characteristic bounds the genus
    by 2 - 2g >= target, then the cone count, then each order in turn
    through the exact remaining-sum window.
    """
    target = check_rational(target, "target")
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
            for cones in _iter_cones(k, need.numerator, need.denominator, 2, ()):
                yield OrbifoldSignature._trusted(genus, cones)
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
    check_int(genus_max, "genus_max", 0)
    check_int(count_max, "count_max", 0)
    check_int(order_max, "order_max", 0)
    check_int(level, "level", 0)
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
