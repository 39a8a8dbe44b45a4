"""Surgery operations on signatures and builders for collision families.

A "collision family" is a set of pairwise distinct signatures whose
characteristics agree for every group in a prescribed collection.  The
builders here produce such families for the free-abelian characteristics up
to a chosen level, and for arbitrary finitely generated groups via cone
orders chosen coprime to all torsion.

While ``build_collision_pair`` merges pairs level by level, each pair is
held as one shared scale times two small cofactors, merged with ``repeat``
and ``combine``; only the final cofactors are verified and then repeated.

Every constructed family is re-verified by direct recomputation before it
is returned; a verification failure signals an implementation bug and
raises ConstructionError.
"""

from __future__ import annotations

from collections import Counter
from functools import reduce
from math import lcm, prod

from .classify import _factorize
from .core import (
    GammaDescriptor,
    OrbifoldSignature,
    abelianize,
    check_int,
    chi_gamma,
    chi_level,
    power_sum,
)


class ConstructionError(RuntimeError):
    """A constructed family failed its own verification (internal error)."""


Pair = tuple[OrbifoldSignature, OrbifoldSignature]


# ---------------------------------------------------------------------------
# The three surgery operations
# ---------------------------------------------------------------------------

def scale(sig: OrbifoldSignature, s: int) -> OrbifoldSignature:
    """Multiply every cone order by s (genus and multiplicities unchanged)."""
    if check_int(s, "scale factor", 1) == 1:
        return sig
    return OrbifoldSignature._trusted(sig.genus, tuple((s * order, count) for order, count in sig.cones))


def repeat(sig: OrbifoldSignature, t: int) -> OrbifoldSignature:
    """Multiply every cone multiplicity by t; equals the t-fold self-combine."""
    if check_int(t, "repeat factor", 1) == 1:
        return sig
    return OrbifoldSignature._trusted(sig.genus, tuple((order, t * count) for order, count in sig.cones))


def combine(a: OrbifoldSignature, b: OrbifoldSignature) -> OrbifoldSignature:
    """Merge the cone multisets of two signatures of the same genus."""
    if a.genus != b.genus:
        raise ValueError(f"cannot combine signatures of genus {a.genus} and {b.genus}")
    counts = dict(a.cones)
    for order, count in b.cones:
        counts[order] = counts.get(order, 0) + count
    return OrbifoldSignature._trusted(a.genus, tuple(sorted(counts.items())))


def remove_cone_point(sig: OrbifoldSignature, order: int) -> OrbifoldSignature:
    """Remove one cone point of the given order.

    Shifts every level-l characteristic by 1 - order**(l-1), identically in
    the level.
    """
    if sig.count_of(order) == 0:
        raise ValueError(f"no cone point of order {order} in {sig!r}")
    return OrbifoldSignature(sig.genus, Counter(dict(sig.cones)) - Counter({order: 1}))


# ---------------------------------------------------------------------------
# Matched base pairs
# ---------------------------------------------------------------------------

def base_pair(genus: int, seed: int) -> Pair:
    """Distinct pair agreeing at levels 0, 1, 2, parametrized by seed >= 2.

    The members are Sigma_g(2q+1, 2q+1, 2q^2+q) and
    Sigma_g(q+2, q^2+2q, q^2+2q) for q = seed; both have characteristics
    1/q - 1 - 2g, 2 - 2g, and 1 - 2g + 5q + 2q^2 at levels 0, 1, 2.
    """
    q = check_int(seed, "seed", 2)
    first = OrbifoldSignature(genus, [(2 * q + 1, 2), (2 * q * q + q, 1)])
    second = OrbifoldSignature(genus, [(q + 2, 1), (q * q + 2 * q, 2)])
    return first, second


def _equalizer(mode: str):
    """The factor rule of an equalization mode: cone counts k_1..k_N ->
    factors t_j with every t_j * k_j equal."""
    if mode == "lcm":
        return lambda counts: [lcm(*counts) // k for k in counts]
    if mode == "product":
        return lambda counts: [prod(counts[:j] + counts[j + 1:]) for j in range(len(counts))]
    raise ValueError(f"unknown equalization mode {mode!r}")


def equalize_cone_counts(pairs: list[Pair], mode: str = "lcm") -> list[Pair]:
    """Rescale each pair so all pairs share one common cone count.

    Within each input pair both members must already have the same, positive
    cone count.  Mode "lcm" uses t_j = lcm(k_1..k_N)/k_j (keeps counts
    small); mode "product" uses t_j = prod of the other counts.  Either
    choice preserves all within-pair characteristic equalities, since
    repeating cones acts identically on both members.
    """
    factors = _equalizer(mode)
    counts = []
    genus = None
    for first, second in pairs:
        k = first.cone_count
        if k != second.cone_count:
            raise ValueError("pair members have different cone counts")
        if k == 0:
            raise ValueError("cannot equalize a pair without cone points")
        if genus is None:
            genus = first.genus
        if first.genus != genus or second.genus != genus:
            raise ValueError("all pairs must share one genus")
        counts.append(k)
    return [
        (repeat(first, t), repeat(second, t))
        for (first, second), t in zip(pairs, factors(counts))
    ]


# ---------------------------------------------------------------------------
# Recursive collision-pair builder
# ---------------------------------------------------------------------------

# (scale, (cofactor, cofactor)): the scale-fold repeat of a pair of cofactors
ScaledPair = tuple[int, Pair]


def _merge_level(first: ScaledPair, second: ScaledPair, exponent: int) -> ScaledPair:
    """One recursive step: two pairs agreeing through level ``exponent``
    become one pair agreeing through level ``exponent + 1``.

    The four full-size members (each cofactor repeated by its scale) must
    share one cone count, so s * k(a) = t * k(c), and ``exponent`` is >= 0.
    If either pair already agrees at the next level it is passed through
    unchanged, scale included.  Otherwise the scales multiply and the
    cofactors are cross-weighted by their exponent-``exponent`` power-sum
    gaps, which cancel exactly at the next level, keeping lower ones equal.
    """
    s, (a, a2) = first
    t, (c, c2) = second
    delta1 = power_sum(a, exponent).numerator - power_sum(a2, exponent).numerator
    delta2 = power_sum(c2, exponent).numerator - power_sum(c, exponent).numerator
    if delta1 == 0:
        return first
    if delta2 == 0:
        return second
    if delta1 < 0:
        a, a2, delta1 = a2, a, -delta1
    if delta2 < 0:
        c, c2, delta2 = c2, c, -delta2
    return s * t, (
        combine(repeat(a, delta2), repeat(c, delta1)),
        combine(repeat(a2, delta2), repeat(c2, delta1)),
    )


def build_collision_pair(
    level: int,
    genus: int,
    seeds: list[int],
    equalize: str = "lcm",
) -> Pair:
    """Two distinct signatures with equal characteristics at levels 0..level.

    ``seeds`` parametrizes the base pairs: one seed suffices for level <= 2,
    and exactly 2**(level-2) strictly increasing seeds >= 2 are required for
    level >= 3.  Pairs are merged level by level, re-equalizing cone counts
    across the surviving pairs after each level (by the rule of
    ``equalize_cone_counts``).  The pair is the scale-fold repeat of a
    verified cofactor pair (distinctness plus characteristic equality), see
    ``_verify_family``.
    """
    scale, pair = _scaled_collision_pair(level, genus, seeds, equalize)
    return tuple(repeat(sig, scale) for sig in pair)


def _scaled_collision_pair(level: int, genus: int, seeds: list[int], equalize: str) -> tuple[int, Pair]:
    """``build_collision_pair`` as (scale, verified cofactor pair)."""
    check_int(level, "level", 0)
    seeds = sorted(check_int(s, "seed", 2) for s in seeds)
    if len(set(seeds)) != len(seeds):
        raise ValueError("seeds must be distinct")
    needed = 1 if level <= 2 else 2 ** (level - 2)
    if len(seeds) != needed:
        noun = "seed" if needed == 1 else "seeds"
        raise ValueError(f"level {level} needs exactly {needed} {noun}, got {len(seeds)}")

    pairs = [(1, base_pair(genus, s)) for s in seeds]
    factors = _equalizer(equalize)
    exponent = 2
    while len(pairs) > 1:
        merged = [
            _merge_level(pairs[i], pairs[i + 1], exponent)
            for i in range(0, len(pairs), 2)
        ]
        # Both members of a merged pair have the same cone count.
        counts = [s * first.cone_count for s, (first, _) in merged]
        pairs = [(s * t, pair) for (s, pair), t in zip(merged, factors(counts))]
        exponent += 1

    scale, pair = pairs[0]
    _verify_family(list(pair), level)
    return scale, pair


# ---------------------------------------------------------------------------
# Families from a pair
# ---------------------------------------------------------------------------

def expand_family(
    a: OrbifoldSignature,
    b: OrbifoldSignature,
    members: int,
    level: int,
) -> list[OrbifoldSignature]:
    """Grow a matched pair into ``members`` pairwise distinct signatures.

    Shared cone orders are first stripped from both sides (which shifts all
    characteristics identically), leaving disjoint cone supports; the j-th
    member is then the combine of members-j copies of the first stripped
    signature and j-1 copies of the second, each built with ``repeat``.
    Each member has a different number of cones of
    the first signature's orders, so all are distinct, while the common
    characteristic value 2 - 2g - (N-1)k + (N-1)*power_sum does not depend
    on j.

    The pair's own values are compared only if the built family fails its
    verification: members 1 and N differ at every level l by
    (N-1) * (chi_l(a) - chi_l(b)), so a verified family proves its pair.
    A pair that differs at some level l raises ValueError naming the first
    such l; otherwise the family's ConstructionError stands.
    """
    check_int(members, "family size", 2)
    check_int(level, "level", 0)
    if a.genus != b.genus:
        raise ValueError("pair members must share one genus")
    if a.cone_count != b.cone_count:
        raise ValueError("pair members must share one cone count")
    if a == b:
        raise ValueError("pair members must be distinct")

    cones_a, cones_b = Counter(dict(a.cones)), Counter(dict(b.cones))
    shared = cones_a & cones_b
    sides = [OrbifoldSignature(a.genus, cones - shared) for cones in (cones_a, cones_b)]
    family = [
        reduce(combine, [repeat(side, t) for t, side in zip((members - j, j - 1), sides) if t])
        for j in range(1, members + 1)
    ]
    try:
        _verify_family(family, level)
    except ConstructionError:
        for l in range(level + 1):
            if chi_level(a, l) != chi_level(b, l):
                raise ValueError(f"pair characteristics differ at level {l}") from None
        raise
    return family


def _verify_family(family: list[OrbifoldSignature], level: int) -> None:
    """Refuse a family not pairwise distinct or unequal at a level 0..level.
    For S >= 1 and genus g, repeat is injective and chi_l(repeat(x, S)) =
    (2 - 2g) + S * (chi_l(x) - (2 - 2g)): a family passes iff its repeat does."""
    if len(set(family)) != len(family):
        raise ConstructionError("family members are not pairwise distinct")
    for l in range(level + 1):
        values = {chi_level(sig, l) for sig in family}
        if len(values) != 1:
            raise ConstructionError(f"family characteristics differ at level {l}")


# ---------------------------------------------------------------------------
# Prime-avoiding seeds and general collections of groups
# ---------------------------------------------------------------------------

def prime_avoiding_seeds(primes, count: int = 1) -> list[int]:
    """Seeds j * (2 * prod(primes)) - 1 for j = 1..count.

    Each seed q is -1 modulo every given prime, hence q, 2q+1 and q+2 (and
    so also the base-pair orders q(2q+1) and q(q+2)) avoid all of them.
    """
    primes = sorted({check_int(p, "prime", 2) for p in primes})
    if not primes:
        raise ValueError("prime set must be nonempty")
    if any(_factorize(p) != {p: 1} for p in primes):
        raise ValueError(f"not a set of primes: {primes}")
    check_int(count, "count", 1)
    step = 2 * prod(primes)
    seeds = [j * step - 1 for j in range(1, count + 1)]
    for q in seeds:
        for p in primes:
            for order in (q, 2 * q + 1, q + 2):
                if order % p == 0:
                    raise ConstructionError(f"seed {q} hit prime {p}")
    return seeds


def general_gamma_family(
    groups: list[GammaDescriptor],
    members: int,
    genus: int,
) -> list[OrbifoldSignature]:
    """Distinct signatures whose characteristics agree for every given group.

    The abelianizations bound the level to their maximum rank; any prime
    dividing a torsion order is avoided in the cone orders, so that every
    homomorphism into a cone group kills the torsion part and the torsion
    contributes nothing.  The outputs are verified by recomputing chi_gamma
    for every descriptor.
    """
    if not groups:
        raise ValueError("group collection must be nonempty")
    abelian = [abelianize(gamma) for gamma in groups]
    level = max(ab.rank for ab in abelian)
    torsion_primes = sorted({p for ab in abelian for d in ab.torsion for p in _factorize(d)})
    needed = 1 if level <= 2 else 2 ** (level - 2)
    if torsion_primes:
        seeds = prime_avoiding_seeds(torsion_primes, needed)
    else:
        seeds = list(range(2, 2 + needed))
    pair = build_collision_pair(level, genus, seeds)
    family = expand_family(*pair, members, level)
    for gamma, ab in zip(groups, abelian):
        values = {chi_gamma(sig, ab) for sig in family}
        if len(values) != 1:
            raise ConstructionError(f"family characteristics differ for {gamma!r}")
    return family


def same_level_family(order: int, level: int, count: int) -> list[OrbifoldSignature]:
    """Signatures of growing genus whose level-``level`` characteristic is 2.

    For odd k = 1, 3, 5, ... the member has genus k*(order**(level-1) - 1)/2
    and k cone points of the given odd order, making
    2 - 2g - k + k*order**(level-1) collapse to 2 identically.
    """
    if check_int(order, "order", 3) % 2 == 0:
        raise ValueError(f"order must be odd, got {order}")
    check_int(level, "level", 2)
    check_int(count, "count", 1)
    family = []
    for k in range(1, 2 * count, 2):
        genus = k * (order ** (level - 1) - 1) // 2
        family.append(OrbifoldSignature(genus, [(order, k)]))
    return family
