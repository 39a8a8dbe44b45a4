"""Characteristic sequences, reconstruction, enumeration, collision search."""

import random
import time
from fractions import Fraction
from functools import cache
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given, settings, strategies as st

import orbichar.classify
from orbichar import (
    CollisionGroup,
    InsufficientData,
    InvalidSequenceError,
    OrbifoldSignature,
    base_pair,
    char_sequence,
    chi_es,
    enumerate_by_chi_es,
    iter_signatures_by_chi_es,
    minimal_recurrence,
    reconstruct,
    search_collisions,
)
from orbichar.classify import _divide_root, _horner, _integer_roots
from orbichar.core import check_int, check_rational, chi_level


def sig(genus, *orders):
    return OrbifoldSignature.from_orders(genus, *orders)


# ---------------------------------------------------------------------------
# char_sequence
# ---------------------------------------------------------------------------

def test_char_sequence_base_pair():
    assert char_sequence(sig(0, 5, 5, 10), 2) == [Fraction(-1, 2), 2, 19]


def test_char_sequence_manifold_is_constant():
    assert char_sequence(sig(3), 5) == [Fraction(-4)] * 6


def test_char_sequence_torus_with_one_cone():
    assert char_sequence(sig(1, 2), 3) == [Fraction(-1, 2), 0, 1, 3]


# ---------------------------------------------------------------------------
# minimal_recurrence
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "seq, coefficients, depth",
    [
        ([1, 2, 4, 8, 16], [Fraction(2)], 1),
        ([1, 1, 2, 3, 5, 8], [Fraction(1), Fraction(1)], 2),
        ([2, 5, 13, 35, 97], [Fraction(5), Fraction(-6)], 2),  # 2^j + 3^j
        ([0, 0, 0], [], 0),
        # undetermined (5 terms, depth 3): an integer form whose discrepancy
        # starts at 1 instead of the lcm of the denominators ends in -28
        (
            [0, 0, Fraction(-4, 9), -1, Fraction(-12, 7)],
            [Fraction(9, 4), Fraction(-135, 112), Fraction(-4, 9)],
            3,
        ),
    ],
)
def test_minimal_recurrence(seq, coefficients, depth):
    got_coeffs, got_depth = minimal_recurrence(seq)
    assert got_depth == depth
    assert got_coeffs == coefficients


def fraction_recurrence(seq):
    """Oracle: Berlekamp-Massey over Fractions, with a monic connection polynomial."""
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


def _random_term(rng):
    kind = rng.random()
    if kind < 0.3:
        return 0
    if kind < 0.7:
        return rng.randint(-20, 20)
    if kind < 0.8:
        return rng.randint(-10**12, 10**12)
    return Fraction(rng.randint(-30, 30), rng.randint(1, 12))


def _random_sequence(rng):
    """Free terms, or the terms of a random recurrence with one term
    sometimes changed, with leading and trailing zeros now and then."""
    length = rng.randint(0, 12)
    if rng.random() < 0.4:
        seq = [_random_term(rng) for _ in range(length)]
    else:
        order = rng.randint(1, 4)
        coefficients = [_random_term(rng) for _ in range(order)]
        seq = [_random_term(rng) for _ in range(order)]
        while len(seq) < length:
            seq.append(sum(c * seq[-1 - i] for i, c in enumerate(coefficients)))
        del seq[length:]
        if seq and rng.random() < 0.3:
            seq[rng.randrange(length)] = _random_term(rng)
    if rng.random() < 0.2:
        seq = [0] * rng.randint(1, 4) + seq
    if rng.random() < 0.2:
        seq += [0] * rng.randint(1, 4)
    return seq


@pytest.mark.parametrize("seed", range(4))
def test_minimal_recurrence_matches_fraction_oracle(seed):
    rng = random.Random(seed)
    for _ in range(1000):
        seq = _random_sequence(rng)
        got = minimal_recurrence(seq)
        assert got == fraction_recurrence(seq), seq
        assert all(type(c) is Fraction for c in got[0]), seq


def test_minimal_recurrence_generates_sequence():
    seq = [7 * 2**j + 3 * 5**j + 11**j for j in range(10)]
    coeffs, depth = minimal_recurrence(seq)
    assert depth == 3
    for j in range(depth, len(seq)):
        assert seq[j] == sum(coeffs[i] * seq[j - 1 - i] for i in range(depth))


# ---------------------------------------------------------------------------
# reconstruct
# ---------------------------------------------------------------------------

def test_reconstruct_round_trip_examples():
    for signature, length in [
        (sig(0, 5, 5, 10), 7),
        (sig(2, 3, 3, 7), 8),
        (sig(0), 1),
        (sig(5), 9),
        (OrbifoldSignature(1, {2: 20, 49: 3}), 6),
    ]:
        assert reconstruct(char_sequence(signature, length)) == signature


def test_reconstruct_sphere_from_two_values():
    assert reconstruct([2, 2]) == sig(0)
    assert reconstruct([Fraction(-2), Fraction(-2)]) == sig(2)


def test_reconstruct_base_pair_truncation_is_insufficient():
    shared = char_sequence(sig(0, 5, 5, 10), 2)
    assert shared == char_sequence(sig(0, 4, 8, 8), 2)
    assert isinstance(reconstruct(shared), InsufficientData)


def test_reconstruct_single_cone_short_sequence_is_insufficient():
    assert isinstance(reconstruct(char_sequence(sig(0, 7), 1)), InsufficientData)


def test_reconstruct_is_monotone_in_information():
    signature = OrbifoldSignature(2, {3: 4, 5: 1, 30: 2})
    results = [reconstruct(char_sequence(signature, length)) for length in range(1, 12)]
    committed = [r for r in results if isinstance(r, OrbifoldSignature)]
    assert committed and all(r == signature for r in committed)
    first = next(i for i, r in enumerate(results) if isinstance(r, OrbifoldSignature))
    assert all(isinstance(r, OrbifoldSignature) for r in results[first:])


@settings(max_examples=60, deadline=None)
@given(
    st.builds(
        OrbifoldSignature,
        st.integers(0, 5),
        st.dictionaries(st.integers(2, 50), st.integers(1, 20), min_size=1, max_size=4),
    )
)
def test_reconstruct_round_trip_property(signature):
    depth = len(signature.cones)
    assert reconstruct(char_sequence(signature, 2 * depth + 2)) == signature


@pytest.mark.parametrize(
    "values",
    [
        [2],  # too short
        [2, 1],  # level-1 value odd
        [2, Fraction(1, 2)],  # level-1 value fractional
        [2, 4],  # genus would be negative
        [0, 0, 1, Fraction(5, 2)],  # fractional difference
        [0, 0, 5, 4],  # decreasing tail
        [0, 0, 5, 7],  # differences must double
        [0, 0, 5, 10, 21],  # mixed: 5,10 then non-doubling 11... consistent? no: 21-10=11 >= 2*? 11 >= 10? no
        [Fraction(-1), 0, 0, 0],  # zero differences but chi_es mismatch
        [Fraction(1, 3), 2],  # cone deficit 5/3 admits no cone count? k in (5/3, 10/3] exists -> actually valid
    ],
)
def test_reconstruct_rejects_invalid_sequences(values):
    if values == [Fraction(1, 3), 2]:
        # deficit 5/3 allows k = 2 or 3; data is merely insufficient
        assert isinstance(reconstruct(values), InsufficientData)
        return
    with pytest.raises(InvalidSequenceError):
        reconstruct(values)


def test_reconstruct_rejects_impossible_cone_deficit():
    # values[1] - values[0] = 1/3 < 1/2 cannot be a sum of (1 - 1/m) terms
    with pytest.raises(InvalidSequenceError):
        reconstruct([Fraction(5, 3), 2])


def test_reconstruct_round_trip_mismatch_is_invalid():
    # differences fit Sigma_0(3,3,9) exactly, but the level-0 value is off
    values = char_sequence(sig(0, 3, 3, 9), 9)
    values[0] += 1
    with pytest.raises(InvalidSequenceError):
        reconstruct(values)


def test_reconstruct_non_integer_root_is_invalid():
    # differences 4, 10, 25 follow the ratio 5/2: over-determined, no order
    with pytest.raises(InvalidSequenceError):
        reconstruct([0, 2, 6, 16, 41])


def test_reconstruct_recurrence_without_order_roots():
    # differences 2, 4, 10, 28 are 3**j + 1: roots 3 and 1, and 1 is no cone order
    assert isinstance(reconstruct([0, 2, 4, 8, 18, 46]), InsufficientData)
    with pytest.raises(InvalidSequenceError):
        reconstruct([0, 2, 4, 8, 18, 46, 128])
    # differences 1, 4, 11, 24 follow d[j+2] = 4 d[j+1] - 5 d[j]: roots 2 +- i
    assert isinstance(reconstruct([0, 2, 3, 7, 18, 42]), InsufficientData)


def test_reconstruct_non_integer_multiplicity_is_invalid():
    # differences 3, 9, 27 give order 3 with weight 3, multiplicity 3/2
    with pytest.raises(InvalidSequenceError):
        reconstruct([0, 2, 5, 14, 41])


def test_reconstruct_tail_perturbation_stays_safe():
    # corrupting the last value leaves too little data to over-determine a
    # recurrence, so the answer degrades to InsufficientData, never a wrong
    # signature
    values = char_sequence(sig(0, 3, 3, 9), 9)
    values[-1] += 1
    assert isinstance(reconstruct(values), InsufficientData)


# The Fraction-path reconstruct as it stood before levels >= 1 were read as
# ints, kept as the reference of the differential test below: only its name,
# its annotations and its Fraction char_sequence are renamed.
def fraction_char_sequence(sig, length):
    return [chi_level(sig, l) for l in range(check_int(length, "length", 0) + 1)]


def fraction_reconstruct(values):
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

    def fail():
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
    if fraction_char_sequence(candidate, len(values) - 1) != values:
        return fail()
    return candidate


def _outcome(function, values):
    """The result, or the type and text of the exception raised."""
    try:
        return function(values)
    except Exception as exc:  # whatever is raised is part of the outcome compared
        return type(exc), str(exc)


_ORDERS = st.one_of(st.integers(2, 60), st.integers(10**3, 10**7))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 3), st.lists(_ORDERS, min_size=1, max_size=6), st.data())
def test_integer_reconstruct_matches_fraction_reference(genus, orders, data):
    signature = sig(genus, *orders)
    values = char_sequence(signature, 2 * len(signature.cones) + 1)
    level = data.draw(st.integers(2, len(values) - 1), label="level")
    p = data.draw(st.integers(2, 60), label="p")
    non_integer = list(values)
    non_integer[level] += Fraction(1, p)
    negative = list(values)
    negative[level] = values[level - 1] - 1
    shrunk = list(values)
    shrunk[-1] -= data.draw(st.integers(1, values[-1] - values[-2]), label="shrink")
    shifted = list(values)
    shifted[0] += Fraction(1, p)
    bumped = list(values)  # mostly a recurrence with non-integer coefficients
    bumped[level] += data.draw(st.integers(1, 3), label="bump")
    for case in (values, non_integer, negative, shrunk, shifted, bumped):
        for length in range(len(case) + 1):
            prefix = case[:length]
            assert _outcome(reconstruct, prefix) == _outcome(fraction_reconstruct, prefix)


def test_reconstruct_fits_through_the_module_recurrence(monkeypatch):
    # the benchmark's tracer times the recurrence by wrapping this name, so
    # reconstruct must reach it through the module, once per sequence whose
    # differences are not all zero
    calls = []

    def counting(seq):
        calls.append(list(seq))
        return minimal_recurrence(seq)

    monkeypatch.setattr(orbichar.classify, "minimal_recurrence", counting)
    signatures = (sig(0, 5, 5, 10), sig(2, 3, 3, 7), sig(1, 10**6), sig(3, 2, 60, 60))
    for signature in signatures:
        for length in range(2, 2 * len(signature.cones) + 2):
            calls.clear()
            reconstruct(char_sequence(signature, length))
            assert len(calls) == 1, (signature, length)
    for values in ([2, 2], [0, 0, 0], [1, 2], [Fraction(3, 2), 2]):
        calls.clear()
        reconstruct(values)
        assert calls == [], values


# ---------------------------------------------------------------------------
# enumeration by Euler-Satake value
# ---------------------------------------------------------------------------

def naive_enumerate(target, order_cap):
    """Independent oracle: genus/count double loop plus a bounded scan over
    nondecreasing order tuples with plain feasibility pruning."""
    target = Fraction(target)
    found = []
    genus = 0
    while Fraction(2 - 2 * genus) >= target:
        count_cap = int(2 * (2 - 2 * genus - target))
        for k in range(count_cap + 1):
            need = target - (2 - 2 * genus - k)
            stack = [((), 2, Fraction(0))]
            while stack:
                prefix, lo, total = stack.pop()
                if len(prefix) == k:
                    if total == need:
                        found.append(OrbifoldSignature.from_orders(genus, *prefix))
                    continue
                remaining = k - len(prefix)
                for m in range(lo, order_cap + 1):
                    branch = total + Fraction(1, m)
                    if branch + Fraction(remaining - 1, order_cap) > need:
                        continue
                    if branch + Fraction(remaining - 1, m) < need:
                        break  # later orders only shrink the attainable sum
                    stack.append((prefix + (m,), m, branch))
        genus += 1
    return sorted(found, key=OrbifoldSignature.sort_key)


@pytest.mark.parametrize(
    "target",
    [
        Fraction(2),
        Fraction(1),
        Fraction(1, 2),
        Fraction(0),
        Fraction(-1, 2),
        Fraction(-1),  # 19 signatures, up to six cones
        Fraction(-3, 2),  # 131 signatures, up to seven cones
        Fraction(-2),  # 173 signatures, up to eight cones
    ],
)
def test_enumerate_matches_naive_oracle(target):
    # the largest order is 42 down to -1, and 1806 = 42 * 43 at -3/2 and -2
    order_cap = 48 if target >= -1 else 1806
    exact = enumerate_by_chi_es(target)
    assert exact == naive_enumerate(target, order_cap)
    assert len(set(exact)) == len(exact)
    assert exact == sorted(exact, key=OrbifoldSignature.sort_key)
    assert all(chi_es(signature) == target for signature in exact)
    # enumerated signatures skip validation, so their cones must already be
    # the canonical runs that the validating constructor builds
    assert all(s == OrbifoldSignature(s.genus, s.cones) for s in exact)


def test_enumerate_known_small_sets():
    assert enumerate_by_chi_es(2) == [sig(0)]
    assert enumerate_by_chi_es(Fraction(5, 2)) == []
    zero = enumerate_by_chi_es(0)
    assert zero == [
        sig(0, 2, 3, 6),
        sig(0, 2, 4, 4),
        sig(0, 3, 3, 3),
        sig(0, 2, 2, 2, 2),
        sig(1),
    ]


def test_enumerate_finds_large_orders():
    # 1/3 + 1/7 + 1/42 == 1/2 produces an order far above the small ones
    exact = enumerate_by_chi_es(Fraction(-1, 2))
    assert sig(0, 3, 7, 42) in exact


@pytest.mark.parametrize("target", [True, False, 1.0, -0.5, "1", None, [1]])
def test_enumerate_rejects_targets_that_are_not_rationals(target):
    # True used to enumerate as 1 and floats were converted silently
    with pytest.raises(ValueError):
        enumerate_by_chi_es(target)
    with pytest.raises(ValueError):
        next(iter_signatures_by_chi_es(target))


@pytest.mark.parametrize(
    "values",
    [
        [-0.5, 2, float("inf")],
        ["1/2", 2],
        [2.0, 2.0],
        [0.5, 0.25, 0.125],
        [True, True],
        ["1/2", "1/4", "1/8"],
    ],
)
def test_reconstruct_takes_exact_values_only(values):
    # a float, a bool or a string is refused, never converted
    with pytest.raises(ValueError, match="sequence value must be an int or Fraction"):
        reconstruct(values)
    with pytest.raises(ValueError, match="sequence value must be an int or Fraction"):
        minimal_recurrence(values)


def test_iterator_is_streaming_and_ordered():
    from itertools import islice

    first_three = list(islice(iter_signatures_by_chi_es(Fraction(-1, 2)), 3))
    assert first_three == enumerate_by_chi_es(Fraction(-1, 2))[:3]


def _scan_final_pairs(p, q, lo):
    """Oracle: every m1 in the window, kept when 1/m2 = p/q - 1/m1 is a unit fraction."""
    pairs = []
    for m1 in range(max(lo, -(-q // p)), 2 * q // p + 1):
        num, den = p * m1 - q, q * m1
        if num > 0 and den % num == 0:
            pairs.append((m1, den // num))
    return pairs


def _scans(p, q):
    """The cost rule: scan while q/p <= 64 or (q/p)**2 <= 16*q."""
    span = Fraction(q, p)
    return span <= 64 or span**2 <= 16 * q


@pytest.fixture
def factorize_calls(monkeypatch):
    """Count the divisor branch of _iter_final_pairs through its _factorize call."""
    from orbichar import classify

    calls = []
    original = classify._factorize

    def spy(n):
        calls.append(n)
        return original(n)

    monkeypatch.setattr(classify, "_factorize", spy)
    return calls


@pytest.mark.parametrize(
    "p, q",
    [(1, 200000), (3, 700001), (4, 300003), (7, 1000003)],
)
def test_final_pair_divisor_method_matches_scan(p, q, factorize_calls):
    # (q/p)**2 > 16*q for all four, so the divisors of q*q list the
    # candidates; re-derive the same pairs with a plain scan
    from math import gcd as _gcd

    from orbichar.classify import _iter_final_pairs

    assert _gcd(p, q) == 1 and not _scans(p, q)
    fast = list(_iter_final_pairs(p, q, 2))
    assert factorize_calls == [q]
    assert fast == _scan_final_pairs(p, q, 2)
    assert all(m1 <= m2 for m1, m2 in fast)


def test_final_pairs_match_scan_on_random_inputs(factorize_calls):
    # both branches, p | q (p == 1 in lowest terms), lower bounds inside and
    # above the window, q up to 10**7; spans are capped so that the oracle
    # scan stays short
    import random
    from math import gcd

    from orbichar.classify import _iter_final_pairs

    rng = random.Random(20091)
    # the boundaries: q/p == 64 for p < 4, and (q/p)**2 == 16*q, reached in
    # lowest terms only at p == 1, q == 16; beyond, q == 16*p*p +- 1 straddle it
    cases = [(1, 16, 2), (1, 64, 2), (1, 65, 2), (2, 127, 3), (2, 129, 3), (3, 191, 2), (3, 193, 2)]
    for p in (4, 5, 7, 13, 31, 101):
        cases += [(p, 16 * p * p - 1, 2), (p, 16 * p * p + 1, 2)]
    for _ in range(2000):
        q = int(10 ** rng.uniform(0, 7))
        span = int(10 ** rng.uniform(0, min(4.3, len(str(q)) - 1)))
        p = max(1, q // span + rng.randint(-1, 1))
        p, q = (1, span) if rng.random() < 0.1 else (p // gcd(p, q), q // gcd(p, q))
        window = 2 * q // p + 1
        lo = rng.choice([2, rng.randint(2, window + 1), window + rng.randint(1, 100)])
        cases.append((p, q, lo))
    for p, q, lo in cases:
        factorize_calls.clear()
        fast = list(_iter_final_pairs(p, q, lo))
        assert fast == _scan_final_pairs(p, q, lo), (p, q, lo)
        assert factorize_calls == ([] if _scans(p, q) else [q]), (p, q, lo)
    assert {_scans(p, q) for p, q, _ in cases} == {True, False}


def _trial_factorize(n):
    factors = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def test_factorize_matches_trial_division():
    import random

    from orbichar.classify import _factorize

    rng = random.Random(20092)
    # around the trial-division limit 1025: its square, products of the
    # primes on either side of it, and random values up to 10**12
    cases = [*range(1, 3000), 1021**2, 1021 * 1031, 1031**2, 1049 * 1051 * 1061, 2**20 * 3]
    cases += [rng.randrange(1, 10**12) for _ in range(50)]
    for n in cases:
        factors = _factorize(n)
        assert factors == _trial_factorize(n), n
        assert list(factors) == sorted(factors)


@pytest.mark.parametrize(
    "factors",
    [
        {998244353: 1, 1000000007: 1},
        {2147483647: 1, 2305843009213693951: 1},
        {1000000007: 1, 1000000009: 1},
        {999999999989: 1, 1000000000039: 1},
        {2: 3, 3: 1, 998244353: 1, 1000000007: 2},
        {1000000007: 3},
        {998244353: 2, 1000000007: 2},
        {1021: 5},
        {1000000000000000003: 1},
    ],
)
def test_factorize_large_prime_factors(factors):
    # semiprimes and prime powers beyond trial division's reach, two of
    # them past the bound below which Miller-Rabin is exact
    from math import prod

    from orbichar.classify import _factorize

    n = prod(p**e for p, e in factors.items())
    start = time.process_time()
    assert _factorize(n) == factors
    assert time.process_time() - start < 2


def test_final_pair_divisor_method_respects_lower_bound():
    from orbichar.classify import _iter_final_pairs

    full = list(_iter_final_pairs(1, 200000, 2))
    bounded = list(_iter_final_pairs(1, 200000, 250000))
    assert bounded == [(m1, m2) for m1, m2 in full if m1 >= 250000]


def test_reconstruct_recovers_constructed_collision_member():
    from orbichar import build_collision_pair

    first, second = build_collision_pair(3, 0, [2, 3])
    for member in (first, second):
        depth = len(member.cones)
        assert reconstruct(char_sequence(member, 2 * depth + 2)) == member


def test_reconstruct_never_returns_a_mismatched_signature():
    # perturbing any single value of a genuine sequence must yield the
    # perturbed sequence's own signature (if one exists), InsufficientData,
    # or a rejection; never a signature whose sequence differs from the input
    for signature in (sig(0, 5, 5, 10), sig(2, 3, 3, 7), sig(1, 2), sig(4)):
        depth = max(len(signature.cones), 1)
        values = char_sequence(signature, 2 * depth + 2)
        for position in range(len(values)):
            for nudge in (1, -1, Fraction(1, 2)):
                perturbed = list(values)
                perturbed[position] += nudge
                try:
                    result = reconstruct(perturbed)
                except InvalidSequenceError:
                    continue
                if isinstance(result, OrbifoldSignature):
                    assert char_sequence(result, len(perturbed) - 1) == perturbed
                else:
                    assert isinstance(result, InsufficientData)


def test_reconstruct_many_orders_with_beyond_word_counts():
    from orbichar import build_collision_pair

    member = build_collision_pair(5, 0, list(range(2, 10)))[1]
    depth = len(member.cones)
    assert depth >= 10
    assert member.cone_count > 2**64
    assert reconstruct(char_sequence(member, 2 * depth + 2)) == member


@pytest.mark.parametrize(
    "signature",
    [
        OrbifoldSignature(0, {10**7: 1}),
        OrbifoldSignature(0, {10**9: 1}),
        OrbifoldSignature(0, {10**30: 1}),
        OrbifoldSignature(0, {2: 5, 10**30: 1, (10**30 + 1) ** 2: 1}),
        OrbifoldSignature(1, {7: 2, 10**9: 3}),
    ],
)
def test_reconstruct_large_orders_quickly(signature):
    # the root search must not grow with the size of the largest order
    values = char_sequence(signature, 2 * len(signature.cones) + 2)
    start = time.process_time()  # CPU time: a loaded host must not fail the bound
    result = reconstruct(values)
    assert time.process_time() - start < 0.05
    assert result == signature


# ---------------------------------------------------------------------------
# collision search
# ---------------------------------------------------------------------------

def test_search_finds_base_pair():
    groups = search_collisions(0, 3, 10, 2)
    target = {sig(0, 5, 5, 10), sig(0, 4, 8, 8)}
    assert any(target <= set(group.signatures) for group in groups)
    for group in groups:
        assert group.values == tuple(char_sequence(group.signatures[0], 2))


def test_search_level_zero_groups_exist():
    groups = search_collisions(0, 2, 6, 0)
    assert groups
    for group in groups:
        values = {chi_es(signature) for signature in group.signatures}
        assert len(values) == 1


def test_search_long_sequences_separate_everything():
    for genus_max in range(3):
        for count_max in range(4):
            assert search_collisions(genus_max, count_max, 8, 2 * count_max + 2) == []


@cache
def _signature_and_sequence(genus, orders, level):
    signature = sig(genus, *orders)
    return signature, tuple(char_sequence(signature, level))


def _reference_search(genus_max, count_max, order_max, level):
    """Straightforward grouping by tuple(char_sequence(sig, level))."""
    buckets = {}
    for genus in range(genus_max + 1):
        for k in range(count_max + 1):
            for orders in combinations_with_replacement(range(2, order_max + 1), k):
                signature, values = _signature_and_sequence(genus, orders, level)
                buckets.setdefault(values, []).append(signature)
    groups = [
        CollisionGroup(values, tuple(sorted(members, key=OrbifoldSignature.sort_key)))
        for values, members in buckets.items()
        if len(members) >= 2
    ]
    return sorted(groups, key=lambda group: group.signatures[0].sort_key())


def test_search_matches_reference_grouping():
    for window in product(range(3), range(5), range(1, 11), range(5)):
        assert repr(search_collisions(*window)) == repr(_reference_search(*window)), window


def test_search_level_zero_groups_span_genera():
    # the level-0 key has no 2 - 2g entry, so buckets must not split by genus
    groups = search_collisions(1, 3, 5, 0)
    assert any(
        len({signature.genus for signature in group.signatures}) == 2 for group in groups
    )
    assert any({sig(1), sig(0, 3, 3, 3)} <= set(group.signatures) for group in groups)


def test_search_rejects_key_that_splits_sequences(monkeypatch):
    def skewed(signature, length):
        return [value + signature.genus for value in char_sequence(signature, length)]

    monkeypatch.setattr(orbichar.classify, "char_sequence", skewed)
    with pytest.raises(RuntimeError):
        search_collisions(1, 3, 5, 0)


def test_search_rejects_negative_bounds():
    with pytest.raises(ValueError):
        search_collisions(-1, 2, 5, 2)
