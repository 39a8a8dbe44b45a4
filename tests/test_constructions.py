"""Surgery operations and collision-family builders."""

import warnings
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from orbichar import (
    ConstructionError,
    FgAbelian,
    FreeGroup,
    OrbifoldSignature,
    base_pair,
    build_collision_pair,
    chi_es,
    chi_gamma,
    chi_level,
    combine,
    equalize_cone_counts,
    expand_family,
    general_gamma_family,
    is_diffeomorphic,
    prime_avoiding_seeds,
    remove_cone_point,
    repeat,
    same_level_family,
    scale,
)


def sig(genus, *orders):
    return OrbifoldSignature.from_orders(genus, *orders)


def agree_through(a, b, level):
    return all(chi_level(a, l) == chi_level(b, l) for l in range(level + 1))


# ---------------------------------------------------------------------------
# scale / repeat / combine / remove
# ---------------------------------------------------------------------------

def test_scale():
    assert scale(sig(0, 2, 3), 2) == sig(0, 4, 6)
    assert scale(sig(1, 5), 1) == sig(1, 5)
    assert scale(sig(0, 2, 2), 3) == sig(0, 6, 6)
    with pytest.raises(ValueError):
        scale(sig(0, 2), 0)


def test_repeat():
    assert repeat(sig(0, 5, 10), 3) == sig(0, 5, 5, 5, 10, 10, 10)
    assert repeat(sig(0, 5, 10), 1) == sig(0, 5, 10)
    assert repeat(sig(3), 7) == sig(3)
    with pytest.raises(ValueError):
        repeat(sig(0, 2), 0)


@pytest.mark.parametrize("t", range(1, 6))
def test_repeat_equals_iterated_combine(t):
    base = OrbifoldSignature(2, {3: 2, 7: 1})
    folded = base
    for _ in range(t - 1):
        folded = combine(folded, base)
    assert repeat(base, t) == folded


def test_combine():
    assert combine(sig(0, 5, 5, 10), sig(0, 4, 8, 8)) == sig(0, 4, 5, 5, 8, 8, 10)
    assert combine(sig(4), sig(4, 2, 9)) == sig(4, 2, 9)
    with pytest.raises(ValueError):
        combine(sig(0, 2), sig(1, 2))


small_signatures = st.builds(
    OrbifoldSignature,
    st.just(1),
    st.dictionaries(st.integers(2, 12), st.integers(1, 4), max_size=3),
)


@given(small_signatures, small_signatures, small_signatures)
def test_combine_commutative_associative(a, b, c):
    assert combine(a, b) == combine(b, a)
    assert combine(combine(a, b), c) == combine(a, combine(b, c))


def test_remove_cone_point():
    assert remove_cone_point(sig(0, 5, 5, 10), 5) == sig(0, 5, 10)
    assert remove_cone_point(sig(0, 3), 3) == sig(0)
    with pytest.raises(ValueError):
        remove_cone_point(sig(0, 3), 4)


def test_remove_cone_point_chi_shift():
    assert chi_level(remove_cone_point(sig(0, 5, 5, 10), 5), 2) == 19 + 1 - 5


@given(small_signatures, st.integers(0, 5))
def test_remove_cone_point_shifts_all_levels(signature, level):
    for order, _ in signature.cones:
        removed = remove_cone_point(signature, order)
        order_power = Fraction(1, order) if level == 0 else Fraction(order) ** (level - 1)
        assert chi_level(removed, level) == chi_level(signature, level) + 1 - order_power


# ---------------------------------------------------------------------------
# base pairs
# ---------------------------------------------------------------------------

def test_base_pair_seed_two():
    first, second = base_pair(0, 2)
    assert first == sig(0, 5, 5, 10)
    assert second == sig(0, 4, 8, 8)


@pytest.mark.parametrize("seed", range(2, 11))
@pytest.mark.parametrize("genus", range(4))
def test_base_pair_characteristics(seed, genus):
    from fractions import Fraction

    first, second = base_pair(genus, seed)
    expected = [
        Fraction(1, seed) - 1 - 2 * genus,
        Fraction(2 - 2 * genus),
        Fraction(1 - 2 * genus + 5 * seed + 2 * seed * seed),
    ]
    assert [chi_level(first, l) for l in range(3)] == expected
    assert [chi_level(second, l) for l in range(3)] == expected
    assert not is_diffeomorphic(first, second)


def test_base_pairs_all_distinct():
    members = []
    for genus in range(3):
        for seed in range(2, 8):
            members.extend(base_pair(genus, seed))
    assert len(set(members)) == len(members)


def test_base_pair_rejects_small_seed():
    with pytest.raises(ValueError):
        base_pair(0, 1)


# ---------------------------------------------------------------------------
# equalization
# ---------------------------------------------------------------------------

def test_equalize_already_equal_counts():
    pairs = [base_pair(0, 2), base_pair(0, 3)]
    assert equalize_cone_counts(pairs) == pairs


def test_equalize_product_mode():
    three = (sig(0, 2, 3, 7), sig(0, 2, 3, 7))
    four = (sig(0, 2, 2, 3, 3), sig(0, 2, 2, 3, 3))
    # counts 3 and 4 -> product factors 4 and 3, common count 12
    out = equalize_cone_counts([three, four], mode="product")
    assert {pair[0].cone_count for pair in out} == {12}
    assert {pair[1].cone_count for pair in out} == {12}


def test_equalize_lcm_mode():
    four = (OrbifoldSignature(0, {2: 4}), OrbifoldSignature(0, {3: 4}))
    six = (OrbifoldSignature(0, {5: 6}), OrbifoldSignature(0, {7: 6}))
    out = equalize_cone_counts([four, six], mode="lcm")
    assert out[0][0] == OrbifoldSignature(0, {2: 12})
    assert out[1][0] == OrbifoldSignature(0, {5: 12})


def test_equalize_preserves_pair_equalities():
    pairs = [base_pair(0, 2), base_pair(0, 3)]
    for first, second in equalize_cone_counts(pairs, mode="product"):
        assert agree_through(first, second, 2)


def test_equalize_rejects_empty_and_mismatched():
    with pytest.raises(ValueError):
        equalize_cone_counts([(sig(0), sig(0))])
    with pytest.raises(ValueError):
        equalize_cone_counts([(sig(0, 2), sig(0, 2, 2))])
    with pytest.raises(ValueError):
        equalize_cone_counts([(sig(0, 2), sig(0, 3)), (sig(1, 2), sig(1, 3))])


@pytest.mark.parametrize(
    "pairs, mode, message",
    [
        ([(sig(0, 2), sig(0, 2, 2))], "lcm", "different cone counts"),
        ([(sig(0), sig(0))], "lcm", "without cone points"),
        ([(sig(0, 2), sig(0, 3)), (sig(1, 2), sig(1, 3))], "product", "one genus"),
        ([(sig(0, 2), sig(0, 3))], "gcd", "unknown equalization mode"),
    ],
)
def test_equalize_error_messages(pairs, mode, message):
    with pytest.raises(ValueError, match=message):
        equalize_cone_counts(pairs, mode=mode)


# ---------------------------------------------------------------------------
# the recursive builder
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("level, seeds", [(0, [2]), (2, [2]), (3, [2, 3])])
def test_build_collision_pair_rejects_unknown_mode_at_every_level(level, seeds):
    with pytest.raises(ValueError, match="unknown equalization mode 'bogus'"):
        build_collision_pair(level, 0, seeds, equalize="bogus")


def test_build_level_two_is_base_pair():
    assert build_collision_pair(2, 0, [2]) == base_pair(0, 2)
    assert build_collision_pair(0, 5, [7]) == base_pair(5, 7)


def test_build_level_three_golden():
    first, second = build_collision_pair(3, 0, [2, 3])
    assert dict(first.cones) == {5: 134, 10: 64, 15: 12}
    assert dict(second.cones) == {4: 64, 7: 12, 8: 128, 21: 6}


@pytest.mark.parametrize("level", range(2, 7))
def test_build_collision_pair_postconditions(level):
    seeds = list(range(2, 2 + max(1, 2 ** (level - 2))))
    first, second = build_collision_pair(level, 0, seeds)
    assert first != second
    assert first.genus == second.genus == 0
    assert first.cone_count == second.cone_count
    assert agree_through(first, second, level)


def test_build_collision_pair_any_genus():
    first, second = build_collision_pair(3, 5, [2, 3])
    assert first.genus == second.genus == 5
    assert agree_through(first, second, 3)


def test_build_collision_pair_product_equalization():
    first, second = build_collision_pair(4, 0, [2, 3, 4, 5], equalize="product")
    assert first != second
    assert agree_through(first, second, 4)


def test_build_disagreement_appears_quickly():
    found_early = False
    for level in range(2, 6):
        seeds = list(range(2, 2 + max(1, 2 ** (level - 2))))
        first, second = build_collision_pair(level, 0, seeds)
        disagree = next(
            (l for l in range(level + 1, level + 9) if chi_level(first, l) != chi_level(second, l)),
            None,
        )
        if disagree is None:
            warnings.warn(
                f"level-{level} pair still agrees at level {level + 8}; inspect manually"
            )
        elif disagree <= level + 3:
            found_early = True
    assert found_early


def test_merge_level_pass_through():
    from orbichar.constructions import _merge_level

    deep = build_collision_pair(3, 0, [2, 3])  # agrees through level 3
    shallow = base_pair(0, 5)
    scale_up = deep[0].cone_count // shallow[0].cone_count
    shallow = (repeat(shallow[0], scale_up), repeat(shallow[1], scale_up))
    # whichever side already agrees at the next level passes through
    # unchanged instead of being merged
    assert _merge_level(deep, shallow, 2) == deep
    assert _merge_level(shallow, deep, 2) == deep


def test_build_collision_pair_seed_validation():
    with pytest.raises(ValueError):
        build_collision_pair(3, 0, [2])  # needs 2 seeds
    with pytest.raises(ValueError):
        build_collision_pair(2, 0, [2, 3])  # needs 1 seed
    with pytest.raises(ValueError):
        build_collision_pair(3, 0, [2, 2])
    with pytest.raises(ValueError):
        build_collision_pair(3, 0, [1, 2])


# ---------------------------------------------------------------------------
# operations preserve matched characteristics
# ---------------------------------------------------------------------------

matched_pairs = st.builds(base_pair, st.integers(0, 3), st.integers(2, 9))


@given(matched_pairs, st.integers(1, 6))
def test_scale_preserves_equalities(pair, s):
    assert agree_through(scale(pair[0], s), scale(pair[1], s), 2)


@given(matched_pairs, st.integers(1, 6))
def test_repeat_preserves_equalities(pair, t):
    assert agree_through(repeat(pair[0], t), repeat(pair[1], t), 2)


@given(matched_pairs, small_signatures)
def test_combining_common_signature_preserves_equalities(pair, extra):
    extra = OrbifoldSignature(pair[0].genus, dict(extra.cones))
    assert agree_through(combine(pair[0], extra), combine(pair[1], extra), 2)


# ---------------------------------------------------------------------------
# expand_family
# ---------------------------------------------------------------------------

def test_expand_family_base_pair():
    family = expand_family(*base_pair(0, 2), 3, 2)
    assert family[0] == OrbifoldSignature(0, {5: 4, 10: 2})
    assert [chi_level(member, 2) for member in family] == [36, 36, 36]
    assert len(set(family)) == 3


def test_expand_family_two_members_returns_the_pair():
    first, second = base_pair(0, 3)
    assert expand_family(first, second, 2, 2) == [first, second]


def test_expand_family_closed_form():
    from fractions import Fraction

    first, second = base_pair(1, 4)
    members = 5
    family = expand_family(first, second, members, 2)
    k = first.cone_count
    for l in range(3):
        expected = (
            Fraction(2 - 2 * first.genus)
            - (members - 1) * k
            + (members - 1) * sum(c * Fraction(o) ** (l - 1) for o, c in first.cones)
        )
        assert all(chi_level(member, l) == expected for member in family)


def test_expand_family_strips_shared_orders():
    first = OrbifoldSignature(0, {5: 2, 10: 1, 9: 1})
    second = OrbifoldSignature(0, {4: 1, 8: 2, 9: 1})
    family = expand_family(first, second, 2, 2)
    assert family == [
        OrbifoldSignature(0, {5: 2, 10: 1}),
        OrbifoldSignature(0, {4: 1, 8: 2}),
    ]


def test_expand_family_reduces_shared_orders_with_unequal_counts():
    # one cone each of 3 and 6 matches two cones of 4 in chi_es; one 4 is shared
    first = OrbifoldSignature(0, {3: 1, 4: 1, 6: 1})
    second = OrbifoldSignature(0, {4: 3})
    assert expand_family(first, second, 3, 0) == [
        OrbifoldSignature(0, {3: 2, 6: 2}),
        OrbifoldSignature(0, {3: 1, 4: 2, 6: 1}),
        OrbifoldSignature(0, {4: 4}),
    ]


def test_expand_family_rejects_equal_or_mismatched_pairs():
    first, second = base_pair(0, 2)
    with pytest.raises(ValueError):
        expand_family(first, first, 3, 2)
    with pytest.raises(ValueError):
        expand_family(first, second, 1, 2)
    with pytest.raises(ValueError):
        expand_family(first, sig(0, 4, 8), 3, 2)
    with pytest.raises(ValueError):
        expand_family(first, sig(0, 3, 3, 3), 3, 1)
    with pytest.raises(ValueError, match="genus"):
        expand_family(first, OrbifoldSignature(1, {5: 2, 10: 1}), 3, 0)


def test_expand_family_rejects_negative_level():
    with pytest.raises(ValueError, match="level must be a nonnegative integer"):
        expand_family(*base_pair(0, 2), 3, -1)


@pytest.mark.parametrize("members", [2.5, "3", True])
def test_expand_family_rejects_non_integer_members(members):
    with pytest.raises(ValueError, match="family size must be an integer"):
        expand_family(*base_pair(0, 2), members, 2)


# ---------------------------------------------------------------------------
# prime-avoiding seeds
# ---------------------------------------------------------------------------

def test_prime_avoiding_seeds_examples():
    assert prime_avoiding_seeds([3], 2) == [5, 11]
    assert prime_avoiding_seeds([2, 3], 1) == [11]


def test_prime_avoiding_orders_coprime():
    for q in prime_avoiding_seeds([3, 7], 4):
        for order in (q, 2 * q + 1, q + 2, 2 * q * q + q, q * q + 2 * q):
            assert order % 3 != 0 and order % 7 != 0


def test_prime_avoiding_seed_five_orders():
    q = prime_avoiding_seeds([3], 1)[0]
    assert q == 5
    assert (2 * q + 1, q + 2, 2 * q * q + q, q * q + 2 * q) == (11, 7, 55, 35)


def test_prime_avoiding_validation():
    with pytest.raises(ValueError):
        prime_avoiding_seeds([], 1)
    with pytest.raises(ValueError):
        prime_avoiding_seeds([4], 1)
    with pytest.raises(ValueError):
        prime_avoiding_seeds([3], 0)


# ---------------------------------------------------------------------------
# general collections of groups
# ---------------------------------------------------------------------------

def test_general_family_free_abelian_only():
    family = general_gamma_family([FgAbelian(2)], 2, 0)
    assert len(set(family)) == 2
    assert len({chi_gamma(member, FgAbelian(2)) for member in family}) == 1


def test_general_family_with_torsion():
    groups = [FgAbelian(1, (4,)), FgAbelian(0, (3,))]
    family = general_gamma_family(groups, 2, 0)
    assert len(set(family)) == 2
    for gamma in groups:
        assert len({chi_gamma(member, gamma) for member in family}) == 1
    # torsion-avoiding orders: no cone order divisible by 2 or 3
    for member in family:
        for order, _ in member.cones:
            assert order % 2 != 0 and order % 3 != 0


def test_general_family_trivial_group():
    family = general_gamma_family([FgAbelian(0)], 3, 0)
    assert len(set(family)) == 3
    assert len({chi_es(member) for member in family}) == 1


def test_general_family_free_group_descriptors():
    family = general_gamma_family([FreeGroup(2), FgAbelian(0, (5,))], 3, 1)
    assert len(set(family)) == 3
    assert all(member.genus == 1 for member in family)
    for gamma in (FreeGroup(2), FgAbelian(0, (5,))):
        assert len({chi_gamma(member, gamma) for member in family}) == 1


def test_general_family_presented_descriptor():
    from orbichar import Presented

    presented = Presented(("x", "y"), ("x y x^-1 y^-1", "y^3"))  # Z + Z/3
    family = general_gamma_family([presented, FgAbelian(2)], 2, 0)
    assert len(set(family)) == 2
    for gamma in (presented, FgAbelian(2)):
        assert len({chi_gamma(member, gamma) for member in family}) == 1
    for member in family:
        assert all(order % 3 != 0 for order, _ in member.cones)


def test_general_family_requires_groups():
    with pytest.raises(ValueError):
        general_gamma_family([], 2, 0)


# ---------------------------------------------------------------------------
# constant-characteristic families
# ---------------------------------------------------------------------------

def test_same_level_family_values():
    family = same_level_family(3, 2, 3)
    assert family == [
        OrbifoldSignature(1, {3: 1}),
        OrbifoldSignature(3, {3: 3}),
        OrbifoldSignature(5, {3: 5}),
    ]
    assert all(chi_level(member, 2) == 2 for member in family)


def test_same_level_family_higher_level():
    member = same_level_family(5, 3, 1)[0]
    assert member.genus == 12
    assert chi_level(member, 3) == 2


@pytest.mark.parametrize("order, level", [(3, 2), (3, 3), (5, 2), (7, 3)])
def test_same_level_family_sweep(order, level):
    for member in same_level_family(order, level, 5):
        assert chi_level(member, level) == 2


def test_same_level_family_validation():
    with pytest.raises(ValueError):
        same_level_family(4, 2, 1)
    with pytest.raises(ValueError):
        same_level_family(3, 1, 1)
