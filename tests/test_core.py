"""Core formulas, types, and serialization."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

import orbichar
from orbichar import (
    FgAbelian,
    FreeGroup,
    MirroredCylinder,
    OrbifoldSignature,
    Presented,
    TRIVIAL_GROUP,
    abelianize,
    chi_es,
    chi_es_mirrored,
    chi_gamma,
    chi_gamma_times_manifold,
    chi_level,
    chi_top,
    format_rational,
    hom_count_cyclic,
    is_diffeomorphic,
    parse_rational,
    parse_signature,
    power_sum,
)


def sig(genus, *orders):
    return OrbifoldSignature.from_orders(genus, *orders)


signatures = st.builds(
    OrbifoldSignature,
    st.integers(0, 5),
    st.dictionaries(st.integers(2, 50), st.integers(1, 20), max_size=4),
)


# ---------------------------------------------------------------------------
# chi_top / chi_es / chi_level
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "signature, expected",
    [(sig(0), 2), (sig(1, 3, 3), 0), (sig(2, 5), -2)],
)
def test_chi_top(signature, expected):
    assert chi_top(signature) == expected


@pytest.mark.parametrize("genus", range(6))
def test_chi_es_nine_threes_equals_eight_fours(genus):
    nine_threes = OrbifoldSignature(genus, {3: 9})
    eight_fours = OrbifoldSignature(genus, {4: 8})
    assert chi_es(nine_threes) == Fraction(-4 - 2 * genus)
    assert chi_es(eight_fours) == Fraction(-4 - 2 * genus)


def test_chi_es_sphere():
    assert chi_es(sig(0)) == 2


@pytest.mark.parametrize(
    "signature, level, expected",
    [
        (sig(0, 5, 5, 10), 2, 19),
        (sig(0, 4, 8, 8), 2, 19),
        (sig(0, 5, 5, 10), 0, Fraction(-1, 2)),
        (sig(0, 5, 5, 10), 1, 2),
        (sig(3, 2, 2), 1, -4),
    ],
)
def test_chi_level_values(signature, level, expected):
    assert chi_level(signature, level) == Fraction(expected)


@given(signatures, st.integers(0, 6))
def test_chi_level_matches_flat_list_oracle(signature, level):
    flat = [order for order, count in signature.cones for _ in range(count)]
    naive = Fraction(2 - 2 * signature.genus) - len(flat)
    for order in flat:
        naive += Fraction(1, order) if level == 0 else Fraction(order ** (level - 1))
    assert chi_level(signature, level) == naive


@given(signatures, st.integers(-3, 3))
def test_power_sum_matches_term_by_term_sum(signature, exponent):
    naive = sum(
        (count * Fraction(order) ** exponent for order, count in signature.cones),
        Fraction(0),
    )
    assert power_sum(signature, exponent) == naive


@given(signatures, st.integers(1, 8))
def test_chi_level_is_integral_for_positive_levels(signature, level):
    value = chi_level(signature, level)
    assert value.denominator == 1
    if level == 1:
        assert value == chi_top(signature)


@given(signatures, st.integers(0, 6))
def test_chi_level_matches_free_and_free_abelian(signature, level):
    value = chi_level(signature, level)
    assert chi_gamma(signature, FreeGroup(level)) == value
    assert chi_gamma(signature, FgAbelian(level)) == value


def test_chi_level_rejects_negative_level():
    with pytest.raises(ValueError):
        chi_level(sig(0, 2), -1)


# ---------------------------------------------------------------------------
# Homomorphism counts and chi_gamma
# ---------------------------------------------------------------------------

def brute_hom_count(rank, torsion, m):
    count = 0
    for images in product(range(m), repeat=rank + len(torsion)):
        if all((d * x) % m == 0 for d, x in zip(torsion, images[rank:])):
            count += 1
    return count


def test_hom_count_examples():
    assert hom_count_cyclic(FgAbelian(2), 6) == 36
    assert hom_count_cyclic(FgAbelian(0), 7) == 1
    assert hom_count_cyclic(FgAbelian(1, (4,)), 6) == 12


def test_hom_count_brute_force_sweep():
    torsion_choices = [(), (2,), (5,), (8,), (2, 8), (4, 6), (8, 8)]
    for rank in range(3):
        for torsion in torsion_choices:
            for m in range(1, 13):
                assert hom_count_cyclic(FgAbelian(rank, torsion), m) == brute_hom_count(
                    rank, list(torsion), m
                )


def test_hom_count_rejects_bad_modulus():
    with pytest.raises(ValueError):
        hom_count_cyclic(FgAbelian(1), 0)


def test_chi_gamma_examples():
    assert chi_gamma(sig(0, 5, 5, 10), FgAbelian(2)) == 19
    assert chi_gamma(sig(0, 4, 4), FgAbelian(0, (2,))) == 1
    for signature in (sig(0, 5, 5, 10), sig(2, 3, 3, 7), sig(1)):
        assert chi_gamma(signature, TRIVIAL_GROUP) == chi_es(signature)


@given(signatures)
def test_chi_gamma_of_presented_matches_abelianization(signature):
    presented = Presented(("x", "y"), ("x y x^-1 y^-1", "x^6"))
    assert chi_gamma(signature, presented) == chi_gamma(signature, abelianize(presented))


def test_chi_gamma_times_manifold():
    base = sig(0, 5, 5, 10)
    assert chi_gamma_times_manifold(base, FgAbelian(2), 2) == 38
    assert chi_gamma_times_manifold(base, FgAbelian(3), 0) == 0
    assert chi_gamma_times_manifold(base, FgAbelian(1, (9,)), 1) == chi_gamma(
        base, FgAbelian(1, (9,))
    )


# ---------------------------------------------------------------------------
# Abelianization
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "gamma, expected",
    [
        (FreeGroup(3), FgAbelian(3)),
        (FreeGroup(0), FgAbelian(0)),
        (Presented(("x", "y"), ("x y x^-1 y^-1",)), FgAbelian(2)),
        (Presented(("x",), ("x^6",)), FgAbelian(0, (6,))),
        (Presented(("x", "y"), ()), FgAbelian(2)),
        (Presented(("a", "b"), ("a^2", "b^3", "a b a^-1 b^-1")), FgAbelian(0, (2, 3))),
        (Presented(("a", "b"), ("a^2 b^-3",)), FgAbelian(1)),
        # x^2 = x^3 = 1: the pivot 2 leaves the remainder 1 in the x^3 row
        (Presented(("x",), ("x^2", "x^3")), FgAbelian(0)),
    ],
)
def test_abelianize(gamma, expected):
    assert abelianize(gamma) == expected


def test_abelianize_fixes_abelian_descriptors():
    gamma = FgAbelian(2, (4, 2))
    assert abelianize(gamma) is gamma
    assert gamma.torsion == (2, 4)  # stored sorted


def test_presented_rejects_bad_words():
    with pytest.raises(ValueError):
        Presented(("x",), ("y^2",))
    with pytest.raises(ValueError):
        Presented(("x", "x"), ())
    with pytest.raises(ValueError):
        Presented(("x",), ("x^٣",))


def test_presented_keeps_parsed_words_out_of_equality_and_repr():
    first = Presented(("x", "y"), ("x y x^-1 y^-1", "x^6"))
    second = Presented(["x", "y"], ["x y x^-1 y^-1", "x^6"])
    assert first.words == (((0, 1), (1, 1), (0, -1), (1, -1)), ((0, 6),))
    assert first == second and hash(first) == hash(second)
    assert repr(first) == (
        "Presented(generators=('x', 'y'), relators=('x y x^-1 y^-1', 'x^6'))"
    )


def test_descriptor_equality_is_normal_form_not_isomorphism():
    assert FgAbelian(0, (2, 3)) != FgAbelian(0, (6,))
    # ... but every computation agrees on the two decompositions
    for m in range(1, 13):
        assert hom_count_cyclic(FgAbelian(0, (2, 3)), m) == hom_count_cyclic(
            FgAbelian(0, (6,)), m
        )


# ---------------------------------------------------------------------------
# Signatures: construction, equality, serialization
# ---------------------------------------------------------------------------

def test_signature_merges_and_sorts_cones():
    built = OrbifoldSignature(1, [(5, 1), (3, 2), (5, 1)])
    assert built.cones == ((3, 2), (5, 2))
    assert built.cone_count == 4
    assert built == OrbifoldSignature(1, {3: 2, 5: 2})


def test_signature_validation():
    with pytest.raises(ValueError):
        OrbifoldSignature(-1)
    with pytest.raises(ValueError):
        OrbifoldSignature(0, {1: 1})
    with pytest.raises(ValueError):
        OrbifoldSignature(0, {2: 0})


@pytest.mark.parametrize(
    "build",
    [
        lambda: OrbifoldSignature(True),
        lambda: OrbifoldSignature(False, [(3, 1)]),
        lambda: OrbifoldSignature(0, [(3, True)]),
        lambda: OrbifoldSignature.from_json({"genus": 0, "cones": [{"order": 3, "count": True}]}),
    ],
)
def test_signature_rejects_booleans(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize(
    "build",
    [
        lambda: FreeGroup(True),
        lambda: FgAbelian(True),
        lambda: orbichar.scale(sig(0, 2), True),
        lambda: orbichar.repeat(sig(0, 2), True),
    ],
)
def test_descriptors_and_factors_reject_booleans(build):
    with pytest.raises(ValueError):
        build()


def test_signature_is_immutable_and_hashable():
    signature = sig(0, 2, 3)
    with pytest.raises(AttributeError):
        signature.genus = 5
    assert len({signature, sig(0, 2, 3), sig(0, 3, 2)}) == 1


@pytest.mark.parametrize(
    "a, b, expected",
    [
        (sig(0, 3, 3), sig(0, 3, 3), True),
        (sig(0, 5, 5, 10), sig(0, 4, 8, 8), False),
        (sig(1), sig(0, 2, 2), False),
    ],
)
def test_is_diffeomorphic(a, b, expected):
    assert is_diffeomorphic(a, b) is expected


def test_is_diffeomorphic_rejects_mixed_types():
    with pytest.raises(TypeError):
        is_diffeomorphic(sig(0), MirroredCylinder((3,), (5,)))


@given(signatures)
def test_signature_json_round_trip(signature):
    assert OrbifoldSignature.from_json(signature.to_json()) == signature


def test_signature_json_counts_are_strings():
    payload = OrbifoldSignature(0, {3: 10**40}).to_json()
    assert payload["cones"][0]["count"] == str(10**40)
    assert OrbifoldSignature.from_json(payload).count_of(3) == 10**40


@pytest.mark.parametrize(
    "text, expected",
    [
        ("Σ_0(5,5,10)", sig(0, 5, 5, 10)),
        ("Sigma_2()", sig(2)),
        ("S_1(3^4,7)", OrbifoldSignature(1, {3: 4, 7: 1})),
    ],
)
def test_parse_signature(text, expected):
    assert parse_signature(text) == expected


def test_parse_signature_rejects_garbage():
    with pytest.raises(ValueError):
        parse_signature("Sigma_0(2")


@given(st.fractions())
def test_rational_round_trip(value):
    assert parse_rational(format_rational(value)) == value


@pytest.mark.parametrize("text", ["1_0", "+1", "٣", "1/2_0", "1/+2", "1 / 2", "", "-"])
def test_parse_rational_reads_only_ascii_digits(text):
    with pytest.raises(ValueError):
        parse_rational(text)


def test_rational_format():
    assert format_rational(Fraction(19)) == "19"
    assert format_rational(Fraction(-1867, 1155)) == "-1867/1155"
    assert parse_rational("-1867/1155") == Fraction(-1867, 1155)


# ---------------------------------------------------------------------------
# Mirrored cylinders
# ---------------------------------------------------------------------------

def test_chi_es_mirrored_reference_value():
    assert chi_es_mirrored(MirroredCylinder((3, 5), (7, 11))) == Fraction(-1867, 1155)
    assert chi_es_mirrored(MirroredCylinder((3, 7), (5, 11))) == Fraction(-1867, 1155)
    assert chi_es_mirrored(MirroredCylinder((), ())) == 0


def test_chi_es_mirrored_matches_direct_simplex_count():
    corners = (3, 5, 7, 11)
    direct = Fraction(-2) + sum(Fraction(1, 2 * n) for n in corners)
    assert chi_es_mirrored(MirroredCylinder((3, 5), (7, 11))) == direct


def test_chi_es_mirrored_ignores_boundary_distribution():
    reference = chi_es_mirrored(MirroredCylinder((3, 5), (7, 11)))
    for split in [((3, 5, 7, 11), ()), ((3,), (5, 7, 11)), ((3, 7), (5, 11))]:
        assert chi_es_mirrored(MirroredCylinder(*split)) == reference


def test_mirrored_diffeomorphism_uses_boundary_multisets():
    a = MirroredCylinder((3, 5), (7, 11))
    b = MirroredCylinder((7, 11), (3, 5))
    c = MirroredCylinder((3, 7), (5, 11))
    assert is_diffeomorphic(a, b)
    assert not is_diffeomorphic(a, c)


def test_mirrored_rejects_even_or_small_corners():
    with pytest.raises(ValueError):
        MirroredCylinder((4,), ())
    with pytest.raises(ValueError):
        MirroredCylinder((1,), ())


def test_public_names_are_stable():
    assert orbichar.__all__ == [
        "CollisionGroup", "ConstructionError", "FgAbelian", "FiniteGroup",
        "FixedPointCharacter", "FixedPointDataError", "FreeGroup", "GammaDescriptor",
        "GammaSupportError", "HomBudgetExceeded", "HomClass", "InsufficientData",
        "InvalidSequenceError", "MirroredCylinder", "OrbifoldSignature", "Presented",
        "TRIVIAL_GROUP", "abelianize", "base_pair", "build_collision_pair",
        "char_sequence", "chi_es", "chi_es_mirrored", "chi_gamma", "chi_gamma_mirrored",
        "chi_gamma_quotient", "chi_gamma_times_manifold", "chi_level", "chi_top",
        "combine", "cyclic_group", "dihedral_group", "direct_product",
        "enumerate_by_chi_es", "enumerate_homs", "equalize_cone_counts",
        "expand_family", "format_rational", "general_gamma_family", "group_by_name",
        "hom_classes", "hom_count_cyclic", "is_diffeomorphic",
        "iter_signatures_by_chi_es", "minimal_recurrence", "parse_rational",
        "parse_signature", "power_sum", "prime_avoiding_seeds", "reconstruct",
        "remove_cone_point", "repeat", "rotation_kernel", "rotation_sphere_action",
        "same_level_family", "scale", "search_collisions",
    ]
    assert all(hasattr(orbichar, name) for name in orbichar.__all__)
