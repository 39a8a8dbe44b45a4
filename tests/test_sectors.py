"""Finite groups, hom enumeration, conjugacy, and sector sums."""

import importlib
import json
import random
import re
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import combinations_with_replacement, product
from pathlib import Path

import pytest

from orbichar import (
    FgAbelian,
    FiniteGroup,
    FixedPointCharacter,
    FixedPointDataError,
    FreeGroup,
    HomBudgetExceeded,
    MirroredCylinder,
    OrbifoldSignature,
    Presented,
    abelianize,
    chi_es_mirrored,
    chi_gamma,
    chi_gamma_mirrored,
    chi_gamma_quotient,
    chi_top,
    cyclic_group,
    dihedral_group,
    direct_product,
    enumerate_homs,
    group_by_name,
    hom_classes,
    hom_count_cyclic,
    rotation_kernel,
    rotation_sphere_action,
)
from orbichar.cli import _parse_json
from orbichar.core import GammaSupportError, parse_word
from orbichar.sectors import _check_hom_budget, _image_counts, _subgroup_joins

BATTERY = (
    FgAbelian(0),
    FgAbelian(1),
    FgAbelian(2),
    FgAbelian(3),
    FgAbelian(0, (2,)),
    FgAbelian(0, (6,)),
    FgAbelian(1, (4,)),
)


# ---------------------------------------------------------------------------
# group construction
# ---------------------------------------------------------------------------

def test_cyclic_group_structure():
    group = cyclic_group(6)
    assert group.order == 6
    assert group.identity == 0
    assert group.element_order(1) == 6
    assert group.inverse[2] == 4


def test_dihedral_group_structure():
    group = dihedral_group(3)
    assert group.order == 6
    # nonabelian: a reflection and a rotation do not commute
    assert group.mul(1, 3) != group.mul(3, 1)
    # reflections square to the identity
    assert all(group.mul(i, i) == 0 for i in range(3, 6))


def test_direct_product_matches_cyclic_by_hom_counts():
    product = direct_product(cyclic_group(2), cyclic_group(3))
    six = cyclic_group(6)
    assert product.order == 6
    for gamma in BATTERY:
        assert len(enumerate_homs(gamma, product)) == len(enumerate_homs(gamma, six))


def test_group_by_name():
    assert group_by_name("C6").order == 6
    assert group_by_name("D10").order == 10
    assert group_by_name("C2xC3").order == 6
    with pytest.raises(ValueError):
        group_by_name("Q8")
    with pytest.raises(ValueError):
        group_by_name("D7")


def test_table_validation():
    for table in ([], [[0, 1], [1]], [[0], [0]]):
        with pytest.raises(ValueError, match="^multiplication table must be square and nonempty$"):
            FiniteGroup(table)
    with pytest.raises(ValueError):
        FiniteGroup([[0, 1], [1, 1]])  # 1 has no inverse
    with pytest.raises(ValueError):
        FiniteGroup([[1, 0], [0, 0]])  # no identity row/column pairing
    with pytest.raises(ValueError):
        FiniteGroup([[0, 1], [1, 2]])  # entry out of range
    # the smallest nonassociative magma with an identity
    with pytest.raises(ValueError):
        FiniteGroup(
            [
                [0, 1, 2, 3, 4],
                [1, 0, 3, 4, 2],
                [2, 4, 0, 1, 3],
                [3, 2, 4, 0, 1],
                [4, 3, 1, 2, 0],
            ]
        )


def _associative(rows) -> bool:
    """The triple loop over every (a, b, c)."""
    n = len(rows)
    return all(
        rows[rows[a][b]][c] == rows[a][rows[b][c]]
        for a in range(n)
        for b in range(n)
        for c in range(n)
    )


def _has_identity_and_inverses(rows) -> bool:
    n = len(rows)
    ids = [e for e in range(n) if all(rows[e][x] == x == rows[x][e] for x in range(n))]
    return bool(ids) and all(
        any(rows[a][b] == ids[0] == rows[b][a] for b in range(n)) for a in range(n)
    )


def _perturbed_loops(rng, count):
    """Relabelled group tables of order <= 8, each with up to three
    intercalate swaps away from the identity's row and column: a 2x2
    subsquare [[x, y], [y, x]] turned into [[y, x], [x, y]], which keeps
    the table a Latin square with the same identity."""
    groups = [cyclic_group(n) for n in range(1, 9)] + [
        dihedral_group(3),
        dihedral_group(4),
        group_by_name("C2xC2"),
        group_by_name("C2xC4"),
        group_by_name("C2xC2xC2"),
    ]
    for _ in range(count):
        group = rng.choice(groups)
        n = group.order
        label = rng.sample(range(n), n)
        rows = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                rows[label[a]][label[b]] = label[group.table[a][b]]
        others = [x for x in range(n) if x != label[group.identity]]
        for _ in range(rng.randint(1, 3) if others else 0):
            for _ in range(50):  # odd cyclic tables have no intercalate at all
                r1, r2, c1 = rng.choice(others), rng.choice(others), rng.choice(others)
                x, y = rows[r1][c1], rows[r2][c1]
                c2 = rows[r1].index(y)
                if r1 != r2 and c2 in others and rows[r2][c2] == x:
                    rows[r1][c1], rows[r1][c2], rows[r2][c1], rows[r2][c2] = y, x, x, y
                    break
        yield rows


def test_associativity_check_agrees_with_triple_loop():
    loops = list(filter(_has_identity_and_inverses, _perturbed_loops(random.Random(0), 1500)))
    refused = 0
    for rows in loops:
        if _associative(rows):
            assert FiniteGroup(rows).table == tuple(map(tuple, rows))
            continue
        refused += 1
        with pytest.raises(ValueError, match="not associative") as info:
            FiniteGroup(rows)
        a, b, c = map(int, re.search(r"\((\d+),(\d+),(\d+)\)", str(info.value)).groups())
        assert rows[rows[a][b]][c] != rows[a][rows[b][c]]
    # both verdicts are well represented, so the comparison is not vacuous
    assert refused > 300 and len(loops) - refused > 300


def test_large_cyclic_group_validates_quickly():
    # the triple loop took about 40 s at order 800; cyclic_group itself
    # stores its table unchecked, so the table is validated here directly
    table = cyclic_group(800).table
    start = time.process_time()  # CPU time: a loaded host must not fail the bound
    assert FiniteGroup(table).order == 800
    assert time.process_time() - start < 1


def test_json_table_is_held_once():
    # the decoded rows and the group's own table, which shares the decoder's
    # ints: a third copy of the 8-byte references would pass 3 * 8 * n**2
    n = 600
    text = json.dumps(cyclic_group(n).to_json())
    tracemalloc.start()
    try:
        group = FiniteGroup.from_json(_parse_json(text, parse_int=cache(int)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert group.table == cyclic_group(n).table
    assert peak < 3 * 8 * n * n


def test_group_by_name_weighs_the_table_before_building_it():
    start = time.process_time()  # CPU time: a loaded host must not fail the bound
    with pytest.raises(HomBudgetExceeded):
        group_by_name("C2x" * 40 + "C2")  # order 2**41
    assert time.process_time() - start < 1
    # a malformed factor is refused before the size is weighed
    with pytest.raises(ValueError, match="order"):
        group_by_name("C100000xC0")


def test_groups_and_fixed_point_data_are_immutable():
    group, fixed = rotation_sphere_action(6, 1)
    group_fields = ("table", "order", "identity", "inverse", "generators")
    # a validated table, and builtin groups stored unchecked (a product too)
    groups = (FiniteGroup(group.table), group, group_by_name("D12xC3"))
    for value, fields in [(g, group_fields) for g in groups] + [(fixed, ("chars",))]:
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
    # a name that is no field is refused too; the __setattr__ that dataclasses
    # generates for frozen slotted classes raises TypeError for it
    with pytest.raises((AttributeError, TypeError)):
        fixed._chars = {}
    # equality and hashing stay by identity, and the repr leaves out the data
    assert FiniteGroup(group.table) != group
    assert FixedPointCharacter(chars=fixed.chars) != fixed
    assert "table=" not in repr(group) and "chars=" not in repr(fixed)


def test_group_json_round_trip():
    group = dihedral_group(5)
    clone = FiniteGroup.from_json(group.to_json())
    assert clone.table == group.table
    with pytest.raises(ValueError):
        FiniteGroup.from_json({"order": 3, "table": [[0, 1], [1, 0]]})


def test_subgroup_closure():
    group = dihedral_group(3)
    assert group.subgroup_closure([1]) == frozenset({0, 1, 2})
    assert group.subgroup_closure([3]) == frozenset({0, 3})
    assert group.subgroup_closure([1, 3]) == frozenset(range(6))
    assert group.subgroup_closure([]) == frozenset({0})


def _relabelled(group, seed):
    """The group as a JSON document whose labels are shuffled so that the
    identity is not 0, loaded back through FiniteGroup.from_json."""
    rng = random.Random(seed)
    label = list(range(group.order))
    while label[group.identity] == 0:
        rng.shuffle(label)
    rows = [[0] * group.order for _ in range(group.order)]
    for a in range(group.order):
        for b in range(group.order):
            rows[label[a]][label[b]] = label[group.table[a][b]]
    relabelled = FiniteGroup.from_json({"order": group.order, "table": rows})
    assert relabelled.identity != 0
    return relabelled


def test_table_holds_one_int_object_per_element():
    builtin = [cyclic_group(300), dihedral_group(150), group_by_name("C20xD10"), group_by_name("C3")]
    # json.loads makes an int object per entry above 256
    loaded = FiniteGroup.from_json(json.loads(json.dumps(cyclic_group(400).to_json())))
    for group in builtin + [loaded, _relabelled(dihedral_group(200), 1)]:
        assert len({id(entry) for row in group.table for entry in row}) == group.order
    assert loaded.table == cyclic_group(400).table
    # a negative entry is refused, not read from the end of the shared elements
    for entry in (-1, -2):
        with pytest.raises(ValueError, match="out of range"):
            FiniteGroup([[0, 1], [1, entry]])


@pytest.mark.parametrize("name", ["C1", "C2", "C12", "C64", "D6", "D24", "C2xC2xC2", "C2xD6", "C3xC4xC5", "D6xD6"])
def test_generators_generate_the_group(name):
    group = group_by_name(name)
    for group in (group, _relabelled(group, 2)) if group.order > 1 else (group,):
        assert group.subgroup_closure(group.generators) == frozenset(range(group.order))
        assert 2 ** len(group.generators) <= group.order
        assert group.identity not in group.generators


def _image_group_names(monkeypatch):
    """The benchmark's IMAGE_GROUPS; its modules import each other by bare name."""
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    return importlib.import_module("workloads").IMAGE_GROUPS


def _quotient_outcome(group, fixed, gamma):
    try:
        return chi_gamma_quotient(group, fixed, gamma)
    except ValueError as exc:
        return str(exc)


def test_builtin_groups_match_their_validated_tables(monkeypatch):
    # cyclic_group, dihedral_group and direct_product store their tables
    # unchecked; FiniteGroup(table) validates the same table from scratch
    start = time.process_time()  # CPU time: a loaded host must not fail the bound
    images = [group_by_name(name) for name in _image_group_names(monkeypatch)]
    images += [
        direct_product(_relabelled(dihedral_group(3), 5), cyclic_group(4)),
        direct_product(cyclic_group(3), _relabelled(dihedral_group(4), 6)),
        direct_product(_relabelled(cyclic_group(6), 7), _relabelled(group_by_name("C2xC2"), 8)),
    ]
    groups = [cyclic_group(n) for n in range(1, 61)] + [dihedral_group(n) for n in range(1, 61)]
    # int objects above 256 are not cached, so only a larger table shows
    # whether its entries are shared
    large = direct_product(_relabelled(dihedral_group(3), 9), cyclic_group(45))
    for group in groups + images + [large]:
        checked = FiniteGroup(group.table)
        assert group.order == checked.order
        assert group.table == checked.table and group.identity == checked.identity
        assert group.inverse == checked.inverse and group.generators == checked.generators
        assert len({id(entry) for row in group.table for entry in row}) == group.order
    # the class order and the pair that a conjugation-variant error names
    # follow the generators, so both groups must give the same output
    refused = 0
    for group in images + groups[:8] + groups[60:62]:  # C1-C8, D2 and D4
        checked = FiniteGroup(group.table)
        for gamma in (FreeGroup(2), FgAbelian(2)):
            assert hom_classes(gamma, group) == hom_classes(gamma, checked)
        # chi of a cyclic subgroup is the sum of its elements, which the
        # conjugate reflection subgroups of every non-abelian group here differ in
        cyclic = {cls.image for cls in hom_classes(FgAbelian(1), checked)}
        subgroups = set().union(*(_conjugates(checked, image) for image in cyclic))
        fixed = FixedPointCharacter({subgroup: sum(subgroup) for subgroup in subgroups})
        outcome = _quotient_outcome(group, fixed, FgAbelian(1))
        assert outcome == _quotient_outcome(checked, fixed, FgAbelian(1))
        table = group.table
        abelian = all(table[a][b] == table[b][a] for a in range(group.order) for b in range(a))
        assert isinstance(outcome, str) == (not abelian)
        refused += not abelian
    assert refused >= 20  # both verdicts are well represented
    assert time.process_time() - start < 2


# ---------------------------------------------------------------------------
# hom enumeration
# ---------------------------------------------------------------------------

def test_enumerate_homs_counts():
    assert len(enumerate_homs(FgAbelian(1), cyclic_group(6))) == 6
    assert len(enumerate_homs(FgAbelian(2), dihedral_group(3))) == 18
    assert enumerate_homs(FgAbelian(0), dihedral_group(7)) == [()]


def test_free_group_homs_are_unconstrained():
    group = dihedral_group(3)
    assert len(enumerate_homs(FreeGroup(2), group)) == 36
    assert len(enumerate_homs(FgAbelian(2), group)) == 18


def test_presented_homs_check_relators():
    group = dihedral_group(3)
    involutions = enumerate_homs(Presented(("x",), ("x^2",)), group)
    # the identity plus the three reflections
    assert sorted(involutions) == [(0,), (3,), (4,), (5,)]
    klein = Presented(("x", "y"), ("x^2", "y^2", "x y x^-1 y^-1"))
    # no two distinct reflections commute when the rotation count is odd
    images = enumerate_homs(klein, group)
    assert all(x == 0 or y == 0 or x == y for x, y in images)
    # x^2 = x^3 = 1 forces x = 1
    for n in range(2, 13):
        assert enumerate_homs(Presented(("x",), ("x^2", "x^3")), cyclic_group(n)) == [(0,)]


def test_hom_counts_into_cyclic_match_closed_form():
    for rank in range(3):
        for torsion in [(), (2,), (5,), (8,), (3, 4), (8, 8)]:
            gamma = FgAbelian(rank, torsion)
            for m in range(1, 13):
                assert len(enumerate_homs(gamma, cyclic_group(m))) == hom_count_cyclic(
                    gamma, m
                )


def test_hom_budget():
    with pytest.raises(HomBudgetExceeded):
        enumerate_homs(FgAbelian(3), cyclic_group(12), budget=1000)
    assert len(enumerate_homs(FgAbelian(3), cyclic_group(12), budget=1729)) == 1728


def test_hom_budget_env_override(monkeypatch):
    monkeypatch.setenv("ORBICHAR_HOM_BUDGET", "10")
    with pytest.raises(HomBudgetExceeded):
        enumerate_homs(FgAbelian(2), cyclic_group(6))


@pytest.mark.parametrize("gamma", [FgAbelian(10**9), FreeGroup(10**9)])
@pytest.mark.parametrize("order", [3, 1])
def test_hom_budget_refuses_huge_rank_at_once(gamma, order):
    # C1 has a single image tuple, but its length alone is over the budget
    group = cyclic_group(order)
    start = time.process_time()  # CPU time: a loaded host must not fail the bound
    with pytest.raises(HomBudgetExceeded):
        enumerate_homs(gamma, group)
    assert time.process_time() - start < 1


def brute_force_homs(gamma, group):
    """Every image tuple that satisfies the defining relations, in product order."""
    table = group.table

    def power(x, exp):
        out = group.identity
        for _ in range(abs(exp)):
            out = table[out][x if exp > 0 else group.inverse[x]]
        return out

    def satisfies(images):
        if isinstance(gamma, FgAbelian):
            torsion = zip(images[gamma.rank:], gamma.torsion)
            return all(table[x][y] == table[y][x] for x in images for y in images) and all(
                power(x, d) == group.identity for x, d in torsion
            )
        for text in getattr(gamma, "relators", ()):
            value = group.identity
            for index, exp in parse_word(text, gamma.generators):
                value = table[value][power(images[index], exp)]
            if value != group.identity:
                return False
        return True

    if isinstance(gamma, Presented):
        n_gens = len(gamma.generators)
    else:
        n_gens = gamma.rank + len(getattr(gamma, "torsion", ()))
    return [images for images in product(range(group.order), repeat=n_gens) if satisfies(images)]


@pytest.mark.parametrize("name", ["C1", "C6", "D6", "D8", "C2xC2", "C2xD6"])
@pytest.mark.parametrize(
    "gamma",
    [
        FgAbelian(0),
        FgAbelian(3),
        FgAbelian(0, (2, 6)),
        FgAbelian(1, (4,)),
        FreeGroup(0),
        FreeGroup(1),
        FreeGroup(2),
        FreeGroup(3),
        Presented(("x", "y")),
        Presented(("x", "y", "z"), ("x^2", "x y^3")),  # no relator reaches z
        Presented(("x", "y"), ("x^6", "x^2 y^3", "x y x^-1 y^-1")),
    ],
)
def test_enumerate_homs_matches_brute_force(gamma, name):
    group = group_by_name(name)
    assert enumerate_homs(gamma, group) == brute_force_homs(gamma, group)


def test_unsupported_descriptor_is_refused():
    with pytest.raises(TypeError, match="unsupported group descriptor: 'Z'"):
        enumerate_homs("Z", cyclic_group(2))
    with pytest.raises(GammaSupportError, match="unsupported group descriptor: 'Z'"):
        abelianize("Z")


def test_trivial_group_admits_huge_rank():
    start = time.process_time()  # CPU time: a loaded host must not fail the bound
    assert enumerate_homs(FgAbelian(10**6), cyclic_group(1)) == [(0,) * 10**6]
    assert time.process_time() - start < 1


# ---------------------------------------------------------------------------
# conjugacy classes
# ---------------------------------------------------------------------------

def test_hom_classes_abelian_group():
    classes = hom_classes(FgAbelian(1), cyclic_group(6))
    assert len(classes) == 6
    assert all(cls.centralizer_order == 6 and cls.size == 1 for cls in classes)


def test_hom_classes_dihedral():
    classes = hom_classes(FgAbelian(1), dihedral_group(3))
    assert [(cls.size, cls.centralizer_order) for cls in classes] == [
        (1, 6),
        (2, 3),
        (3, 2),
    ]
    reflection_class = classes[-1]
    assert reflection_class.image == frozenset({0, 3})


def test_class_equation():
    for gamma in (FgAbelian(1), FgAbelian(2), FgAbelian(0, (2,))):
        for group in (dihedral_group(3), dihedral_group(5), cyclic_group(8)):
            classes = hom_classes(gamma, group)
            homs = enumerate_homs(gamma, group)
            assert sum(cls.size for cls in classes) == len(homs)
            assert all(cls.size * cls.centralizer_order == group.order for cls in classes)
            orbits = [
                {tuple(group.conjugate(g, x) for x in cls.representative) for g in range(group.order)}
                for cls in classes
            ]
            assert [len(orbit) for orbit in orbits] == [cls.size for cls in classes]
            assert set().union(*orbits) == set(homs)
            assert all(cls.representative == min(orbit) for cls, orbit in zip(classes, orbits))
            reps = [cls.representative for cls in classes]
            assert all(a < b for a, b in zip(reps, reps[1:]))


def test_classes_share_equal_images():
    classes = hom_classes(FgAbelian(2), cyclic_group(12))
    assert len({id(cls.image) for cls in classes}) == len({cls.image for cls in classes}) == 6
    action = rotation_sphere_action(60, 1)
    tracemalloc.start()
    try:
        chi_gamma_quotient(*action, FgAbelian(2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


@pytest.mark.parametrize("name", ["D26", "D34", "D38", "C3xD8", "D12xC3"])
def test_subgroup_joins_match_closure(name):
    # groups with prime-index steps, where one closure fills every element
    # of <H, x> outside H; hom_classes shares _subgroup_joins, so the oracle
    # is the table closure of each hom
    group = group_by_name(name)
    for gamma in (FreeGroup(2), FgAbelian(2)):
        generated = _subgroup_joins(group)  # one memo across the homs, as the sums use it
        for hom in enumerate_homs(gamma, group):
            assert generated(hom) == group.subgroup_closure(hom), hom


def brute_force_classes(homs, group):
    """Classes by conjugating each representative by every element of G."""
    seen, images, classes = set(), {}, []
    for rep in homs:
        if rep in seen:
            continue
        conjugates = [tuple(group.conjugate(g, x) for x in rep) for g in range(group.order)]
        orbit = set(conjugates)
        seen |= orbit
        image = group.subgroup_closure(rep)
        classes.append((rep, len(orbit), conjugates.count(rep), images.setdefault(image, image)))
    return classes


@pytest.mark.parametrize(
    "group",
    [
        *(group_by_name(name) for name in ("C1", "C7", "C12", "D6", "D8", "D12", "C2xC2", "C2xD6", "C3xC3")),
        _relabelled(dihedral_group(5), 3),
        _relabelled(group_by_name("C2xD6"), 4),
    ],
)
def test_classes_match_conjugation_by_every_element(group):
    gammas = [*(FgAbelian(*args) for args in ((0,), (1,), (2,), (0, (2,)), (1, (2,)), (0, (6,))))]
    gammas += [FreeGroup(2), Presented(("x", "y"), ("x^2", "y^3", "x y x^-1 y^-1"))]
    for gamma in gammas:
        homs = enumerate_homs(gamma, group)
        classes = hom_classes(gamma, group)
        expected = brute_force_classes(homs, group)
        assert [
            (cls.representative, cls.size, cls.centralizer_order, cls.image) for cls in classes
        ] == expected
        assert len({id(cls.image) for cls in classes}) == len({cls.image for cls in classes})


def test_conjugation_variant_data_still_refused():
    group = dihedral_group(3)
    message = "not conjugation-invariant: conjugate subgroups [0, 3] and [0, 4] have chi 2 and 0"
    # the reflections {0,3}, {0,4}, {0,5} are conjugate; with 2, 0, 4 the sum
    # over homs equals the class sum through {0,3}, and it is refused all the same
    for reflections in ((2, 0, 0), (2, 0, 4)):
        chars = {(0,): 2, (0, 1, 2): 2, (0, 1, 2, 3, 4, 5): 2}
        chars.update(zip([(0, 3), (0, 4), (0, 5)], reflections))
        fixed = FixedPointCharacter({frozenset(s): chi for s, chi in chars.items()})
        for gamma in (FgAbelian(1), FreeGroup(2)):
            with pytest.raises(ValueError, match=re.escape(message)):
                chi_gamma_quotient(group, fixed, gamma)


@pytest.mark.parametrize("gamma", [FgAbelian(2), FreeGroup(2)])
def test_rotation_sum_cost_follows_the_generators(gamma):
    # conjugating by all of G and closing every image from scratch took
    # about 9 s here; generators and memoized joins take well under 1 s
    action = rotation_sphere_action(200, 1)
    start = time.process_time()  # CPU time: a loaded host must not fail the bound
    assert chi_gamma_quotient(*action, gamma) == chi_gamma(
        OrbifoldSignature.from_orders(0, 200, 200), gamma
    )
    assert time.process_time() - start < 1.5


# ---------------------------------------------------------------------------
# fixed-point data and quotient sums
# ---------------------------------------------------------------------------

def test_fixed_point_character_json():
    fixed = FixedPointCharacter({frozenset({0}): 2, frozenset({0, 1}): 0})
    clone = FixedPointCharacter.from_json(fixed.to_json())
    assert clone.chi(frozenset({0, 1})) == 0
    assert clone.subgroups() == [frozenset({0}), frozenset({0, 1})]


@pytest.mark.parametrize(
    "load",
    [
        lambda: FixedPointCharacter.from_json([{"subgroup": [0], "chi": True}]),
        lambda: FixedPointCharacter.from_json([{"subgroup": [True], "chi": 2}]),
        lambda: FiniteGroup.from_json({"table": [[False]]}),
    ],
)
def test_loaders_reject_booleans(load):
    with pytest.raises(ValueError):
        load()


@pytest.mark.parametrize(
    "chars",
    [
        {frozenset({0}): 2.7},
        {(0, 1): "3"},
        {(0,): True},
        {(0.0,): 2},
        {(True,): 2},
        [([[0]], 2)],  # an unhashable element is named, not hashed
        [((0,), None)],
    ],
)
def test_fixed_point_character_rejects_non_int(chars):
    with pytest.raises(ValueError):
        FixedPointCharacter(chars)


def test_fixed_point_character_missing_entry():
    fixed = FixedPointCharacter({frozenset({0}): 2})
    with pytest.raises(FixedPointDataError) as err:
        fixed.chi(frozenset({0, 2, 4}))
    assert "[0, 2, 4]" in str(err.value)


def _conjugates(group, subgroup) -> set[frozenset[int]]:
    return {frozenset(group.conjugate(g, x) for x in subgroup) for g in range(group.order)}


def test_quotient_missing_subgroup_names_it():
    group, fixed = rotation_sphere_action(6, 1)
    partial = FixedPointCharacter({frozenset({0}): 2})
    with pytest.raises(FixedPointDataError) as err:
        chi_gamma_quotient(group, partial, FgAbelian(1))
    assert str(err.value) == repr("no fixed-point value for subgroup [0, 1, 2, 3, 4, 5]")
    # non-cyclic G, data that lacks one conjugacy class of subgroups: the
    # error names the first hom image without data, in listing order
    for group in (dihedral_group(3), dihedral_group(4)):
        subgroups = {group.subgroup_closure(pair) for pair in product(range(group.order), repeat=2)}
        for missing in {frozenset(_conjugates(group, subgroup)) for subgroup in subgroups}:
            chars = {subgroup: 2 for subgroup in subgroups - missing}
            for gamma in (FgAbelian(1), FgAbelian(2), FreeGroup(2)):
                images = map(group.subgroup_closure, enumerate_homs(gamma, group))
                first = next((image for image in images if image in missing), None)
                if first is None:
                    continue
                with pytest.raises(FixedPointDataError) as err:
                    chi_gamma_quotient(group, FixedPointCharacter(chars), gamma)
                assert str(err.value) == repr(f"no fixed-point value for subgroup {sorted(first)}")
    # C1 without data for its one subgroup: the walk over its one hom names
    # it, at once even for 100,000 generators or a presentation's relators
    for gamma in (
        FgAbelian(0), FgAbelian(1), FreeGroup(2),
        FgAbelian(100_000), FreeGroup(100_000), Presented(("x", "y"), ("x^2", "y^3")),
    ):
        start = time.process_time()  # CPU time: a loaded host must not fail the bound
        with pytest.raises(FixedPointDataError) as err:
            chi_gamma_quotient(cyclic_group(1), FixedPointCharacter({}), gamma)
        assert time.process_time() - start < 0.5, gamma
        assert str(err.value) == repr("no fixed-point value for subgroup [0]")


def test_rotation_sphere_kernels():
    assert rotation_kernel(6, 1) == frozenset({0})
    assert rotation_kernel(6, 2) == frozenset({0, 3})
    assert rotation_kernel(6, 3) == frozenset({0, 2, 4})
    with pytest.raises(ValueError):
        rotation_kernel(6, 6)
    for step in (0, 6):
        with pytest.raises(ValueError, match=re.escape("1 <= step < 6")):
            rotation_sphere_action(6, step)


def test_rotation_sphere_action_covers_all_subgroups():
    group, fixed = rotation_sphere_action(12, 5)
    assert len(fixed.subgroups()) == 6  # one subgroup per divisor of 12
    assert all(fixed.chi(sub) == 2 for sub in fixed.subgroups())


def test_noneffective_rotations_are_indistinguishable():
    effective = rotation_sphere_action(6, 1)
    noneffective = rotation_sphere_action(6, 2)
    for gamma in BATTERY:
        assert chi_gamma_quotient(*effective, gamma) == chi_gamma_quotient(
            *noneffective, gamma
        )
    assert chi_gamma_quotient(*effective, FgAbelian(1)) == 2
    classes = hom_classes(FgAbelian(1), effective[0])
    assert len(classes) == 6
    assert all(Fraction(2, cls.centralizer_order) == Fraction(1, 3) for cls in classes)


def test_quotient_matches_signature_formula():
    # Z/n rotations on the sphere present Sigma_0(n, n)
    for n in (2, 5, 12):
        action = rotation_sphere_action(n, 1)
        signature = OrbifoldSignature(0, {n: 2})
        for gamma in BATTERY:
            assert chi_gamma_quotient(*action, gamma) == chi_gamma(signature, gamma)


def test_quotient_free_abelian_closed_form():
    for n in (3, 7, 10):
        action = rotation_sphere_action(n, 1)
        for level in range(4):
            assert chi_gamma_quotient(*action, FgAbelian(level)) == 2 * Fraction(n) ** (
                level - 1
            )


def test_quotient_abelian_group_ignores_commutators():
    action = rotation_sphere_action(6, 1)
    presented = Presented(("x", "y"), ("x y x^-1 y^-1", "y^4"))
    assert chi_gamma_quotient(*action, presented) == chi_gamma_quotient(
        *action, FgAbelian(1, (4,))
    )


def test_fixed_point_data_with_two_values_for_a_subgroup_is_refused():
    twice = [{"subgroup": [0], "chi": 2}, {"subgroup": [0], "chi": 7}]
    with pytest.raises(ValueError, match=re.escape("subgroup [0] two values, 2 and 7")):
        FixedPointCharacter.from_json(twice + [{"subgroup": [0, 3], "chi": 2}])
    # two keys that name one subgroup
    with pytest.raises(ValueError, match=re.escape("subgroup [0, 3] two values, 2 and 0")):
        FixedPointCharacter({(0, 3): 2, (3, 0): 0})
    # pairs are read as given: the second value is not dropped
    with pytest.raises(ValueError, match=re.escape("subgroup [0, 3] two values, 2 and 5")):
        FixedPointCharacter([((0, 3), 2), ((0, 3), 5)])


def test_fixed_point_data_repeated_with_one_value_is_accepted():
    fixed = FixedPointCharacter.from_json([{"subgroup": [0], "chi": 2}] * 2)
    assert fixed.to_json() == [{"subgroup": [0], "chi": 2}]
    fixed = FixedPointCharacter({(0, 3): 2, (3, 0): 2, frozenset({0}): 2})
    assert fixed.subgroups() == [frozenset({0}), frozenset({0, 3})]
    assert FixedPointCharacter([([0, 3], 2)]).chars == {frozenset({0, 3}): 2}


# ---------------------------------------------------------------------------
# cyclic G: counting homs per image over the divisor lattice
# ---------------------------------------------------------------------------

COUNTING_BATTERY = BATTERY + (
    FreeGroup(2),
    Presented(("x", "y"), ("x^2", "y^3")),
    Presented(("x", "y"), ("x y x^-1 y^-1", "y^4")),
)


def _relabelled_without_generator_1(n):
    """Z/n from a shuffled JSON table in which element 1 has order below n."""
    seed = 0
    while (group := _relabelled(cyclic_group(n), seed)).element_order(1) == n:
        seed += 1
    return group


def _cyclic_groups():
    yield from (cyclic_group(n) for n in range(1, 61))
    yield from (group_by_name(name) for name in ("C3xC4", "C5xC6", "C2xC3xC5"))
    yield from (_relabelled_without_generator_1(n) for n in (12, 30))


def _by_hom_classes(group, chars, gamma) -> Fraction:
    classes = hom_classes(gamma, group)
    return Fraction(sum(chars[cls.image] * cls.size for cls in classes), group.order)


def test_cyclic_sum_by_counting_matches_class_sum(monkeypatch):
    rng = random.Random(19)
    for group in _cyclic_groups():
        subgroups = {group.subgroup_closure([x]) for x in range(group.order)}  # all cyclic
        chars = {subgroup: rng.randrange(-6, 7) for subgroup in subgroups}
        fixed = FixedPointCharacter(chars)
        for gamma in COUNTING_BATTERY:
            if gamma in (FgAbelian(3), COUNTING_BATTERY[-1]) and group.order > 24:
                # the oracle lists n**3 homs or checks a relator on n**2 pairs:
                # up to C60 these two would take about 15 s
                continue
            expected = _by_hom_classes(group, chars, gamma)
            with monkeypatch.context() as patch:  # the counting path lists no homs
                patch.setattr("orbichar.sectors.enumerate_homs", None)
                assert chi_gamma_quotient(group, fixed, gamma) == expected, (group.order, gamma)


@pytest.mark.parametrize(
    "group",
    [
        *(group_by_name(name) for name in ("D6", "D8", "D12", "C2xC2", "C2xD6", "C3xC3")),
        _relabelled(dihedral_group(5), 3),
        _relabelled(group_by_name("C2xD6"), 4),
    ],
)
def test_noncyclic_sum_matches_class_sum(group, monkeypatch):
    # free and free abelian gamma count homs per image, a presented one
    # lists them and sums over them once; the class sum is their oracle
    rng = random.Random(group.order)
    gammas = COUNTING_BATTERY + (FreeGroup(3),)
    images = {cls.image for gamma in gammas for cls in hom_classes(gamma, group)}
    chars = {}
    for image in images:
        if image not in chars:  # one value per conjugacy class of subgroups
            chars |= dict.fromkeys(_conjugates(group, image), rng.randrange(-6, 7))
    fixed = FixedPointCharacter(chars)
    for gamma in gammas:
        expected = _by_hom_classes(group, chars, gamma)
        with monkeypatch.context() as patch:
            if not isinstance(gamma, Presented):  # the counts list no homs
                patch.setattr("orbichar.sectors.enumerate_homs", None)
            assert chi_gamma_quotient(group, fixed, gamma) == expected, gamma


COUNTED_GAMMAS = tuple(g for g in COUNTING_BATTERY if not isinstance(g, Presented)) + (FreeGroup(3),)


@pytest.mark.parametrize("name", ["D6", "D8", "D36", "D40", "C2xD6", "C6xC6", "D12xC3"])
def test_image_counts_match_listed_homs(name):
    group = group_by_name(name)
    for gamma in COUNTED_GAMMAS:
        n_gens, _ = _check_hom_budget(gamma, group, None)
        counted = _image_counts(gamma, group, n_gens, _subgroup_joins(group))
        assert counted == Counter(map(_subgroup_joins(group), enumerate_homs(gamma, group))), gamma


def _no_centralizer(*args):
    raise AssertionError("listing must not use the centralizer bitmasks of the counts")


@pytest.mark.parametrize("name", ["D8", "C2xD6"])
def test_listing_shares_no_code_with_the_counts(name, monkeypatch):
    # the counts above are held to the listing, so the listing must not use
    # the counts' centralizer masks: it checks commuting pairs directly
    group = group_by_name(name)
    monkeypatch.setattr("orbichar.sectors._centralizer", _no_centralizer)
    for gamma in (FgAbelian(2), FgAbelian(3), FgAbelian(1, (2,))):
        homs = enumerate_homs(gamma, group)
        assert homs == brute_force_homs(gamma, group), gamma
        classes = [
            (cls.representative, cls.size, cls.centralizer_order, cls.image)
            for cls in hom_classes(gamma, group)
        ]
        assert classes == brute_force_classes(homs, group), gamma


def _listing_refusal(group, chars, gamma) -> tuple[type, str] | None:
    """The refusal of the listing path: the first hom image without data in
    listing order, else the first image, in the order first seen, whose
    conjugate by a generator has another value."""
    images = list(dict.fromkeys(map(_subgroup_joins(group), enumerate_homs(gamma, group))))
    for image in images:
        if image not in chars:
            return FixedPointDataError, repr(f"no fixed-point value for subgroup {sorted(image)}")
    for image in images:
        for g in group.generators:
            other = frozenset(group.conjugate(g, x) for x in image)
            if chars[other] != chars[image]:
                return ValueError, (
                    f"fixed-point data is not conjugation-invariant: conjugate subgroups "
                    f"{sorted(image)} and {sorted(other)} have chi {chars[image]} and {chars[other]}"
                )
    return None


@pytest.mark.parametrize("name", ["D8", "C2xD6", "D12xC3"])
def test_counted_refusals_match_the_listing_path(name):
    # one conjugacy class of subgroups without data, or a value per subgroup
    # that conjugation does not keep: the counts name what listing names
    group = group_by_name(name)
    rng = random.Random(name)
    subgroups = {group.subgroup_closure(pair) for pair in product(range(group.order), repeat=2)}
    classes = {frozenset(_conjugates(group, subgroup)) for subgroup in subgroups}
    datasets = [{subgroup: 2 for subgroup in subgroups - missing} for missing in classes]
    datasets += [{subgroup: rng.randrange(-2, 3) for subgroup in subgroups} for _ in range(4)]
    for gamma in (FreeGroup(2), FgAbelian(2), FgAbelian(1, (2,))):
        refused = 0
        for chars in datasets:
            expected = _listing_refusal(group, chars, gamma)
            if expected is None:
                continue
            refused += 1
            with pytest.raises(expected[0]) as err:
                chi_gamma_quotient(group, FixedPointCharacter(chars), gamma)
            assert str(err.value) == expected[1], gamma
        assert refused >= 5, gamma


def test_cyclic_sum_by_counting_needs_only_the_images(monkeypatch):
    group, fixed = rotation_sphere_action(6, 1)
    partial = FixedPointCharacter({frozenset({0}): 2, frozenset({0, 3}): 3})
    monkeypatch.setattr("orbichar.sectors.enumerate_homs", None)
    assert chi_gamma_quotient(group, partial, FgAbelian(0, (2,))) == Fraction(5, 6)


@pytest.mark.parametrize(
    "gamma", [FgAbelian(2), FreeGroup(2), FgAbelian(0, (6,)), *COUNTING_BATTERY[-2:]]
)
@pytest.mark.parametrize("group", [cyclic_group(12), _relabelled(cyclic_group(12), 3)])
def test_cyclic_sum_missing_data_names_the_first_image(group, gamma, monkeypatch):
    # every subgroup but the largest and one other: the error names the
    # first class image without data, as the listing path does, from homs
    # walked one at a time
    for missing in {group.subgroup_closure([x]) for x in range(group.order)}:
        if len(missing) == 1:
            continue
        chars = {
            group.subgroup_closure([x]): 2
            for x in range(group.order)
            if group.subgroup_closure([x]) not in (missing, frozenset(range(group.order)))
        }
        images = [cls.image for cls in hom_classes(gamma, group)]
        first = next((image for image in images if image not in chars), None)
        if first is None:  # every image has data
            assert chi_gamma_quotient(group, FixedPointCharacter(chars), gamma) == _by_hom_classes(
                group, chars, gamma
            )
            continue
        with monkeypatch.context() as patch, pytest.raises(FixedPointDataError) as err:
            patch.setattr("orbichar.sectors.enumerate_homs", None)
            chi_gamma_quotient(group, FixedPointCharacter(chars), gamma)
        assert str(err.value) == repr(f"no fixed-point value for subgroup {sorted(first)}")


@pytest.mark.parametrize(
    "group, gamma, budget, message",
    [
        (cyclic_group(1000), FgAbelian(3), None, "homs on 3 generators into a group of order 1000"),
        (cyclic_group(30), FgAbelian(4, (2,)), None, "homs on 5 generators into a group of order 30"),
        (cyclic_group(3), FreeGroup(10**9), None, "homs on 1000000000 generators into a group of order 3"),
        (cyclic_group(10), FgAbelian(3), 999, "homs on 3 generators into a group of order 10"),
    ],
)
def test_cyclic_sum_keeps_the_hom_budget(group, gamma, budget, message):
    fixed = FixedPointCharacter({frozenset(range(group.order)): 2})
    with pytest.raises(HomBudgetExceeded) as err:
        chi_gamma_quotient(group, fixed, gamma, budget)
    assert str(err.value) == f"{message} exceed the budget of {budget or 10**7}"


@pytest.mark.parametrize("gamma", [FgAbelian(2), FreeGroup(2)])
def test_large_rotation_sum_counts_instead_of_listing(gamma):
    # listing the million homs into C1000 took about 20 s
    action = rotation_sphere_action(1000, 1)
    start = time.process_time()  # CPU time: a loaded host must not fail the bound
    assert chi_gamma_quotient(*action, gamma) == chi_gamma(
        OrbifoldSignature.from_orders(0, 1000, 1000), gamma
    )
    assert time.process_time() - start < 2


@pytest.mark.parametrize("gamma", [FgAbelian(2), FreeGroup(2)])
def test_large_rotation_missing_data_walks_instead_of_listing(gamma):
    # data for every subgroup of C1000 but the whole group: naming it by
    # listing the million homs took about 4 s and 250 MiB
    group, fixed = rotation_sphere_action(1000, 1)
    whole = frozenset(range(1000))
    partial = FixedPointCharacter(
        {subgroup: chi for subgroup, chi in fixed.chars.items() if subgroup != whole}
    )
    start = time.process_time()  # CPU time: a loaded host must not fail the bound
    with pytest.raises(FixedPointDataError) as err:
        chi_gamma_quotient(group, partial, gamma)
    assert time.process_time() - start < 1
    assert str(err.value) == repr(f"no fixed-point value for subgroup {sorted(whole)}")


# ---------------------------------------------------------------------------
# mirrored cylinders
# ---------------------------------------------------------------------------

MIRROR_BATTERY = (
    FgAbelian(0),
    FgAbelian(1),
    FgAbelian(2),
    FgAbelian(3),
    FgAbelian(0, (2,)),
    FgAbelian(0, (3,)),
    FgAbelian(1, (2,)),
)


def test_mirrored_battery_equality():
    first = MirroredCylinder((3, 5), (7, 11))
    second = MirroredCylinder((3, 7), (5, 11))
    for gamma in MIRROR_BATTERY:
        assert chi_gamma_mirrored(first, gamma) == chi_gamma_mirrored(second, gamma)


def test_mirrored_trivial_gamma_is_chi_es():
    cylinder = MirroredCylinder((3, 5), (7, 11))
    assert chi_gamma_mirrored(cylinder, FgAbelian(0)) == Fraction(-1867, 1155)
    assert chi_gamma_mirrored(cylinder, FgAbelian(0)) == chi_es_mirrored(cylinder)


def test_mirrored_inertia_value_is_chi_top():
    # the level-1 characteristic equals the Euler characteristic of the
    # underlying space, which is 0 for a cylinder
    cylinder = MirroredCylinder((3, 5), (7, 11))
    assert chi_gamma_mirrored(cylinder, FgAbelian(1)) == 0


def test_mirrored_depends_only_on_corner_multiset():
    values = set()
    for split in [((3, 5), (7, 11)), ((3, 5, 7, 11), ()), ((11,), (3, 5, 7))]:
        values.add(chi_gamma_mirrored(MirroredCylinder(*split), FgAbelian(2)))
    assert len(values) == 1
    assert values == {Fraction(11)}


@cache
def _corner_by_dihedral_classes(n: int, gamma: FgAbelian) -> Fraction:
    """One corner's share of the sector sum, from the hom classes into D_n:
    the deficit -(1 - 1/n)/2 plus 1/centralizer for each nontrivial class
    whose image lies in the rotation subgroup (indices below n)."""
    total = -Fraction(n - 1, 2 * n)
    for cls in hom_classes(gamma, dihedral_group(n)):
        if len(cls.image) > 1 and all(index < n for index in cls.image):
            assert cls.centralizer_order == n
            total += Fraction(1, cls.centralizer_order)
    return total


def mirrored_by_dihedral_classes(mc, gamma) -> Fraction:
    """Oracle for chi_gamma_mirrored: the class sums over each corner."""
    ab = abelianize(gamma)
    return sum((_corner_by_dihedral_classes(n, ab) for n in mc.corner_orders), Fraction(0))


def test_mirrored_rotation_classes_match_cyclic_hom_count():
    # per corner of order n the nontrivial rotation-image classes pair up
    # homs with their inverses: (|HOM(gamma, Z/n)| - 1) / 2 classes, 1/n each
    cylinder = MirroredCylinder((5,), ())
    for gamma in MIRROR_BATTERY:
        expected = chi_es_mirrored(cylinder) + Fraction(
            hom_count_cyclic(gamma, 5) - 1, 2 * 5
        )
        assert mirrored_by_dihedral_classes(cylinder, gamma) == expected


@pytest.mark.parametrize(
    "gamma",
    MIRROR_BATTERY + (FreeGroup(2), Presented(("x", "y"), ("x^6", "x^2 y^3", "x y x^-1 y^-1"))),
)
def test_mirrored_closed_form_matches_dihedral_classes(gamma):
    for size in range(4):
        for corners in combinations_with_replacement(range(3, 16, 2), size):
            cylinder = MirroredCylinder(corners[:1], corners[1:])
            assert chi_gamma_mirrored(cylinder, gamma) == mirrored_by_dihedral_classes(
                cylinder, gamma
            )


def test_mirrored_needs_no_hom_enumeration(monkeypatch):
    monkeypatch.setenv("ORBICHAR_HOM_BUDGET", "1")
    gamma = FgAbelian(5)
    # (|HOM(gamma, Z/61)| / 61 - 1) / 2 for the one corner
    expected = (Fraction(hom_count_cyclic(gamma, 61), 61) - 1) / 2
    assert chi_gamma_mirrored(MirroredCylinder((61,), ()), gamma) == expected


def test_mirrored_free_group_uses_abelianization():
    cylinder = MirroredCylinder((3, 5), (7, 11))
    assert chi_gamma_mirrored(cylinder, FreeGroup(2)) == chi_gamma_mirrored(
        cylinder, FgAbelian(2)
    )
