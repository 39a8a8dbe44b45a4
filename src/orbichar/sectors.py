"""Finite-group machinery and sector-sum characteristics for global quotients.

A quotient of a manifold by a finite group decomposes its sectors over
conjugacy classes of homomorphisms into the group; each class contributes
the Euler characteristic of the fixed set of its image divided by the
centralizer order.  Manifolds are never represented here: a
FixedPointCharacter records the fixed-set Euler characteristic per
subgroup, which is all the sector sum needs.

`hom_classes` and the listing path of `chi_gamma_quotient`, which a
presented gamma takes on a non-cyclic group, enumerate homomorphisms and
so are an independent oracle for the closed-form characteristics in
`core`; the listing path sums over the homs once, as orbit-stabilizer
allows.  Free and free abelian gamma, and every gamma on a cyclic group,
count the homs per image without listing them and name a missing
subgroup as listing would.  The test suite compares every path with
class sums from `hom_classes`; listing checks abelian images by commuting
and counts stabilizers directly, sharing no centralizer code with counts.
Mirrored cylinders use the closed form of their orientable double; their
dihedral class sums are a test oracle.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, partial, reduce
from itertools import product
from math import gcd, lcm, prod
from operator import and_

from .classify import _factorize
from .core import (
    FgAbelian,
    FreeGroup,
    GammaDescriptor,
    MirroredCylinder,
    OrbifoldSignature,
    Presented,
    abelianize,
    check_int,
    chi_gamma,
    hom_count_cyclic,
    json_field,
    parse_int,
)

DEFAULT_HOM_BUDGET = 10**7
BUDGET_ENV_VAR = "ORBICHAR_HOM_BUDGET"


def _resolve_budget(budget: int | None = None) -> int:
    """The budget of enumerate_homs and group_by_name: the parameter, else
    ORBICHAR_HOM_BUDGET, else 10**7."""
    if budget is not None:
        return check_int(budget, "budget", 0)
    try:
        return parse_int(os.environ.get(BUDGET_ENV_VAR, str(DEFAULT_HOM_BUDGET)), signed=False)
    except ValueError as exc:
        raise ValueError(f"{BUDGET_ENV_VAR}: {exc}") from None


class HomBudgetExceeded(RuntimeError):
    """Hom enumeration, or a builtin group's table, would exceed the
    configured table-lookup budget."""


class FixedPointDataError(KeyError):
    """A required subgroup is missing from the fixed-point data."""


# ---------------------------------------------------------------------------
# Finite groups as multiplication tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True, eq=False, repr=False)
class FiniteGroup:
    """Explicit finite group: elements 0..order-1 with a multiplication table.

    A table given to the constructor or to from_json is validated (closure,
    identity, inverses, associativity) and each row copied once onto the
    ints of range(order); builtin groups are built with their identity and
    inverses in closed form and stored unchecked.  Either way the group is
    immutable and its table holds one int object per element.
    Associativity is checked over a greedy generating set S only (Light's
    test), kept as `generators`, at cost order**2 * |S|, and
    |S| <= log2(order) for a group.
    """

    table: tuple[tuple[int, ...], ...]
    order: int = field(init=False)
    identity: int = field(init=False)
    inverse: tuple[int, ...] = field(init=False)
    generators: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        rows = list(map(tuple, self.table))
        order = len(rows)
        if order == 0 or any(len(row) != order for row in rows):
            raise ValueError("multiplication table must be square and nonempty")
        elements = tuple(range(order))
        for i, row in enumerate(rows):  # each row in turn onto one int object per element
            for entry in row:
                if type(entry) is not int or not 0 <= entry < order:
                    raise ValueError(f"table entry {entry!r} out of range")
            rows[i] = tuple(map(elements.__getitem__, row))
        identity = next(  # the first whose row and column both read 0..order-1
            (e for e in elements if rows[e] == elements == tuple(row[e] for row in rows)), None
        )
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
        self._store(tuple(rows), identity, inverse)
        # Light's test: the b with (ab)c = a(bc) for every a and c hold the
        # identity and are closed under the product, so checking b over a
        # set that reaches every element from the identity covers every b.
        for b in self.generators:
            for a in range(order):
                ab = rows[a][b]
                for c in range(order):
                    if rows[ab][c] != rows[a][rows[b][c]]:
                        raise ValueError(f"table is not associative at ({a},{b},{c})")

    @classmethod
    def _trusted(cls, table, identity: int, inverse) -> "FiniteGroup":
        """Store a group table unchecked, with its identity and inverses: a
        tuple of tuples built in this module, one int object per element."""
        group = object.__new__(cls)
        group._store(table, identity, inverse)
        return group

    def _store(self, table, identity: int, inverse) -> None:
        """Set the fields; the generators are chosen greedily, the least
        element not yet reached from the identity until all are."""
        generators, reached = [], {identity}
        for x in range(len(table)):
            if x not in reached:
                generators.append(x)
                reached = _right_closure(table, identity, generators)
        values = (table, len(table), identity, tuple(inverse), tuple(generators))
        for name, value in zip(("table", "order", "identity", "inverse", "generators"), values):
            object.__setattr__(self, name, value)

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
        return frozenset(_right_closure(self.table, self.identity, list(set(elements))))

    def to_json(self) -> dict:
        return {"order": self.order, "table": [list(row) for row in self.table]}

    @classmethod
    def from_json(cls, obj: dict) -> "FiniteGroup":
        if not isinstance(obj, dict):
            raise ValueError("group JSON must be an object")
        table = json_field(obj, "table", "group")
        if not isinstance(table, list) or not all(isinstance(row, list) for row in table):
            raise ValueError("group table must be a list of rows")
        order = obj.get("order", len(table))
        if type(order) is not int or order != len(table):
            raise ValueError(f"declared order {order!r} does not match the table")
        return cls(table)


def _right_closure(table, identity: int, generators) -> set[int]:
    """Every element reached from the identity by right multiplication
    by the generators."""
    closed = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for a in frontier:
            for g in generators:
                ag = table[a][g]
                if ag not in closed:
                    closed.add(ag)
                    new.append(ag)
        frontier = new
    return closed


def cyclic_group(n: int) -> FiniteGroup:
    """Z/nZ; element i is the i-th power of the generator."""
    twice = tuple(range(check_int(n, "order", 1))) * 2  # row i is twice[i : i + n]
    return FiniteGroup._trusted(tuple(twice[i : i + n] for i in range(n)), 0, twice[n:0:-1])


def dihedral_group(n: int) -> FiniteGroup:
    """Dihedral group of order 2n: indices 0..n-1 are the rotations r^i,
    indices n..2n-1 are the reflections s*r^i, each its own inverse."""
    rotations = tuple(range(check_int(n, "rotation count", 1))) * 2
    reflections = tuple(range(n, 2 * n)) * 2
    rows = tuple(rotations[i : i + n] + reflections[n - i : 2 * n - i] for i in range(n))
    rows += tuple(reflections[i : i + n] + rotations[n - i : 2 * n - i] for i in range(n))
    return FiniteGroup._trusted(rows, 0, rotations[n:0:-1] + reflections[:n])


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    """Direct product; element (x, y) has index x * |b| + y.  Unchecked: a and b are groups."""
    nb, elements = b.order, tuple(range(a.order * b.order))
    rows = (tuple(elements[x * nb + y] for x in ra for y in rb) for ra in a.table for rb in b.table)
    inverse = (x * nb + y for x in a.inverse for y in b.inverse)
    return FiniteGroup._trusted(tuple(rows), a.identity * nb + b.identity, inverse)


def group_by_name(name: str) -> FiniteGroup:
    """Builtin constructors: "C6", "D10" (dihedral of order 10), "C2xC3".

    The table's order**2 entries are capped by the budget of
    enumerate_homs, checked before any factor is built.
    """
    factors = []
    for part in name.split("x"):
        part = part.strip()
        try:
            order = parse_int(part[1:], signed=False)
        except ValueError:
            order = None
        if part.startswith("C") and order is not None:
            factors.append((check_int(order, "order", 1), cyclic_group, order))
        elif part.startswith("D") and order is not None:
            if order % 2 != 0 or order < 2:
                raise ValueError(f"dihedral group order must be even, got {part!r}")
            factors.append((order, dihedral_group, order // 2))
        else:
            raise ValueError(f"unknown group name {part!r}")
    size = prod(order for order, _, _ in factors)
    budget = _resolve_budget()
    if size * size > budget:
        raise HomBudgetExceeded(
            f"the table of group {name!r} of order {size} exceeds the budget of {budget}"
        )
    return reduce(direct_product, (build(arg) for _, build, arg in factors))


# ---------------------------------------------------------------------------
# Homomorphism enumeration and conjugacy classes
# ---------------------------------------------------------------------------

def enumerate_homs(
    gamma: GammaDescriptor, group: FiniteGroup, budget: int | None = None
) -> list[tuple[int, ...]]:
    """All homomorphisms from the described group into the finite group,
    as tuples of generator images.

    Images are chosen one generator at a time, among the _image_options,
    and a prefix is dropped once it fails: for an abelian descriptor each
    image must commute with every image before it, and a relator is checked
    as soon as its highest generator has an image.  Homs come in
    lexicographic order.  The search space |G|**generators and the number of
    generators are capped by the budget: the parameter, a nonnegative int;
    else ORBICHAR_HOM_BUDGET, nonnegative decimal digits; else 10**7.
    """
    n_gens, _ = _check_hom_budget(gamma, group, budget)
    if group.order == 1:  # one hom; a prefix search would be quadratic in the rank
        return [(group.identity,) * n_gens]
    table, identity, abelian = group.table, group.identity, isinstance(gamma, FgAbelian)
    relators_at = [[] for _ in range(n_gens)]
    if isinstance(gamma, Presented):
        for word in gamma.words:
            relators_at[max(index for index, _ in word)].append(word)
    homs = [()]
    for options, words in zip(_image_options(gamma, group, n_gens), relators_at):
        homs = [
            prefix + (x,)
            for prefix in homs
            for x in options
            if not (abelian and any(table[x][y] != table[y][x] for y in prefix))
            and (not words or all(_evaluate(group, w, prefix + (x,)) == identity for w in words))
        ]
    return homs


def _check_hom_budget(
    gamma: GammaDescriptor, group: FiniteGroup, budget: int | None
) -> tuple[int, int]:
    """The generator count of the described group and the resolved budget,
    once the search space |G|**generators and the count are within it."""
    if isinstance(gamma, Presented):
        n_gens = len(gamma.generators)
    elif isinstance(gamma, FreeGroup):
        n_gens = gamma.rank
    elif isinstance(gamma, FgAbelian):
        n_gens = gamma.rank + len(gamma.torsion)
    else:
        raise TypeError(f"unsupported group descriptor: {gamma!r}")
    budget = _resolve_budget(budget)
    # Each tuple has n_gens entries; past budget.bit_length() generators any
    # group of order >= 2 is over budget too, since 2**budget.bit_length() > budget.
    if n_gens > budget or group.order ** min(n_gens, budget.bit_length()) > budget:
        raise HomBudgetExceeded(
            f"homs on {n_gens} generators into a group of order {group.order} "
            f"exceed the budget of {budget}"
        )
    return n_gens, budget


def _centralizer(table, x: int) -> int:
    """The centralizer of x as an int bitmask: bit g is set when g commutes with x."""
    row = table[x]
    bits = ("1" if row[g] == table[g][x] else "0" for g in reversed(range(len(table))))
    return int("".join(bits), 2)


def _image_options(gamma: GammaDescriptor, group: FiniteGroup, n_gens: int) -> list:
    """The candidate images of each generator: any element, but a torsion
    generator of order d maps to the x with d % element_order(x) == 0."""
    elements = range(group.order)
    options = [elements] * n_gens
    if isinstance(gamma, FgAbelian):
        options[gamma.rank:] = (
            [x for x in elements if d % group.element_order(x) == 0] for d in gamma.torsion
        )
    return options


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

    A class is found by conjugating by the group's generators only, so the
    partition costs |homs| * |generators| tuple conjugations.  The
    centralizer of a class, the stabilizer of any representative tuple, is
    counted independently as the g that commute with every entry; class
    size times centralizer order always equals the group order (checked).
    Images are folds of memoized subgroup joins; equal ones share one
    frozenset.  Classes come in ascending order of their representative,
    the least member of each class.
    """
    homs = enumerate_homs(gamma, group, budget)
    # enumerate_homs lists homs in lexicographic order and conjugation maps
    # homs to homs, so the first hom not yet seen is the least of its class.
    # Conjugation by a product is the composite of conjugations, so the
    # closure under conjugation by the generators is the whole class.
    table, conjugations = group.table, _conjugations(group)
    generated = _subgroup_joins(group)
    seen: set[tuple[int, ...]] = set()
    classes = []
    for rep in homs:
        if rep in seen:
            continue
        orbit, frontier = {rep}, [rep]
        for hom in frontier:  # the frontier grows while it is walked
            for conjugation in conjugations:
                other = tuple(map(conjugation.__getitem__, hom))
                if other not in orbit:
                    orbit.add(other)
                    frontier.append(other)
        stabilizer = range(group.order)  # narrowed to the g that commute with each entry
        for x in rep:
            stabilizer = [g for g in stabilizer if table[g][x] == table[x][g]]
        if len(orbit) * len(stabilizer) != group.order:
            raise RuntimeError("orbit-stabilizer mismatch in conjugacy computation")
        seen |= orbit
        classes.append(HomClass(rep, len(orbit), len(stabilizer), generated(rep)))
    return classes


def _conjugations(group: FiniteGroup) -> list[tuple[int, ...]]:
    """Conjugation x -> g x g^-1 by each generator g as a table indexed by x;
    a central generator maps every element to itself and is dropped."""
    table, inverse = group.table, group.inverse
    conjugations = [tuple(table[gx][inverse[g]] for gx in table[g]) for g in group.generators]
    return [c for c in conjugations if c != table[group.identity]]


def _subgroup_joins(group: FiniteGroup):
    """The subgroup generated by a tuple of elements, a fold of `join(H, x)`:
    each join is closed once, over H's generating tuple in `spans` plus x,
    and memoized; equal subgroups share one frozenset."""
    table, identity = group.table, group.identity
    odd_primes = _factorize(group.order).keys() - {2}  # a prime index divides |G|
    trivial = frozenset((identity,))
    spans = {trivial: (trivial, ())}  # subgroup -> (its shared set, a generating tuple)
    joins: dict[tuple[frozenset[int], int], frozenset[int]] = {}

    def join(subgroup: frozenset[int], x: int) -> frozenset[int]:
        joined = joins.get((subgroup, x))
        if joined is None:
            span = spans[subgroup][1] + (x,)
            closure = frozenset(_right_closure(table, identity, span))
            joined = spans.setdefault(closure, (closure, span))[0]
            # <H, xh> = <H, x> for h in H; at a prime index p > 2 no subgroup lies
            # strictly between (Lagrange): <H, y> = <H, x> for all y in <H, x> - H
            prime = len(joined) // len(subgroup) in odd_primes
            for y in joined - subgroup if prime else map(table[x].__getitem__, subgroup):
                joins[subgroup, y] = joined
        return joined

    def generated(elements) -> frozenset[int]:
        return reduce(join, elements, trivial)

    generated.join, generated.spans = join, spans
    return generated


def _image_counts(gamma: GammaDescriptor, group: FiniteGroup, n_gens: int, generated) -> dict:
    """The number of homs per exact image for free and free abelian gamma,
    without listing them: for each subgroup H, the prefixes of generator
    images that generate H, extended one generator at a time, each
    candidate x adding their number to <H, x>; an abelian gamma's x lie in
    C(H), the centralizer of H.  H alone decides which x follow and what
    <H, x> is, so images come in the order listing first meets them."""
    join, spans = generated.join, generated.spans
    if isinstance(gamma, FgAbelian) and n_gens > 1:  # C(trivial) is G: one image needs none
        centralizer = cache(partial(_centralizer, group.table))
        commons = cache(lambda H: reduce(and_, map(centralizer, spans[H][1]), (1 << group.order) - 1))

        def within(among, subgroup: frozenset[int]) -> list[int]:
            common = commons(subgroup)
            return [x for x in among if common >> x & 1]
    else:
        within = lambda among, subgroup: among
    states = {generated(()): 1}
    for among in _image_options(gamma, group, n_gens):
        counts: dict[frozenset[int], int] = {}
        for subgroup, count in states.items():
            for x in within(among, subgroup):
                joined = join(subgroup, x)
                counts[joined] = counts.get(joined, 0) + count
        states = counts
    return states


# ---------------------------------------------------------------------------
# Fixed-point data and the sector sum
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True, eq=False, repr=False)
class FixedPointCharacter:
    """Euler characteristic of the fixed set, per subgroup.

    Given as a dict or as (subgroup, chi) pairs of ints, kept keyed by
    frozen set; a subgroup given twice must get one chi.  The data
    must cover every subgroup generated by the images of the homomorphisms
    being summed over.  chi_top is not monotone in the subgroup, so no
    consistency between nested subgroups is imposed.
    """

    chars: dict[frozenset[int], int]

    def __post_init__(self):
        pairs = self.chars.items() if isinstance(self.chars, dict) else self.chars
        object.__setattr__(self, "chars", _chars_by_subgroup(pairs))

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
        kind = "fixed-point entry"
        if isinstance(entries, list) and all(isinstance(e, dict) for e in entries):
            pairs = [(json_field(e, "subgroup", kind), json_field(e, "chi", kind)) for e in entries]
            if all(isinstance(subgroup, list) for subgroup, _ in pairs):
                return cls(pairs)
        raise ValueError("fixed-point data must be a list of subgroup/chi objects")


def _chars_by_subgroup(pairs) -> dict[frozenset[int], int]:
    """(subgroup, chi) pairs keyed by frozen set.  Values and elements must
    be ints, and a subgroup listed twice must get the same chi both times."""
    chars = {}
    for subgroup, chi in pairs:
        if type(chi) is not int or any(type(x) is not int for x in subgroup):
            raise ValueError(
                f"fixed-point chi {chi!r} and subgroup elements {subgroup!r} must be ints"
            )
        subgroup = frozenset(subgroup)
        if chars.setdefault(subgroup, chi) != chi:
            raise ValueError(
                f"fixed-point data gives subgroup {sorted(subgroup)} two values, "
                f"{chars[subgroup]} and {chi}"
            )
    return chars


def chi_gamma_quotient(
    group: FiniteGroup,
    fixed: FixedPointCharacter,
    gamma: GammaDescriptor,
    budget: int | None = None,
) -> Fraction:
    """Characteristic of the sectors of a finite quotient: the average over
    all homomorphisms of chi(fixed set of the image).

    The budget is checked first and refuses the same inputs on every path.
    A cyclic G lists no homs: _sum_by_counting counts them and names a
    missing subgroup itself.  On other G, _image_counts counts the homs of
    a free or free abelian gamma per image, and a presented one's are
    listed once; either names the first image without data in listing
    order.  Data that gives an image and its conjugate by a generator two
    values is refused; images are closed under conjugation, so this covers
    every conjugate.  By orbit-stabilizer the average is the sum over hom
    classes of chi(fixed set) / centralizer order.
    """
    n_gens, budget = _check_hom_budget(gamma, group, budget)  # resolved once, passed on
    generator = _cyclic_generator(group)
    if generator is not None:
        return _sum_by_counting(group, fixed, gamma, generator, n_gens)
    generated = _subgroup_joins(group)
    if isinstance(gamma, Presented):
        counts = Counter(map(generated, enumerate_homs(gamma, group, budget)))
    else:
        counts = _image_counts(gamma, group, n_gens, generated)
    chis = {image: fixed.chi(image) for image in counts}
    conjugations = _conjugations(group)  # a central generator fixes every image
    for image, chi in chis.items():
        for conjugation in conjugations:
            other = frozenset(map(conjugation.__getitem__, image))
            if chis[other] != chi:
                raise ValueError(
                    f"fixed-point data is not conjugation-invariant: conjugate subgroups "
                    f"{sorted(image)} and {sorted(other)} have chi {chi} and {chis[other]}"
                )
    return Fraction(sum(chis[image] * count for image, count in counts.items()), group.order)


def _cyclic_generator(group: FiniteGroup) -> int | None:
    """An element of order |G| when G is cyclic, else None.

    A non-abelian G is skipped first: its generators do not all commute.
    An abelian G is cyclic exactly when its exponent, the lcm of the
    orders of its generators, is |G|; only then are elements scanned.
    """
    table, generators = group.table, group.generators
    if any(table[a][b] != table[b][a] for a in generators for b in generators):
        return None
    if lcm(*map(group.element_order, generators)) != group.order:
        return None
    return next(x for x in range(group.order) if group.element_order(x) == group.order)


def _sum_by_counting(
    group: FiniteGroup, fixed: FixedPointCharacter, gamma: GammaDescriptor,
    generator: int, n_gens: int,
) -> Fraction:
    """The sector sum over G = <generator> of order n, from the number of
    homs per image.

    Every hom into G factors through the abelianization of gamma, and the
    homs with image inside the subgroup H_d of order d, <generator**(n/d)>,
    number hom_count_cyclic(gamma, d).  Subtracting the counts N(e) of the
    proper divisors e of d (Moebius inversion over the divisor lattice,
    P. Hall, "The Eulerian functions of a group", 1936) leaves N(d), the
    homs with image exactly H_d; the sum is sum(chi(H_d) * N(d)) / n.

    At the first d with N(d) > 0 and no data for H_d, the homs are walked in
    listing order up to the first image without data, which is named as the
    listing path names it; H_d is the image of a hom, so the walk raises.
    """
    n, table, identity = group.order, group.table, group.identity
    powers = [identity]  # powers[k] is generator**k
    for _ in range(n - 1):
        powers.append(table[powers[-1]][generator])
    abelian = abelianize(gamma)
    exact: dict[int, int] = {}  # divisor d -> N(d)
    total = 0
    for d in range(1, n + 1):
        if n % d:
            continue
        below = sum(count for e, count in exact.items() if d % e == 0)
        exact[d] = hom_count_cyclic(abelian, d) - below
        if exact[d]:
            chi = fixed.chars.get(frozenset(powers[:: n // d]))
            if chi is None:
                generated = _subgroup_joins(group)
                words = gamma.words if isinstance(gamma, Presented) else ()
                for hom in product(*_image_options(gamma, group, n_gens)):
                    if all(_evaluate(group, w, hom) == identity for w in words):
                        fixed.chi(generated(hom))  # raises at the first image without data
            total += chi * exact[d]
    return Fraction(total, n)


def rotation_sphere_action(n: int, step: int) -> tuple[FiniteGroup, FixedPointCharacter]:
    """Z/n acting on the sphere, the generator rotating by 2*pi*step/n.

    Every subgroup fixes either the whole sphere (when it lies in the
    kernel of the action) or exactly the two poles; the fixed-set Euler
    characteristic is 2 in both cases, recorded for every subgroup of Z/n.
    """
    check_int(n, "group order", 1)
    if not 1 <= check_int(step, "rotation step") < n:
        raise ValueError(f"rotation step must satisfy 1 <= step < {n}, got {step}")
    group = cyclic_group(n)
    chars = {}
    for d in range(1, n + 1):
        if n % d == 0:
            chars[frozenset(range(0, n, n // d))] = 2
    return group, FixedPointCharacter(chars)


def rotation_kernel(n: int, step: int) -> frozenset[int]:
    """Subgroup of Z/n acting trivially under rotation by 2*pi*step/n."""
    check_int(n, "group order", 1)
    if not 1 <= check_int(step, "rotation step") < n:
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
