"""Command-line interface with exact JSON input and output.

All values are exact: rationals are serialized as "p/q" strings (bare "p"
for integers), never floats.  Exit codes are a stable contract: 0 success,
2 malformed input, 3 unsupported or oversized group, 4 verification
failure.  One parser tree, built on the first request, is kept for the
process: building it cost more than a small request's mathematics.  A
named subcommand parses with the subparser the full parser holds for it;
help and errors read exactly as they do with the full parser.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal
from fractions import Fraction
from functools import cache
from math import gcd
from pathlib import Path

from .classify import (
    InsufficientData,
    InvalidSequenceError,
    char_sequence,
    iter_signatures_by_chi_es,
    reconstruct,
    search_collisions,
)
from .constructions import (
    ConstructionError,
    _scaled_collision_pair,
    base_pair,
    expand_family,
    general_gamma_family,
    same_level_family,
)
from .core import (
    FgAbelian,
    FreeGroup,
    GammaDescriptor,
    GammaSupportError,
    MirroredCylinder,
    OrbifoldSignature,
    TRIVIAL_GROUP,
    check_int,
    chi_es,
    chi_es_mirrored,
    chi_gamma,
    chi_gamma_times_manifold,
    chi_level,
    format_rational,
    is_diffeomorphic,
    parse_int,
    parse_rational,
    parse_signature,
)
from .sectors import (
    FiniteGroup,
    FixedPointCharacter,
    HomBudgetExceeded,
    chi_gamma_mirrored,
    chi_gamma_quotient,
    group_by_name,
    hom_classes,
    rotation_kernel,
    rotation_sphere_action,
)

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_BAD_GAMMA = 3
EXIT_VERIFICATION = 4


def parse_gamma_spec(spec: str) -> GammaDescriptor:
    """Parse a group spec: "trivial", "F_k", or "+"-joined "Z^l" / "Z/d"."""
    spec = spec.strip()
    if spec == "trivial":
        return TRIVIAL_GROUP
    if spec.startswith("F_"):
        try:
            return FreeGroup(parse_int(spec[2:], signed=False))
        except ValueError:
            raise GammaSupportError(f"bad free-group spec {spec!r}") from None
    rank = 0
    torsion = []
    for part in spec.split("+"):
        part = part.strip()
        try:
            if part == "Z":
                rank += 1
            elif part.startswith("Z^"):
                rank += parse_int(part[2:], signed=False)
            elif part.startswith("Z/"):
                torsion.append(parse_int(part[2:], signed=False))
            else:
                raise ValueError(part)
        except ValueError:
            raise GammaSupportError(f"bad group spec component {part!r}") from None
    try:
        return FgAbelian(rank, tuple(torsion))
    except ValueError as exc:
        raise GammaSupportError(str(exc)) from exc


def _parse_json(text: str, parse_int=None):
    try:  # nesting too deep for the decoder is malformed input, not a crash
        return json.loads(text, parse_int=parse_int)  # None: the default decoder
    except RecursionError:
        raise ValueError("JSON document is nested too deeply") from None


def load_signature(text: str) -> OrbifoldSignature:
    """Accept a file path, inline JSON, or the Sigma_g(...) sugar."""
    if os.path.exists(text):
        return OrbifoldSignature.from_json(_parse_json(Path(text).read_text(encoding="utf-8")))
    stripped = text.strip()
    if stripped.startswith("{"):
        return OrbifoldSignature.from_json(_parse_json(stripped))
    return parse_signature(stripped)


def load_group(text: str) -> FiniteGroup:
    if os.path.exists(text):  # equal ints of the table share one object
        document = _parse_json(Path(text).read_text(encoding="utf-8"), parse_int=cache(int))
        return FiniteGroup.from_json(document)
    return group_by_name(text)


def _print_json(payload) -> None:
    json.dump(payload, sys.stdout, separators=(",", ":"))
    sys.stdout.write("\n")


def _print_value(value, as_json: bool) -> None:
    if as_json:
        _print_json({"value": format_rational(value)})
    else:
        print(format_rational(value))


# Most cones of an enumerate run repeat one already printed, so their text
# is memoized; the memo is cleared whenever it holds this many, which keeps
# memory flat on runs with many distinct cones.
_CONE_MEMO_SIZE = 1024


class _ConeMemo(dict):
    """Cone -> its JSON text, computed on first use."""

    __slots__ = ()

    def __missing__(self, cone: tuple[int, int]) -> str:
        if len(self) >= _CONE_MEMO_SIZE:
            self.clear()
        order, count = cone
        text = self[cone] = f'{{"order":{order},"count":"{count}"}}'
        return text


_cone_text = _ConeMemo().__getitem__


def _signature_line(sig: OrbifoldSignature) -> str:
    """A signature's compact JSON document, formatted directly (the
    pure-Python chunked encoder dominated enumerate and search output),
    with each cone's text from the shared memo."""
    return f'{{"genus":{sig.genus},"cones":[{",".join(map(_cone_text, sig.cones))}]}}'


def _rational_list(values) -> str:
    """The JSON list of "p/q" strings for exact values."""
    return "[" + ",".join(f'"{format_rational(v)}"' for v in values) + "]"


# Integer arithmetic is exact in this context: no count nears its precision.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)


def _digits(number: Decimal, value) -> str:
    """str() of an integral Decimal; past the digit limit, str() of the equal int value() raises."""
    digits, limit = str(number), getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit
    if limit and len(digits) - digits.startswith("-") > limit:
        str(value())
    return digits


def _count_digits(head: Decimal, cofactors: set[int], most: int) -> dict[int, str]:
    """Each count str(scale * cofactor), by exact Decimal arithmetic on head =
    Decimal(str(scale)) (int -> str is quadratic).  In ascending order, a cofactor
    t * r, t in 2..most, r an earlier root, is r's Decimal times t, linear in the
    digits; any other is a root, head times it.  An N-member family's counts are
    weights 1..N-1 times base-pair multiplicities 1 or 2 times roots: most = 2N - 2."""
    roots, digits = {}, {}  # only the roots' Decimals outlive their strings
    for cofactor in sorted(cofactors):
        t = next((t for t in range(2, most + 1) if not cofactor % t and cofactor // t in roots), 0)
        count = _EXACT.multiply(roots[cofactor // t], t) if t else _EXACT.multiply(head, cofactor)
        if not t:
            roots[cofactor] = count
        digits[cofactor] = _digits(count, lambda: int(head) * cofactor)
    return digits


def _sequence_text(head: Decimal, sig: OrbifoldSignature, level: int) -> str:
    """_rational_list(top + scale * (v - top) for sig's values v through level),
    top = 2 - 2g.  For v - top = n/q and g = gcd(scale, q), the value is (top * q
    + scale * n) / g over q / g (q = 1 at level >= 1), computed on head."""
    top, texts = 2 - 2 * sig.genus, []
    for value in char_sequence(sig, level):
        n, q = (value - top).as_integer_ratio()
        g = gcd(int(_EXACT.remainder(head, q)), q)
        numerator = _EXACT.divide_int(_EXACT.fma(head, n, top * q), g)
        digits = _digits(numerator, lambda: (top * q + int(head) * n) // g)
        texts.append(f'"{digits}"' if q == g else f'"{digits}/{q // g}"')
    return "[" + ",".join(texts) + "]"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_chi(args) -> int:
    sig = load_signature(args.sig)
    if args.seq_len is not None:
        values = [format_rational(v) for v in char_sequence(sig, parse_int(args.seq_len))]
        if args.json:
            _print_json({"values": values})
        else:
            print(",".join(values))
        return EXIT_OK
    if args.l is not None:
        value = chi_level(sig, parse_int(args.l))
    elif args.gamma is not None:
        value = chi_gamma(sig, parse_gamma_spec(args.gamma))
    else:
        value = chi_es(sig)
    _print_value(value, args.json)
    return EXIT_OK


def cmd_construct(args) -> int:
    level = parse_int(args.level)
    seeds = [parse_int(part.strip()) for part in args.orders.split(",") if part.strip()]
    genus = parse_int(args.genus)
    # --N is read and range-checked before any pair is built
    members = None if args.members is None else check_int(parse_int(args.members), "family size", 2)
    # The builders verified this cofactor family; the written family is its
    # scale-fold repeat, which passes the same check (see _verify_family).
    scale, pair = _scaled_collision_pair(level, genus, seeds, equalize=args.equalize)
    family = list(pair) if members is None else expand_family(*pair, members, level)
    # Every number is converted before the first write: one past the
    # int->str digit limit must leave stdout empty, not half a document.
    head = Decimal(str(scale))  # the one conversion of the scale
    digits = _count_digits(head, {count for sig in family for _, count in sig.cones}, 2 * len(family) - 2)
    # One sequence stands for every member, mapped through the repeat.
    sequence = _sequence_text(head, family[0], level)
    # The json.dumps(..., separators=(",", ":")) document, written piece by
    # piece: no string is built around the (possibly huge) count digits.
    write = sys.stdout.write
    write('{"family":[')
    for i, sig in enumerate(family):
        write(f'{"," if i else ""}{{"genus":{sig.genus},"cones":[')
        for j, (order, count) in enumerate(sig.cones):
            write(f'{"," if j else ""}{{"order":{order},"count":"')
            write(digits[count])
            write('"}')
        write("]}")
    write('],"verification":{"char_sequences":[')
    for i, _ in enumerate(family):
        write(f'{"," if i else ""}{sequence}')
    write(f'],"agree_through_level":{level},"pairwise_distinct":true}}}}\n')
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    values = [parse_rational(part) for part in args.seq.split(",")]
    result = reconstruct(values)
    if isinstance(result, InsufficientData):
        _print_json({"status": "insufficient-data", "reason": result.reason})
    else:
        sys.stdout.write(_signature_line(result) + "\n")
    return EXIT_OK


def cmd_enumerate(args) -> int:
    target = parse_rational(args.chi_es)
    write = sys.stdout.write
    for sig in iter_signatures_by_chi_es(target):
        write(_signature_line(sig) + "\n")
    return EXIT_OK


def cmd_search(args) -> int:
    groups = search_collisions(
        *(parse_int(text) for text in (args.genus_max, args.count_max, args.order_max, args.level))
    )
    # One write per group: the whole document as one string costs peak RSS.
    write = sys.stdout.write
    write("[")
    for i, group in enumerate(groups):
        signatures = ",".join(map(_signature_line, group.signatures))
        write(f'{"," if i else ""}{{"values":{_rational_list(group.values)},"signatures":[{signatures}]}}')
    write("]\n")
    return EXIT_OK


def cmd_quotient(args) -> int:
    group = load_group(args.group)
    fixed = FixedPointCharacter.from_json(_parse_json(Path(args.fpc).read_text(encoding="utf-8")))
    _print_value(chi_gamma_quotient(group, fixed, parse_gamma_spec(args.gamma)), args.json)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Built-in verification scenarios (reference values from the literature)
# ---------------------------------------------------------------------------

def _scenario_same_esc_same_genus() -> list[tuple[bool, str]]:
    checks = []
    for genus in range(6):
        nine_threes = OrbifoldSignature(genus, {3: 9})
        eight_fours = OrbifoldSignature(genus, {4: 8})
        expected = Fraction(-4 - 2 * genus)
        ok = chi_es(nine_threes) == chi_es(eight_fours) == expected
        checks.append((ok, f"chi_es of {nine_threes!r} and {eight_fours!r} both {format_rational(expected)}"))
        checks.append((not is_diffeomorphic(nine_threes, eight_fours), "the two are distinct"))
    return checks


def _scenario_same_level() -> list[tuple[bool, str]]:
    checks = []
    for order, level in ((3, 2), (3, 3), (5, 2), (7, 3)):
        family = same_level_family(order, level, 5)
        ok = all(chi_level(sig, level) == 2 for sig in family)
        checks.append((ok, f"5 orbifolds with order-{order} cones all have chi_{level} = 2"))
    return checks


def _scenario_base_pairs() -> list[tuple[bool, str]]:
    checks = []
    for seed in range(2, 11):
        for genus in range(4):
            first, second = base_pair(genus, seed)
            expected = [
                Fraction(1, seed) - 1 - 2 * genus,
                Fraction(2 - 2 * genus),
                Fraction(1 - 2 * genus + 5 * seed + 2 * seed * seed),
            ]
            ok = (
                char_sequence(first, 2) == expected
                and char_sequence(second, 2) == expected
                and not is_diffeomorphic(first, second)
            )
            checks.append((ok, f"base pair seed={seed} genus={genus} matches closed forms"))
    return checks


_QUOTIENT_BATTERY = ("trivial", "Z", "Z^2", "Z^3", "Z/2", "Z/6", "Z+Z/4")
_MIRRORED_BATTERY = ("trivial", "Z", "Z^2", "Z^3", "Z/2", "Z/3", "Z+Z/2")


def _scenario_noneffective() -> list[tuple[bool, str]]:
    checks = []
    effective = rotation_sphere_action(6, 1)
    noneffective = rotation_sphere_action(6, 2)
    checks.append((len(rotation_kernel(6, 1)) == 1, "step-1 rotation acts effectively"))
    checks.append((len(rotation_kernel(6, 2)) == 2, "step-2 rotation has a kernel of order 2"))
    classes = hom_classes(FgAbelian(1), effective[0])
    per_class = [Fraction(2, cls.centralizer_order) for cls in classes]
    checks.append(
        (
            len(classes) == 6 and all(v == Fraction(1, 3) for v in per_class),
            "six classes of Z-sectors, each contributing 1/3",
        )
    )
    for name in _QUOTIENT_BATTERY:
        gamma = parse_gamma_spec(name)
        lhs = chi_gamma_quotient(*effective, gamma)
        rhs = chi_gamma_quotient(*noneffective, gamma)
        checks.append((lhs == rhs, f"gamma={name}: both actions give {format_rational(lhs)}"))
    checks.append(
        (
            chi_gamma_quotient(*effective, FgAbelian(1)) == 2,
            "Z-sector total for the effective action is 2",
        )
    )
    return checks


def _scenario_nonorientable() -> list[tuple[bool, str]]:
    checks = []
    first = MirroredCylinder((3, 5), (7, 11))
    second = MirroredCylinder((3, 7), (5, 11))
    expected = Fraction(-1867, 1155)
    checks.append(
        (
            chi_es_mirrored(first) == chi_es_mirrored(second) == expected,
            f"both mirrored cylinders have chi_es {format_rational(expected)}",
        )
    )
    checks.append((not is_diffeomorphic(first, second), "boundary multisets distinguish them"))
    for name in _MIRRORED_BATTERY:
        gamma = parse_gamma_spec(name)
        lhs = chi_gamma_mirrored(first, gamma)
        rhs = chi_gamma_mirrored(second, gamma)
        checks.append((lhs == rhs, f"gamma={name}: both cylinders give {format_rational(lhs)}"))
    return checks


def _scenario_general_dimension() -> list[tuple[bool, str]]:
    groups: list[GammaDescriptor] = [FgAbelian(1, (4,)), FgAbelian(0, (3,)), FgAbelian(2)]
    family = general_gamma_family(groups, 3, 0)
    checks = [(len(set(family)) == 3, "three pairwise distinct signatures")]
    for sphere_chi, label in ((2, "even-dimensional sphere factor"), (0, "odd-dimensional sphere factor")):
        for gamma in groups:
            values = {chi_gamma_times_manifold(sig, gamma, sphere_chi) for sig in family}
            checks.append(
                (len(values) == 1, f"{label}: equal products for {gamma!r}")
            )
    return checks


_SCENARIOS = {
    "sameESCsameg": _scenario_same_esc_same_genus,
    "sameLESC": _scenario_same_level,
    "basecase": _scenario_base_pairs,
    "noneffective": _scenario_noneffective,
    "nonorientable": _scenario_nonorientable,
    "generaldim": _scenario_general_dimension,
}


def cmd_verify(args) -> int:
    checks = _SCENARIOS[args.example]()
    failed = 0
    for ok, description in checks:
        print(f"{'PASS' if ok else 'FAIL'}: {description}")
        if not ok:
            failed += 1
    print(f"{args.example}: {len(checks) - failed}/{len(checks)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_VERIFICATION


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The full orbichar parser with all seven subcommands; or, when `command`
    names one, the subparser that the full parser holds for it (prog
    "orbichar chi").  Any other word (None, -h, a typo) gets the full parser.
    The tree is built on the first call and kept for the process."""
    full, choices = _parser_tree()
    return choices.get(command, full)


@cache
def _parser_tree() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The full parser and the subparsers it holds, by subcommand name."""
    parser = argparse.ArgumentParser(
        prog="orbichar",
        description="Exact characteristic computations for closed 2-orbifolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Integer options have no type=: each subcommand reads them with
    # parse_int, so a malformed one exits 2 with one error line.

    chi = sub.add_parser("chi", help="characteristic values of a signature")
    chi.add_argument("--sig", required=True, help="signature: file, JSON, or Sigma_g(m1,m2,...)")
    mode = chi.add_mutually_exclusive_group()
    mode.add_argument("--gamma", help='group spec: "Z^l", "Z^l+Z/d", "F_k", "trivial"')
    mode.add_argument("--l", help="level of the Z^l characteristic")
    mode.add_argument("--seq-len", help="emit the sequence of levels 0..L")
    chi.add_argument("--json", action="store_true", help="wrap output in JSON")
    chi.set_defaults(func=cmd_chi)

    construct = sub.add_parser("construct", help="build a verified collision family")
    construct.add_argument("--L", dest="level", required=True)
    construct.add_argument("--g", dest="genus", required=True)
    construct.add_argument("--orders", required=True, help="comma-separated seeds >= 2")
    construct.add_argument("--N", dest="members", help="family size (default: the pair)")
    construct.add_argument("--equalize", choices=("lcm", "product"), default="lcm")
    construct.set_defaults(func=cmd_construct)

    rec = sub.add_parser("reconstruct", help="invert a characteristic sequence")
    rec.add_argument("--seq", required=True, help='comma-separated rationals "v0,v1,..."')
    rec.set_defaults(func=cmd_reconstruct)

    enum = sub.add_parser("enumerate", help="stream all signatures with a given chi_es")
    enum.add_argument("--chi-es", dest="chi_es", required=True, help='target value "p/q"')
    enum.set_defaults(func=cmd_enumerate)

    search = sub.add_parser("search", help="brute-force collision groups in a window")
    search.add_argument("--g-max", dest="genus_max", required=True)
    search.add_argument("--k-max", dest="count_max", required=True)
    search.add_argument("--m-max", dest="order_max", required=True)
    search.add_argument("--L", dest="level", required=True)
    search.set_defaults(func=cmd_search)

    quotient = sub.add_parser("quotient", help="sector sum for a finite quotient")
    quotient.add_argument("--group", required=True, help='group name ("C6", "D10") or JSON file')
    quotient.add_argument("--fpc", required=True, help="fixed-point data JSON file")
    quotient.add_argument("--gamma", required=True, help="group spec")
    quotient.add_argument("--json", action="store_true", help="wrap output in JSON")
    quotient.set_defaults(func=cmd_quotient)

    verify = sub.add_parser("verify-paper", help="check the built-in published reference values")
    verify.add_argument("example", choices=sorted(_SCENARIOS))
    verify.set_defaults(func=cmd_verify)

    return parser, sub.choices


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    full, parser = build_parser(), build_parser(argv[0] if argv else None)
    # a named subcommand's held subparser parses directly: the full one's dispatch is slower
    args, extras = parser.parse_known_args(argv if parser is full else argv[1:])
    if extras:  # the full parser's error, whose usage lists every subcommand
        args = full.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return EXIT_OK
    except (GammaSupportError, HomBudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_GAMMA
    except ConstructionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except InvalidSequenceError as exc:
        print(f"error: not a valid characteristic sequence: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
