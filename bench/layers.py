"""Time library layers on fixed inputs, for the `layers` object that record.py writes.

    python3 bench/layers.py

Run from anywhere; it imports orbichar from the `src` directory of its own
checkout and prints the `layers` object as JSON. `bench/record.py` calls
`measure()` and stores the same object. For each layer and each of its
fixed inputs, an entry holds:

- `ms`: the median over ROUNDS rounds of the best of REPEATS
  `time.process_time()` timings of NUMBER calls, in milliseconds per call;
- `iqr_ms`: the distance between the quartiles of those ROUNDS values;
- `sha256`: the digest of the call's output as compact JSON (text, for
  the `enumerate` layer), so that a changed result shows next to a
  changed time.

Layers so far:

- `group_by_name` on C60, D40, D12xC3 and C6xC6, each output written with
  `FiniteGroup.to_json()`;
- `chi_gamma_quotient` on D38 F_2, D34 F_2, D40 F_2, D36 F_2, D20 F_3,
  D40 Z^3, D12xC3 Z+Z/2, C200 Z^2 and C1000 Z^2, on C1000 Z^2 with the
  whole group's value left out (the walk that names the missing
  subgroup), and on D40 Z with every subgroup valued (the check of the
  document's keys then reads 48 subgroups, of which Z reaches 26). The
  fixed-point data, built before timing, gives every subgroup that a hom
  reaches, or every subgroup, chi = |H| mod 5 - 2, which is
  conjugation-invariant; the output is the value as "p/q" or the error
  text;
- `core`: `chi_gamma` on the orientable double that both mirrored
  cylinders of `verify-paper nonorientable` share (genus 1, cones 3, 5, 7
  and 11), and on the first member of the lcm L=7 pair of the
  `build_collision_pair` layer, each over the seven Γ of that check
  (trivial, Z, Z^2, Z^3, Z/2, Z/3, Z+Z/2); the output is the values as
  "p/q";
- `build_collision_pair` plus `expand_family` on four pinned `construct`
  inputs of perfbench: an lcm L=7 pair, an lcm L=7 family of 5, an lcm L=5
  pair and a product L=5 pair; the output is the family, each member
  written with `OrbifoldSignature.to_json()`.  This is the library path,
  which verifies and expands the full-size pair.  The same four inputs
  once more, each name followed by " scaled", time what `construct` runs:
  `constructions._scaled_collision_pair` plus `expand_family` on its
  cofactors; the output is the scale in hex and the cofactor family;
- `char_sequence` on the 52 signatures of the reconstruct layer's three
  sequence sets (below), each at its set's length, and on the first member
  of the lcm L=7 pair of the `build_collision_pair` layer (counts of about
  3,800 digits) at level 7; the output is the values as "p/q";
- `reconstruct` on three sequence sets built from `random.Random(1)` and
  shaped like perfbench's inverse requests: 40 full sequences (length
  2k+1 for k distinct orders) of genus 0-3 signatures with 1-6 orders in
  2..60, 8 prefixes of such sequences, and 4 full sequences of signatures
  with one or two orders of 10^3-10^7.  A call reconstructs the whole set;
  the output is each signature's `to_json()` or the `InsufficientData`
  reason;
- `minimal_recurrence` on the level differences of the same three sets,
  which is what `reconstruct` passes it; a call fits the whole set, and the
  output is each set's coefficients as "p/q" strings and depth;
- `cli`: building the parser tree that `build_parser()` returns, past the
  cache that keeps it for the process, the output its full help text at 80
  columns; and `cli.main` in process with
  stdout sent to a sink, on eight requests like perfbench's: `chi`,
  `reconstruct`, `enumerate`, a C6 `quotient` whose fixed-point file is
  written before timing, `construct` on the pinned lcm L=7 `--N 5` input
  of the `build_collision_pair` layer and on its pinned lcm L=7 pair
  (`main construct pair`, the emit path without `--N`), `search` on one
  small window, and `verify-paper nonorientable`, the built-in
  mirrored-cylinder checks.  A `main` output is its exit code and stdout;
- `enumerate`: `iter_signatures_by_chi_es` run to its end on -3/2,
  1/1000000000000000003 and -12/5 (7,623 signatures).  Its sha256 is that
  of the lines `orbichar enumerate --chi-es` prints for the target, not of
  a compact JSON value, so it can be checked against the command.

Standard library only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import statistics
import sys
import tempfile
import time
from fractions import Fraction
from unittest import mock

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from orbichar import (  # noqa: E402
    FgAbelian,
    FixedPointCharacter,
    FixedPointDataError,
    FreeGroup,
    InsufficientData,
    OrbifoldSignature,
    build_collision_pair,
    char_sequence,
    chi_gamma,
    chi_gamma_quotient,
    enumerate_homs,
    expand_family,
    format_rational,
    group_by_name,
    iter_signatures_by_chi_es,
    minimal_recurrence,
    reconstruct,
)
from orbichar import cli, constructions  # noqa: E402

ROUNDS, REPEATS, NUMBER = 9, 10, 20
GROUP_NAMES = ("C60", "D40", "D12xC3", "C6xC6")
# (group, Γ spec, Γ, which subgroups the data values if not just the
# reached ones, named after the spec, calls per timing): a quotient call
# takes 0.05-10 ms, so each input times about 10 ms of calls, fewer
# repeats than the other layers
QUOTIENTS = (
    ("D38", "F_2", FreeGroup(2), None, 2),
    ("D34", "F_2", FreeGroup(2), None, 2),
    ("D40", "F_2", FreeGroup(2), None, 2),
    ("D36", "F_2", FreeGroup(2), None, 2),
    ("D20", "F_3", FreeGroup(3), None, 2),
    ("D40", "Z^3", FgAbelian(3), None, 2),
    ("D12xC3", "Z+Z/2", FgAbelian(1, (2,)), None, 20),
    ("C200", "Z^2", FgAbelian(2), None, 100),
    ("C1000", "Z^2", FgAbelian(2), None, 40),
    ("C1000", "Z^2", FgAbelian(2), "without G", 20),
    ("D40", "Z", FgAbelian(1), "every subgroup", 20),
)
QUOTIENT_REPEATS = 5
# (input name, calls per timing) of the core layer: a call is chi_gamma over
# the seven Γ of verify-paper nonorientable, about 0.05 ms on the double and
# 1.7 ms on the L=7 member, so each input times about 10-20 ms
CHI_GAMMA_SPECS = ("trivial", "Z", "Z^2", "Z^3", "Z/2", "Z/3", "Z+Z/2")
CHI_INPUTS = (("nonorientable double", 200), ("lcm L=7 member", 10))
CORE_REPEATS = 5
# (name, level, genus, seeds, equalize, family size or None for the pair,
# calls per timing, calls per timing of the scaled path): the lcm L=7 pair
# takes 3.4-8 ms a call (scaled 1.7-2 ms), the lcm L=7 family of 5 12-25 ms
# (scaled 3.7-4 ms) and the L=5 inputs 0.3-0.6 ms either way, so each input
# times 18-60 ms of calls
COLLISIONS = (
    ("lcm L=7", 7, 1, "3,15,17,19,20,22,39,49,56,64,67,75,97,99,101,103,110,112,122,125,"
     "133,135,137,141,168,170,180,182,185,187,188,197", "lcm", None, 5, 15),
    ("lcm L=7 N=5", 7, 1, "5,8,10,18,25,28,52,57,63,65,68,91,100,120,122,129,131,135,138,"
     "148,152,155,159,161,163,169,170,173,179,191,195,199", "lcm", 5, 2, 8),
    ("lcm L=5", 5, 0, "8,18,24,62,141,153,187,193", "lcm", None, 60, 60),
    ("product L=5", 5, 3, "68,74,94,100,124,131,134,163", "product", None, 60, 60),
)
COLLISION_REPEATS = 5
# calls per timing by sequence set: a reconstruct pass over a set takes
# 0.25-15 ms, a recurrence pass 0.05-5 ms, so each input times 10-60 ms
RECONSTRUCT_NUMBERS = {"full": 4, "prefixes": 80, "large orders": 80}
RECURRENCE_NUMBERS = {"full": 15, "prefixes": 150, "large orders": 300}
# (input name, calls per timing) of the char_sequence layer: a pass over
# the 52 signatures takes 1.5-3 ms, the lcm L=7 member at level 7 0.8-1.5
# ms, so each input times 15-60 ms
CHAR_SEQUENCE_INPUTS = (("sequence sets", 20), ("lcm L=7 member level 7", 20))
SEQUENCE_REPEATS = 5
# (input name, argv, calls per timing) of the cli layer's main calls:
# "{fpc}" stands for the fixed-point file; construct takes 6-9 ms a call
# for the pair and 11-20 ms for the family of 5, search about 4 ms, the
# others 0.3-1.5 ms
CLI_REQUESTS = (
    ("main chi", ["chi", "--sig", "Sigma_0(5,5,10)", "--l", "0"], NUMBER),
    ("main reconstruct", ["reconstruct", "--seq=-1/2,2,19,149,1249,11249"], NUMBER),
    ("main enumerate", ["enumerate", "--chi-es=-1/2"], NUMBER),
    ("main quotient", ["quotient", "--group", "C6", "--fpc", "{fpc}", "--gamma", "Z^2"], NUMBER),
    ("main construct", ["construct", "--L", "7", "--g", "1", "--orders", COLLISIONS[1][3],
                        "--equalize", "lcm", "--N", "5"], 2),
    ("main construct pair", ["construct", "--L", "7", "--g", "1", "--orders", COLLISIONS[0][3],
                             "--equalize", "lcm"], 4),
    ("main search", ["search", "--g-max", "1", "--k-max", "4", "--m-max", "10", "--L", "2"], 5),
    ("main verify-paper nonorientable", ["verify-paper", "nonorientable"], NUMBER),
)
CLI_REPEATS = 5
# (target, calls per timing): -3/2 takes about 0.3 ms a call, the huge prime
# denominator 0.2 ms and -12/5 about 20 ms, so each input times 8-20 ms
ENUMERATIONS = (("-3/2", 40), ("1/1000000000000000003", 40), ("-12/5", 1))
ENUMERATE_REPEATS = 5


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value, separators=(",", ":")).encode()).hexdigest()


def time_call(call, repeats: int = REPEATS, number: int = NUMBER) -> dict:
    """Median and quartile spread over rounds of the best-of-repeats time
    of number calls, in ms per call."""
    rounds = []
    for _ in range(ROUNDS):
        best = float("inf")
        for _ in range(repeats):
            start = time.process_time()
            for _ in range(number):
                call()
            best = min(best, time.process_time() - start)
        rounds.append(best / number * 1e3)
    q1, _, q3 = statistics.quantiles(rounds, n=4)
    return {"ms": statistics.median(rounds), "iqr_ms": q3 - q1}


def _reached(name: str, group, gamma) -> set:
    """Every subgroup that is the image of a hom gamma -> group.  In a
    cyclic group each subgroup is some <x>, the image of (x, e, ...)."""
    if name.startswith("C") and "x" not in name:
        return {group.subgroup_closure([x]) for x in range(group.order)}
    return {group.subgroup_closure(hom) for hom in enumerate_homs(gamma, group)}


def _every_subgroup(group) -> set:
    """Every subgroup of a dihedral group, each generated by two elements."""
    return {group.subgroup_closure(pair) for pair in itertools.product(range(group.order), repeat=2)}


def _quotient(group, fixed, gamma) -> str:
    """The sector sum as "p/q", or the text of the missing-data error."""
    try:
        return format_rational(chi_gamma_quotient(group, fixed, gamma))
    except FixedPointDataError as exc:
        return str(exc)


def _family(level, genus, seeds, equalize, members) -> list:
    pair = build_collision_pair(level, genus, seeds, equalize)
    return list(pair) if members is None else expand_family(*pair, members, level)


def _scaled_family(level, genus, seeds, equalize, members) -> tuple:
    """What construct builds: the shared scale and the cofactor family."""
    scale, pair = constructions._scaled_collision_pair(level, genus, seeds, equalize)
    return scale, list(pair) if members is None else expand_family(*pair, members, level)


def _small_signature(rng: random.Random) -> OrbifoldSignature:
    orders = [rng.randint(2, 60) for _ in range(rng.randint(1, 6))]
    return OrbifoldSignature.from_orders(rng.randint(0, 3), *orders)


def _large_signature(rng: random.Random) -> OrbifoldSignature:
    orders = {round(10 ** (3 + 4 * rng.random())) for _ in range(rng.randint(1, 2))}
    return OrbifoldSignature(rng.randint(0, 3), {m: rng.randint(1, 2) for m in orders})


def sequence_inputs() -> dict[str, list[tuple[OrbifoldSignature, int]]]:
    """The signatures of the reconstruct layer's sequence sets with their
    sequence lengths, by set."""
    rng = random.Random(1)
    full = [_small_signature(rng) for _ in range(40)]
    prefixes = [_small_signature(rng) for _ in range(8)]
    large = [_large_signature(rng) for _ in range(4)]
    return {
        "full": [(sig, 2 * len(sig.cones) + 1) for sig in full],
        "prefixes": [(sig, rng.randint(1, 2 * len(sig.cones))) for sig in prefixes],
        "large orders": [(sig, 2 * len(sig.cones) + 1) for sig in large],
    }


def sequence_sets() -> dict[str, list[list]]:
    """The fixed characteristic sequences of the reconstruct layer, by set."""
    return {
        name: [char_sequence(sig, length) for sig, length in pairs]
        for name, pairs in sequence_inputs().items()
    }


def _lcm_member() -> OrbifoldSignature:
    """The first member of the lcm L=7 pair of the build_collision_pair layer."""
    _, level, genus, seeds, equalize, *_ = COLLISIONS[0]
    return _family(level, genus, [int(s) for s in seeds.split(",")], equalize, None)[0]


def _core_layer() -> dict:
    gammas = [cli.parse_gamma_spec(spec) for spec in CHI_GAMMA_SPECS]
    signatures = {
        "nonorientable double": OrbifoldSignature.from_orders(1, 3, 5, 7, 11),
        "lcm L=7 member": _lcm_member(),
    }
    inputs = {}
    for name, number in CHI_INPUTS:
        call = lambda sig=signatures[name]: [chi_gamma(sig, gamma) for gamma in gammas]
        entry = time_call(call, CORE_REPEATS, number)
        entry["number"], entry["sha256"] = number, _digest(list(map(format_rational, call())))
        inputs[name] = entry
    return inputs


def _char_sequence_layer() -> dict:
    pairs = [pair for pairs in sequence_inputs().values() for pair in pairs]
    inputs = {"sequence sets": pairs, "lcm L=7 member level 7": [(_lcm_member(), 7)]}
    entries = {}
    for name, number in CHAR_SEQUENCE_INPUTS:
        call = lambda pairs=inputs[name]: [char_sequence(sig, length) for sig, length in pairs]
        entry = time_call(call, SEQUENCE_REPEATS, number)
        values = [list(map(format_rational, seq)) for seq in call()]
        entry["number"], entry["sha256"] = number, _digest(values)
        entries[name] = entry
    return entries


def _reconstructed(values) -> dict:
    result = reconstruct(values)
    if isinstance(result, InsufficientData):
        return {"insufficient": result.reason}
    return result.to_json()


def _recurrence(diffs) -> list:
    coefficients, depth = minimal_recurrence(diffs)
    return [[format_rational(c) for c in coefficients], depth]


def _sequence_layer(function, sets: dict, numbers: dict) -> dict:
    inputs = {}
    for name, sequences in sets.items():
        call = lambda sequences=sequences: [function(seq) for seq in sequences]
        entry = time_call(call, SEQUENCE_REPEATS, numbers[name])
        entry["number"], entry["sha256"] = numbers[name], _digest(call())
        inputs[name] = entry
    return inputs


def _main(argv, stdout) -> int:
    with contextlib.redirect_stdout(stdout):
        return cli.main(argv)


def _cli_layer() -> dict:
    inputs = {}
    with mock.patch.dict(os.environ, COLUMNS="80"):  # argparse wraps help to the width
        entry = time_call(cli._parser_tree.__wrapped__, CLI_REPEATS)  # a build each call
        entry["number"] = NUMBER
        entry["sha256"] = _digest(cli.build_parser().format_help())
        inputs["build_parser()"] = entry
    group = group_by_name("C6")
    reached = _reached("C6", group, FgAbelian(2))
    document = [{"subgroup": sorted(h), "chi": len(h) % 5 - 2} for h in reached]
    with tempfile.TemporaryDirectory() as scratch, open(os.devnull, "w") as sink:
        fpc = os.path.join(scratch, "fpc.json")
        with open(fpc, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        for name, argv, number in CLI_REQUESTS:
            argv = [fpc if arg == "{fpc}" else arg for arg in argv]
            entry = time_call(lambda argv=argv: _main(argv, sink), CLI_REPEATS, number)
            out = io.StringIO()
            entry["number"], entry["sha256"] = number, _digest([_main(argv, out), out.getvalue()])
            inputs[name] = entry
    return inputs


def _enumerate_layer() -> dict:
    inputs = {}
    for target, number in ENUMERATIONS:
        call = lambda target=Fraction(target): list(iter_signatures_by_chi_es(target))
        entry = time_call(call, ENUMERATE_REPEATS, number)
        lines = "".join(cli._signature_line(sig) + "\n" for sig in call())
        entry["number"], entry["sha256"] = number, hashlib.sha256(lines.encode()).hexdigest()
        inputs[target] = entry
    return inputs


def measure() -> dict:
    groups = {}
    for name in GROUP_NAMES:
        entry = time_call(lambda name=name: group_by_name(name))
        entry["sha256"] = _digest(group_by_name(name).to_json())
        groups[name] = entry
    quotients = {}
    for name, spec, gamma, valued, number in QUOTIENTS:
        group = group_by_name(name)
        reached = _every_subgroup(group) if valued == "every subgroup" else _reached(name, group, gamma)
        if valued == "without G":
            reached.discard(frozenset(range(group.order)))
        fixed = FixedPointCharacter({h: len(h) % 5 - 2 for h in reached})  # built before timing
        call = lambda group=group, fixed=fixed, gamma=gamma: _quotient(group, fixed, gamma)
        entry = time_call(call, QUOTIENT_REPEATS, number)
        entry["number"], entry["sha256"] = number, _digest(call())
        quotients[" ".join(filter(None, (name, spec, valued)))] = entry
    families = {}
    for name, level, genus, seeds, equalize, members, number, scaled_number in COLLISIONS:
        args = (level, genus, [int(seed) for seed in seeds.split(",")], equalize, members)
        entry = time_call(lambda args=args: _family(*args), COLLISION_REPEATS, number)
        entry["number"] = number
        entry["sha256"] = _digest([sig.to_json() for sig in _family(*args)])
        families[name] = entry
        entry = time_call(lambda args=args: _scaled_family(*args), COLLISION_REPEATS, scaled_number)
        scale, family = _scaled_family(*args)
        entry["number"] = scaled_number
        entry["sha256"] = _digest([hex(scale), [sig.to_json() for sig in family]])
        families[f"{name} scaled"] = entry
    sets = sequence_sets()
    differences = {
        name: [[int(b - a) for a, b in zip(values[1:], values[2:])] for values in sequences]
        for name, sequences in sets.items()
    }
    return {
        "group_by_name": {
            "unit": "ms per call",
            "rounds": ROUNDS,
            "repeats": REPEATS,
            "number": NUMBER,
            "inputs": groups,
        },
        "chi_gamma_quotient": {
            "unit": "ms per call",
            "rounds": ROUNDS,
            "repeats": QUOTIENT_REPEATS,
            "inputs": quotients,
        },
        "core": {
            "unit": "ms per call",
            "rounds": ROUNDS,
            "repeats": CORE_REPEATS,
            "inputs": _core_layer(),
        },
        "build_collision_pair": {
            "unit": "ms per call",
            "rounds": ROUNDS,
            "repeats": COLLISION_REPEATS,
            "inputs": families,
        },
        "char_sequence": {
            "unit": "ms per call",
            "rounds": ROUNDS,
            "repeats": SEQUENCE_REPEATS,
            "inputs": _char_sequence_layer(),
        },
        "reconstruct": {
            "unit": "ms per call",
            "rounds": ROUNDS,
            "repeats": SEQUENCE_REPEATS,
            "inputs": _sequence_layer(_reconstructed, sets, RECONSTRUCT_NUMBERS),
        },
        "minimal_recurrence": {
            "unit": "ms per call",
            "rounds": ROUNDS,
            "repeats": SEQUENCE_REPEATS,
            "inputs": _sequence_layer(_recurrence, differences, RECURRENCE_NUMBERS),
        },
        "cli": {
            "unit": "ms per call",
            "rounds": ROUNDS,
            "repeats": CLI_REPEATS,
            "inputs": _cli_layer(),
        },
        "enumerate": {
            "unit": "ms per call",
            "rounds": ROUNDS,
            "repeats": ENUMERATE_REPEATS,
            "inputs": _enumerate_layer(),
        },
    }


if __name__ == "__main__":
    json.dump(measure(), sys.stdout, indent=1)
    sys.stdout.write("\n")
