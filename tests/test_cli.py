"""End-to-end command-line behavior: output formats and exit codes."""

import argparse
import gc
import hashlib
import json
import subprocess
import sys
import time
from decimal import Decimal
from functools import cache
from itertools import product
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from orbichar import cli, constructions
from orbichar.classify import char_sequence
from orbichar.cli import (
    _CONE_MEMO_SIZE,
    _cone_text,
    _count_digits,
    _rational_list,
    _sequence_text,
    _signature_line,
    main,
)
from orbichar.constructions import (
    ConstructionError,
    _scaled_collision_pair,
    build_collision_pair,
    expand_family,
)
from orbichar.core import OrbifoldSignature, format_rational
from orbichar.sectors import group_by_name


@pytest.fixture
def run(capsys):
    def invoke(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


def test_chi_gamma_inline_json(run):
    code, out, _ = run(
        "chi",
        "--sig",
        '{"genus":0,"cones":[{"order":5,"count":"2"},{"order":10,"count":"1"}]}',
        "--gamma",
        "Z^2",
    )
    assert code == 0
    assert out.strip() == "19"


def test_chi_sugar_and_default_gamma(run):
    code, out, _ = run("chi", "--sig", "Sigma_0()", "--gamma", "Z^9")
    assert (code, out.strip()) == (0, "2")
    code, out, _ = run("chi", "--sig", "Sigma_1(2)", "--gamma", "trivial")
    assert (code, out.strip()) == (0, "-1/2")
    code, out, _ = run("chi", "--sig", "Sigma_1(2)")
    assert (code, out.strip()) == (0, "-1/2")


def test_chi_level_flag(run):
    code, out, _ = run("chi", "--sig", "Sigma_0(5,5,10)", "--l", "2")
    assert (code, out.strip()) == (0, "19")


def test_chi_sequence(run):
    code, out, _ = run("chi", "--sig", "Sigma_1(2)", "--seq-len", "3")
    assert code == 0
    assert out.strip() == "-1/2,0,1,3"


def test_chi_json_mode_round_trips(run):
    code, out, _ = run("chi", "--sig", "Sigma_0(5,5,10)", "--seq-len", "2", "--json")
    assert code == 0
    assert json.loads(out) == {"values": ["-1/2", "2", "19"]}
    code, out, _ = run("chi", "--sig", "Sigma_0(5,5,10)", "--gamma", "Z^2", "--json")
    assert (code, json.loads(out)) == (0, {"value": "19"})


def test_chi_from_file(run, tmp_path):
    path = tmp_path / "sig.json"
    path.write_text(json.dumps({"genus": 2, "cones": [{"order": 3, "count": "2"}]}))
    code, out, _ = run("chi", "--sig", str(path))
    assert (code, out.strip()) == (0, "-10/3")


def test_chi_malformed_signature_exits_2(run):
    code, _, err = run("chi", "--sig", "Sigma_0(")
    assert code == 2
    assert err


# documents that lack a required field, and the field the error must name
_MISSING_FIELD = {
    '{"cones":[]}': "genus",
    '{"genus":0,"cones":[{"count":1}]}': "order",
    '{"order":1}': "table",
    '[{"chi":2}]': "subgroup",
    '[{"subgroup":[0]}]': "chi",
}


@pytest.mark.parametrize(
    "document",
    [
        '{"genus":0,"cones":5}',
        '{"genus":0,"cones":[5]}',
        '{"genus":0,"cones":[{"order":3,"count":null}]}',
        '{"cones":[]}',
        '{"genus":0,"cones":[{"count":1}]}',
    ],
)
def test_chi_malformed_json_signature_exits_2(run, document):
    code, _, err = run("chi", "--sig", document)
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    if document in _MISSING_FIELD:
        assert f"no {_MISSING_FIELD[document]!r} field" in err


def test_chi_non_object_signature_file_exits_2(run, tmp_path):
    path = tmp_path / "sig.json"
    path.write_text("[1, 2]")
    code, _, err = run("chi", "--sig", str(path))
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ("--sig", '{"genus":true,"cones":[{"order":3,"count":true}]}', "--seq-len", "2"),
        ("--sig", '{"genus":false,"cones":[]}'),
        ("--sig", '{"genus":0,"cones":[{"order":3,"count":true}]}'),
    ],
)
def test_chi_boolean_signature_exits_2(run, argv):
    code, out, err = run("chi", *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1


def test_chi_unsupported_gamma_exits_3(run):
    code, _, err = run("chi", "--sig", "Sigma_0()", "--gamma", "E8")
    assert code == 3
    assert err


def test_construct_base_pair(run):
    code, out, _ = run("construct", "--L", "2", "--g", "0", "--orders", "2")
    assert code == 0
    payload = json.loads(out)
    cones = [
        sorted((entry["order"], int(entry["count"])) for entry in member["cones"])
        for member in payload["family"]
    ]
    assert cones == [[(5, 2), (10, 1)], [(4, 1), (8, 2)]]
    assert payload["verification"]["pairwise_distinct"] is True
    assert payload["verification"]["char_sequences"][0] == ["-1/2", "2", "19"]


def test_construct_family_of_four(run):
    code, out, _ = run("construct", "--L", "3", "--g", "0", "--orders", "2,3", "--N", "4")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["family"]) == 4
    sequences = payload["verification"]["char_sequences"]
    assert all(seq == sequences[0] for seq in sequences)


def test_construct_nonzero_genus(run):
    code, out, _ = run("construct", "--L", "2", "--g", "5", "--orders", "7")
    assert code == 0
    payload = json.loads(out)
    assert all(member["genus"] == 5 for member in payload["family"])


# the pinned construct inputs of the benchmark, read only
_PINNED = Path(__file__).parents[1] / "perfbench" / "pinned.json"
_PINNED_CONSTRUCT = json.loads(_PINNED.read_text(encoding="utf-8"))["construct"]


def _pinned_construct(level, members):
    """The first pinned lcm entry at the level with the --N value."""
    return next(
        entry
        for entry in _PINNED_CONSTRUCT
        if (entry["equalize"], entry["level"], entry["members"]) == ("lcm", level, members)
    )


def _seeds(entry):
    return [int(seed) for seed in entry["argv"][entry["argv"].index("--orders") + 1].split(",")]


def _family(level, genus, seeds, members, equalize="lcm"):
    pair = build_collision_pair(level, genus, seeds, equalize=equalize)
    return list(pair) if members is None else expand_family(*pair, members, level)


def _construct_document(level, family):
    """The json.dumps of a family with one recomputed sequence per member."""
    return json.dumps(
        {
            "family": [sig.to_json() for sig in family],
            "verification": {
                "char_sequences": [
                    [format_rational(v) for v in char_sequence(sig, level)] for sig in family
                ],
                "agree_through_level": level,
                "pairwise_distinct": True,
            },
        },
        separators=(",", ":"),
    ) + "\n"


def test_construct_matches_json_dumps_byte_for_byte(run):
    """The streamed document equals the json.dumps of the library's family
    with one recomputed sequence per member."""
    repeated = 0
    for level in range(2, 7):
        seeds = list(range(level + 1, level + 1 + (1 if level <= 2 else 2 ** (level - 2))))
        for members, equalize, genus in product((None, 3, 5), ("lcm", "product"), range(3)):
            argv = ["construct", f"--L={level}", f"--g={genus}", f"--equalize={equalize}"]
            argv += [f"--orders={','.join(map(str, seeds))}"] + ([f"--N={members}"] if members else [])
            family = _family(level, genus, seeds, members, equalize)
            assert run(*argv) == (0, _construct_document(level, family), "")
            counts = [count for sig in family for _, count in sig.cones]
            repeated += len(set(counts)) < len(counts)
    assert repeated  # the per-count memo is exercised


@pytest.mark.parametrize("members", [None, 2, 4, 5])  # every pinned lcm L=7 family size
def test_construct_level_7_matches_json_dumps_and_pin(run, members):
    # counts of ~4,000 digits, converted through their common factor
    entry = _pinned_construct(7, members)
    family = _family(7, entry["genus"], _seeds(entry), members)
    code, out, err = run(*entry["argv"])
    assert (code, out, err) == (0, _construct_document(7, family), "")
    assert hashlib.sha256(out.encode()).hexdigest() == entry["sha256"]
    assert len(out.encode()) == entry["bytes"]


def test_construct_matches_every_pinned_digest(run):
    # every pinned construct input with a digest (lcm L=2-7 and product
    # L=2-5 at every --N); the L=8 and product L=6 ones pin no digest
    pinned = [entry for entry in _PINNED_CONSTRUCT if entry["sha256"] is not None]
    assert {(entry["equalize"], entry["level"]) for entry in pinned} == {
        *(("lcm", level) for level in range(2, 8)),
        *(("product", level) for level in range(2, 6)),
    }
    for entry in pinned:
        code, out, err = run(*entry["argv"])
        assert (code, err) == (0, ""), entry["argv"]
        out = out.encode()
        assert (hashlib.sha256(out).hexdigest(), len(out)) == (entry["sha256"], entry["bytes"]), entry["argv"]


def _scaled_counts(level, genus, seeds, members, equalize="lcm"):
    """The scale, cofactor counts and multiplier bound construct writes
    with, as (scale, cofactors, most)."""
    scale, pair = _scaled_collision_pair(level, genus, seeds, equalize)
    family = list(pair) if members is None else expand_family(*pair, members, level)
    return scale, {count for sig in family for _, count in sig.cones}, 2 * (len(family) - 1)


def _pinned_counts(level, members):
    entry = _pinned_construct(level, members)
    return _scaled_counts(level, entry["genus"], _seeds(entry), members)


# (scale, cofactors, most) built when their case runs, not at collection
_COUNT_SETS = {
    "coprime": lambda: (1, {6, 35, 143}, 2),  # nothing shared
    "single": lambda: (4, {3}, 2),
    "at-limit": lambda: (10**4299, {3, 6}, 2),  # the default digit limit itself, 6 = 2 * 3
    "lcm-7": lambda: _pinned_counts(7, None),
    "lcm-7-N5": lambda: _pinned_counts(7, 5),
    "product-5": lambda: _scaled_counts(5, 2, list(range(6, 14)), 4, "product"),
    "lcm-7-N4": lambda: _pinned_counts(7, 4),
    "lcm-7-N2": lambda: _pinned_counts(7, 2),
    "product-5-N6": lambda: _scaled_counts(5, 2, list(range(6, 14)), 6, "product"),
}


@pytest.mark.parametrize("case", list(_COUNT_SETS))
def test_count_digits_equal_str(case):
    scale, cofactors, most = _COUNT_SETS[case]()
    assert _count_digits(Decimal(str(scale)), cofactors, most) == {c: str(scale * c) for c in cofactors}


# counts as (scale, cofactors, most)
_PAST_THE_LIMIT = [
    (10**4299, {3, 30}, 2),  # shared factor, one count of 4,301 digits
    (1, {10**4300 + 1, 2}, 2),  # nothing shared
    (10**4250, {7, 10**60}, 2),  # a 4,251-digit scale, one count of 4,311 digits
    (10**4299, {5, 10}, 2),  # 5 * scale has 4,300 digits, its double 4,301
]
_DEFAULT_LIMIT = pytest.mark.skipif(
    getattr(sys, "get_int_max_str_digits", int)() != 4300, reason="needs the default int->str digit limit"
)


@_DEFAULT_LIMIT
@pytest.mark.parametrize("counts", _PAST_THE_LIMIT)
def test_count_digits_past_the_limit_raise(counts):
    scale, cofactors, most = counts
    with pytest.raises(ValueError, match="Exceeds the limit"):
        _count_digits(Decimal(str(scale)), cofactors, most)


def _pinned_first_cofactor(level):
    entry = _pinned_construct(level, None)
    scale, pair = _scaled_collision_pair(level, entry["genus"], _seeds(entry), "lcm")
    return scale, pair[0], level


# (scale, signature, level) of the sequence formatter's cases
_SEQUENCES = {
    "scale-1": lambda: (1, OrbifoldSignature(0, {3: 2, 7: 1}), 4),
    "genus-5": lambda: (7, OrbifoldSignature(5, {4: 3, 9: 2}), 3),  # level 1 reads 2 - 2g = -8
    "reduced": lambda: (4, OrbifoldSignature(0, {12: 1}), 2),  # level 0: 2 + 4 * (-11/12) = -5/3
    "lcm-7": lambda: _pinned_first_cofactor(7),
}


@pytest.mark.parametrize("case", list(_SEQUENCES))
def test_sequence_text_equals_rational_list(case):
    scale, sig, level = _SEQUENCES[case]()
    top = 2 - 2 * sig.genus
    expected = _rational_list(top + scale * (v - top) for v in char_sequence(sig, level))
    assert _sequence_text(Decimal(str(scale)), sig, level) == expected


@_DEFAULT_LIMIT
@pytest.mark.parametrize("members", [None, 3])
def test_construct_with_a_scale_under_the_limit_writes_nothing(run, monkeypatch, members):
    # a scale that converts on its own, times a cofactor that takes the
    # count past the limit: str()'s own error, before the first write
    cofactors = tuple(constructions.repeat(sig, 10**60) for sig in constructions.base_pair(0, 2))
    monkeypatch.setattr(cli, "_scaled_collision_pair", lambda *args, **kwargs: (10**4250, cofactors))
    argv = ["construct", "--L", "2", "--g", "0", "--orders", "2"] + ([] if members is None else ["--N", "3"])
    code, out, err = run(*argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: Exceeds the limit") and err.count("\n") == 1


@_DEFAULT_LIMIT
@pytest.mark.parametrize("members", [None, 3])
def test_construct_with_only_the_sequence_past_the_limit_writes_nothing(run, monkeypatch, members):
    # counts of at most 4,296 digits, under the limit, but a level-2 value
    # of 4,302: str()'s own error, before the first write
    cofactors = tuple(constructions.repeat(sig, 10**95) for sig in constructions.base_pair(0, 1000))
    monkeypatch.setattr(cli, "_scaled_collision_pair", lambda *args, **kwargs: (10**4200, cofactors))
    argv = ["construct", "--L", "2", "--g", "0", "--orders", "1000"] + ([] if members is None else ["--N", "3"])
    code, out, err = run(*argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: Exceeds the limit") and err.count("\n") == 1


def test_construct_past_the_digit_limit_writes_nothing(run):
    # lcm L=8 counts run to ~18,000 digits, past CPython's int->str limit:
    # every number is converted before the first write, so stdout is empty
    # or holds a whole document
    seeds = ",".join(map(str, range(2, 66)))
    code, out, err = run("construct", "--L", "8", "--g", "0", "--orders", seeds, "--N", "4")
    if code == 2:
        assert out == "" and err.startswith("error:") and err.count("\n") == 1
    else:
        assert code == 0 and json.loads(out)["verification"]["agree_through_level"] == 8


def test_construct_bad_seed_count_exits_2(run):
    code, _, err = run("construct", "--L", "4", "--g", "0", "--orders", "2")
    assert code == 2
    assert err


@pytest.mark.parametrize(
    "level, orders, named",
    [
        ("1", "3,4", "level 1 needs exactly 1 seed, got 2"),
        ("2", "3,4,5", "level 2 needs exactly 1 seed, got 3"),
        ("3", "3", "level 3 needs exactly 2 seeds, got 1"),
        ("5", "3,4", "level 5 needs exactly 8 seeds, got 2"),
    ],
)
def test_construct_names_the_seed_count(run, level, orders, named):
    assert run("construct", "--L", level, "--g", "0", "--orders", orders) == (2, "", f"error: {named}\n")


@pytest.mark.parametrize("orders", [",".join(map(str, range(2, 34))), "1"])
def test_construct_reads_members_before_building(run, monkeypatch, orders):
    # a malformed or too small --N exits 2 before any pair is built (the 32
    # seeds of an L=7 pair), and it is named before the seed refusal of
    # "--orders 1"
    def refuse(*args, **kwargs):
        raise AssertionError("_scaled_collision_pair called")

    monkeypatch.setattr("orbichar.cli._scaled_collision_pair", refuse)
    for members, named in [
        ("x", "'x'"),
        ("1", "family size must be an integer >= 2, got 1"),
        ("0", "family size must be an integer >= 2, got 0"),
    ]:
        code, out, err = run("construct", "--L", "7", "--g", "0", "--orders", orders, "--N", members)
        assert (code, out) == (2, ""), members
        assert err.startswith("error:") and err.count("\n") == 1 and named in err, members


_SIGMA_0_3_3, _SIGMA_0_4_4 = OrbifoldSignature.from_orders(0, 3, 3), OrbifoldSignature.from_orders(0, 4, 4)


@pytest.mark.parametrize(
    "pair, message",
    [
        ((_SIGMA_0_3_3, _SIGMA_0_3_3), "family members are not pairwise distinct"),
        ((_SIGMA_0_3_3, _SIGMA_0_4_4), "family characteristics differ at level 0"),
    ],
)
def test_construct_refused_by_its_own_verification_exits_4(run, monkeypatch, pair, message):
    # a base pair that breaks the family: the check before returning refuses it
    monkeypatch.setattr("orbichar.constructions.base_pair", lambda genus, seed: pair)
    code, out, err = run("construct", "--L", "2", "--g", "0", "--orders", "3")
    assert (code, out, err) == (4, "", f"error: {message}\n")


def _miscount_next_build(monkeypatch):
    """Make the next signature that constructions.combine builds (a merged
    cofactor, or a family member) hold one cone more of its lowest order."""
    build, done = constructions.combine, []

    def miscounted(a, b):
        sig = build(a, b)
        if done:
            return sig
        done.append(sig)
        (order, count), *rest = sig.cones
        return OrbifoldSignature(sig.genus, [(order, count + 1), *rest])

    monkeypatch.setattr(constructions, "combine", miscounted)


def test_a_miscounted_build_is_refused(run, monkeypatch):
    # mutation check: the verification fires when one count is off by one,
    # and the CLI then exits 4 with nothing written
    seeds = [2, 3, 4, 5]
    pair = build_collision_pair(4, 0, seeds)
    _miscount_next_build(monkeypatch)
    with pytest.raises(ConstructionError, match="differ at level 0"):
        build_collision_pair(4, 0, seeds)
    _miscount_next_build(monkeypatch)
    with pytest.raises(ConstructionError, match="differ at level 0"):
        expand_family(*pair, 3, 4)
    for members in ([], ["--N", "3"]):
        _miscount_next_build(monkeypatch)
        code, out, err = run("construct", "--L", "4", "--g", "0", "--orders", "2,3,4,5", *members)
        assert (code, out, err) == (4, "", "error: family characteristics differ at level 0\n"), members


def test_reconstruct_round_trip(run):
    code, out, _ = run("reconstruct", "--seq", "2,2,2,2")
    assert code == 0
    assert json.loads(out) == {"genus": 0, "cones": []}

    code, out, _ = run("reconstruct", "--seq=-1/2,2,19,149,1249,11249")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "genus": 0,
        "cones": [{"order": 5, "count": "2"}, {"order": 10, "count": "1"}],
    }


def test_reconstruct_insufficient(run):
    code, out, _ = run("reconstruct", "--seq=-1/2,2,19")
    assert code == 0
    assert json.loads(out)["status"] == "insufficient-data"


def test_reconstruct_invalid_exits_2(run):
    code, _, err = run("reconstruct", "--seq", "2,3,4")
    assert code == 2
    assert "not a valid characteristic sequence" in err


@pytest.mark.parametrize("seq", ["1/0", "-1/2,2,1/0"])
def test_reconstruct_zero_denominator_exits_2(run, seq):
    code, _, err = run("reconstruct", f"--seq={seq}")
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["reconstruct", "--seq=1/-2,2"], ["enumerate", "--chi-es=-1/-2"]])
def test_a_signed_denominator_exits_2(run, argv):
    code, out, err = run(*argv)  # the sign of a rational goes on its numerator only
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1


_SEQ_TOKENS = st.one_of(
    st.integers(-(10**40), 10**40).map(str),
    st.builds("{}/{}".format, st.integers(-(10**40), 10**40), st.integers(1, 10**6)),
    st.sampled_from(["", "1/0", "x", "1e3"]),
)


@settings(deadline=1000, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(tokens=st.lists(_SEQ_TOKENS, min_size=1, max_size=12))
def test_reconstruct_any_sequence_exits_cleanly(run, tokens):
    code, _, err = run("reconstruct", "--seq=" + ",".join(tokens))
    assert code in (0, 2)
    assert code == 0 or (err.startswith("error:") and err.count("\n") == 1)


def test_enumerate_streams_signatures(run):
    code, out, _ = run("enumerate", "--chi-es", "0")
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert len(lines) == 5
    assert lines[-1] == {"genus": 1, "cones": []}


def test_enumerate_includes_example_pair(run):
    code, out, _ = run("enumerate", "--chi-es=-4")
    assert code == 0
    lines = out.splitlines()
    nine_threes = json.dumps(
        {"genus": 0, "cones": [{"order": 3, "count": "9"}]}, separators=(",", ":")
    )
    assert nine_threes in lines
    # the whole stream, pinned on the json.dump emission it replaced
    assert len(lines) == 298338
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "cf31a778f60aa27017db1960a14c311ec01a0dcd31c76b83f9927a026d39fda4"
    )


def test_enumerate_huge_prime_denominator_at_once(run):
    # 1/q with q = 10**18 + 3 prime: the final pairs factor q, where trial
    # division alone would take ~10**9 steps
    q = 10**18 + 3
    start = time.process_time()  # CPU time: a loaded host must not fail the bound
    code, out, _ = run("enumerate", f"--chi-es=1/{q}")
    assert time.process_time() - start < 1
    assert code == 0
    assert [json.loads(line) for line in out.splitlines()] == [
        OrbifoldSignature(0, {q + 1: 1, q * (q + 1): 1}).to_json(),
        OrbifoldSignature(0, {2 * q: 2}).to_json(),
        OrbifoldSignature(0, {2: 2, q: 1}).to_json(),
    ]


@pytest.mark.parametrize(
    "signature",
    [
        OrbifoldSignature(7),
        OrbifoldSignature.from_orders(3, 2, 2, 5, 5, 5, 9),
        OrbifoldSignature(0, {2**63 + 1: 1, 2**64: 3, 10**30: 2}),
        OrbifoldSignature(2, {3: 10**100, 4: 10**50 + 7, 11: 1}),
    ],
)
def test_signature_line_matches_json_dumps(signature):
    expected = json.dumps(signature.to_json(), separators=(",", ":"))
    memo = _cone_text.__self__
    memo.clear()
    # a miss stores the text, the second call reads it back
    assert _signature_line(signature) == expected
    assert _signature_line(signature) == expected
    assert len(memo) == len(signature.cones)


def test_cone_memo_stays_exact_past_its_bound():
    # three times as many distinct cones as the memo holds, then the first
    # ones again: every line must survive the clears unchanged
    memo = _cone_text.__self__
    orders = [*range(2, 3 * _CONE_MEMO_SIZE + 2), *range(2, 50)]
    for order in orders:
        signature = OrbifoldSignature(order % 3, {order: order * 7, order + 1: 10**30 + order})
        line = _signature_line(signature)
        assert line == json.dumps(signature.to_json(), separators=(",", ":"))
        assert len(memo) <= _CONE_MEMO_SIZE


def test_search_contains_base_pair_group(run):
    code, out, _ = run("search", "--g-max", "0", "--k-max", "3", "--m-max", "10", "--L", "2")
    assert code == 0
    groups = json.loads(out)
    assert any(group["values"] == ["-1/2", "2", "19"] for group in groups)


# stdout of the json.dump emission that search and reconstruct printed first
_DOCUMENT_SHA256 = {
    "search --g-max=1 --k-max=4 --m-max=10 --L=2": (
        "9b56d7a3b5f0b3aa1d0fa73fb7e05b6754a9fa6162aec43799431aaf99e25d1b"
    ),
    "search --g-max=0 --k-max=3 --m-max=10 --L=2": (
        "b709e98551f94729511cddc1f4f6c719e61dda7d67355dc25090b203d94eea93"
    ),
    "search --g-max=1 --k-max=4 --m-max=12 --L=3": hashlib.sha256(b"[]\n").hexdigest(),
    "reconstruct --seq=-1/2,2,19,149,1249,11249": (
        "1357079199ef6d671c5346d880173c06284cc478dde35d801c1c429a4e123c94"
    ),
    "reconstruct --seq=-1/2,2,19": (
        "5115dc779054a67d53ac3ed9e06bee762c7ed5d340ed0c5ddff7496dbc257885"
    ),
}


@pytest.mark.parametrize("command", sorted(_DOCUMENT_SHA256))
def test_search_and_reconstruct_output_is_pinned(run, command):
    code, out, err = run(*command.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == _DOCUMENT_SHA256[command]


def test_quotient_builtin_group(run, tmp_path):
    fpc = tmp_path / "fpc.json"
    subgroups = [[0], [0, 3], [0, 2, 4], [0, 1, 2, 3, 4, 5]]
    fpc.write_text(json.dumps([{"subgroup": s, "chi": 2} for s in subgroups]))
    code, out, _ = run("quotient", "--group", "C6", "--fpc", str(fpc), "--gamma", "Z")
    assert (code, out.strip()) == (0, "2")
    code, out, _ = run("quotient", "--group", "C6", "--fpc", str(fpc), "--gamma", "Z^2", "--json")
    assert (code, json.loads(out)) == (0, {"value": "12"})


def test_quotient_group_from_file(run, tmp_path):
    group_file = tmp_path / "c2.json"
    group_file.write_text(json.dumps({"order": 2, "table": [[0, 1], [1, 0]]}))
    fpc = tmp_path / "fpc.json"
    fpc.write_text(json.dumps([{"subgroup": [0], "chi": 2}, {"subgroup": [0, 1], "chi": 2}]))
    code, out, _ = run("quotient", "--group", str(group_file), "--fpc", str(fpc), "--gamma", "Z")
    assert (code, out.strip()) == (0, "2")


def test_quotient_missing_fpc_entry_exits_2(run, tmp_path):
    fpc = tmp_path / "fpc.json"
    fpc.write_text(json.dumps([{"subgroup": [0], "chi": 2}]))
    code, _, err = run("quotient", "--group", "C6", "--fpc", str(fpc), "--gamma", "Z")
    assert code == 2
    assert err


@pytest.mark.parametrize(
    "repeat, expected",
    [
        (2, (0, "2\n", "")),
        (7, (2, "", "error: fixed-point data gives subgroup [0] two values, 2 and 7\n")),
    ],
)
def test_quotient_subgroup_given_twice(run, tmp_path, repeat, expected):
    fpc = tmp_path / "fpc.json"
    subgroups = [[0], [0, 3], [0, 2, 4], [0, 1, 2, 3, 4, 5]]
    entries = [{"subgroup": s, "chi": 2} for s in subgroups] + [{"subgroup": [0], "chi": repeat}]
    fpc.write_text(json.dumps(entries))
    assert run("quotient", "--group", "C6", "--fpc", str(fpc), "--gamma", "Z") == expected


def test_quotient_conjugation_variant_data_exits_2(run, tmp_path):
    fpc = tmp_path / "fpc.json"
    # conjugate reflections valued 2, 0, 4 keep the sum over homs equal to the class sum
    for reflections in ((2, 0, 0), (2, 0, 4)):
        chars = {(0,): 2, (0, 1, 2): 2, (0, 1, 2, 3, 4, 5): 2}
        chars.update(zip([(0, 3), (0, 4), (0, 5)], reflections))
        fpc.write_text(json.dumps([{"subgroup": list(s), "chi": c} for s, c in chars.items()]))
        for gamma in ("Z", "F_2"):
            code, out, err = run("quotient", "--group", "D6", "--fpc", str(fpc), "--gamma", gamma)
            assert (code, out) == (2, "")
            assert err.startswith("error:") and err.count("\n") == 1
            assert "conjugate subgroups [0, 3] and [0, 4]" in err


@pytest.mark.parametrize(
    "option, document",
    [
        ("--fpc", '[{"subgroup":5,"chi":2}]'),
        ("--fpc", '{"x":1}'),
        ("--fpc", "[5]"),
        ("--fpc", '[{"subgroup":[0],"chi":null}]'),
        ("--fpc", '[{"subgroup":[[0]],"chi":2}]'),
        ("--fpc", '[{"subgroup":[0],"chi":true},{"subgroup":[0,1,2],"chi":2}]'),
        ("--fpc", '[{"chi":2}]'),
        ("--fpc", '[{"subgroup":[0]}]'),
        ("--group", '{"table":5}'),
        ("--group", "[[0]]"),
        ("--group", '{"table":[5]}'),
        ("--group", '{"table":[[false]]}'),
        ("--group", '{"order":true,"table":[[0]]}'),
        ("--group", '{"order":1.0,"table":[[0]]}'),
        ("--group", '{"order":1}'),
    ],
)
def test_quotient_malformed_document_exits_2(run, tmp_path, option, document):
    fpc = tmp_path / "fpc.json"
    fpc.write_text(json.dumps([{"subgroup": [0], "chi": 2}, {"subgroup": [0, 1, 2], "chi": 2}]))
    bad = tmp_path / "bad.json"
    bad.write_text(document)
    files = {"--group": "C3", "--fpc": str(fpc), option: str(bad)}
    code, out, err = run("quotient", *(x for pair in files.items() for x in pair), "--gamma", "Z")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1
    if document in _MISSING_FIELD:
        assert f"no {_MISSING_FIELD[document]!r} field" in err


_KEYS = st.sampled_from(["genus", "cones", "order", "count", "table", "subgroup", "chi"])
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_KEYS | st.text(max_size=3), inner, max_size=4),
    max_leaves=16,
)


def _document_argv(tmp_path, source, text):
    """argv that hands the JSON text to one of the four document loaders."""
    path = tmp_path / "doc.json"
    path.write_text(text)
    fpc = tmp_path / "fpc.json"
    fpc.write_text('[{"subgroup":[0],"chi":2}]')
    return {
        "inline-sig": ["chi", f"--sig={text}"],
        "sig-file": ["chi", f"--sig={path}"],
        "group-file": ["quotient", f"--group={path}", f"--fpc={fpc}", "--gamma=Z"],
        "fpc-file": ["quotient", "--group=C3", f"--fpc={path}", "--gamma=Z"],
    }[source]


@pytest.mark.parametrize("source", ["inline-sig", "sig-file", "group-file", "fpc-file"])
@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(document=_JSON)
def test_json_documents_exit_cleanly(run, tmp_path, source, document):
    code, _, err = run(*_document_argv(tmp_path, source, json.dumps(document)))
    assert code in (0, 2, 3)
    assert code == 0 or (err.startswith("error:") and err.count("\n") == 1)


@pytest.mark.parametrize("source", ["inline-sig", "sig-file", "group-file", "fpc-file"])
def test_deeply_nested_json_exits_2(run, tmp_path, source):
    # deeper than the decoder's recursion limit; inline JSON must be an object
    text = '{"genus":' + "[" * 200_000 + "]" * 200_000 + "}"
    code, out, err = run(*_document_argv(tmp_path, source, text))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("group", ["C3", "C1"])
def test_quotient_huge_rank_exits_3_at_once(run, tmp_path, group):
    fpc = tmp_path / "fpc.json"
    fpc.write_text('[{"subgroup":[0],"chi":2}]')
    start = time.process_time()  # CPU time: a loaded host must not fail the bound
    code, out, err = run("quotient", "--group", group, "--fpc", str(fpc), "--gamma", "Z^1000000000")
    assert time.process_time() - start < 1
    assert (code, out) == (3, "")
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("group, gamma", [("C100000", "Z"), ("C800", "Z^3")])
def test_quotient_large_group_exits_3_at_once(run, tmp_path, group, gamma):
    # C100000's table is refused before it is built; C800's is built and
    # validated quickly, then its 800**3 homs are refused
    fpc = tmp_path / "fpc.json"
    fpc.write_text('[{"subgroup":[0],"chi":2}]')
    start = time.process_time()  # CPU time: a loaded host must not fail the bound
    code, out, err = run("quotient", "--group", group, "--fpc", str(fpc), "--gamma", gamma)
    assert time.process_time() - start < 1
    assert (code, out) == (3, "")
    assert err.startswith("error:") and "budget" in err and err.count("\n") == 1


@pytest.mark.parametrize("group, code", [("C100", 0), ("C101", 3), ("C2xC51", 3), ("D202", 3)])
def test_quotient_group_table_is_budgeted(run, tmp_path, monkeypatch, group, code):
    monkeypatch.setenv("ORBICHAR_HOM_BUDGET", "10000")  # order**2 <= 10000
    fpc = tmp_path / "fpc.json"
    fpc.write_text('[{"subgroup":[0],"chi":2}]')
    result = run("quotient", "--group", group, "--fpc", str(fpc), "--gamma", "trivial")
    assert result[0] == code
    if code == 0:
        assert result[1:] == ("1/50\n", "")
    else:
        assert result[1] == "" and f"the table of group {group!r}" in result[2]


@pytest.mark.parametrize("gamma", ["Z^5000", "F_5000"])
def test_quotient_trivial_group_takes_any_rank_in_budget(run, tmp_path, gamma):
    fpc = tmp_path / "fpc.json"
    fpc.write_text('[{"subgroup":[0],"chi":2}]')
    code, out, err = run("quotient", "--group", "C1", "--fpc", str(fpc), "--gamma", gamma)
    assert (code, out, err) == (0, "2\n", "")


@pytest.mark.parametrize(
    "option, value, code, message",
    [
        ("--gamma", "Z^²", 3, "bad group spec component"),
        ("--gamma", "Z/²", 3, "bad group spec component"),
        ("--gamma", "F_²", 3, "bad free-group spec"),
        ("--gamma", "Z+Z^³", 3, "bad group spec component"),
        ("--group", "C²", 2, "unknown group name"),
        ("--group", "C2xD²", 2, "unknown group name"),
        ("--gamma", "Z^３", 3, "bad group spec component"),
        ("--gamma", "Z/1_0", 3, "bad group spec component"),
        ("--group", "C٣", 2, "unknown group name"),
    ],
)
def test_superscript_digits_are_not_numbers(run, tmp_path, option, value, code, message):
    fpc = tmp_path / "fpc.json"
    fpc.write_text('[{"subgroup":[0],"chi":2}]')
    argv = {"--group": "C3", "--fpc": str(fpc), "--gamma": "Z", option: value}
    result = run("quotient", *(f"{key}={arg}" for key, arg in argv.items()))
    assert result[:2] == (code, "")
    assert result[2].startswith(f"error: {message}") and result[2].count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("chi", "--sig", '{"genus":0,"cones":[{"order":2,"count":"1_0"}]}'),
        ("reconstruct", "--seq=1_0/1_1,2"),
        ("enumerate", "--chi-es=-1_0/3"),
        ("chi", "--sig", "Sigma_0(２,3)"),
        ("construct", "--L", "2", "--g", "0", "--orders", "2,1_0"),
        ("chi", "--sig", "Sigma_0(2,3)", "--l", "1_0"),
        ("chi", "--sig", "Sigma_0(2,3)", "--seq-len", "２"),
        ("search", "--g-max", "0", "--k-max", "٣", "--m-max", "5", "--L", "1"),
        ("search", "--g-max", "1_0", "--k-max", "3", "--m-max", "5", "--L", "1"),
        ("search", "--g-max", "0", "--k-max", "3", "--m-max", "５", "--L", "1"),
        ("search", "--g-max", "0", "--k-max", "3", "--m-max", "5", "--L", "+1"),
        ("construct", "--L", "٣", "--g", "0", "--orders", "2,3"),
        ("construct", "--L", "2", "--g", "1_0", "--orders", "2"),
        ("construct", "--L", "2", "--g", "0", "--orders", "2", "--N", " 3"),
    ],
)
def test_underscored_and_non_ascii_digits_exit_2(run, argv):
    code, out, err = run(*argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: not an integer") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, code",
    [
        (("chi", "--sig", "Sigma_0(2,3)", "--l", "-1"), 2),
        (("chi", "--sig", "Sigma_0(2,3)", "--l", "-0"), 0),
        (("chi", "--sig", "Sigma_0(2,3)", "--seq-len", "-1"), 2),
        (("construct", "--L", "-1", "--g", "0", "--orders", "2"), 2),
        (("construct", "--L", "2", "--g", "-1", "--orders", "2"), 2),
        (("construct", "--L", "2", "--g", "0", "--orders", "2", "--N", "-1"), 2),
        (("search", "--g-max", "-1", "--k-max", "3", "--m-max", "5", "--L", "1"), 2),
        (("search", "--g-max", "0", "--k-max", "3", "--m-max", "5", "--L", "-1"), 2),
    ],
)
def test_negative_integer_options_keep_their_exit_codes(run, argv, code):
    result = run(*argv)
    assert result[0] == code
    if code:
        assert result[1] == "" and result[2].startswith("error:") and result[2].count("\n") == 1


_FACTOR_ORDERS = {f"C{n}": n for n in range(1, 61)} | {f"D{n}": n for n in range(2, 61, 2)}


@st.composite
def _group_names(draw):
    """Builtin names of order at most 60, whose tables (order**2 entries)
    fit the budget of 10000 the fuzz sets."""
    factors, order = [], 1
    for _ in range(draw(st.integers(1, 3))):
        name = draw(st.sampled_from([f for f, o in _FACTOR_ORDERS.items() if order * o <= 60]))
        factors.append(name)
        order *= _FACTOR_ORDERS[name]
    return "x".join(factors)


@cache
def _all_subgroups_fpc(name):
    """Fixed-point data with chi 2 on every subgroup of a builtin group."""
    group = group_by_name(name)
    found = {frozenset({group.identity}): ()}
    frontier = list(found.items())
    while frontier:
        grown = []
        for subgroup, gens in frontier:
            for x in range(group.order):
                if x not in subgroup:
                    more = gens + (x,)
                    bigger = group.subgroup_closure(more)
                    if bigger not in found:
                        found[bigger] = more
                        grown.append((bigger, more))
        frontier = grown
    return json.dumps([{"subgroup": sorted(s), "chi": 2} for s in found])


_SIZES = st.integers(0, 12) | st.integers(0, 10**12)
_COMPONENTS = st.just("Z") | _SIZES.map("Z^{}".format) | _SIZES.map("Z/{}".format)
_GAMMAS = (
    st.lists(_COMPONENTS, min_size=1, max_size=4).map("+".join)
    | _SIZES.map("F_{}".format)
    | st.just("trivial")
    | st.text(alphabet="ZF^/_+ x0123²³١٢߂", max_size=8)
    | st.text(max_size=8)
)
_JUNK_GROUPS = st.sampled_from(["C²", "D²", "C2x²", "C0", "D0", "D3", "C-1", "", "x", "C2x"]) | (
    st.text(max_size=6).filter(lambda text: not any(ch.isdecimal() for ch in text))
)


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(group=_group_names() | _JUNK_GROUPS, gamma=_GAMMAS)
def test_quotient_any_gamma_and_group_exits_cleanly(run, tmp_path, monkeypatch, group, gamma):
    monkeypatch.setenv("ORBICHAR_HOM_BUDGET", "10000")
    fpc = tmp_path / "fpc.json"
    try:
        fpc.write_text(_all_subgroups_fpc(group))
    except ValueError:  # junk name: the group loader refuses it first
        fpc.write_text('[{"subgroup":[0],"chi":2}]')
    start = time.process_time()  # CPU time: a loaded host must not fail the bound
    code, out, err = run("quotient", f"--group={group}", f"--fpc={fpc}", f"--gamma={gamma}")
    assert time.process_time() - start < 5
    assert code in (0, 2, 3, 4)
    if code == 0:
        assert err == "" and out.count("\n") == 1
    else:
        assert out == "" and err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "example",
    ["sameESCsameg", "sameLESC", "basecase", "noneffective", "nonorientable", "generaldim"],
)
def test_verify_scenarios_pass(run, example):
    code, out, _ = run("verify-paper", example)
    assert code == 0
    assert "FAIL" not in out
    assert "PASS" in out


def test_verify_scenario_with_a_failing_check_exits_4(run, monkeypatch):
    checks = [(True, "first check"), (False, "second check")]
    monkeypatch.setitem(cli._SCENARIOS, "basecase", lambda: checks)
    code, out, err = run("verify-paper", "basecase")
    assert (code, err) == (4, "")
    assert out.splitlines() == ["PASS: first check", "FAIL: second check", "basecase: 1/2 checks passed"]


def test_verify_scenario_whose_family_fails_verification_exits_4(run, monkeypatch):
    # distinct values per member: general_gamma_family refuses its own family
    monkeypatch.setattr("orbichar.constructions.chi_gamma", lambda sig, gamma: sig)
    code, out, err = run("verify-paper", "generaldim")
    assert (code, out) == (4, "")
    assert err.startswith("error: family characteristics differ for FgAbelian(") and err.count("\n") == 1


_VERIFY_SHA256 = {
    "sameESCsameg": "29ab27021163843804b84ebfebf12eb233a610ef639e65802aa08a9f248a18ec",
    "sameLESC": "b6914e3f6e5b8f138a5f0e5dd4459541267a850581f31e1de7b461646fa2291b",
    "basecase": "38c4c34bd7147dc70df8413a96046aba08f3da20b01d2e73c613dabb24648eb6",
    "noneffective": "4729197a02168ef66ef7fe3f1ade8ade9b9f49881f737b3313dd10cd50dceba2",
    "nonorientable": "0d408de211991e3b5d44d3368a97bc1b80c97ceff2aadad994ec6893ef139106",
    "generaldim": "6bcafab23b24ba18e246e36930807358ad7303d3f99b176343556412b5497e00",
}


@pytest.mark.parametrize("example", sorted(_VERIFY_SHA256))
def test_verify_scenario_output_is_pinned(run, example):
    code, out, err = run("verify-paper", example)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == _VERIFY_SHA256[example]


@pytest.mark.parametrize("value", ["1_000", "٣", " 50 ", "+9", "-5", ""])
def test_hom_budget_variable_reads_only_ascii_digits(run, tmp_path, monkeypatch, value):
    monkeypatch.setenv("ORBICHAR_HOM_BUDGET", value)
    fpc = tmp_path / "fpc.json"
    fpc.write_text('[{"subgroup":[0],"chi":2},{"subgroup":[0,1,2],"chi":2}]')
    code, out, err = run("quotient", "--group", "C3", f"--fpc={fpc}", "--gamma", "Z")
    assert (code, out) == (2, "")
    assert err.startswith("error: ORBICHAR_HOM_BUDGET") and err.count("\n") == 1


def test_outputs_are_deterministic(run):
    first = run("search", "--g-max", "1", "--k-max", "2", "--m-max", "6", "--L", "1")
    second = run("search", "--g-max", "1", "--k-max", "2", "--m-max", "6", "--L", "1")
    assert first == second


def test_console_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "orbichar.cli", "chi", "--sig", "Sigma_0(5,5,10)", "--l", "0"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "-1/2"


COMMANDS = ("chi", "construct", "reconstruct", "enumerate", "search", "quotient", "verify-paper")
PARSER_PROBES = [
    ["-h"],
    ["--help"],
    *([command, "-h"] for command in COMMANDS),
    *([command, "--help"] for command in COMMANDS),
    [],
    ["bogus"],
    ["enum", "--chi-es", "1/6"],
    ["-x", "enumerate"],
    ["--", "enumerate", "--chi-es", "1/6"],
    ["construct", "--L", "2"],  # required options missing
    ["enumerate", "--chi-es"],  # option value missing
    ["construct", "--L", "2", "--g", "0", "--orders", "2,3", "--equalize", "sum"],
    ["verify-paper", "bogus"],  # a bad choice of a positional
    ["chi", "--sig", "Sigma_0(2,3)", "--gamma", "Z", "--l", "2"],  # mutually exclusive
    ["enumerate", "--chi", "-1/2"],  # abbreviations
    ["enumerate", "--chi=-1/2"],
    ["enumerate", "--chi-es", "1/6", "extra"],  # arguments left over
    ["verify-paper", "sameLESC", "extra"],
    ["chi", "--sig", "Sigma_0(5,5,10)", "--l", "0", "-h"],
    ("chi", "--sig", "Sigma_0(5,5,10)", "--l", "0"),
    ("enumerate", "--chi-es", "1/6", "extra"),
    # argvs that a subcommand's standalone parser reads on its own
    ["enumerate", "--", "--chi-es", "1/6"],
    ["verify-paper", "--", "sameLESC"],
    ["chi", "--s", "x"],  # an ambiguous prefix
    ["chi", "--sig", "Sigma_0(2,3)", "--sig", "Sigma_0(5,5,10)"],  # a repeated option
    ["construct", "--L", "-h"],
    ["enumerate", "--chi-es", "-1/2"],  # values that start with -
    ["reconstruct", "--seq", "-1/2,2"],
    ["verify-paper"],
    ["chi", "-h", "--bogus"],
    ["chi", "-"],
]


def _in_process(capsys, function, argv):
    try:
        code = function(argv)
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    return (code, *capsys.readouterr())


def _full_parser_main(argv) -> int:
    """What main did before a request built only its subcommand's parser."""
    args = cli.build_parser().parse_args(argv)
    return args.func(args)


@pytest.mark.parametrize("columns", ["40", "80", "200"])
@pytest.mark.parametrize("argv", PARSER_PROBES, ids=repr)
def test_per_command_parser_matches_full_parser(capsys, monkeypatch, argv, columns):
    # help, errors and answers must be those of the parser with all seven
    monkeypatch.setenv("COLUMNS", columns)  # argparse wraps usage to the terminal width
    assert _in_process(capsys, main, argv) == _in_process(capsys, _full_parser_main, argv)


def test_build_parser_lists_the_subcommands_it_holds():
    every = "{" + ",".join(COMMANDS) + "}"
    assert every in cli.build_parser().format_usage()
    assert every in cli.build_parser("bogus").format_usage()
    assert cli.build_parser("chi").format_usage().startswith("usage: orbichar chi [-h] --sig SIG")


def test_a_warm_request_builds_no_parser(run, tmp_path, monkeypatch):
    cli._parser_tree.cache_clear()  # the tree is kept for the process
    fpc = tmp_path / "fpc.json"
    fpc.write_text(_all_subgroups_fpc("C6"))
    for argv in (  # one request of each subcommand
        ["chi", "--sig", "Sigma_0(5,5,10)", "--l", "0"],
        ["construct", "--L", "4", "--g", "1", "--orders", "5,6,7,8", "--N", "3"],
        ["reconstruct", "--seq=-1/2,2,19,149,1249,11249"],
        ["enumerate", "--chi-es=-1/2"],
        ["search", "--g-max", "1", "--k-max", "2", "--m-max", "6", "--L", "1"],
        ["quotient", "--group", "C6", f"--fpc={fpc}", "--gamma", "Z^2"],
        ["verify-paper", "sameLESC"],
    ):
        assert run(*argv)[0] == 0, argv
    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    for argv in PARSER_PROBES:
        try:
            run(*argv)
        except SystemExit:
            pass
    assert built == []
    assert cli._parser_tree.cache_info().currsize == 1


def test_build_parser_returns_the_subparser_the_full_parser_holds():
    full = cli.build_parser()
    (sub,) = (action for action in full._actions if isinstance(action, argparse._SubParsersAction))
    assert sorted(sub.choices) == sorted(COMMANDS)
    for command in COMMANDS:
        assert cli.build_parser(command) is sub.choices[command] is not full
        assert cli.build_parser(command).prog == f"orbichar {command}"


def test_a_word_that_names_no_subcommand_gets_the_full_parser():
    full = cli.build_parser()
    words = [None, "", "-h", "--", "bogus", "chi2", "CHI", *(f"word{i}" for i in range(20))]
    for word in words:
        assert cli.build_parser(word) is full, word


def test_a_kept_parser_wraps_help_to_the_width_when_printed(monkeypatch):
    cli._parser_tree.cache_clear()
    monkeypatch.setenv("COLUMNS", "200")
    parser = cli.build_parser("construct")
    assert len(parser.format_usage().splitlines()) == 1
    monkeypatch.setenv("COLUMNS", "40")
    narrow = cli.build_parser("construct")
    assert narrow is parser
    fresh = cli._parser_tree.__wrapped__()[1]["construct"]  # built at 40 columns
    assert narrow.format_usage() == fresh.format_usage()
    assert narrow.format_help() == fresh.format_help()
    assert len(narrow.format_usage().splitlines()) > 1


@pytest.mark.parametrize("command", ["chi", "reconstruct", "quotient", "enumerate", "construct", "verify-paper"])
def test_a_warm_request_leaves_no_cyclic_garbage(run, tmp_path, command):
    fpc = tmp_path / "fpc.json"
    fpc.write_text(_all_subgroups_fpc("C6"))
    argv = {
        "chi": ["chi", "--sig", "Sigma_0(5,5,10)", "--l", "0"],
        "reconstruct": ["reconstruct", "--seq=-1/2,2,19,149,1249,11249"],
        "quotient": ["quotient", "--group", "C6", f"--fpc={fpc}", "--gamma", "Z^2"],
        "enumerate": ["enumerate", "--chi-es=-1/2"],
        "construct": ["construct", "--L", "4", "--g", "1", "--orders", "5,6,7,8", "--N", "3"],
        "verify-paper": ["verify-paper", "nonorientable"],
    }[command]
    assert run(*argv)[0] == 0  # the parser is built and kept
    gc.collect()
    gc.disable()  # no collection may run, and hide garbage, during the request
    try:
        assert run(*argv)[0] == 0
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_main_in_one_process_matches_fresh_runs(tmp_path, capsys, monkeypatch):
    # one interpreter serving many requests, as the benchmark does: no state
    # left by a subcommand, or by an argparse exit, may change a later answer
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal width
    fpc = tmp_path / "fpc.json"
    fpc.write_text(_all_subgroups_fpc("C6"))
    construct = ["construct", "--L", "4", "--g", "1", "--orders", "5,6,7,8", "--N", "3"]
    requests = [
        construct,
        ["enumerate", "--chi-es=-1/2"],
        ["construct", "--L", "2"],  # argparse: required options missing
        ["reconstruct", "--seq=-1/2,2,19,149,1249,11249"],
        ["quotient", "--group", "C6", f"--fpc={fpc}", "--gamma", "Z^2"],
        ["reconstruct", "-h"],  # argparse: help, exit 0
        ["chi", "--sig", "Sigma_1(2)", "--seq-len", "3"],
        ["bogus"],
        ["enumerate", "--chi-es=-1"],
        ["construct", "--L", "4", "--g", "0", "--orders", "2"],  # too few seeds: exit 2
        ["search", "--g-max", "1", "--k-max", "2", "--m-max", "6", "--L", "1"],
        ["verify-paper", "sameLESC"],
        ["-h"],  # the full parser, between per-command ones
        ["enumerate", "--chi-es=1/6", "extra"],  # extras: the full parser's error
        ["chi", "--sig", "Sigma_0(2,3)", "--gamma", "Z", "--l", "2"],  # exclusive options
        construct,
        ["chi", "--s", "x"],  # argparse: an ambiguous prefix
        ["enumerate", "--", "--chi-es", "1/6"],
        ["verify-paper", "nonorientable"],
    ]
    # every subcommand once more, after its own help and an argparse error:
    # a kept parser must read each request as a fresh one does
    for argv in (
        ["chi", "--sig", "Sigma_1(2)", "--seq-len", "3"],
        construct,
        ["reconstruct", "--seq=-1/2,2,19,149,1249,11249"],
        ["enumerate", "--chi-es=-1/2"],
        ["search", "--g-max", "1", "--k-max", "2", "--m-max", "6", "--L", "1"],
        ["quotient", "--group", "C6", f"--fpc={fpc}", "--gamma", "Z^2"],
        ["verify-paper", "sameLESC"],
    ):
        requests += [[argv[0], "-h"], [argv[0], "--bogus"], argv]
    fresh_runs = {}
    for argv in requests:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        if tuple(argv) not in fresh_runs:  # a repeated request is run fresh once
            fresh_runs[tuple(argv)] = subprocess.run(
                [sys.executable, "-m", "orbichar", *argv], capture_output=True, text=True, timeout=60
            )
        fresh = fresh_runs[tuple(argv)]
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
