"""End-to-end command-line behavior: output formats and exit codes."""

import hashlib
import json
import subprocess
import sys
import time
from functools import cache
from itertools import product

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from orbichar.classify import char_sequence
from orbichar.cli import _CONE_MEMO_SIZE, _cone_text, _signature_line, main
from orbichar.constructions import build_collision_pair, expand_family
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


@pytest.mark.parametrize(
    "document",
    ['{"genus":0,"cones":5}', '{"genus":0,"cones":[5]}', '{"genus":0,"cones":[{"order":3,"count":null}]}'],
)
def test_chi_malformed_json_signature_exits_2(run, document):
    code, _, err = run("chi", "--sig", document)
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1


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


def test_construct_matches_json_dumps_byte_for_byte(run):
    """The streamed document equals the json.dumps of the library's family
    with one recomputed sequence per member."""
    repeated = 0
    for level in range(2, 7):
        seeds = list(range(level + 1, level + 1 + (1 if level <= 2 else 2 ** (level - 2))))
        for members, equalize, genus in product((None, 3, 5), ("lcm", "product"), range(3)):
            argv = ["construct", f"--L={level}", f"--g={genus}", f"--equalize={equalize}"]
            argv += [f"--orders={','.join(map(str, seeds))}"] + ([f"--N={members}"] if members else [])
            pair = build_collision_pair(level, genus, seeds, equalize=equalize)
            family = list(pair) if members is None else expand_family(*pair, members, level)
            expected = json.dumps(
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
            assert run(*argv) == (0, expected, "")
            counts = [count for sig in family for _, count in sig.cones]
            repeated += len(set(counts)) < len(counts)
    assert repeated  # the per-count memo is exercised


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


def test_quotient_conjugation_variant_data_exits_2(run, tmp_path):
    fpc = tmp_path / "fpc.json"
    chars = {(0,): 2, (0, 1, 2): 2, (0, 3): 2, (0, 4): 0, (0, 5): 0, tuple(range(6)): 2}
    fpc.write_text(json.dumps([{"subgroup": list(s), "chi": c} for s, c in chars.items()]))
    code, out, err = run("quotient", "--group", "D6", "--fpc", str(fpc), "--gamma", "Z")
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
        ("--group", '{"table":5}'),
        ("--group", "[[0]]"),
        ("--group", '{"table":[5]}'),
        ("--group", '{"table":[[false]]}'),
        ("--group", '{"order":true,"table":[[0]]}'),
        ("--group", '{"order":1.0,"table":[[0]]}'),
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
    """Builtin names of order at most 60: table building is not budgeted."""
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
