"""Self-tests of the benchmark: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

import pytest

import oracle
import pace
import run
import tracing
import workloads

sys.path.insert(0, run.SRC)

PINNED = workloads.load_pinned()


def outcome(status=0, text="", stderr="", sha256="0" * 64, nbytes=None):
    return run.Outcome(status, sha256, len(text) if nbytes is None else nbytes, text, stderr, 0.0)


# ---------------------------------------------------------------------------
# Seeded request lists
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_request_list(workload):
    count = 300
    first = workloads.requests(workload, 7, PINNED, count)
    assert first == workloads.requests(workload, 7, PINNED, count)
    assert first != workloads.requests(workload, 8, PINNED, count)
    assert len(first) == count


def test_cycles_keep_their_mix_across_seeds():
    def mix(seed):
        cycle = next(workloads.inverse_cycles(seed, PINNED))
        return sorted((r.kind, r.params.get("prefix")) for r in cycle)

    assert mix(1) == mix(2)
    assert len(next(workloads.enumerate_cycles(3, PINNED))) == 216


def test_spread_covers_every_stratum_of_a_power_of_two_prefix():
    spread = workloads.Spread(__import__("random").Random(5), 16)
    points = [spread.next() for _ in range(16)]
    assert sorted(int(x * 16) for x in points) == list(range(16))


# ---------------------------------------------------------------------------
# Self time
# ---------------------------------------------------------------------------

def test_self_time_on_synthetic_nested_spans():
    # a [0,100] holds b [10,30] (which holds c [15,20]), d [40,90] and e
    # [80,95], which overlap; f [90,120] is clipped to its parent e.
    spans = [  # (start, end, parent), in opening order
        (0, 100, -1),   # a
        (10, 30, 0),    # b
        (15, 20, 1),    # c
        (40, 90, 0),    # d
        (80, 95, 0),    # e
        (90, 120, 4),   # f
    ]
    start, end, parent = zip(*spans)
    assert tracing.self_times(start, end, parent) == [25, 15, 5, 50, 10, 30]


def test_traced_request_spans_nest_and_account_for_the_root():
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        client = run.Client(".")
        values = ",".join(oracle.fmt(v) for v in oracle.chi_levels(0, [(5, 1), (6, 1)], 5))
        req = workloads.Request("reconstruct", ("reconstruct", f"--seq={values}"),
                                {"genus": 0, "cones": [(5, 1), (6, 1)], "prefix": False})
        out = client.execute(req, 0)
    finally:
        uninstall()
    names = [tracer.names[i] for i in tracer.name]
    assert names[0] == "cli.main" and tracer.parent[0] == -1
    assert "classify.reconstruct" in names and "classify.minimal_recurrence" in names
    own = tracing.self_times(tracer.start, tracer.end, tracer.parent)
    assert all(t >= 0 for t in own)
    assert sum(own) == tracer.end[0] - tracer.start[0]
    import orbichar.cli
    assert orbichar.cli.main.__name__ == "main" and not hasattr(orbichar.cli.main, "__wrapped__")
    assert client.oracle.verdict(req, out) is None


# ---------------------------------------------------------------------------
# Checkers reject corrupted output
# ---------------------------------------------------------------------------

def test_wrong_digest_is_rejected():
    req = workloads.requests("enumerate", 1, PINNED, 1)[0]
    good = outcome(sha256=req.params["sha256"], nbytes=req.params["bytes"])
    assert oracle.Oracle(".").verdict(req, good) is None
    bad = outcome(sha256="f" * 64, nbytes=req.params["bytes"])
    assert oracle.Oracle(".").verdict(req, bad) == "wrong-digest"


def test_wrong_value_is_rejected(tmp_path):
    check = oracle.Oracle(str(tmp_path)).verdict
    rec = workloads.Request("reconstruct", (), {"genus": 1, "cones": [(3, 2)], "prefix": False})
    right = json.dumps(oracle.signature_json(1, [(3, 2)]))
    assert check(rec, outcome(text=right)) is None
    assert check(rec, outcome(text=json.dumps(oracle.signature_json(1, [(3, 3)])))) == "wrong-value"
    insufficient = json.dumps({"status": "insufficient-data", "reason": "short"})
    assert check(rec, outcome(text=insufficient)) == "wrong-value"

    rot = workloads.Request("quotient-rotation", (), {"n": 6, "gamma": "Z^2"})
    assert check(rot, outcome(text="12\n")) is None  # 2 * 36 / 6
    assert check(rot, outcome(text="11\n")) == "wrong-value"

    mir = workloads.Request("mirrored", (), {"boundary0": [3], "boundary1": [5], "gamma": "Z"})
    value = Fraction(-1, 2) * (Fraction(2, 3) + Fraction(4, 5)) + Fraction(2, 6) + Fraction(4, 10)
    assert check(mir, outcome(text=oracle.fmt(value) + "\n")) is None
    assert check(mir, outcome(text=oracle.fmt(value + 1) + "\n")) == "wrong-value"

    (tmp_path / "member-4-0.json").write_text(json.dumps(oracle.signature_json(0, [(7, 3)])))
    seq = workloads.Request("chi-seq", (), {"source": 4, "member": 0, "length": 2})
    assert check(seq, outcome(text="-4/7,2,20\n")) is None
    assert check(seq, outcome(text="-4/7,2,21\n")) == "wrong-value"


def test_corrupted_construct_family_is_rejected():
    entry = next(e for e in PINNED["construct"] if e["level"] == 3 and e["sha256"])
    client = run.Client(".")
    req = workloads.Request("construct", tuple(entry["argv"]), dict(entry, sha256=None))
    out = client.execute(req, 0)
    assert client.oracle.verdict(req, out) is None
    doc = json.loads(out.text)
    cone = doc["family"][0]["cones"][0]
    cone["count"] = str(int(cone["count"]) + 1)
    assert client.oracle.verdict(req, outcome(text=json.dumps(doc))) == "wrong-value"


def test_wrong_exit_code_is_rejected():
    check = oracle.Oracle(".").verdict
    malformed = workloads.Request("malformed", (), {"defect": "token"})
    assert check(malformed, outcome(status=2)) is None
    assert check(malformed, outcome(status=0)) == "wrong-status:0"
    refused = workloads.Request("over-budget", (), {"gamma": "Z^5"})
    assert check(refused, outcome(status=3)) is None
    assert check(refused, outcome(status=2)) == "wrong-status:2"
    rot = workloads.Request("quotient-rotation", (), {"n": 6, "gamma": "Z"})
    assert check(rot, outcome(status=2, text="2\n")) == "wrong-status:2"


def test_known_defects_are_tagged_and_nothing_else_is():
    check = oracle.Oracle(".").verdict
    zero = workloads.Request("malformed", (), {"defect": "zero-denominator"})
    assert check(zero, outcome(status="uncaught:ZeroDivisionError")) == oracle.ZERO_DENOMINATOR
    assert check(zero, outcome(status="uncaught:TypeError")) == "wrong-status:uncaught:TypeError"
    other = workloads.Request("malformed", (), {"defect": "token"})
    assert check(other, outcome(status="uncaught:ZeroDivisionError")).startswith("wrong-status")
    construct = workloads.Request("construct", (), {"level": 8, "genus": 0, "members": None, "sha256": None})
    limit = "error: Exceeds the limit (4300 digits) for integer string conversion"
    assert check(construct, outcome(status=2, stderr=limit)) == oracle.DIGIT_LIMIT
    assert check(construct, outcome(status=2, stderr="error: bad")) == "wrong-status:2"


# ---------------------------------------------------------------------------
# A short real run of every non-enumerate kind
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload, count", [("inverse", 100), ("construct", 32), ("sectors", 30)])
def test_measured_stream_has_no_failure(workload, count, tmp_path):
    client = run.Client(str(tmp_path))
    log = run.run_list(client, workloads.requests(workload, 11, PINNED, count))
    assert log.failed == 0, (dict(log.reasons), log.examples)


def test_measured_streams_hold_no_known_defect_input():
    for workload in workloads.WORKLOADS:
        for req in workloads.requests(workload, 4, PINNED, 600):
            assert req.params.get("defect") != "zero-denominator"
            assert req.kind != "construct" or req.params["sha256"] is not None


@pytest.mark.parametrize("workload", ["inverse", "construct"])
def test_probe_fails_only_on_known_defects(workload, tmp_path):
    reqs = workloads.known_defect_requests(workload, 11, PINNED)
    assert reqs == workloads.known_defect_requests(workload, 11, PINNED)
    log = run.run_list(run.Client(str(tmp_path)), reqs)
    assert log.untagged == 0, log.examples


def test_pace_scales_by_the_probes_near_each_duration(monkeypatch):
    monkeypatch.setattr(pace, "probe", lambda: 8 * pace.NOMINAL_S)
    monkeypatch.setattr(pace, "ELASTICITY", 1 / 3)
    host = pace.Pace()
    host.add(0.5)
    host.add(0.25)
    assert host.scaled() == pytest.approx([0.25, 0.125])
