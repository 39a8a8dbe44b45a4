"""Closed-loop benchmark of orbichar: one client, one process, no threads.

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout and imports orbichar from `src/`.
Each request goes in-process through `orbichar.cli.main(argv)` (or the
public library function where no subcommand exists) with stdout sent to a
hashing sink, and is checked by `oracle.py`. Whole cycles of the workload's
stream run until the requests' own time, scaled for the host's speed
(`pace.py`), reaches --seconds.

--trace 0 prints the end-to-end metrics; --trace 1 runs a fixed request
prefix untraced, then again with spans around orbichar's public functions,
and prints the per-layer metrics. The last stdout line is the result
object; the line before it is a report with the environment stamp, the
failure reasons and every metric with its unit. Both, and the spans of a
traced run, are also written under `.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

import oracle  # noqa: E402  (after HERE is on sys.path as the script dir)
import pace  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 4  # before the loop and again after it; the metric is the median
SETUP_CODE = "import orbichar.cli as cli; cli.build_parser()"
# The tail is the highest of these percentiles with at least ten samples
# beyond it. A fixed ladder keeps the percentile, and so the metric, from
# moving when a run holds a few more or fewer requests. Its value is the
# mean of the nearest-rank sample and its two neighbours, each with ten or
# more samples beyond: near the top the samples are sparse, and a single
# one jumps when two neighbours swap places by noise.
TAIL_LADDER = (99.99, 99.95, 99.9, 99.5, 99.0, 95.0, 90.0, 50.0)
TAIL_BEYOND = 10


class Sink(io.TextIOBase):
    """Stand-in for stdout: hashes the UTF-8 bytes and optionally keeps the text."""

    def __init__(self, keep: bool):
        self.sha = hashlib.sha256()
        self.nbytes = 0
        self.parts: list[str] | None = [] if keep else None

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        data = text.encode()
        self.sha.update(data)
        self.nbytes += len(data)
        if self.parts is not None:
            self.parts.append(text)
        return len(text)


@dataclass
class Outcome:
    status: object  # exit code, or "uncaught:<ExceptionType>"
    sha256: str
    nbytes: int
    text: str
    stderr: str
    seconds: float


class Client:
    """Sends requests in-process and checks each answer."""

    def __init__(self, workdir: str):
        import orbichar
        from orbichar import cli

        self.orbichar = orbichar
        self.cli = cli
        self.workdir = workdir
        self.oracle = oracle.Oracle(workdir)
        self.bytes_out = 0

    def _argv(self, req, index: int) -> list[str]:
        fpc = f"{self.workdir}/fpc-{index}.json"
        if "{fpc}" in req.argv:
            with open(fpc, "w", encoding="utf-8") as handle:
                json.dump(self.oracle.fpc(req.params), handle)
        return [a.replace("{tmp}", self.workdir).replace("{fpc}", fpc) for a in req.argv]

    def _mirrored(self, p, out: Sink) -> int:
        o = self.orbichar
        cylinder = o.MirroredCylinder(tuple(p["boundary0"]), tuple(p["boundary1"]))
        gamma = oracle.parse_gamma(p["gamma"])
        if gamma[0] == "free":
            descriptor = o.FreeGroup(gamma[1])
        else:
            descriptor = o.FgAbelian(gamma[1], gamma[2])
        out.write(o.format_rational(o.chi_gamma_mirrored(cylinder, descriptor)) + "\n")
        return 0

    def execute(self, req, index: int) -> Outcome:
        argv = self._argv(req, index)
        out, err = Sink(keep=req.kind != "enumerate"), io.StringIO()
        saved = sys.stdout, sys.stderr
        sys.stdout, sys.stderr = out, err
        start = time.perf_counter()
        try:
            status = self.cli.main(argv) if argv else self._mirrored(req.params, out)
        except SystemExit as exc:  # argparse rejections
            status = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a traceback for the user; record and go on
            status = f"uncaught:{type(exc).__name__}"
            err.write(repr(exc))
        finally:
            seconds = time.perf_counter() - start
            sys.stdout, sys.stderr = saved
        self.bytes_out += out.nbytes
        text = "".join(out.parts) if out.parts is not None else ""
        return Outcome(status, out.sha.hexdigest(), out.nbytes, text, err.getvalue(), seconds)

    def check(self, req, index: int, out: Outcome) -> str | None:
        try:
            reason = self.oracle.verdict(req, out)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            reason = f"unreadable-output:{type(exc).__name__}"
        if reason is None and req.params.get("keep_members"):
            for j, member in enumerate(json.loads(out.text)["family"]):
                with open(f"{self.workdir}/member-{index}-{j}.json", "w", encoding="utf-8") as handle:
                    json.dump(member, handle)
        return reason


class Log:
    """Latency, verdict and failure detail of every request sent."""

    def __init__(self):
        self.latencies: list[float] = []
        self.pace = pace.Pace()
        self.reasons: Counter = Counter()
        self.examples: list[dict] = []
        self.failed = 0

    def add(self, req, index: int, out: Outcome, reason: str | None) -> None:
        self.latencies.append(out.seconds)
        self.pace.add(out.seconds)
        if reason is None:
            return
        self.failed += 1
        self.reasons[reason] += 1
        if not reason.startswith(oracle.KNOWN) and len(self.examples) < 5:
            self.examples.append(
                {"index": index, "kind": req.kind, "argv": list(req.argv)[:8],
                 "reason": reason, "status": out.status, "stderr": out.stderr[-300:]}
            )

    @property
    def untagged(self) -> int:
        return sum(n for r, n in self.reasons.items() if not r.startswith(oracle.KNOWN))


def run_closed_loop(client: Client, workload: str, seed: int, seconds: float, pinned) -> Log:
    """Whole cycles, one request at a time, until the requests' time reaches
    `seconds`. The time is scaled to the nominal host speed, so that a run
    holds the same requests whether the host is fast or slow just then."""
    log = Log()
    busy = 0.0
    index = 0
    for cycle in workloads.WORKLOADS[workload](seed, pinned):
        for req in cycle:
            out = client.execute(req, index)
            busy += out.seconds * log.pace.factor()
            log.add(req, index, out, client.check(req, index, out))
            index += 1
        if busy >= seconds:
            return log
    return log


def run_list(client: Client, reqs) -> Log:
    log = Log()
    for index, req in enumerate(reqs):
        out = client.execute(req, index)
        log.add(req, index, out, client.check(req, index, out))
    return log


def measure_setup(runs: int, setup_pace: pace.Pace) -> None:
    """Wall times of a fresh interpreter importing orbichar.cli and
    building its parser; one unmeasured run first compiles the bytecode."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, "-c", SETUP_CODE]
    for i in range(runs + 1):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        if i:
            setup_pace.add(time.perf_counter() - start)


def latency_stats(latencies: list[float]) -> dict:
    ordered = sorted(latencies)
    n = len(ordered)
    percentile, index = 100.0, n - 1
    for p in TAIL_LADDER:
        rank = math.ceil(p * n / 100)  # nearest rank, 1-based
        if n - rank >= TAIL_BEYOND + 1 and rank >= 2:
            percentile, index = p, rank - 1
            break
    window = ordered[max(0, index - 1): index + 2]
    return {
        "samples": n,
        "p50_ms": statistics.median(ordered) * 1e3,
        "tail_ms": statistics.fmean(window) * 1e3,
        "tail_percentile": percentile,
        "tail_samples_beyond": n - 1 - index,
    }


def git_sha() -> str:
    """HEAD of the checkout's git metadata, if it has any."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int, requests: int) -> dict:
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "int_max_str_digits": sys.get_int_max_str_digits(),
        "seed": seed,
        "requests": requests,
    }


def end_to_end(workload: str, seed: int, seconds: float, pinned, workdir: str):
    # Host speed drifts over seconds, so set-up is sampled on both sides of the loop.
    setup_pace = pace.Pace()
    measure_setup(SETUP_RUNS, setup_pace)
    client = Client(workdir)
    log = run_closed_loop(client, workload, seed, seconds, pinned)
    measure_setup(SETUP_RUNS, setup_pace)
    attempted = len(log.latencies)
    scaled = log.pace.scaled()
    lat = latency_stats(scaled)
    error_rate = log.failed / attempted
    metrics = {
        "throughput_rps": (attempted / sum(scaled), "1/s"),
        "latency_p50_ms": (lat["p50_ms"], "ms"),
        "latency_tail_ms": (lat["tail_ms"], "ms"),
        "success_rate": (1.0 - error_rate, "ratio"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "setup_s": (statistics.median(setup_pace.scaled()), "s"),
    }
    raw = latency_stats(log.latencies)
    report = {
        "latency": lat,
        "error_rate": {"value": error_rate, "unit": "ratio"},
        "unscaled": {
            "busy_s": sum(log.latencies),
            "throughput_rps": attempted / sum(log.latencies),
            "latency_p50_ms": raw["p50_ms"],
            "latency_tail_ms": raw["tail_ms"],
            "setup_s": statistics.median(setup_pace.raw),
        },
        "pace_probe_ms": _probe_summary(log.pace.probes + setup_pace.probes),
    }
    return log, metrics, report


def _probe_summary(probes: list[float]) -> dict:
    return {"nominal": pace.NOMINAL_S * 1e3, "min": min(probes) * 1e3,
            "median": statistics.median(probes) * 1e3, "max": max(probes) * 1e3,
            "count": len(probes)}


def traced(workload: str, seed: int, pinned, workdir: str):
    import tracing

    reqs = workloads.requests(workload, seed, pinned, workloads.TRACE_REQUESTS[workload])
    client = Client(workdir)
    plain = run_list(client, reqs)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    client.bytes_out = 0
    try:
        traced_log = run_list(client, _with_request_ids(tracer, reqs))
    finally:
        uninstall()
    plain_s, traced_s = sum(plain.pace.scaled()), sum(traced_log.pace.scaled())
    spans_path = os.path.join(OUT, f"spans-{workload}.bin")  # one per workload bounds the disk use
    tracer.write(spans_path, {"workload": workload, "seed": seed})
    # Span times are scaled like the request times they fall in.
    layers = tracing.layer_metrics(tracer, client.bytes_out, traced_s / sum(traced_log.latencies))
    layers["trace_overhead"] = traced_s / plain_s
    metrics = {name: (value, tracing.unit_of(name)) for name, value in layers.items()}
    log = Log()
    for part in (plain, traced_log):
        log.latencies += part.latencies
        log.reasons += part.reasons
        log.examples += part.examples
        log.failed += part.failed
    report = {"spans": len(tracer.name), "spans_file": os.path.relpath(spans_path, ROOT),
              "untraced_busy_s": plain_s, "traced_busy_s": traced_s,
              "pace_probe_ms": _probe_summary(plain.pace.probes + traced_log.pace.probes)}
    return log, metrics, report


def _with_request_ids(tracer, reqs):
    for index, req in enumerate(reqs):
        tracer.request_id = index
        yield req


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "orbichar", "cli.py")):
        print(f"perfbench: no orbichar sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    pinned = workloads.load_pinned()
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.trace:
            log, metrics, report = traced(args.workload, args.seed, pinned, workdir)
        else:
            log, metrics, report = end_to_end(args.workload, args.seed, args.seconds, pinned, workdir)
        # After the measurement, so that it neither times nor traces them.
        known = run_list(Client(workdir), workloads.known_defect_requests(args.workload, args.seed, pinned))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(log.latencies)
    result = {
        "correct": log.untagged == 0 and known.untagged == 0,
        "attempted": attempted,
        "failed": log.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    report.update(
        workload=args.workload,
        trace=args.trace,
        environment=environment(args.seed, attempted),
        failures=dict(log.reasons),
        untagged_examples=log.examples + known.examples,
        known_defect_probe={"requests": len(known.latencies), "failed": known.failed,
                            "failures": dict(known.reasons)},
        metrics=result["metrics"],
    )
    if args.workload == "enumerate":
        report["excluded_targets"] = pinned["enumerate_excluded"]
    if args.workload == "construct":
        report["excluded_inputs"] = pinned["construct_excluded"]
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as handle:
        json.dump({"report": report, "result": result}, handle, indent=1)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
