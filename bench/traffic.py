"""Which orbichar code the benchmark's traffic runs, function by function.

    python3 bench/traffic.py [--requests N] [--workload NAME ...]

Run from anywhere; it imports orbichar from the `src` directory of its own
checkout, and perfbench's `workloads` and `run.Client` as they are. For each
workload (default: all four) it sends the first N requests of the seed-1
stream in process, as perfbench does; by default the first 216 enumerate
(the whole target pool once), 600 inverse, 200 construct and 300 sectors
requests. `sys.settrace` is on while a request runs, not while the oracle
checks its answer, and only frames of `src/orbichar/*.py` are traced. Each
workload runs in a process of its own, as perfbench runs it, so that a
cache filled by one workload does not hide code from the next.

It prints one JSON object:

    {"seed": 1, "workloads": {NAME: {"requests": N, "refused": {REASON: COUNT},
     "functions": {"MODULE.FUNCTION": {"calls": C, "missed": [LINE, ...]}}}}}

`refused` counts the answers the oracle refused, by reason; the oracle
checks each answer as perfbench does, and its check writes the member
files that construct's chi read-backs then read. Every function
of `src/orbichar/*.py` has an entry, methods and nested functions under
their qualified names. `calls` counts its calls, not a generator's
resumptions; `missed` lists its statement lines that never ran, those of
lambdas and comprehensions inside it included. Standard library only; it
writes nothing under `perfbench/`, not even bytecode caches, and keeps the
request files in a temporary directory.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from inspect import CO_GENERATOR
from types import CodeType

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SEED = 1
DEFAULT_REQUESTS = {"enumerate": 216, "inverse": 600, "construct": 200, "sectors": 300}

sys.dont_write_bytecode = True  # before perfbench is imported
sys.path[:0] = [SRC, os.path.join(ROOT, "perfbench")]

import run  # noqa: E402
import workloads  # noqa: E402


def functions(path: str) -> dict[tuple[int, str], tuple[str, set[int]]]:
    """The functions of a module file, keyed by first line and code name:
    each one's qualified name and statement lines.  Lambdas and
    comprehensions are folded into the function around them."""
    with open(path, encoding="utf-8") as handle:
        module = compile(handle.read(), path, "exec")
    found = {}

    def walk(code: CodeType, prefix: str, lines: set[int] | None) -> None:
        for inner in code.co_consts:
            if not isinstance(inner, CodeType):
                continue
            if inner.co_name.startswith("<"):  # <lambda>, <listcomp>, <genexpr>, ...
                if lines is not None:
                    lines |= _statement_lines(inner)
                walk(inner, prefix, lines)
                continue
            name = prefix + inner.co_name
            if inner.co_flags & 1:  # CO_OPTIMIZED: a function, not a class body
                own = _statement_lines(inner) - {inner.co_firstlineno}
                found[inner.co_firstlineno, inner.co_name] = (name, own)
                walk(inner, name + ".", own)
            else:
                walk(inner, name + ".", None)

    walk(module, os.path.basename(path)[: -len(".py")] + ".", None)
    return found


def _statement_lines(code: CodeType) -> set[int]:
    return {line for _, _, line in code.co_lines() if line is not None}


def _resumes(frame) -> bool:
    """Whether a call event resumes a generator rather than starts a call:
    before 3.11 a resumed frame has run an instruction already, from 3.11
    on it stands at a RESUME whose argument is not 0."""
    code = frame.f_code
    if not code.co_flags & CO_GENERATOR:
        return False
    if sys.version_info < (3, 11):
        return frame.f_lasti >= 0
    return code.co_code[frame.f_lasti + 1] & 3 != 0


def _line_tracer(ran: set[int]):
    def trace(frame, event, arg):
        if event == "line":
            ran.add(frame.f_lineno)
        return trace

    return trace


def trace_workload(workload: str, count: int) -> dict:
    """The traffic object of one workload, run in this process."""
    reqs = workloads.requests(workload, SEED, workloads.load_pinned(), count)
    paths = sorted(glob.glob(os.path.join(SRC, "orbichar", "*.py")))
    ran = {path: set() for path in paths}
    tracers = {path: _line_tracer(lines) for path, lines in ran.items()}
    calls: Counter = Counter()

    def trace_calls(frame, event, arg):
        code = frame.f_code
        local = tracers.get(code.co_filename)
        if local is not None and not _resumes(frame):
            calls[code.co_filename, code.co_firstlineno, code.co_name] += 1
        return local

    refused: Counter = Counter()
    with tempfile.TemporaryDirectory() as workdir:
        client = run.Client(workdir)
        for index, req in enumerate(reqs):
            sys.settrace(trace_calls)
            try:
                out = client.execute(req, index)
            finally:
                sys.settrace(None)
            reason = client.check(req, index, out)
            if reason is not None:
                refused[reason] += 1
    table = {}
    for path in paths:
        for (first, code_name), (name, lines) in functions(path).items():
            table[name] = {
                "calls": calls[path, first, code_name],
                "missed": sorted(lines - ran[path]),
            }
    return {"requests": len(reqs), "refused": dict(refused), "functions": dict(sorted(table.items()))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--requests", type=int, help="requests per workload")
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    names = args.workload or list(workloads.WORKLOADS)
    result = {}
    for name in names:
        count = DEFAULT_REQUESTS[name] if args.requests is None else args.requests
        if len(names) == 1:
            result[name] = trace_workload(name, count)
        else:  # in a process of its own
            child = [sys.executable, os.path.abspath(__file__), "--workload", name, "--requests", str(count)]
            done = subprocess.run(child, capture_output=True, text=True, check=True)
            result |= json.loads(done.stdout)["workloads"]
    json.dump({"seed": SEED, "workloads": result}, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
