#!/usr/bin/env python3
"""Print every line of ``src/kmajority`` that a pytest selection never reaches.

Every argument is passed on to ``pytest.main``, which runs in this process
under a ``sys.settrace`` and ``threading.settrace`` hook.  The hook is
installed before ``kmajority`` is imported, so module-level lines count as
reached when the import runs them.  A line is executable when an
instruction of the module's code, or of any code object nested in it, maps
to it (``co_lines``).  For each module of the package the script prints how
many executable lines were not reached, then each of them as
``path:line: source``, and exits with pytest's exit code.  Standard library
only; the hook slows the selected tests several times over.

    python3 scripts/coverage_gaps.py tests/test_rounding.py -q
"""

import os
import sys
import threading

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "kmajority")


def executable_lines(code) -> set[int]:
    """The lines that the instructions of ``code`` and its nested code map to."""
    lines = {line for _, _, line in code.co_lines() if line}  # 0: the module's entry
    for const in code.co_consts:
        if isinstance(const, type(code)):
            lines |= executable_lines(const)
    return lines


def run_traced(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest under the hook; its exit code and the lines reached per file."""
    reached: dict[str, set[int]] = {}
    tracers: dict = {}  # co_filename -> the file's line tracer, or None

    def line_tracer(lines: set[int]):
        def trace_lines(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return trace_lines
        return trace_lines

    def trace_calls(frame, event, arg):
        name = frame.f_code.co_filename
        try:
            return tracers[name]
        except KeyError:
            path = os.path.realpath(name)
            tracer = None
            if os.path.dirname(path) == PACKAGE:
                tracer = line_tracer(reached.setdefault(path, set()))
            tracers[name] = tracer
            return tracer

    sys.path.insert(0, os.path.dirname(PACKAGE))  # the tests import this checkout's package
    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), reached


def main() -> int:
    code, reached = run_traced(sys.argv[1:])
    for module in sorted(os.listdir(PACKAGE)):
        if not module.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, module)
        with open(path, encoding="utf-8") as handle:
            source = handle.read()
        lines = executable_lines(compile(source, path, "exec"))
        missed = sorted(lines - reached.get(path, set()))
        text = source.splitlines()
        relative = os.path.relpath(path, ROOT)
        print(f"{relative}: {len(missed)} of {len(lines)} executable lines not reached")
        for line in missed:
            print(f"{relative}:{line}: {text[line - 1].strip()}")
    return code


if __name__ == "__main__":
    sys.exit(main())
