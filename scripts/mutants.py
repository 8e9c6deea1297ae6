#!/usr/bin/env python3
"""Mutation check: how many small changes to one module a pytest selection catches.

The script copies ``src/`` to a temporary directory and, one mutant at a
time, rewrites one module of ``src/kmajority`` there with a single ``ast``
change:

* a comparison flipped: ``<`` and ``<=``, ``>`` and ``>=``, ``==`` and
  ``!=``, ``is`` and ``is not``, ``in`` and ``not in`` swapped;
* an integer constant plus or minus 1;
* ``and`` and ``or`` swapped;
* a statement dropped (replaced by ``pass``); definitions, imports and
  docstrings are left alone.

For each mutant it runs the given pytest arguments in a fresh interpreter
whose ``PYTHONPATH`` is the copy, from the repository root, stopping at the
first failure, with hypothesis's shrink and explain phases off (they change
how a failure is reported, not whether it happens), and prints
``killed`` (pytest failed), ``survived`` (it passed) or ``timed out`` (it ran
past its time limit), with the line and the change.  The selection is
first run on the unchanged copy; if that fails, nothing is mutated (exit 2).
Its wall time sets each mutant's limit: four times as long, and at least
30 s, so a mutant that loops costs a few selections, not minutes; the limit
goes to standard error.
The last line gives the kill rate, timed-out mutants counting as caught.
``--function`` limits the mutants to the body of one function or method
(``name`` or ``Class.name``).  Options come before the module; every
argument after it goes to pytest.  Standard library only.

    python3 scripts/mutants.py reductions.py tests/test_reductions.py
    python3 scripts/mutants.py --function sk_degrees reductions.py tests/test_reductions.py -k sk_degree
"""

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "kmajority")

FLIPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
}
SYMBOLS = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.Is: "is", ast.IsNot: "is not", ast.In: "in", ast.NotIn: "not in",
}
# A pytest plugin for the runs: hypothesis reports a failing example without
# shrinking or explaining it, which only slows a kill down.
PLUGIN = """
def pytest_configure(config):
    try:
        from hypothesis import Phase, settings
    except ImportError:
        return
    phases = [p for p in Phase if p not in (Phase.shrink, Phase.explain)]
    settings.register_profile("mutants", parent=settings.default, phases=phases)
    settings.load_profile("mutants")
"""
KEPT = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom, ast.Pass)


@dataclass(frozen=True)
class Mutant:
    """One mutation: the source line it changes and how."""

    line: int
    change: str


def _is_docstring(node: ast.AST) -> bool:
    return isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(
        node.value.value, str
    )


def _sites(tree: ast.Module, function: str | None):
    """Every (node, how, what) mutation site, in ``ast.walk`` order and, per
    node, in a fixed order."""
    scope: ast.AST = tree
    if function is not None:
        scope = _find(tree, function.split("."))
        if scope is None:
            raise SystemExit(f"no function {function!r} in the module")
    for node in ast.walk(scope):
        if isinstance(node, ast.Compare):
            for i in range(len(node.ops)):
                yield node, "compare", i
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            yield node, "constant", 1
            yield node, "constant", -1
        elif isinstance(node, ast.BoolOp):
            yield node, "boolop", None
        for field in ("body", "orelse", "finalbody"):
            block = getattr(node, field, None)
            if not isinstance(block, list):
                continue
            for i, stmt in enumerate(block):
                if isinstance(stmt, ast.stmt) and not isinstance(stmt, KEPT) and not _is_docstring(stmt):
                    yield node, field, i


def _find(tree: ast.AST, path: list[str]) -> ast.AST | None:
    for node in getattr(tree, "body", []):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and node.name == path[0]:
            return node if len(path) == 1 else _find(node, path[1:])
    return None


def _apply(node: ast.AST, how: str, what) -> tuple[int, str]:
    """Mutate ``node`` in place; the line and a description of the change."""
    if how == "compare":
        old = type(node.ops[what])
        node.ops[what] = FLIPS[old]()
        return node.lineno, f"{SYMBOLS[old]} -> {SYMBOLS[FLIPS[old]]}"
    if how == "constant":
        old = node.value
        node.value = old + what
        return node.lineno, f"{old} -> {node.value}"
    if how == "boolop":
        old = type(node.op)
        node.op = ast.Or() if old is ast.And else ast.And()
        return node.lineno, "and -> or" if old is ast.And else "or -> and"
    block = getattr(node, how)
    stmt = block[what]
    block[what] = ast.Pass(lineno=stmt.lineno, col_offset=stmt.col_offset)
    text = ast.unparse(stmt).splitlines()[0]
    return stmt.lineno, f"drop: {text[:60]}"


def mutants(source: str, function: str | None) -> list[tuple[Mutant, str]]:
    """Each mutant of ``source`` with the mutated module's text."""
    count = sum(1 for _ in _sites(ast.parse(source), function))
    out = []
    for index in range(count):
        tree = ast.parse(source)
        node, how, what = list(_sites(tree, function))[index]
        line, change = _apply(node, how, what)
        out.append((Mutant(line, change), ast.unparse(ast.fix_missing_locations(tree))))
    return out


def run_selection(src: str, pytest_args: list[str], timeout: float | None) -> tuple[str, str]:
    """``killed``, ``survived`` or ``timed out``, and pytest's output: the
    selection run on the copy at ``src``."""
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               "-p", "mutants_plugin", *pytest_args]
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timed out", ""
    return ("survived" if proc.returncode == 0 else "killed"), proc.stdout + proc.stderr


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="a module of src/kmajority, such as reductions.py")
    parser.add_argument("--function", help="mutate only this function's body (name or Class.name)")
    parser.add_argument("pytest_args", nargs=argparse.REMAINDER, help="the pytest selection")
    args = parser.parse_args()
    path = os.path.join(PACKAGE, os.path.basename(args.module))
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "src")
        shutil.copytree(os.path.dirname(PACKAGE), src, ignore=shutil.ignore_patterns("__pycache__"))
        with open(os.path.join(src, "mutants_plugin.py"), "w", encoding="utf-8") as handle:
            handle.write(PLUGIN)
        target = os.path.join(src, "kmajority", os.path.basename(path))
        with open(target, "w", encoding="utf-8") as handle:  # mutants are unparsed text too
            handle.write(ast.unparse(ast.parse(source)))
        started = time.monotonic()
        outcome, output = run_selection(src, args.pytest_args, None)
        if outcome != "survived":
            print(f"{output}the selection fails on the unchanged code", file=sys.stderr)
            return 2
        timeout = max(30.0, 4 * (time.monotonic() - started))
        print(f"time limit per mutant: {timeout:.0f} s", file=sys.stderr, flush=True)
        tally = {"killed": 0, "survived": 0, "timed out": 0}
        name = os.path.relpath(path, ROOT)
        for mutant, text in mutants(source, args.function):
            with open(target, "w", encoding="utf-8") as handle:
                handle.write(text)
            outcome, _ = run_selection(src, args.pytest_args, timeout)
            tally[outcome] += 1
            print(f"{outcome:9} {name}:{mutant.line}: {mutant.change}", flush=True)
    total = sum(tally.values())
    caught = tally["killed"] + tally["timed out"]
    rate = f"{100 * caught / total:.1f}%" if total else "n/a"
    print(
        f"{total} mutants: {tally['killed']} killed, {tally['survived']} survived, "
        f"{tally['timed out']} timed out; kill rate {rate}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
