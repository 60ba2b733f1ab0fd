"""Seeded single-mutant pass over one qflsim module.

    python tests/mutation_pass.py MODULE [--sample N] [--seed S]

MODULE is a module of src/qflsim, such as ``store``. A mutant changes one
site of it: it swaps one comparison, arithmetic or boolean operator, adds 1
to one integer constant, or negates one ``if``. Docstrings and annotations
are never mutated. ``--sample N`` draws the N sites that rank first by a
hash of the seed and each site's key (its change, the source text of its
node and how many earlier sites share both), so an edit changes the draw
only where it changes keys; without it every site is tried.

The checkout, without .git and caches, is copied to a temporary
directory, and only the copy is mutated. Each mutant runs the module's
test files with ``-x``; a mutant they pass then runs the whole of tests/
before it counts as a survivor. A run that outlives its time limit is
stopped and reported as a timeout, apart from the kills: on a loaded
machine a slow equivalent mutant can time out, so run a timed-out
mutant's pass again alone before reading it as killed. The pass prints
each survivor's and each timeout's line and the module's kill rate. It
is a script, not a test module, so the test suite never collects it.
Standard library only.
"""

import argparse
import ast
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# The test files that exercise each module most directly.
MODULE_TESTS = {
    "cli": ["test_cli.py"],
    "datagen": ["test_datagen.py"],
    "federated": ["test_federated.py"],
    "metrics": ["test_cli.py"],
    "model": ["test_model.py", "test_reference_round.py"],
    "sim": ["test_sim.py"],
    "store": ["test_store.py"],
    "transport": ["test_transport.py", "test_federated.py"],
    "worker": ["test_transport.py"],
}

SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot,
    ast.IsNot: ast.Is, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div,
    ast.Div: ast.Mult, ast.FloorDiv: ast.Div, ast.Mod: ast.FloorDiv,
    ast.Pow: ast.Mult, ast.LShift: ast.RShift, ast.RShift: ast.LShift,
    ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd, ast.BitXor: ast.BitOr,
    ast.And: ast.Or, ast.Or: ast.And,
}

SYMBOLS = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
    ast.NotEq: "!=", ast.Is: "is", ast.IsNot: "is not", ast.In: "in",
    ast.NotIn: "not in", ast.Add: "+", ast.Sub: "-", ast.Mult: "*",
    ast.Div: "/", ast.FloorDiv: "//", ast.Mod: "%", ast.Pow: "**",
    ast.LShift: "<<", ast.RShift: ">>", ast.BitAnd: "&", ast.BitOr: "|",
    ast.BitXor: "^", ast.And: "and", ast.Or: "or",
}


def _nodes(node):
    """Every node under ``node`` in a fixed order, leaving out docstrings
    and annotations."""
    yield node
    body = getattr(node, "body", None)
    docstring = (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                   ast.AsyncFunctionDef))
                 and body and isinstance(body[0], ast.Expr)
                 and isinstance(body[0].value, ast.Constant)
                 and isinstance(body[0].value.value, str))
    for name, value in ast.iter_fields(node):
        if name in ("annotation", "returns"):
            continue
        for child in value if isinstance(value, list) else [value]:
            if docstring and child is body[0]:
                continue
            if isinstance(child, ast.AST):
                yield from _nodes(child)


def _sites(tree):
    """(node, slot, description) for each mutation site of ``tree``; slot
    is the index of a comparison in its chain."""
    for node in _nodes(tree):
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                new = SWAPS[type(op)]
                yield node, i, f"{SYMBOLS[type(op)]} -> {SYMBOLS[new]}"
        elif isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)):
            if type(node.op) in SWAPS:
                new = SWAPS[type(node.op)]
                yield node, None, f"{SYMBOLS[type(node.op)]} -> {SYMBOLS[new]}"
        elif (isinstance(node, ast.Constant) and type(node.value) is int):
            yield node, None, f"{node.value} -> {node.value + 1}"
        elif isinstance(node, ast.If):
            yield node, None, "negate if"


def _mutate(node, slot) -> None:
    if isinstance(node, ast.Compare):
        node.ops[slot] = SWAPS[type(node.ops[slot])]()
    elif isinstance(node, ast.Constant):
        node.value += 1
    elif isinstance(node, ast.If):
        node.test = ast.UnaryOp(ast.Not(), node.test)
    else:
        node.op = SWAPS[type(node.op)]()


def site_keys(source: str):
    """(line, description, key) per site. The key is stable: the site's
    description, the text of its node and the number of earlier sites
    with the same two."""
    seen, lines = {}, source.splitlines()
    for node, slot, what in _sites(ast.parse(source)):
        text = ast.get_source_segment(source, node) or lines[node.lineno - 1]
        key = (what, text.splitlines()[0].strip())
        seen[key] = seen.get(key, 0) + 1
        if isinstance(node, ast.Compare) and len(node.ops) > 1:
            what += f" (comparison {slot + 1} of {len(node.ops)})"
        yield node.lineno, what, f"{key[0]}|{key[1]}|{seen[key]}"


def mutant_source(source: str, index: int) -> str:
    tree = ast.parse(source)
    node, slot, _what = list(_sites(tree))[index]
    _mutate(node, slot)
    return ast.unparse(tree)


def run_pytest(work: Path, args, timeout: float) -> tuple[str, float, str]:
    """(outcome, seconds, output) of one pytest run in ``work``; the
    outcome is "passed", "failed" or "timeout"."""
    env = {**os.environ, "PYTHONPATH": str(work / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *args], cwd=work, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
        outcome = "passed" if proc.returncode == 0 else "failed"
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        outcome = "timeout"
    return outcome, time.perf_counter() - start, out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="a module of src/qflsim, e.g. store")
    parser.add_argument("--sample", type=int, default=None,
                        help="sites to draw (default: every site)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    name = Path(args.module).stem
    rel = Path("src", "qflsim", f"{name}.py")
    source = (ROOT / rel).read_text(encoding="utf-8")
    tests = [f"tests/{t}" for t in MODULE_TESTS.get(name, [f"test_{name}.py"])]
    keys = list(site_keys(source))
    order = sorted(range(len(keys)), key=lambda i: hashlib.sha256(
        f"{args.seed}:{name}:{keys[i][2]}".encode()).hexdigest())
    chosen = sorted(order[:args.sample] if args.sample else order)
    lines = source.splitlines()
    print(f"{rel}: {len(keys)} sites, {len(chosen)} drawn (seed {args.seed}); "
          f"tests: {' '.join(tests)}", flush=True)

    with tempfile.TemporaryDirectory(prefix="qflsim-mutation-") as tmp:
        work = Path(tmp) / "checkout"
        shutil.copytree(ROOT, work, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench"))
        target = work / rel
        # The unparsed, unmutated module must pass, or no kill means anything.
        target.write_text(ast.unparse(ast.parse(source)), encoding="utf-8")
        # Each run's time limit: three times the unmutated run's, plus 30 s.
        limits = []
        for paths in (tests, ["tests"]):
            outcome, seconds, out = run_pytest(work, paths, timeout=900)
            if outcome != "passed":
                print(f"the unmutated module's run of {' '.join(paths)} "
                      f"{outcome}; no pass made:\n{out[-3000:]}")
                return 1
            limits.append(3 * seconds + 30)
        counts = {"failed": 0, "timeout": 0, "passed": 0}
        for n, index in enumerate(chosen, 1):
            lineno, what, _key = keys[index]
            target.write_text(mutant_source(source, index), encoding="utf-8")
            outcome = run_pytest(work, tests, timeout=limits[0])[0]
            if outcome == "passed":
                outcome = run_pytest(work, ["tests"], timeout=limits[1])[0]
            counts[outcome] += 1
            if outcome != "failed":
                label = "SURVIVED" if outcome == "passed" else "TIMEOUT"
                print(f"  {label} {rel}:{lineno}: {what}  |  "
                      f"{lines[lineno - 1].strip()}", flush=True)
            elif n % 10 == 0:
                print(f"  {n}/{len(chosen)} run", flush=True)
    killed = counts["failed"]
    print(f"{rel}: {killed} of {len(chosen)} mutants killed "
          f"({100 * killed / max(len(chosen), 1):.1f}%), "
          f"{counts['timeout']} timed out, {counts['passed']} survived")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
