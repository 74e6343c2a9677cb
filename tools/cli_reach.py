"""Statements of the package that no `cli_golden` case executes.

Usage:
    python3 tools/cli_reach.py

Runs every case of `tools/cli_golden.py` once, at `--jobs 1` so no work
leaves the traced process, under `sys.settrace`, which is installed before
`magbarrier` is imported so module-level code counts too. It then lists,
per module of `src/magbarrier`, every statement that never ran. A `raise`
statement is left out: refusals are the error paths the CLI tests drive
with bad input, not code the golden cases should reach. The list is a
report for reviewers, not a gate: a statement here is either reached only
by tests, or a candidate for deletion. The run takes about 35 s on two
cores.
"""

import ast
import contextlib
import io
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
PACKAGE = HERE.parent / "src" / "magbarrier"


def _code_lines(code):
    """Every line number that holds bytecode in code or its nested code."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _statements(path):
    """{first line: (lines whose event means it ran, source line)} of every
    statement that compiles to bytecode, raise statements left out.

    A simple statement ran when any of its lines did; a compound one when
    a line of its header did (a decorated definition also when a decorator
    line did), since its body lines belong to the statements inside.
    """
    source = path.read_text()
    text = source.splitlines()
    with_code = _code_lines(compile(source, str(path), "exec"))
    out = {}
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or isinstance(node, ast.Raise):
            continue
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if isinstance(body, list) and body \
            else node.end_lineno
        lines = set(range(node.lineno, last + 1))
        for decorator in getattr(node, "decorator_list", ()):
            lines |= set(range(decorator.lineno, decorator.end_lineno + 1))
        if lines & with_code:
            out[node.lineno] = (lines, text[node.lineno - 1].strip())
    return out


def main():
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(PACKAGE.parent))
    from cli_golden import CASES, CONFIGS, run_case

    prefix = str(PACKAGE) + "/"
    hits = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        hits.setdefault(filename, set()).add(frame.f_lineno)
        return local

    start = time.perf_counter()
    sys.settrace(tracer)
    try:
        from magbarrier import cli

        # the commands' own status and error lines are not part of the report
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            for name, argv in CASES.items():
                run_case(cli, argv + ["--jobs", "1"], CONFIGS.get(name))
    finally:
        sys.settrace(None)
    elapsed = time.perf_counter() - start

    total = missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        ran = hits.get(str(path), set())
        statements = _statements(path)
        unreached = [(first, line) for first, (lines, line)
                     in sorted(statements.items()) if not lines & ran]
        total += len(statements)
        missed += len(unreached)
        print(f"{path.name}: {len(unreached)} of {len(statements)} "
              "statements never executed")
        for first, line in unreached:
            print(f"  {first:4d}  {line}")
    print(f"{missed} of {total} statements never executed by "
          f"{len(CASES)} cases in {elapsed:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
