"""List the lines of `src/psdg/` that the Tier-1 suite never runs in-process.

    python tests/line_reach.py [extra pytest arguments]

Runs `pytest -q --continue-on-collection-errors` from the repository root,
in this process, under a `sys.settrace` tracer (no coverage package is
needed), then prints each package line that holds code and never ran.  A
line holds code when an instruction compiled from the file sits on it.
Statements that only tests in a subprocess reach are allowed: ALLOWED
names each by its file and the source text of its first line, so that
edits elsewhere do not shift it, and every line of the statement is
allowed.  Exits 1 if an unrun line is not allowed, else 0; an allowance
that matches no statement, or whose lines all ran, is named as stale.
The file name keeps pytest from collecting it.
"""
from __future__ import annotations

import ast
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "psdg"

# (file, stripped first line of a statement): reached only in a subprocess,
# or, for the TYPE_CHECKING import, never run.
ALLOWED = {
    ("__main__.py", '"""``python -m psdg``: the same command line as the '
                    '``psdg`` script."""'),
    ("__main__.py", "import sys"),
    ("__main__.py", "from .cli import main"),
    ("__main__.py", 'if __name__ == "__main__":'),
    ("cli.py", "except RecursionError:"),       # JSON nested too deeply
    ("cli.py", "except PsdgError as e:"),       # to-pcfg's production bound
    ("cli.py", "except BrokenPipeError:"),
    ("cli.py", 'if __name__ == "__main__":'),
    ("oracle.py", "if TYPE_CHECKING:"),
    ("oracle.py", "if made > PCFG_PRODUCTION_BOUND:"),
}


def code_lines(path: Path, source: str) -> set[int]:
    """The lines of `path` that some compiled instruction sits on."""
    lines, todo = set(), [compile(source, str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for *_, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def allowances(path: Path, source: str) -> dict[str, set[int]]:
    """The lines of each statement ALLOWED names in `path`, by its text."""
    text = source.splitlines()
    found = {first: set() for name, first in ALLOWED if name == path.name}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.stmt, ast.excepthandler)):
            lines = found.get(text[node.lineno - 1].strip())
            if lines is not None:
                lines.update(range(node.lineno, node.end_lineno + 1))
    return found


def main(argv: list[str]) -> int:
    hit = {str(path): set() for path in sorted(PACKAGE.glob("*.py"))}

    def tracer(frame, event, arg):
        lines = hit.get(frame.f_code.co_filename)
        if lines is None:
            return None

        def local(frame, event, arg):
            lines.add(frame.f_lineno)
            return local
        return local(frame, event, arg)

    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    import pytest
    start = time.perf_counter()
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "--continue-on-collection-errors", *argv])
    finally:
        sys.settrace(None)
    seconds = time.perf_counter() - start

    bad = 0
    for name, ran in hit.items():
        path = Path(name)
        source = path.read_text("utf-8")
        text = source.splitlines()
        unrun = code_lines(path, source) - ran
        allowed = allowances(path, source)
        for first, lines in sorted(allowed.items()):
            if not lines & unrun:
                print(f"stale allowance: {path.name}: {first}")
        allowed = set().union(*allowed.values())
        for line in sorted(unrun):
            bad += line not in allowed
            print(f"{'allowed' if line in allowed else 'UNRUN'}: "
                  f"{path.name}:{line}: {text[line - 1].strip()}")
    print(f"{bad} unrun line(s) outside the allowlist; pytest exited "
          f"{int(code)} after {seconds:.1f} s traced")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
