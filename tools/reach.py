#!/usr/bin/env python3
"""List the functions of a package that a workload never calls.

    python3 tools/reach.py

The workload is what a run, the command line and the acceptance suite
reach in rdeim: tests/test_acceptance.py and tests/test_cli.py, run in
this process by pytest, then run_experiment on every example x basis x
selector at desk scale and rank 10, with bounds off and on. Meanwhile a
sys.setprofile hook records the code object of every Python call. Each
function or method defined under src/rdeim, nested ones included, whose
code never ran is printed with its line count (decorators included).
Then come the package's lines, split into code, docstring and comment
lines (line_counts), and last the unreached total. A call made only in a
subprocess is not seen. The script reports and gates nothing: it exits 0
once the workload has run.
"""

import ast
import io
import itertools
import os
import sys
import threading
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def definitions(package):
    """(path, qualname, first, last) of every def in the .py files under
    the directory package, first being the line of its first decorator:
    the line a code object's co_firstlineno names."""
    out = []
    for path in sorted(Path(package).resolve().rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        # a def may sit at any depth: inside a class, a def, a with or an if
        stack = [(node, "") for node in ast.iter_child_nodes(tree)]
        while stack:
            node, prefix = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not isinstance(node, ast.ClassDef):
                    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                    out.append((path, prefix + node.name, first, node.end_lineno))
                prefix += node.name + "."
            stack.extend((child, prefix) for child in ast.iter_child_nodes(node))
    return sorted(out, key=lambda d: (d[0], d[2]))


def line_counts(package):
    """(total, code, docstring, comment) line counts of the .py files under
    the directory package. A docstring line is one that the docstring of
    a module, class or def spans; a comment line is any other that holds
    a comment, after code or alone; a code line is any other nonblank one."""
    total = code = docs = comments = 0
    for path in sorted(Path(package).resolve().rglob("*.py")):
        text = path.read_text()
        doc = set()
        for node in ast.walk(ast.parse(text, str(path))):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                if ast.get_docstring(node, clean=False) is not None:
                    doc.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        comment = {t.start[0] for t in tokens if t.type == tokenize.COMMENT} - doc
        lines = text.splitlines()
        blank = sum(1 for no, line in enumerate(lines, 1) if not line.strip() and no not in doc)
        total += len(lines)
        docs += len(doc)
        comments += len(comment)
        code += len(lines) - len(doc) - len(comment) - blank
    return total, code, docs, comments


def unreached(package, workload):
    """The definitions under package whose code never ran while
    workload() did, in file and line order."""
    called = set()

    def hook(frame, event, arg):
        if event == "call":
            called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        workload()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    ran = {(Path(f).resolve(), line) for f, line in called}
    return [d for d in definitions(package) if (d[0], d[2]) not in ran]


def rdeim_workload():
    """The acceptance and CLI tests, then the desk run grid."""
    import pytest

    tests = [str(ROOT / "tests" / name) for name in ("test_acceptance.py", "test_cli.py")]
    if pytest.main(["-q", "-p", "no:cacheprovider", *tests]) != 0:
        sys.exit("reach: the acceptance or CLI tests failed")
    from rdeim.experiments import BASES, EXAMPLES, SELECTORS, ExperimentSpec, run_experiment

    for example, basis, selector, bounds in itertools.product(EXAMPLES, BASES, SELECTORS, (False, True)):
        spec = ExperimentSpec(example=example, rank=10, basis=basis, selector=selector, with_bounds=bounds)
        run_experiment(spec)


def report(package, missed):
    """One line per unreached definition, the package's line counts, then
    the unreached total."""
    lines = [
        f"{path.relative_to(Path(package).resolve())}:{first} {name} {last - first + 1}"
        for path, name, first, last in missed
    ]
    lines.append("{} lines: {} code, {} docstring, {} comment".format(*line_counts(package)))
    total = sum(last - first + 1 for _, _, first, last in missed)
    lines.append(f"{len(missed)} functions never ran, {total} lines")
    return "\n".join(lines)


def main():
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    # the CLI tests start the module entry point in a subprocess too
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    package = ROOT / "src" / "rdeim"
    print(report(package, unreached(package, rdeim_workload)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
