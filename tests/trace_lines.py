"""Which lines of src/qpsl the tier-1 tests and the benchmark workloads run.

    PYTHONPATH=src python tests/trace_lines.py [pytest arguments]

It imports every qpsl module, runs one operation of each workload of
``perfbench/workloads.py`` for seeds 1 and 2 in a temporary directory, then
pytest (by default on this directory, quietly, with the repository root on
the path as ``python -m pytest`` has it), all under one ``sys.settrace`` /
``threading.settrace`` line tracer limited to the files of src/qpsl.  The
workloads come first so that a cache the tests would fill (the CLI's
parser) does not hide lines from them.  ``perfbench`` is imported
read-only, as ``tests/test_bench_targets.py`` imports its ``layers.py``.

Per module it prints the executable lines (from the code objects'
``co_lines``), the lines the workloads run, the lines only the tests run and
the lines nothing runs, then the numbers of the lines only the tests run and
of the lines nothing runs.  A line run at import counts as run by both.
Child processes (the rotation pool) are not traced.  Standard library only;
not collected by pytest.
"""

import contextlib
import importlib
import io
import os
import sys
import tempfile
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qpsl"
SEEDS = (1, 2)


def executable_lines(path):
    """The line numbers of every code object compiled from the file."""
    todo, lines = [compile(path.read_text(), str(path), "exec")], set()
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


class LineTracer:
    """Collects (file, line) for the files under ``PACKAGE`` into ``hits``."""

    def __init__(self):
        self.hits = set()
        self._paths = {}                 # co_filename -> package path or None

    def _path(self, filename):
        if filename not in self._paths:
            path = Path(os.path.realpath(filename))
            self._paths[filename] = path if path.parent == PACKAGE else None
        return self._paths[filename]

    def _global(self, frame, event, arg):
        path = self._path(frame.f_code.co_filename)
        if path is None:
            return None
        # the call's own line: a code object's first line fires no line event
        self.hits.add((path, frame.f_lineno))

        def local(frame, event, arg):
            if event == "line":
                self.hits.add((path, frame.f_lineno))
            return local
        return local

    @contextlib.contextmanager
    def collect(self, hits):
        self.hits = hits
        threading.settrace(self._global)
        sys.settrace(self._global)
        try:
            yield
        finally:
            sys.settrace(None)
            threading.settrace(None)


def run_workloads():
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    failures = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for seed in SEEDS:
                for name, workload in workloads.WORKLOADS.items():
                    with contextlib.redirect_stdout(io.StringIO()):
                        w = workload(seed)
                        failures += [f"{name} seed {seed}: {msg}" for msg in w.check(w.run())]
        finally:
            os.chdir(cwd)
    return failures


def spans(lines):
    """'3, 7-9, 12' for the sorted line numbers."""
    out, lines = [], sorted(lines)
    for i, line in enumerate(lines):
        if i and line == lines[i - 1] + 1:
            out[-1][1] = line
        else:
            out.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in out)


def main(argv):
    import pytest

    tracer = LineTracer()
    imported, tests, bench = set(), set(), set()
    with tracer.collect(imported):
        for path in sorted(PACKAGE.glob("*.py")):
            importlib.import_module("qpsl" if path.stem == "__init__" else f"qpsl.{path.stem}")
    with tracer.collect(bench):
        failures = run_workloads()
    sys.path.insert(0, str(ROOT))
    with tracer.collect(tests):
        rc = pytest.main(argv or [str(ROOT / "tests"), "-q", "-p", "no:cacheprovider"])

    print(f"\npytest exit code {rc}; workload check failures: {len(failures)}")
    for msg in failures:
        print("  " + msg)
    print(f"\n{'module':<18}{'executable':>11}{'workloads':>11}{'tests only':>11}{'none':>6}")
    tests_only, unrun = {}, {}
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        ran = lambda hits: {line for p, line in hits if p == path} & lines
        at_import = ran(imported)
        by_bench = ran(bench) | at_import
        tests_only[path.name] = ran(tests) - by_bench
        unrun[path.name] = lines - by_bench - tests_only[path.name]
        print(f"{path.name:<18}{len(lines):>11}{len(by_bench):>11}"
              f"{len(tests_only[path.name]):>11}{len(unrun[path.name]):>6}")
    for title, table in (("lines only the tests run", tests_only),
                         ("lines nothing runs", unrun)):
        print(f"\n{title}:")
        for name, lines in table.items():
            if lines:
                print(f"  {name}: {spans(lines)}")
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
