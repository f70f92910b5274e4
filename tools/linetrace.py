"""Line reach: the executable lines of src/ddproof that tier-1 never runs.

    python3 tools/linetrace.py

It takes no arguments. It runs tier-1 without tests/test_acceptance.py
(criterion 6 alone takes about 35 s untraced) under a sys.settrace line
tracer, in child processes as well. The tracer is a `sitecustomize` module
in a temporary directory put first on PYTHONPATH. Every Python process the
tests start either forwards its sys.path as PYTHONPATH or inherits the
environment, so each one loads the tracer at startup. On exit it writes
the lines of src/ddproof it ran into that directory. A process that ends
without running its atexit hooks (killed, or `os._exit`) records nothing.

A line is executable when a code object compiled from its module has an
instruction on it. The report lists, per module, each executable line that
no process ran, except the lines ALLOWED covers. An entry of ALLOWED names
the first line of a block, with its reason; it covers that line and the
lines indented below it. The exit status is 1 when the report lists a line
and 0 otherwise. Tracing makes the tests about 2.5 times slower. Stdlib
only.
"""

import os
import subprocess
import sys
import tempfile
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "ddproof")

# (module, a block's first line, stripped) -> why the report cannot see it run
ALLOWED = {
    ("cli.py", 'if __name__ == "__main__":'):
        "cli.py run as a script; `python -m ddproof` runs __main__.py instead",
    ("cli.py", "except RecursionError:"):
        "test_cli.py's too-deep tests reach it in children, but a settrace tracer "
        "stops first: its own call passes the recursion limit, and Python drops "
        "a tracer that raises",
}

SITECUSTOMIZE = '''\
import atexit, os, sys, threading

_PACKAGE = {package!r} + os.sep
_OUT = os.path.dirname(os.path.abspath(__file__))
_lines = {{}}  # module path -> line numbers run
_local = {{}}  # co_filename -> its local trace function, or None


def _tracer_for(filename):
    path = os.path.realpath(filename)
    if not path.startswith(_PACKAGE):
        return None
    add = _lines.setdefault(path, set()).add

    def local(frame, event, arg):
        add(frame.f_lineno)
        return local

    return local


def _global(frame, event, arg):
    name = frame.f_code.co_filename
    local = _local.get(name, _local)
    if local is _local:
        local = _local[name] = _tracer_for(name)
    if local is not None:
        local(frame, event, arg)
    return local


def _dump():
    sys.settrace(None)
    if _lines:
        name = os.path.join(_OUT, f"{{os.getpid()}}-{{os.urandom(4).hex()}}.lines")
        with open(name, "w") as out:
            for path, seen in _lines.items():
                out.write(path + "\\t" + " ".join(map(str, sorted(seen))) + "\\n")


atexit.register(_dump)
threading.settrace(_global)
sys.settrace(_global)
'''


def executable(path: str) -> set[int]:
    """The lines that some instruction of the module's code objects is on."""
    with open(path) as fh:
        todo = [compile(fh.read(), path, "exec")]
    lines: set[int] = set()
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def allowed(name: str, source: list[str]) -> set[int]:
    """The lines of module `name` that ALLOWED covers."""
    lines, block = set(), None  # the indent of the covered block we are in
    for number, text in enumerate(source, 1):
        indent = len(text) - len(text.lstrip())
        if block is not None and text.strip() and indent <= block:
            block = None
        if block is None and (name, text.strip()) in ALLOWED:
            block = indent
        if block is not None:
            lines.add(number)
    return lines


def run_traced(out_dir: str) -> tuple[int, dict[str, set[int]]]:
    """Run the selection with the tracer in `out_dir`; pytest's exit status
    and the lines each module ran, over every process."""
    with open(os.path.join(out_dir, "sitecustomize.py"), "w") as fh:
        fh.write(SITECUSTOMIZE.format(package=os.path.realpath(PACKAGE)))
    path = [out_dir, os.path.join(ROOT, "src")]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    status = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--ignore", os.path.join("tests", "test_acceptance.py"), "tests"],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
    ).returncode
    ran: dict[str, set[int]] = {}
    for name in os.listdir(out_dir):
        if name.endswith(".lines"):
            with open(os.path.join(out_dir, name)) as fh:
                for row in fh:
                    module, _, numbers = row.rstrip("\n").partition("\t")
                    ran.setdefault(module, set()).update(map(int, numbers.split()))
    return status, ran


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="linetrace-") as out_dir:
        status, ran = run_traced(out_dir)
    total = on_list = 0
    listed = []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.realpath(os.path.join(PACKAGE, name))
        with open(path) as fh:
            source = fh.read().splitlines()
        lines = executable(path)
        total += len(lines)
        unreached = lines - ran.get(path, set())
        covered = allowed(name, source)
        on_list += len(unreached & covered)
        for line in sorted(unreached - covered):
            listed.append(f"src/ddproof/{name}:{line}: {source[line - 1].strip()}")
    print(f"\npytest exit status {status}")
    print(f"{total} executable lines, {on_list} unreached on the allow-list, "
          f"{len(listed)} unreached and not on it")
    for row in listed:
        print(row)
    return 1 if listed else 0


if __name__ == "__main__":
    sys.exit(main())
