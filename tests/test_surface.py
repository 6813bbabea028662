"""Every function, class and method under src/ringbench has a caller in the
product, every run option has a passer, and every stored attribute has a
reader: a definition that no code under src/ refers to, or a ``RunOptions``
field that no code under src/ passes by keyword, lives only for its own
tests, and should be given a caller or deleted; an attribute that code under
src/ringbench stores and nothing under src/, tests/ or perfbench/ reads is
write-only state, and should be read or deleted. Only the functions named in
``WRITERS_ALLOWED`` open a file for writing, so every CSV goes through the
one writer, only those named in ``RUNNER_CALLERS_ALLOWED`` refer to an
architecture runner, so every described run goes through the one entry, and
only those named in ``THREADS_ALLOWED`` create a thread. An allowlist entry
that the guard would pass without it, or that names nothing, is stale and
fails too."""

import ast
from dataclasses import fields
from pathlib import Path

from ringbench.arch.driver import RunOptions

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ringbench"

# documented surfaces that nothing under src/ calls, one reason each
ALLOWED = {
    "open_pool": "the README's library example",
    "IoPool.pool_submit": "the README's library example",
    "IoPool.drain_and_shutdown": "the README's library example",
    "write_corpus": "writes the corpus_path format",
}

# RunOptions fields that nothing under src/ passes, one reason each
OPTIONS_ALLOWED = {
    "sched_jitter_ns": "drives the scheduling-jitter interleavings of the "
                       "golden cases and the ROADMAP 3(c) schedule explorer",
}

# attributes stored under src/ringbench that nothing reads, one reason each
WRITE_ONLY_ALLOWED = {}

# functions under src/ringbench that open a file for writing, one reason each
WRITERS_ALLOWED = {
    "metrics.write_csv": "the one writer of every CSV",
    "tasks.write_corpus": "writes the corpus_path format",
    "native._UringBackend.__init__": "opens the native backend's target "
                                     "read-write for ring I/O, not an output",
}

# functions under src/ringbench that create a threading.Thread, one reason
# each
THREADS_ALLOWED = {
    "device.WallClock.start": "the wall-mode device thread",
    "runtime._WallActor.__init__": "one thread per wall-mode actor",
    "verify.spsc_violations": "the SPSC stress check's producer and "
                              "consumer",
}

# functions under src/ringbench that refer to an architecture runner, one
# reason each
RUNNER_CALLERS_ALLOWED = {
    "bench.run_experiment": "the one place a config becomes a runner call",
}
RUNNERS = ("run_shared_nothing", "run_direct_access", "run_static_pool",
           "run_dynamic_pool")

_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def definitions(tree):
    """(qualified name, name) of every top-level function and class and of
    every non-dunder method of a top-level class."""
    for node in tree.body:
        if not isinstance(node, _FUNCS + (ast.ClassDef,)):
            continue
        yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, _FUNCS) and not _is_dunder(item.name):
                    yield f"{node.name}.{item.name}", item.name


def references(tree):
    """Every name read, attribute read or name looked up through getattr.

    Imports are not references, so a package ``__init__`` that only
    re-exports a name does not keep it alive.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "getattr"
              and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant)
              and isinstance(node.args[1].value, str)):
            yield node.args[1].value


def unreferenced(package):
    defined = {}
    used = set()
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        defined.update(definitions(tree))
        used.update(references(tree))
    return sorted(q for q, name in defined.items() if name not in used)


def test_every_definition_has_a_caller_under_src():
    dead = unreferenced(PACKAGE)
    uncalled = [q for q in dead if q not in ALLOWED]
    assert not uncalled, f"no caller under src/: {', '.join(uncalled)}"
    stale = [q for q in ALLOWED if q not in dead]
    assert not stale, f"allowed but defined with a caller, or not " \
                      f"defined: {', '.join(stale)}"


def keywords_passed(package):
    """Every keyword name passed to a call under the package."""
    passed = set()
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        passed.update(kw.arg for node in ast.walk(tree)
                      if isinstance(node, ast.Call)
                      for kw in node.keywords if kw.arg is not None)
    return passed


def test_every_run_option_is_passed_under_src():
    options = [f.name for f in fields(RunOptions)]
    passed = keywords_passed(PACKAGE)
    unpassed = [o for o in options
                if o not in passed and o not in OPTIONS_ALLOWED]
    assert not unpassed, f"no passer under src/: {', '.join(unpassed)}"
    stale = [o for o in OPTIONS_ALLOWED if o not in options or o in passed]
    assert not stale, f"allowed but passed, or not an option: " \
                      f"{', '.join(stale)}"


def attribute_names(paths, ctx):
    """Attribute names in ``ctx`` context (``ast.Store`` or ``ast.Load``)
    under the paths; for loads also names looked up through ``getattr``
    or ``hasattr``. An augmented assignment stores without loading."""
    names = set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ctx):
                names.add(node.attr)
            elif (ctx is ast.Load and isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)
                  and node.func.id in ("getattr", "hasattr")
                  and len(node.args) >= 2
                  and isinstance(node.args[1], ast.Constant)):
                names.add(node.args[1].value)
    return names


def test_every_stored_attribute_is_read():
    stored = attribute_names(sorted(PACKAGE.rglob("*.py")), ast.Store)
    readers = [p for d in ("src", "tests", "perfbench")
               for p in sorted((ROOT / d).rglob("*.py"))]
    read = attribute_names(readers, ast.Load)
    unread = sorted(a for a in stored
                    if a not in read and a not in WRITE_ONLY_ALLOWED)
    assert not unread, f"stored but never read: {', '.join(unread)}"
    stale = [a for a in WRITE_ONLY_ALLOWED if a not in stored or a in read]
    assert not stale, f"allowed but read, or not stored: {', '.join(stale)}"


def _argument(call, index, keyword):
    for kw in call.keywords:
        if kw.arg == keyword:
            return kw.value
    return call.args[index] if len(call.args) > index else None


def opens_for_writing(call):
    """Whether a call may open a file for writing: ``write_text`` or
    ``write_bytes``; ``os.open`` with flags other than ``os.O_RDONLY``; or
    ``open`` or an ``.open`` method with a mode other than a constant read
    mode (no mode reads)."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) \
            and func.value.id == "os":
        flags = _argument(call, 1, "flags")
        return not (isinstance(flags, ast.Attribute)
                    and flags.attr == "O_RDONLY")
    mode = _argument(call, 1 if isinstance(func, ast.Name) else 0, "mode")
    if mode is None:
        return False
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wax+"))


def scopes(tree):
    """(qualified name, node) of every top-level function, every method of
    a top-level class, and every other top-level statement (named
    ``<module>``, or the class's name inside a class body)."""
    for node in tree.body:
        if isinstance(node, _FUNCS):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                yield (f"{node.name}.{item.name}"
                       if isinstance(item, _FUNCS) else node.name), item
        else:
            yield "<module>", node


def scopes_where(package, test):
    """Module-qualified names of the scopes holding a node that passes
    ``test``."""
    found = set()
    for path in sorted(package.rglob("*.py")):
        module = ".".join(path.relative_to(package).with_suffix("").parts)
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for name, node in scopes(tree):
            if any(test(n) for n in ast.walk(node)):
                found.add(f"{module}.{name}")
    return found


def test_only_the_allowed_functions_open_files_for_writing():
    found = scopes_where(PACKAGE, lambda n: isinstance(n, ast.Call)
                         and opens_for_writing(n))
    extra = sorted(found - WRITERS_ALLOWED.keys())
    assert not extra, f"opens a file for writing: {', '.join(extra)}"
    stale = sorted(WRITERS_ALLOWED.keys() - found)
    assert not stale, f"allowed but opens no file for writing: " \
                      f"{', '.join(stale)}"


def read_name(node):
    """The name a node reads, bare or as an attribute, or None; imports
    and ``__all__`` strings are not reads."""
    return node.id if isinstance(node, ast.Name) else \
        node.attr if isinstance(node, ast.Attribute) else None


def refers_to_a_runner(node):
    """Whether a node reads a runner's name."""
    return read_name(node) in RUNNERS


def test_only_the_one_entry_calls_a_runner():
    found = scopes_where(PACKAGE, refers_to_a_runner)
    extra = sorted(found - RUNNER_CALLERS_ALLOWED.keys())
    assert not extra, f"calls a runner: {', '.join(extra)}"
    stale = sorted(RUNNER_CALLERS_ALLOWED.keys() - found)
    assert not stale, f"allowed but calls no runner: {', '.join(stale)}"


def test_only_the_allowed_functions_create_threads():
    found = scopes_where(PACKAGE, lambda n: isinstance(n, ast.Call)
                         and read_name(n.func) == "Thread")
    extra = sorted(found - THREADS_ALLOWED.keys())
    assert not extra, f"creates a thread: {', '.join(extra)}"
    stale = sorted(THREADS_ALLOWED.keys() - found)
    assert not stale, f"allowed but creates no thread: {', '.join(stale)}"
