"""Every module-level function and class in ``src/repro`` has a caller
outside the tests.

A definition that only tests reach is behaviour no job runs, so it
goes with its tests.  A reference counts when the name appears
(loaded, called or as an attribute) in ``src/``, ``examples/``,
``perf/`` or a Python step of the CI workflow, outside the definition
itself; a re-export from a package ``__init__`` (an import or an
``__all__`` entry) is not a caller.  Strings in the benchmark's span
table count, since it binds its sites by name, and so does the
interpreter for the module hook it calls itself (a module's
``__getattr__``).
"""

from __future__ import annotations

import ast
import fnmatch
import re
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPAN_TABLE = ROOT / "perf" / "site" / "perf_trace.py"

#: Kept on purpose although only tests use them (ROADMAP aim 2): the
#: encoding round-trip oracle, the fake-input seam, and the per-config
#: cache simulation the grid replay is tested against.
KEPT = frozenset({"check_roundtrip", "register_benchmark", "simulate_caches"})

#: Module-level functions the interpreter calls: ``__getattr__`` resolves
#: a module attribute that is not bound yet.
MODULE_HOOKS = frozenset({"__getattr__"})


def _definitions() -> dict[str, list[str]]:
    found: dict[str, list[str]] = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                found.setdefault(node.name, []).append(
                    str(path.relative_to(ROOT)))
    return found


def _sources() -> list[str]:
    paths = [path for top in ("src", "examples", "perf")
             for path in sorted((ROOT / top).rglob("*.py"))]
    sources = [path.read_text() for path in paths]
    workflow = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    sources += [textwrap.dedent(block) for block in re.findall(
        r"python - <<'EOF'\n(.*?)\n\s*EOF", workflow, re.S)]
    return sources


def _referenced() -> set[str]:
    names: set[str] = set()
    for source in _sources():
        for top in ast.parse(source).body:
            own = top.name if isinstance(
                top, (ast.FunctionDef, ast.ClassDef)) else None
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and node.id != own:
                    names.add(node.id)
                elif isinstance(node, ast.Attribute) and node.attr != own:
                    names.add(node.attr)
    return names


def _span_patterns() -> set[str]:
    """The function and class names the span table binds by string."""
    patterns = set()
    for node in ast.walk(ast.parse(SPAN_TABLE.read_text())):
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and re.fullmatch(r"[A-Za-z_][\w.]*\*?", node.value)):
            patterns.add(node.value.split(".")[0])
    return patterns


def test_every_definition_has_a_caller_outside_the_tests():
    referenced = _referenced()
    patterns = _span_patterns()
    unused = sorted(
        f"{path}: {name}" for name, paths in _definitions().items()
        if name not in referenced and name not in KEPT | MODULE_HOOKS
        and not any(fnmatch.fnmatchcase(name, p) for p in patterns)
        for path in paths)
    assert unused == []


def test_kept_names_exist():
    assert KEPT <= set(_definitions())
