"""``perf/`` stays on the program's public surface.

The diet and round-engine PRs must be able to land without editing the
benchmark, so it may not reach for ``_``-prefixed names, ``repro.harness``
helpers, or anything on ROADMAP's diet list.
"""

import ast
from pathlib import Path

PERF = Path(__file__).resolve().parents[1]
SOURCES = sorted(p for p in PERF.glob("*.py"))

DIET_LIST = (
    "legacy_kernels", "SharedMemoryTransport", "shm_transport", "resolve_workers",
    "mp.workers", "repro.harness", 'engine="copy"', "engine='copy'", "uses_legacy_update",
)


def private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"run.py", "child.py", "layers.py", "micro.py", "workloads.py"}


def test_no_private_names_of_the_program():
    offences = []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
                parts = (node.module or "").split(".")
                offences += [f"{path.name}:{node.lineno} module {node.module}" for p in parts if private(p)]
                offences += [
                    f"{path.name}:{node.lineno} import {alias.name}"
                    for alias in node.names if private(alias.name)
                ]
            elif isinstance(node, ast.Attribute) and private(node.attr):
                # The harness's own objects keep their privates on ``self``.
                if not (isinstance(node.value, ast.Name) and node.value.id == "self"):
                    offences.append(f"{path.name}:{node.lineno} .{node.attr}")
            elif isinstance(node, ast.Call) and len(node.args) >= 2:
                # names reached through strings: rec.wrap(cls, "attr", ...), getattr(x, "attr")
                func = node.func
                called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                attr = node.args[1]
                if called in ("wrap", "getattr", "hasattr", "setattr") and isinstance(attr, ast.Constant):
                    if isinstance(attr.value, str) and private(attr.value):
                        offences.append(f"{path.name}:{node.lineno} {attr.value!r}")
    assert not offences, offences


def test_nothing_from_the_diet_list():
    offences = [
        f"{path.name}: {needle}"
        for path in SOURCES
        for needle in DIET_LIST
        if needle in path.read_text()
    ]
    assert not offences, offences


def test_no_patching_of_module_globals():
    """Wrapping goes through SpanRecorder.wrap (class attributes), never
    ``setattr`` on a module or ``module.name = ...``."""
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name):
                        assert target.value.id not in imported, f"{path.name}:{node.lineno}"
