"""One planner: the runtime plans through ``PlanEngine`` only.

:mod:`repro.core.schedule` is the readable reference of the paper's §4
— tests, the property harness and the paper-figure benches call it —
while every plan the running system makes goes machines/skeleton →
``PlanTable`` → compiled passes.  This module keeps the twin from
growing back unnoticed: no module under ``src/repro`` may import one of
the reference *algorithms*, except the reference itself and the two
re-exporting package ``__init__``s.  Result types and the timeline
helpers they are made of are shared and may be imported anywhere —
``planning/*`` imports nothing else from it.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent

#: What the result types are made of — shared, not an algorithm.
SHARED_HELPERS = {"concurrency_timeline", "peak_concurrency"}

#: Modules (relative to ``src/repro``) that may import the algorithms.
ALLOWED = {"core/schedule.py", "core/__init__.py", "__init__.py"}

#: Modules an algorithm can be imported *from* (the definition and its
#: re-exports).
_SOURCES = {"repro.core.schedule", "repro.core", "repro"}


def reference_algorithms():
    """Public functions of ``schedule.py`` minus the shared helpers."""
    tree = ast.parse((SRC / "core" / "schedule.py").read_text())
    return {
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    } - SHARED_HELPERS


def _absolute(path: Path, node: ast.ImportFrom, root: Path = SRC) -> str:
    """The absolute dotted module an ``ImportFrom`` in *path* names;
    *root* is the directory of the ``repro`` package *path* lives in."""
    if not node.level:
        return node.module or ""
    package = ("repro",) + path.relative_to(root).parts[:-1]
    base = package[: len(package) - (node.level - 1)]
    return ".".join(base + ((node.module,) if node.module else ()))


def algorithm_imports(path: Path, algorithms, root: Path = SRC):
    """``{name}`` of every way *path* gets at a reference algorithm:
    importing one by name (or ``*``) from the reference or a re-export,
    or importing the reference module itself."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(
                alias.name for alias in node.names
                if alias.name == "repro.core.schedule"
            )
        elif isinstance(node, ast.ImportFrom):
            module = _absolute(path, node, root)
            for alias in node.names:
                if module in _SOURCES and (
                    alias.name in algorithms or alias.name == "*"
                ):
                    found.add(alias.name)
                if f"{module}.{alias.name}" == "repro.core.schedule":
                    found.add("repro.core.schedule")
    return found


def test_reference_algorithms_are_the_papers_section_4():
    assert reference_algorithms() == {
        "best_effort_schedule",
        "limited_lp_schedule",
        "remaining_critical_path",
        "pin_actuals",
        "schedule_pending",
        "optimal_lp",
        "minimal_lp_greedy",
        "exact_minimal_lp",
    }


def test_runtime_modules_do_not_import_the_reference_algorithms():
    algorithms = reference_algorithms()
    offenders = {}
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        if relative in ALLOWED:
            continue
        found = algorithm_imports(path, algorithms)
        if found:
            offenders[relative] = sorted(found)
    assert not offenders, (
        f"runtime modules import reference algorithms from "
        f"repro.core.schedule (plan through PlanEngine instead): {offenders}"
    )


def test_planning_imports_only_result_types_and_their_helpers():
    allowed = {"ScheduledActivity", "ScheduleResult", "PinnedPlanBase"}
    allowed |= SHARED_HELPERS
    for path in sorted((SRC / "core" / "planning").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.ImportFrom)
                and _absolute(path, node) == "repro.core.schedule"
            ):
                names = {alias.name for alias in node.names}
                assert names <= allowed, (path.name, sorted(names - allowed))


def test_the_detector_finds_every_import_form_it_bans(tmp_path):
    """Non-vacuity: the exemptions exist, and on a synthetic runtime
    module the detector finds a relative import, a function-level
    import, a star import and imports of the reference module itself."""
    for relative in ALLOWED:
        assert (SRC / relative).is_file(), relative
    root = tmp_path / "repro"
    module = root / "service" / "offender.py"
    module.parent.mkdir(parents=True)
    module.write_text(
        "from ..core.schedule import limited_lp_schedule\n"
        "import repro.core.schedule\n"
        "from repro.core import *\n"
        "\n"
        "\n"
        "def plan():\n"
        "    from repro import minimal_lp_greedy\n"
        "    from ..core import schedule\n"
    )
    assert algorithm_imports(module, reference_algorithms(), root) == {
        "limited_lp_schedule",
        "minimal_lp_greedy",
        "*",
        "repro.core.schedule",
    }
