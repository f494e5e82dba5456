"""One planner: the runtime plans through ``PlanEngine`` only.

:mod:`repro.core.schedule` is the readable reference of the paper's §4
— tests, the property harness and the paper-figure benches call it —
while every plan the running system makes goes machines/skeleton →
``PlanTable`` → compiled passes.  This module keeps the twin from
growing back unnoticed: no module under ``src/repro`` may import one of
the reference *algorithms*, except the reference itself, the two
re-exporting package ``__init__``s and the engine-less fallbacks that
are still allowed to (``AnalysisReport`` / ``AdmissionController`` built
without an engine, ``projected_wct``).  Result types and the timeline
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
ALLOWED = {
    "core/schedule.py",
    "core/__init__.py",
    "__init__.py",
    "core/projection.py",
    "core/analysis.py",
    "service/admission.py",
}

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


def _absolute(path: Path, node: ast.ImportFrom) -> str:
    """The absolute dotted module an ``ImportFrom`` in *path* names."""
    if not node.level:
        return node.module or ""
    package = ("repro",) + path.relative_to(SRC).parts[:-1]
    base = package[: len(package) - (node.level - 1)]
    return ".".join(base + ((node.module,) if node.module else ()))


def algorithm_imports(path: Path, algorithms):
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
            module = _absolute(path, node)
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


def test_the_detector_sees_the_fallbacks_it_exempts():
    """Non-vacuity: the exemptions exist and the detector finds what
    they import (relative imports, function-level imports included)."""
    algorithms = reference_algorithms()
    for relative in ALLOWED:
        assert (SRC / relative).is_file(), relative
    assert "limited_lp_schedule" in algorithm_imports(
        SRC / "core" / "analysis.py", algorithms
    )
    assert "limited_lp_schedule" in algorithm_imports(
        SRC / "core" / "projection.py", algorithms  # inside a function
    )
    assert "limited_lp_schedule" in algorithm_imports(
        SRC / "service" / "admission.py", algorithms
    )
