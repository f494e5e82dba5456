"""Shared helpers for the benchmark harness.

Every bench regenerates one paper artifact (figure) or one ablation; the
``report`` fixture persists the printed comparison so results survive
pytest's output capture and can be pasted into EXPERIMENTS.md.

Timings differ from run to run, so a plain run writes to the ignored
``benchmarks/out/unrecorded/`` and leaves the tree clean; pass
``--bench-record`` to rewrite the committed ``benchmarks/out/<test>.txt``
(the CI jobs that upload ``benchmarks/out/`` do).
"""

from __future__ import annotations

from pathlib import Path

import pytest

OUT_DIR = Path(__file__).parent / "out"


def pytest_addoption(parser):
    parser.addoption(
        "--bench-record",
        action="store_true",
        help="write bench reports to the tracked benchmarks/out/ "
        "instead of the ignored benchmarks/out/unrecorded/",
    )


class Reporter:
    def __init__(self, name: str, out_dir: Path):
        self.name = name
        #: Where this run's artifacts go (benches with snapshots of their
        #: own write them here too).
        self.out_dir = out_dir
        self.lines = []

    def __call__(self, text: str = "") -> None:
        self.lines.append(str(text))

    def flush(self) -> None:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"{self.name}.txt"
        content = "\n".join(self.lines) + "\n"
        path.write_text(content)
        print()  # visible under `pytest -s`
        print(content)


@pytest.fixture
def report(request):
    recording = request.config.getoption("--bench-record")
    reporter = Reporter(
        request.node.name.replace("/", "_"),
        OUT_DIR if recording else OUT_DIR / "unrecorded",
    )
    yield reporter
    reporter.flush()
