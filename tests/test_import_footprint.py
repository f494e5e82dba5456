"""``import repro`` loads only what the library runs.

The projection compiler imports numpy on the first wide fan-out it
stamps, and ``asyncio`` is imported by
:meth:`~repro.runtime.futures.SkeletonFuture.wait_async`, its only user,
on the first await that has to wait.  So a fresh interpreter that imports
the library holds neither ``numpy`` nor ``asyncio``.  Both checks run in a
subprocess: the test process itself has loaded both long ago.
"""

import os
import subprocess
import sys
import textwrap

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_fresh(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_loads_neither_numpy_nor_asyncio():
    out = run_fresh(
        """
        import sys
        import repro
        print(sorted({"numpy", "asyncio"} & set(sys.modules)))
        """
    )
    assert out == "[]"


def test_wait_async_imports_asyncio_on_its_first_await():
    out = run_fresh(
        """
        import sys
        import threading

        from repro import Execute, Seq, ThreadPoolPlatform

        assert "asyncio" not in sys.modules
        gate = threading.Event()
        program = Seq(Execute(lambda v: gate.wait(5) and v * 2, name="double"))
        platform = ThreadPoolPlatform(parallelism=2)
        try:
            future = program.input(21, platform)

            import asyncio

            async def main():
                threading.Timer(0.05, gate.set).start()
                return await future.wait_async(timeout=10)

            assert asyncio.run(main()) is True
            print(future.get(timeout=0))
        finally:
            platform.shutdown()
        """
    )
    assert out == "42"
