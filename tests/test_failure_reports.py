"""A failing property test reports its falsifying example.

The suite turns every DeprecationWarning into an error
(``pyproject.toml``).  When a hypothesis test fails, hypothesis imports
``libcst`` to write a patch with the failing example, and ``libcst``'s
own import raised a DeprecationWarning (``mypy_extensions.TypedDict``)
that the filter turned into an ``INTERNALERROR`` with no example printed.
This runs a deliberately failing ``@given`` test in a fresh pytest
process under the repository's own configuration, next to a test whose
own DeprecationWarning must still fail it.
"""

from pathlib import Path

pytest_plugins = ["pytester"]

CONFIG = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_a_failing_property_prints_its_example(pytester):
    pytester.makepyfile(
        test_failing_property="""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_small(x):
            assert x < 10
        """,
        test_deprecated="""
        import warnings

        def test_warns():
            warnings.warn("old path", DeprecationWarning)
        """,
    )
    here = str(pytester.path)
    result = pytester.runpytest_subprocess(
        "-c", str(CONFIG), "--rootdir", here, "-p", "no:cacheprovider", here
    )
    output = result.stdout.str() + result.stderr.str()
    assert "INTERNALERROR" not in output
    assert "Falsifying example" in output
    assert "DeprecationWarning: old path" in output
    result.assert_outcomes(failed=2)
