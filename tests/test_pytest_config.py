"""The repository's pytest configuration, run on a session of its own."""

from __future__ import annotations

from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def test_a_failing_hypothesis_test_leaves_the_tests_after_it_running(pytester):
    # warnings are errors, and hypothesis' failure report raises a deprecation
    # warning; unless the config ignores it, the session ends with INTERNALERROR
    pytester.makefile(".toml", pyproject=(REPO / "pyproject.toml").read_text())
    pytester.makepyfile(
        test_a="""
        from hypothesis import Phase, given, settings, strategies as st

        @settings(database=None, phases=[Phase.generate])
        @given(st.integers())
        def test_fails(x):
            assert x < 5
        """,
        test_b="""
        def test_passes():
            pass
        """,
    )
    result = pytester.runpytest("-p", "no:cacheprovider", "test_a.py", "test_b.py")
    result.assert_outcomes(failed=1, passed=1)
    assert result.ret == 1
