"""The project's pytest settings themselves."""

import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st

@settings(derandomize=True, database=None)
@given(st.integers())
def test_fails(x):
    assert x > 0

def test_passes():
    pass
"""


def test_failing_property_is_reported_not_an_internal_error(pytester):
    # warnings are errors, yet the hypothesis plugin's own deprecation
    # warning on a failure report must not abort the session
    with open(os.path.join(ROOT, "pyproject.toml"), encoding="utf-8") as fh:
        pytester.makepyprojecttoml(fh.read())
    pytester.makepyfile(test_property=FAILING_PROPERTY)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider",
                                          "test_property.py")
    result.assert_outcomes(failed=1, passed=1)
    assert "INTERNALERROR" not in result.stdout.str()
