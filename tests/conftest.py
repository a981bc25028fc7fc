"""Shared test plumbing.

The acceptance tests are named test_criterion_<n>_<slug>; the hook below
prints one PASS/FAIL line per criterion so the acceptance record is readable
straight from the pytest output.

Every test starts with an empty roots_of memo, so that a test which patches
the solver reaches it, whatever ran before.
"""

import pytest

from cubicmonodromy import numeric


@pytest.fixture(autouse=True)
def _fresh_roots_memo():
    numeric._sorted_roots.cache_clear()


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    marker = "test_acceptance.py::test_criterion_"
    if marker not in report.nodeid:
        return
    tag = report.nodeid.split("::test_criterion_", 1)[1]
    num, _, slug = tag.partition("_")
    label = "PASS" if report.passed else "FAIL"
    print(f"\n[ACCEPTANCE CRITERION {num}] {label}: {slug}")
