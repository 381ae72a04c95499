"""Smoke test of the end-to-end benchmark harness.

Run with ``pytest benchmarks/e2e`` — tier-1's ``testpaths`` is ``tests``,
so this is not collected there.  The checks are those of
``python -m benchmarks.e2e --check``.
"""

import pytest

from benchmarks.e2e.selfcheck import CHECKS


@pytest.mark.parametrize("check", CHECKS, ids=lambda check: check.__name__)
def test_selfcheck(check):
    check()
