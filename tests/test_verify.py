"""Every library invariant, run by name.

``verify.ALL_CHECKS`` is the single statement of each invariant; this
file runs each check as its own test, with the check name as the test id
(``pytest tests/test_verify.py -k effect-covariance`` runs one).
"""

import pytest

from unsharp_spin import verify


@pytest.mark.parametrize("check", [pytest.param(func, id=name) for name, func in verify.ALL_CHECKS])
def test_check(check):
    ok, detail = check()
    assert ok, detail
