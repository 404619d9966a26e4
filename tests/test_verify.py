"""Every library invariant, run by name.

``verify.ALL_CHECKS`` is the single statement of each invariant; this
file runs each check as its own test, with the check name as the test id
(``pytest tests/test_verify.py -k effect-triples`` runs one).

Two kinds of test ride along under the same test function:

- each claim about the effect triple (POVM invariants, covariance, shared
  eigenbasis, spectra) is also judged on its own, by name, on the one
  effect-triples sweep, so a failure names the claim that broke;
- ``sat-recheck-independence`` re-validates the first-solution mode's SAT
  colorings with the independent checker, from outside the solver
  (``solver-vs-brute-force`` covers the count_all mode).
"""

import functools

import numpy as np
import pytest

from unsharp_spin import crosscheck, formats, ks_solver, verify

EFFECT_CLAIMS = {
    "effect-invariants": ("identity", "positivity", "eigenvalue sums"),
    "effect-covariance": ("covariance",),
    "shared-eigenbasis": ("off-diagonal", "commutator"),
    "effect-spectra": ("spectra",),
}

_effect_residuals = functools.cache(verify.effect_triple_residuals)


def _effect_claim(keys):
    def check():
        worst = _effect_residuals()
        ok = all(worst[key] <= verify.EFFECT_TOLERANCES[key] for key in keys)
        return ok, ", ".join(f"{key} {worst[key]:.3e} (tol {verify.EFFECT_TOLERANCES[key]:.0e})" for key in keys)

    return check


def check_sat_recheck_independence():
    """SAT answers of the first-solution mode pass the independent
    constraint checker."""
    rng = np.random.default_rng(verify.SEED + 12)
    _, rays = formats.load_ray_file(formats.fixture_path("peres33_rays.json"))
    checked = 0
    for _ in range(40):
        k = int(rng.integers(3, 14))
        idx = rng.choice(len(rays), size=k, replace=False)
        instance = ks_solver.build_graph([rays[i] for i in sorted(idx)])
        result = ks_solver.solve_coloring(instance)
        if result.is_sat:
            ok, violations = crosscheck.check_coloring(instance, result.coloring)
            if not ok:
                return False, f"independent check failed: {violations[:3]}"
            checked += 1
    return checked > 0, f"{checked} SAT colorings re-validated"


CHECKS = [
    *verify.ALL_CHECKS,
    *((name, _effect_claim(keys)) for name, keys in EFFECT_CLAIMS.items()),
    ("sat-recheck-independence", check_sat_recheck_independence),
]


@pytest.mark.parametrize("check", [pytest.param(func, id=name) for name, func in CHECKS])
def test_check(check):
    ok, detail = check()
    assert ok, detail
