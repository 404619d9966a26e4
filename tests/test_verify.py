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

A second test breaks the library function a sampled check guards, in
``verify``'s namespace (the simulator's Born rule in ``unsharp_povm``'s),
and asserts that the check then fails; the last ones break the color
rule ``ks_pipeline`` lifts with, the solver's count or the brute-force
enumerator, in their own modules' namespaces.
"""

import dataclasses
import functools

import numpy as np
import pytest

from unsharp_spin import crosscheck, formats, ks_solver, unsharp_povm, verify
from unsharp_spin.spin_core import EffectTriple

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
    _, dirs = formats.load_direction_file(formats.fixture_path("peres33_directions.json"))
    checked = 0
    for _ in range(40):
        k = int(rng.integers(3, 14))
        idx = rng.choice(len(dirs), size=k, replace=False)
        instance = ks_solver.build_graph([dirs[i] for i in sorted(idx)])
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


def _plus_minus_swapped(triple_of):
    # sharp_projectors or sphere_effects returning (F-, F0, F+)
    def mutant(*args):
        t = triple_of(*args)
        return EffectTriple(t.direction, t.f_minus, t.f_zero, t.f_plus)

    return mutant


def _eigenvectors_swapped(sharp_eigenvectors):
    def mutant(n):
        plus, zero, minus = sharp_eigenvectors(n)
        return zero, plus, minus

    return mutant


def _plus_scaled(sphere_effects):
    def mutant(n, model):
        t = sphere_effects(n, model)
        return EffectTriple(t.direction, t.f_plus * (1.0 + 1e-6), t.f_zero, t.f_minus)

    return mutant


def _caps_reversed(sphere_effects):
    # each draw's pair integrated with the cap of the draw at the mirror position
    return lambda n, model: sphere_effects(n, model[::-1])


def _forward_convention(wigner_d1):
    # swapaxes, not .T: the checks pass wigner_d1 a stack of rotations
    return lambda r: wigner_d1(r).conj().swapaxes(-1, -2)


def _inverse_rotation(repole):
    # the rotation that carries the oracle's moments from the pole, transposed
    return lambda local, axis: repole(local, axis).swapaxes(-1, -2)


def _plus_minus_counts_swapped(simulate_outcomes):
    def mutant(*args, **kwargs):
        n_plus, n_zero, n_minus = simulate_outcomes(*args, **kwargs)
        return n_minus, n_zero, n_plus

    return mutant


def _a2_a3_swapped(alphas_uniform_cap):
    def mutant(epsilon):
        a = alphas_uniform_cap(epsilon)
        return unsharp_povm.Alphas(a.a3, a.a2)

    return mutant


def _m_s_sign_flipped(sharp_born):
    # (m^T Q m - m.s)/2 for P_+1: the simulator's own Born rule, which
    # shares only _spin_moments with outcome_probabilities
    def mutant(*args):
        p_plus, p_zero = sharp_born(*args)
        return 1.0 - p_plus - p_zero, p_zero

    return mutant


def _reflected(sharp_projectors):
    return lambda n: sharp_projectors(n * np.array([-1.0, 1.0, 1.0]))


# id -> (check, function in verify's namespace or, as unsharp_povm.<name>, in that module's, broken variant of it)
MUTANTS = {
    "projector-triples/P+ and P- swapped": ("projector-triples", "sharp_projectors", _plus_minus_swapped),
    "projector-triples/+1 and 0 eigenvectors swapped": ("projector-triples", "sharp_eigenvectors", _eigenvectors_swapped),
    "projector-covariance/reflected direction": ("projector-covariance", "sharp_projectors", _reflected),
    "projector-covariance/forward convention": ("projector-covariance", "wigner_d1", _forward_convention),
    "effect-triples/F+ scaled by 1 + 1e-6": ("effect-triples", "sphere_effects", _plus_scaled),
    "effect-triples/P+ and P- swapped": ("effect-triples", "sphere_effects", _plus_minus_swapped),
    "effect-triples/+1 and 0 eigenvectors swapped": ("effect-triples", "sharp_eigenvectors", _eigenvectors_swapped),
    "effect-triples/forward convention": ("effect-triples", "wigner_d1", _forward_convention),
    "effect-triples/moments carried by the inverse rotation": ("effect-triples", "_repole", _inverse_rotation),
    "effect-triples/caps paired with the wrong draws": ("effect-triples", "sphere_effects", _caps_reversed),
    "effect-triples/a2 and a3 swapped": ("effect-triples", "alphas_uniform_cap", _a2_a3_swapped),
    "rotation-composition/forward convention": ("rotation-composition", "wigner_d1", _forward_convention),
    "simulator-consistency/+1 and -1 counts swapped": (
        "simulator-consistency", "simulate_outcomes", _plus_minus_counts_swapped
    ),
    "simulator-consistency/m.s sign flipped in the Born rule": (
        "simulator-consistency", "unsharp_povm._sharp_born", _m_s_sign_flipped
    ),
    "real-embedding/+1 and 0 eigenvectors swapped": ("real-embedding", "sharp_eigenvectors", _eigenvectors_swapped),
}


@pytest.mark.parametrize("check_name, target, mutate", list(MUTANTS.values()), ids=list(MUTANTS))
def test_check_fails_on_broken_library(monkeypatch, check_name, target, mutate):
    # each sampled check still catches a broken version of the library
    # function it guards
    module, _, name = target.rpartition(".")
    owner = {"": verify, "unsharp_povm": unsharp_povm}[module]
    monkeypatch.setattr(owner, name, mutate(getattr(owner, name)))
    ok, detail = dict(verify.ALL_CHECKS)[check_name]()
    assert not ok, detail


def test_real_embedding_fails_on_a_broken_color_rule(monkeypatch):
    # ks_pipeline lifts direction colors through the one color rule; a rule
    # that swaps the 0 and +1 rays' colors gives orthogonal 0-rays two ATs
    color_assignment = ks_solver.color_assignment

    def swapped(alphas, delta, outcome):
        plus, zero, minus = color_assignment(alphas, delta, outcome)
        return zero, plus, minus

    monkeypatch.setattr(ks_solver, "color_assignment", swapped)
    ok, detail = verify.check_real_embedding()
    assert not ok, detail
    assert detail.endswith("on 2/4 direction sets, not xyz, not peres-20")


def test_solver_vs_brute_force_fails_on_a_count_one_too_low(monkeypatch):
    # every sampled sub-instance is colorable, so each count_all count is off
    solve_coloring = ks_solver.solve_coloring

    def low(instance, mode="first_solution"):
        result = solve_coloring(instance, mode=mode)
        return dataclasses.replace(result, count=result.count - 1) if mode == "count_all" and result.is_sat else result

    monkeypatch.setattr(ks_solver, "solve_coloring", low)
    ok, detail = verify.check_solver_against_brute_force()
    assert not ok, detail
    assert detail == "100 mismatches in 100 sampled sub-instances"


def test_solver_vs_brute_force_fails_when_brute_force_ignores_tripods(monkeypatch):
    # without its tripods an instance has more colorings: every sub-instance
    # with a tripod counts differently
    brute_force_colorings = crosscheck.brute_force_colorings

    def pairs_only(instance):
        return brute_force_colorings(dataclasses.replace(instance, tripods=()))

    monkeypatch.setattr(crosscheck, "brute_force_colorings", pairs_only)
    ok, detail = verify.check_solver_against_brute_force()
    assert not ok, detail
    assert detail == "37 mismatches in 100 sampled sub-instances"
