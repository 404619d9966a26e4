"""Acceptance suite.

One test per acceptance criterion, each asserting its stated tolerance
and runtime bound and printing a single PASS/FAIL line (run pytest with
-s to see them on the terminal).
"""

import functools
import time
from contextlib import contextmanager

import numpy as np
import pytest

from unsharp_spin import cli, formats, verify
from unsharp_spin import ks_solver as ks
from unsharp_spin import misalignment as mis
from unsharp_spin import spin_core as sc
from unsharp_spin import unsharp_povm as up

Z = np.array([0.0, 0.0, 1.0])


@contextmanager
def criterion(number: int, description: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number}: PASS - {description} ({elapsed:.2f}s)")


def fnorm(a):
    return float(np.linalg.norm(a))


def test_criterion_01_threshold_reproduction(capsys):
    with criterion(1, "threshold at delta=0.1 is 0.459 rad / 26.3 deg"):
        start = time.perf_counter()
        eps = up.threshold_epsilon(0.1)
        elapsed = time.perf_counter() - start
        assert abs(eps - 0.459) <= 5e-4
        assert abs(np.degrees(eps) - 26.3) <= 0.05
        assert elapsed < 1.0
        # same numbers through the CLI
        code = cli.main(["threshold", "--delta", "0.1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "0.459 rad" in out and "26.3 deg" in out


def test_criterion_02_closed_form_vs_quadrature():
    with criterion(2, "closed forms match 1-D and 2-D quadrature"):
        start = time.perf_counter()
        for eps in (0.1, 0.459, 1.0, 2.0, np.pi):
            closed = np.array(up.alphas_uniform_cap(eps).as_tuple())
            axial = np.array(up.alphas_axial(mis.UniformCap(eps)).as_tuple())
            assert float(np.max(np.abs(closed - axial))) <= 1e-10
            for n in (Z, sc.unit_from_polar(1.1, 0.7)):
                full = verify.sphere_effects(n, mis.UniformCap(eps))
                closed = up.effects(n, mis.UniformCap(eps))
                for i in (1, 0, -1):
                    assert float(np.max(np.abs(full.effect(i) - closed.effect(i)))) <= 1e-8
        assert time.perf_counter() - start < 10.0


@functools.cache
def effect_triples():
    # criteria 3-5 are one sweep over the same 200 triples; run it once
    start = time.perf_counter()
    ok, detail = verify.check_effect_triples()
    return ok, detail, time.perf_counter() - start


def test_criterion_03_povm_invariants():
    with criterion(3, "resolution of identity, positivity, eigenvalue sums (200 triples)"):
        ok, detail, elapsed = effect_triples()
        assert ok, detail
        assert elapsed < 30.0


def test_criterion_04_effect_covariance():
    with criterion(4, "rotation covariance of the effects (100 pairs)"):
        ok, detail, elapsed = effect_triples()
        assert ok, detail
        assert elapsed < 60.0


def test_criterion_05_shared_eigenbasis():
    with criterion(5, "sharp basis diagonalizes the effects; effects commute (200 triples)"):
        ok, detail, _ = effect_triples()
        assert ok, detail


def test_criterion_06_sharp_limit():
    with criterion(6, "effects converge monotonically to the sharp projectors"):
        proj = sc.sharp_projectors(Z)
        distances = []
        for eps in (0.5, 0.25, 0.1, 0.01):
            triple = up.effects(Z, mis.UniformCap(eps))
            distances.append(
                max(fnorm(triple.effect(i) - proj.effect(i)) for i in (1, 0, -1))
            )
        assert all(a > b for a, b in zip(distances, distances[1:]))
        assert distances[-1] <= 1e-3


def test_criterion_07_isotropic_limit():
    with criterion(7, "isotropic misalignment gives maximally unsharp effects"):
        triple = up.effects(Z, mis.UniformCap(np.pi))
        for i in (1, 0, -1):
            assert float(np.max(np.abs(triple.effect(i) - np.eye(3) / 3))) <= 1e-10
        alphas = up.alphas_uniform_cap(np.pi)
        assert float(np.max(np.abs(np.array(alphas.as_tuple()) - 1 / 3))) <= 1e-10


def test_criterion_08_peres33_noncolorability():
    with criterion(8, "bundled 33-ray set is UNSAT; brute force agrees on sub-instances"):
        start = time.perf_counter()
        _, dirs = formats.load_direction_file(formats.fixture_path("peres33_directions.json"))
        instance = ks.build_graph(dirs)
        result = ks.solve_coloring(instance, mode="first_solution")
        assert result.verdict == "UNSAT"
        ok, detail = verify.check_solver_against_brute_force()
        assert ok, detail
        assert time.perf_counter() - start < 60.0


def test_criterion_09_pipeline_conclusions():
    with criterion(9, "pipeline verdicts: contradiction / condition failure / colorable"):
        _, dirs = formats.load_direction_file(formats.fixture_path("peres33_directions.json"))
        xyz = [np.array([1.0, 0, 0]), np.array([0, 1.0, 0]), np.array([0, 0, 1.0])]
        cases = [
            (dirs, 0.4, ks.KS_CONTRADICTION),
            (dirs, 0.6, ks.CONDITION2_FAILED),
            (xyz, 0.4, ks.COLORABLE),
        ]
        for directions, eps, expected in cases:
            start = time.perf_counter()
            report = ks.ks_pipeline(directions, mis.UniformCap(eps), 0.1)
            assert report.conclusion == expected
            assert time.perf_counter() - start < 120.0


def test_criterion_10_probability_simulation_consistency():
    with criterion(10, "analytic probabilities vs 1e6-trial simulation"):
        psi = np.array([0, 1, 0], dtype=complex)
        model = mis.UniformCap(0.4)
        alphas = up.alphas_uniform_cap(0.4)
        probs = up.outcome_probabilities(psi, up.effects(Z, model))
        np.testing.assert_allclose(
            probs, (alphas.a2, alphas.a4, alphas.a2), atol=1e-10
        )
        trials = 10**6
        counts = up.simulate_outcomes(psi, Z, model, trials, seed=1010)
        for c, p in zip(counts, probs):
            sigma = np.sqrt(p * (1 - p) / trials)
            assert abs(c / trials - p) <= 4 * sigma
        again = up.simulate_outcomes(psi, Z, model, trials, seed=1010)
        assert counts == again


def test_criterion_11_coloring_worked_example():
    with criterion(11, "threshold coloring of the z eigenrays"):
        # the (+1, 0, -1) eigenrays of z are the basis vectors, in that order
        plus, zero, minus = sc.sharp_eigenvectors(Z)
        assert np.array_equal(np.array([plus, zero, minus]), np.eye(3))
        alphas = up.alphas_uniform_cap(0.4)
        assert up.color_assignment(alphas, 0.1, outcome=0) == (up.AF, up.AT, up.AF)
        assert up.color_assignment(up.alphas_uniform_cap(0.6), 0.1, outcome=0)[1] == up.U


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
