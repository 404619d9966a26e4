import json

import numpy as np
import pytest

from conftest import max_abs
from unsharp_spin import formats, verify
from unsharp_spin import misalignment as mis
from unsharp_spin import spin_core as sc
from unsharp_spin import unsharp_povm as up

Z = np.array([0.0, 0.0, 1.0])


# Frozen from an independent high-precision quadrature of the four angular
# integrals (cap weight 1/A against cos^4(t/2), sin^2(t)/2, sin^4(t/2),
# cos^2(t) on [0, eps]).
ORACLE_ALPHAS = {
    0.1: (0.99750416250272699, 0.0024937576335589031, 2.0798637141069476e-6, 0.99501248473288219),
    0.4: (0.96104977755709359, 0.038430941887255368, 0.00051928055565104541, 0.92313811622548926),
    0.459: (0.949140755310047, 0.049966488146049984, 0.0008927565439030112, 0.90006702370790003),
    0.5: (0.94004011670796339, 0.058711047529259571, 0.0012488357627770355, 0.88257790494148086),
    0.6: (0.91521011140642083, 0.082247584641997486, 0.0025423039515816829, 0.83550483071600503),
    1.0: (0.78776131709991564, 0.19462851873423858, 0.017610164165845781, 0.61074296253152284),
    2.0: (0.45904923694830204, 0.37382810782982472, 0.16712265522187323, 0.25234378434035055),
}

# Roots of a4(eps) = 1 - delta solved independently via the quadratic in
# cos(eps): c^2 + c + 3*delta - 2 = 0.
ORACLE_THRESHOLD = {0.1: 0.45916246704935668, 1.0 / 3.0: 0.90455689430238136}


class TestAlphas:
    @pytest.mark.parametrize("eps", sorted(ORACLE_ALPHAS))
    def test_closed_form_against_oracle(self, eps):
        got = up.alphas_uniform_cap(eps).as_tuple()
        assert max_abs(np.array(got) - np.array(ORACLE_ALPHAS[eps])) < 1e-13

    @pytest.mark.parametrize("eps", [0.1, 0.459, 1.0, 2.0, np.pi])
    def test_axial_quadrature_matches_closed_form(self, eps):
        got = np.array(up.alphas_axial(mis.UniformCap(eps)).as_tuple())
        want = np.array(up.alphas_uniform_cap(eps).as_tuple())
        assert max_abs(got - want) < 1e-10

    def test_isotropic_limit(self):
        np.testing.assert_allclose(
            up.alphas_uniform_cap(np.pi).as_tuple(), [1 / 3] * 4, atol=1e-12
        )

    def test_sharp_limit(self):
        a = up.alphas_uniform_cap(1e-8)
        np.testing.assert_allclose(a.as_tuple(), [1, 0, 0, 1], atol=1e-14)

    def test_sum_identities_for_axial_model(self):
        model = mis.AxialDensity(0.8, lambda t: np.exp(-3.0 * t))
        a = up.alphas_axial(model)
        assert abs(a.a1 + a.a2 + a.a3 - 1.0) < 1e-12
        assert abs(2 * a.a2 + a.a4 - 1.0) < 1e-12

    def test_kinked_table_matches_panel_reference(self, tmp_path):
        # np.interp has kinks at the table's thetas; the axial rule splits
        # there, so a1..a4 match a reference that integrates each panel
        # on its own, in theta, with its own Gauss-Legendre rule
        table = [[0.0, 1.0], [0.2, 0.5], [0.4, 1.0]]
        path = tmp_path / "kinked.json"
        path.write_text(json.dumps({"epsilon": 0.4, "profile": table}))
        got = np.array(up.alphas_axial(formats.load_profile_file(path)).as_tuple())
        x, w = np.polynomial.legendre.leggauss(40)
        sums = np.zeros(5)
        for (t0, p0), (t1, p1) in zip(table, table[1:]):
            theta = 0.5 * (t1 - t0) * x + 0.5 * (t0 + t1)
            weight = 0.5 * (t1 - t0) * w * np.interp(theta, [t0, t1], [p0, p1]) * np.sin(theta)
            c = np.cos(theta)
            sums += [weight.sum(), weight @ ((1 + c) / 2) ** 2, weight @ ((1 - c * c) / 2),
                     weight @ ((1 - c) / 2) ** 2, weight @ (c * c)]
        assert max_abs(got - sums[1:] / sums[0]) < 1e-12

    @pytest.mark.parametrize("eps", [0.0, -1.0, 3.5])
    def test_domain_errors(self, eps):
        with pytest.raises(ValueError, match="epsilon"):
            up.alphas_uniform_cap(eps)

    def test_invalid_alphas_rejected(self):
        with pytest.raises(ValueError, match="a1"):
            up.Alphas(1.4, -0.2, -0.2, 1.4)
        with pytest.raises(ValueError, match="must equal 1"):
            up.Alphas(0.5, 0.3, 0.2, 0.9)


class TestEffects:
    def test_z_direction_is_diagonal_with_alphas(self):
        eps = 0.459
        triple = up.effects(Z, mis.UniformCap(eps))
        a = up.alphas_uniform_cap(eps)
        assert max_abs(triple.f_plus - np.diag([a.a1, a.a2, a.a3])) < 1e-8
        assert max_abs(triple.f_zero - np.diag([a.a2, a.a4, a.a2])) < 1e-8
        assert max_abs(triple.f_minus - np.diag([a.a3, a.a2, a.a1])) < 1e-8

    def test_isotropic_limit(self):
        triple = up.effects(Z, mis.UniformCap(np.pi))
        for i in (1, 0, -1):
            assert max_abs(triple.effect(i) - np.eye(3) / 3) < 1e-8

    def test_sharp_limit(self):
        triple = up.effects(Z, mis.UniformCap(1e-3))
        proj = sc.sharp_projectors(Z)
        for i in (1, 0, -1):
            assert float(np.linalg.norm(triple.effect(i) - proj.effect(i))) < 1e-5

    def test_matches_generic_integrator(self):
        # the oracle agrees with a plain sum of projectors over the same grid
        # re-poled around n and with the closed form, and its symmetrization
        # makes each effect Hermitian bit for bit; the poles and a direction
        # within rounding of one exercise the rotation to n.  Row k of the
        # call on the stack of the four directions is the call on the k-th
        # bit for bit
        directions = (sc.unit_from_polar(1.1, 0.4), Z, -Z, np.array([2e-16, 2.3e-16, 1.0]))
        for model in (mis.UniformCap(0.8), mis.AxialDensity(0.9, lambda t: np.cos(t / 2) ** 2)):
            stacked = verify.sphere_effects(np.array(directions), model, 32)
            for k, n in enumerate(directions):
                triple = verify.sphere_effects(n, model, 32)
                assert np.array_equal(stacked.direction[k], triple.direction)
                assert all(np.array_equal(s[k], f) for s, f in zip(stacked.as_tuple(), triple.as_tuple()))
                closed = up.effects(n, model)
                points, weights = mis.sphere_grid(32, model.support_u())
                points = mis._repole(points, n)
                dw = weights * model.density(points @ n)
                oracle = [np.tensordot(dw, v[:, :, None] * v[:, None, :].conj(), axes=1)
                          for v in sc.eigenvector_rows(points)]
                for j, i in enumerate((1, 0, -1)):
                    assert max_abs(triple.effect(i) - oracle[j]) < 1e-10
                    assert max_abs(triple.effect(i) - closed.effect(i)) < 1e-10
                    assert np.array_equal(triple.effect(i), triple.effect(i).conj().T)

    def test_missed_normalization_shows_in_oracle_residual(self):
        # a profile with a kink inside its support converges only
        # algebraically, so an 8-node rule misses the density's mass, and
        # the oracle's sum-to-identity residual must show it
        model = mis.AxialDensity(0.6, lambda t: np.abs(t - 0.3))
        assert verify.sphere_effects(Z, model, 8).residuals()[0] > 1e-10

    @pytest.mark.parametrize("eps", [0.6, 2.0, 3.0, np.pi])
    @pytest.mark.parametrize(
        "profile", [lambda t: t, lambda t: np.cos(t / 2) ** 2 + 0.3 * t], ids=["theta", "cap+0.3theta"]
    )
    def test_profile_linear_in_angle(self, profile, eps):
        # linear in theta is a square-root kink in cos(theta) at the axis,
        # but analytic in the theta both rules take their nodes in
        model = mis.AxialDensity(eps, profile)
        n = sc.unit_from_polar(0.9, 2.0)
        triple = up.effects(n, model)
        oracle = verify.sphere_effects(n, model)
        for i in (1, 0, -1):
            assert max_abs(triple.effect(i) - oracle.effect(i)) < 1e-10

    @pytest.mark.parametrize(
        "build", [sc.sharp_projectors, lambda n: up.effects(n, mis.UniformCap(0.4))], ids=["sharp", "unsharp"]
    )
    def test_triples_are_read_only(self, build):
        triple = build(Z)
        for arr in (triple.f_plus, triple.direction):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.5


class TestDegenerateSpectrum:
    def test_zero_effect_has_degenerate_eigenvalue(self):
        # F(0) carries a doubly degenerate eigenvalue; any orthonormal
        # eigenbasis is acceptable from the generic eigensolver, but the
        # sharp eigenrays always diagonalize it
        eps = 0.7
        triple = up.effects(Z, mis.UniformCap(eps))
        w, v = np.linalg.eigh(triple.f_zero)
        a = up.alphas_uniform_cap(eps)
        np.testing.assert_allclose(np.sort(w), np.sort([a.a2, a.a4, a.a2]), atol=1e-10)
        assert max_abs(v.conj().T @ v - np.eye(3)) < 1e-10
        rebuilt = (v * w) @ v.conj().T
        assert max_abs(rebuilt - triple.f_zero) < 1e-10


class TestEffectsFromAlphas:
    def test_z_gives_exact_diagonals(self):
        a = up.alphas_uniform_cap(0.7)
        triple = up.effects_from_alphas(Z, a)
        assert max_abs(triple.f_plus - np.diag([a.a1, a.a2, a.a3])) < 1e-14
        assert max_abs(triple.f_zero - np.diag([a.a2, a.a4, a.a2])) < 1e-14
        assert max_abs(triple.f_minus - np.diag([a.a3, a.a2, a.a1])) < 1e-14

    def test_agrees_with_quadrature(self, rng):
        for _ in range(10):
            n = sc.random_unit_vector(rng)
            eps = 0.1 + rng.random() * 2.5
            got = up.effects(n, mis.UniformCap(eps))
            want = verify.sphere_effects(n, mis.UniformCap(eps))
            for i in (1, 0, -1):
                assert float(np.linalg.norm(got.effect(i) - want.effect(i))) < 1e-8

    def test_sharp_alphas_give_projectors(self):
        n = sc.unit_from_polar(0.8, 0.3)
        triple = up.effects_from_alphas(n, up.Alphas(1.0, 0.0, 0.0, 1.0))
        proj = sc.sharp_projectors(n)
        for i in (1, 0, -1):
            assert max_abs(triple.effect(i) - proj.effect(i)) < 1e-12


class TestCondition2:
    def test_holds_at_0_4(self):
        ok, margins = up.condition2_check(up.alphas_uniform_cap(0.4), 0.1)
        assert ok
        assert all(m >= 0 for m in margins.values())

    def test_fails_at_0_5(self):
        ok, margins = up.condition2_check(up.alphas_uniform_cap(0.5), 0.1)
        assert not ok
        assert margins["a4"] < 0  # the binding constraint
        assert margins["a1"] > 0 and margins["a2"] > 0 and margins["a3"] > 0

    def test_sharp_alphas_always_pass(self):
        ok, _ = up.condition2_check(up.Alphas(1.0, 0.0, 0.0, 1.0), 0.0)
        assert ok

    def test_margin_values(self):
        a = up.alphas_uniform_cap(0.4)
        _, margins = up.condition2_check(a, 0.1)
        assert abs(margins["a1"] - (a.a1 - 0.9)) < 1e-15
        assert abs(margins["a2"] - (0.1 - a.a2)) < 1e-15

    def test_delta_domain(self):
        with pytest.raises(ValueError, match="delta"):
            up.condition2_check(up.alphas_uniform_cap(0.4), 0.5)


class TestThreshold:
    def test_reference_tolerance(self):
        eps = up.threshold_epsilon(0.1)
        assert abs(eps - ORACLE_THRESHOLD[0.1]) < 1e-12
        assert abs(eps - 0.459) < 5e-4
        assert abs(np.degrees(eps) - 26.3) < 0.05

    def test_one_third(self):
        eps = up.threshold_epsilon(1.0 / 3.0)
        assert abs(eps - ORACLE_THRESHOLD[1.0 / 3.0]) < 1e-12

    def test_small_delta_gives_small_epsilon(self):
        assert up.threshold_epsilon(1e-6) < 5e-3

    @pytest.mark.parametrize("delta", [1e-14, 1e-20, 5e-324])
    def test_tiny_delta_follows_sqrt_two_delta(self, delta):
        # 1 - a4 = 2*a2 ~ eps^2/2 near the sharp limit, so eps* ~ sqrt(2 delta)
        eps = up.threshold_epsilon(delta)
        assert abs(eps / np.sqrt(2.0 * delta) - 1.0) < 1e-6
        assert up.condition2_check(up.alphas_uniform_cap(eps), delta)[0]

    def test_closed_form_root_across_delta(self):
        # x = 1 - cos(eps*) is the small root of x^2 - 3x + 3 delta = 0 (the
        # quadratic in cos(eps) above); the search may not step below it
        for delta in np.geomspace(1e-20, 0.1, 400):
            x = 6.0 * delta / (3.0 + np.sqrt(9.0 - 12.0 * delta))
            root = 2.0 * np.arcsin(np.sqrt(x / 2.0))
            assert abs(up.threshold_epsilon(delta) / root - 1.0) < 1e-12, delta

    def test_condition_holds_at_threshold_and_fails_above(self):
        for delta in (0.05, 0.1, 0.3, 0.45):
            eps = up.threshold_epsilon(delta)
            ok, _ = up.condition2_check(up.alphas_uniform_cap(eps), delta)
            assert ok
            ok_above, _ = up.condition2_check(up.alphas_uniform_cap(eps + 1e-3), delta)
            assert not ok_above

    def test_rejects_zero_delta(self):
        with pytest.raises(ValueError, match="delta"):
            up.threshold_epsilon(0.0)


class TestProbabilities:
    def test_middle_state_at_z(self):
        a = up.alphas_uniform_cap(0.4)
        triple = up.effects(Z, mis.UniformCap(0.4))
        p = up.outcome_probabilities(np.array([0, 1, 0], dtype=complex), triple)
        np.testing.assert_allclose(p, (a.a2, a.a4, a.a2), atol=1e-10)

    def test_top_state_at_z(self):
        a = up.alphas_uniform_cap(0.4)
        triple = up.effects(Z, mis.UniformCap(0.4))
        p = up.outcome_probabilities(np.array([1, 0, 0], dtype=complex), triple)
        np.testing.assert_allclose(p, (a.a1, a.a2, a.a3), atol=1e-10)

    def test_sharp_limit(self):
        triple = up.effects_from_alphas(Z, up.Alphas(1.0, 0.0, 0.0, 1.0))
        p = up.outcome_probabilities(np.array([1, 0, 0], dtype=complex), triple)
        np.testing.assert_allclose(p, (1, 0, 0), atol=1e-14)

    def test_sum_to_one_random_states(self, rng):
        triple = up.effects(sc.unit_from_polar(1.2, 0.5), mis.UniformCap(0.8))
        for _ in range(20):
            v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            v = v / np.linalg.norm(v)
            p = up.outcome_probabilities(v, triple)
            assert abs(sum(p) - 1.0) < 1e-12
            assert all(0.0 <= x <= 1.0 for x in p)

    def test_rejects_unnormalized(self):
        triple = up.effects(Z, mis.UniformCap(0.4))
        with pytest.raises(ValueError, match=r"^state must be a unit vector"):
            up.outcome_probabilities(np.array([1.0, 1.0, 0.0]), triple)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)], ids=["nan", "inf", "nan-imag"])
    def test_rejects_non_finite_state(self, bad):
        psi = np.array([bad, 1.0, 0.0])
        with pytest.raises(ValueError, match="^state has non-finite components$"):
            up.outcome_probabilities(psi, up.effects(Z, mis.UniformCap(0.4)))
        with pytest.raises(ValueError, match="^state has non-finite components$"):
            up.simulate_outcomes(psi, Z, mis.UniformCap(0.4), 10, seed=0)


class TestSimulation:
    def test_deterministic_for_fixed_seed(self):
        psi = np.array([0, 1, 0], dtype=complex)
        a = up.simulate_outcomes(psi, Z, mis.UniformCap(0.4), 2000, seed=11)
        b = up.simulate_outcomes(psi, Z, mis.UniformCap(0.4), 2000, seed=11)
        assert a == b

    def test_counts_sum_to_trials(self):
        psi = np.array([1, 0, 0], dtype=complex)
        counts = up.simulate_outcomes(psi, Z, mis.UniformCap(1.0), 5000, seed=1)
        assert sum(counts) == 5000

    def test_sharp_limit_all_plus(self):
        psi = np.array([1, 0, 0], dtype=complex)
        counts = up.simulate_outcomes(psi, Z, mis.UniformCap(1e-6), 1000, seed=2)
        assert counts == (1000, 0, 0)

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError, match="trials"):
            up.simulate_outcomes(np.array([1, 0, 0], dtype=complex), Z, mis.UniformCap(0.4), 0, seed=0)

    def test_axial_model_sampling(self):
        model = mis.AxialDensity(0.7, lambda t: np.cos(t / 2) ** 2)
        psi = np.array([0, 1, 0], dtype=complex)
        trials = 50_000
        counts = up.simulate_outcomes(psi, Z, model, trials, seed=21)
        p = up.outcome_probabilities(psi, up.effects(Z, model))
        for c, prob in zip(counts, p):
            sigma = np.sqrt(prob * (1 - prob) / trials)
            assert abs(c / trials - prob) < 5 * sigma


@pytest.fixture
def kinked(tmp_path):
    # the kinked table of the CI simulate case
    path = tmp_path / "kinked.json"
    path.write_text(json.dumps({"epsilon": 0.4, "profile": [[0, 1], [0.2, 0.5], [0.4, 1]]}))
    return formats.load_profile_file(path)


def eigenvector_born(v, n, u, phi):
    """Oracle for ``up._sharp_born``: |<psi_{m,i}|v>|^2 from the closed-form
    eigenvectors of each sampled direction m, re-poled about ``n``."""
    st = np.sqrt(np.clip(1.0 - u * u, 0.0, None))
    points = mis._repole(np.stack([st * np.cos(phi), st * np.sin(phi), u], axis=1), n)
    plus, zero, _ = sc.eigenvector_rows(points)
    return np.abs(plus.conj() @ v) ** 2, np.abs(zero.conj() @ v) ** 2


class TestSimulationMoments:
    def test_moments_match_the_eigenvector_oracle(self, rng, kinked):
        models = [kinked, mis.UniformCap(np.pi)]
        models += [mis.UniformCap(eps) for eps in 0.01 + 3.0 * rng.random(4)]
        directions = [Z, -Z, *sc.random_unit_vector(rng, 4)]
        worst = 0.0
        for model in models:
            for n in directions:
                v = rng.normal(size=3) + 1j * rng.normal(size=3)
                v /= np.linalg.norm(v)
                u, phi = model.sample_polar(rng, 2000)
                got, want = up._sharp_born(v, n, u, phi), eigenvector_born(v, n, u, phi)
                worst = max(worst, max_abs(np.subtract(got, want)))
        assert worst <= 1e-14

    def test_ci_kinked_table_counts(self, kinked):
        # the CLI case the CI workflow diffs across processes
        psi = np.array([0.5 + 0.5j, 0.0, 0.70710678])
        psi /= float(np.linalg.norm(psi))
        n = sc.unit_from_polar(0.7, 1.3)
        counts = up.simulate_outcomes(psi, n, kinked, 20_000, seed=3)
        assert counts == (6082, 8055, 5863)

    def test_readme_example_counts(self):
        psi = np.array([0, 1, 0], dtype=complex)
        assert up.simulate_outcomes(psi, Z, mis.UniformCap(0.4), 10**6, seed=7) == (38356, 923078, 38566)


class TestColorAssignment:
    # colors of the (+1, 0, -1) eigenrays, in that order
    def test_outcome_zero_at_z(self):
        a = up.alphas_uniform_cap(0.4)
        assert up.color_assignment(a, 0.1, outcome=0) == (up.AF, up.AT, up.AF)

    def test_outcome_plus_at_z(self):
        a = up.alphas_uniform_cap(0.4)
        assert up.color_assignment(a, 0.1, outcome=1) == (up.AT, up.AF, up.AF)

    def test_condition_failure_gives_u(self):
        # at eps = 0.6 the middle eigenvalue sits between delta and 1-delta
        a = up.alphas_uniform_cap(0.6)
        assert up.color_assignment(a, 0.1, outcome=0) == (up.AF, up.U, up.AF)

    def test_rejects_bad_outcome(self):
        with pytest.raises(ValueError, match="outcome"):
            up.color_assignment(up.alphas_uniform_cap(0.4), 0.1, outcome=2)
