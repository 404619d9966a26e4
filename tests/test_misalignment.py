import numpy as np
import pytest

from conftest import max_abs, per_node
from unsharp_spin import misalignment as mis
from unsharp_spin import spin_core as sc
from unsharp_spin.unsharp_povm import alphas_uniform_cap


def cos2_profile(theta):
    return np.cos(theta / 2.0) ** 2


class TestCapArea:
    def test_full_sphere(self):
        assert abs(mis.cap_area(np.pi) - 4 * np.pi) < 1e-12

    def test_hemisphere(self):
        assert abs(mis.cap_area(np.pi / 2) - 2 * np.pi) < 1e-12

    def test_formula_value(self):
        eps = 0.459
        assert abs(mis.cap_area(eps) - 2 * np.pi * (1 - np.cos(eps))) < 1e-14

    def test_quadrature_cross_check(self):
        # integrate the cap indicator over its own support band
        eps = 0.459
        area = mis.sphere_integral_matrix(
            per_node(lambda m: np.eye(3)),
            per_node(lambda m: 1.0),
            mis.QuadratureSpec(),
            u_range=(np.cos(eps), 1.0),
        )
        assert max_abs(area - mis.cap_area(eps) * np.eye(3)) < 1e-10

    @pytest.mark.parametrize("eps", [0.0, -0.1, np.pi + 0.01])
    def test_domain_errors(self, eps):
        with pytest.raises(ValueError, match="epsilon"):
            mis.cap_area(eps)


class TestGaussLegendreNodes:
    def test_returned_arrays_are_fresh(self):
        # the rule is cached by node count; a caller's write must not leak into it
        want = np.polynomial.legendre.leggauss(16)
        x, w = mis.gauss_legendre_nodes(-1.0, 1.0, 16)
        x[:] = 7.0
        w[:] = 7.0
        x, w = mis.gauss_legendre_nodes(-1.0, 1.0, 16)
        assert np.array_equal(x, want[0]) and np.array_equal(w, want[1])


class TestUniformCap:
    def test_isotropic_density(self):
        model = mis.UniformCap(np.pi)
        m = sc.unit_from_polar(2.1, 0.3)
        assert abs(model.density([0, 0, 1], m) - 1 / (4 * np.pi)) < 1e-14

    def test_outside_cap_is_zero(self):
        model = mis.UniformCap(0.3)
        m = sc.unit_from_polar(0.5, 0.0)
        assert model.density([0, 0, 1], m) == 0.0

    def test_inside_cap_value(self):
        model = mis.UniformCap(0.3)
        expected = 1.0 / (2 * np.pi * (1 - np.cos(0.3)))
        assert abs(model.density([0, 0, 1], [0, 0, 1]) - expected) < 1e-12

    @pytest.mark.parametrize("eps", [0.0, 4.0])
    def test_domain_errors(self, eps):
        with pytest.raises(ValueError, match="epsilon"):
            mis.UniformCap(eps)


class TestAxialDensity:
    def test_normalization(self):
        for eps in (0.1, 0.459, 1.0, np.pi):
            model = mis.AxialDensity(eps, cos2_profile)
            mass = mis.sphere_integral_matrix(
                per_node(lambda m: np.eye(3)),
                per_node(lambda m: model.density([0, 0, 1], m)),
                mis.QuadratureSpec(),
                u_range=model.support_u(),
            )
            assert max_abs(mass - np.eye(3)) < 1e-8

    def test_rejects_negative_profile(self):
        with pytest.raises(ValueError, match="nonnegative"):
            mis.AxialDensity(0.5, lambda t: np.cos(t) - 2.0)

    def test_rejects_zero_mass(self):
        with pytest.raises(ValueError, match="mass"):
            mis.AxialDensity(0.5, lambda t: 0.0 * t)

    def test_density_outside_support(self):
        model = mis.AxialDensity(0.4, cos2_profile)
        assert model.density([0, 0, 1], sc.unit_from_polar(0.8, 0.1)) == 0.0


class TestSphereIntegralMatrix:
    def test_identity_times_area(self):
        out = mis.sphere_integral_matrix(
            per_node(lambda m: np.eye(3)), per_node(lambda m: 1.0), mis.QuadratureSpec()
        )
        assert max_abs(out - 4 * np.pi * np.eye(3)) < 1e-10

    def test_isotropic_projector_average(self):
        from unsharp_spin.spin_core import sharp_projectors

        out = mis.sphere_integral_matrix(
            per_node(lambda m: sharp_projectors(m).f_plus),
            per_node(lambda m: 1.0 / (4 * np.pi)),
            mis.QuadratureSpec(),
        )
        assert max_abs(out - np.eye(3) / 3) < 1e-8

    def test_cap_weighted_projector_is_diagonal_alphas(self):
        from unsharp_spin.spin_core import sharp_projectors

        eps = 0.6
        model = mis.UniformCap(eps)
        out = mis.sphere_integral_matrix(
            per_node(lambda m: sharp_projectors(m).f_plus),
            per_node(lambda m: model.density([0, 0, 1], m)),
            mis.QuadratureSpec(),
            u_range=model.support_u(),
        )
        a = alphas_uniform_cap(eps)
        assert max_abs(out - np.diag([a.a1, a.a2, a.a3])) < 1e-8

    def test_convergence_under_doubling(self):
        from unsharp_spin.spin_core import sharp_projectors

        eps = 0.7
        model = mis.UniformCap(eps)

        def run(spec):
            return mis.sphere_integral_matrix(
                per_node(lambda m: sharp_projectors(m).f_zero),
                per_node(lambda m: model.density([0, 0, 1], m)),
                spec,
                u_range=model.support_u(),
            )

        coarse = run(mis.QuadratureSpec(32, 32))
        fine = run(mis.QuadratureSpec(64, 64))
        assert max_abs(coarse - fine) < 1e-8

    def test_rejects_negative_weight(self):
        def negative_at_one_node(points):
            w = np.ones(len(points))
            w[17] = -1e-300
            return w

        for weight in (per_node(lambda m: -1.0), negative_at_one_node):
            with pytest.raises(ValueError, match="negative"):
                mis.sphere_integral_matrix(per_node(lambda m: np.eye(3)), weight, mis.QuadratureSpec(8, 8))

    def test_deterministic(self):
        spec = mis.QuadratureSpec(16, 16)
        f, w = per_node(lambda m: np.outer(m, m)), per_node(lambda m: 1.0)
        a = mis.sphere_integral_matrix(f, w, spec)
        b = mis.sphere_integral_matrix(f, w, spec)
        assert np.array_equal(a, b)


class TestQuadratureSpec:
    def test_defaults(self):
        spec = mis.QuadratureSpec()
        assert spec.n_theta == 64 and spec.n_phi == 64

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="n_theta"):
            mis.QuadratureSpec(0, 8)
        with pytest.raises(ValueError, match="n_phi"):
            mis.QuadratureSpec(8, 0)


class TestCovarianceWitness:
    def test_uniform_cap(self):
        assert mis.density_covariance_witness(mis.UniformCap(0.3), 1000, seed=3) <= 1e-12

    def test_isotropic_cap_exact_zero(self):
        assert mis.density_covariance_witness(mis.UniformCap(np.pi), 200, seed=4) == 0.0

    def test_axial_profile(self):
        model = mis.AxialDensity(0.9, cos2_profile)
        assert mis.density_covariance_witness(model, 500, seed=5) <= 1e-12
