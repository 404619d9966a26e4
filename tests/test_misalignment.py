import numpy as np
import pytest

from conftest import max_abs
from unsharp_spin import misalignment as mis
from unsharp_spin import spin_core as sc
from unsharp_spin.unsharp_povm import alphas_uniform_cap

Z = np.array([0.0, 0.0, 1.0])


def cos2_profile(theta):
    return np.cos(theta / 2.0) ** 2


def identity(m):
    return np.broadcast_to(np.eye(3), (len(m), 3, 3))


def projector(m, k=0):
    # batched sharp projectors onto eigenvector k (0, 1, 2 for +1, 0, -1) of m.S
    v = sc.eigenvector_rows(m)[k]
    return v[:, :, None] * v[:, None, :].conj()


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
        area = mis.sphere_integral_matrix(identity, lambda m: np.ones(len(m)), u_range=(np.cos(eps), 1.0))
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
        assert abs(model.density(Z @ m) - 1 / (4 * np.pi)) < 1e-14

    def test_outside_cap_is_zero(self):
        model = mis.UniformCap(0.3)
        m = sc.unit_from_polar(0.5, 0.0)
        assert model.density(Z @ m) == 0.0

    def test_inside_cap_value(self):
        model = mis.UniformCap(0.3)
        expected = 1.0 / (2 * np.pi * (1 - np.cos(0.3)))
        assert abs(model.density(Z @ Z) - expected) < 1e-12

    @pytest.mark.parametrize("eps", [0.0, 4.0])
    def test_domain_errors(self, eps):
        with pytest.raises(ValueError, match="epsilon"):
            mis.UniformCap(eps)


@pytest.mark.parametrize("model", [mis.UniformCap(0.4), mis.AxialDensity(0.4, cos2_profile)])
def test_density_at_support_edge(model):
    # the support is closed at u = cos(epsilon) and ends just below it
    edge = np.cos(model.epsilon)
    assert model.density(edge) > 0.0
    assert model.density(edge - 1e-14) == 0.0


class TestAxialDensity:
    def test_rejects_negative_profile(self):
        with pytest.raises(ValueError, match="nonnegative"):
            mis.AxialDensity(0.5, lambda t: np.cos(t) - 2.0)

    def test_rejects_zero_mass(self):
        with pytest.raises(ValueError, match="mass"):
            mis.AxialDensity(0.5, lambda t: 0.0 * t)

    def test_density_outside_support(self):
        model = mis.AxialDensity(0.4, cos2_profile)
        assert model.density(Z @ sc.unit_from_polar(0.8, 0.1)) == 0.0

    def test_polar_rule_splits_only_inside_support(self):
        # breakpoints at or beyond the support's ends leave the one-panel
        # rule bit for bit; each interior one adds a panel
        plain = mis.AxialDensity(0.4, cos2_profile).polar_rule()
        ends = mis.AxialDensity(0.4, cos2_profile, breakpoints=[0.0, 0.4, 0.7]).polar_rule()
        split = mis.AxialDensity(0.4, cos2_profile, breakpoints=[0.0, 0.2, 0.4]).polar_rule()
        assert all(np.array_equal(a, b) for a, b in zip(plain, ends))
        assert len(split[0]) == 2 * mis.AXIAL_NODES
        assert abs(split[1].sum() - (1.0 - np.cos(0.4))) < 1e-15


@pytest.mark.parametrize("nodes", [64, 24], ids=["64x64", "24x24"])
@pytest.mark.parametrize("u_range", [(-1.0, 1.0), mis.UniformCap(0.7).support_u()], ids=["sphere", "cap"])
@pytest.mark.parametrize("axis", [None, Z, -Z, sc.unit_from_polar(1.1, 0.4)], ids=["none", "z", "-z", "generic"])
def test_sphere_grid_is_the_flat_product(nodes, u_range, axis):
    # the product grid equals, bit for bit, the grid built node by node:
    # u repeated and phi tiled, trig on every node, then re-poled; a
    # transposed product runs theta-fastest and fails the node order
    u, wu = mis._polar_rule(*u_range, nodes)
    phi = 2.0 * np.pi * np.arange(nodes) / nodes
    u_all, phi_all = np.repeat(u, nodes), np.tile(phi, nodes)
    st = np.sqrt(np.clip(1.0 - u_all * u_all, 0.0, None))
    want = np.stack([st * np.cos(phi_all), st * np.sin(phi_all), u_all], axis=1)
    points, weights = mis.sphere_grid(nodes, u_range)
    if axis is not None:
        theta_a, phi_a = sc.polar_from_unit(axis)
        want = want @ sc.rotation_from_euler(phi_a, theta_a, 0.0).T
        points = mis._repole(points, axis)
    assert np.array_equal(points, want)
    assert np.array_equal(weights, np.repeat(wu, nodes) * (2.0 * np.pi / nodes))


class TestSphereIntegralMatrix:
    def test_identity_times_area(self):
        out = mis.sphere_integral_matrix(identity, lambda m: np.ones(len(m)))
        assert max_abs(out - 4 * np.pi * np.eye(3)) < 1e-10

    def test_isotropic_projector_average(self):
        out = mis.sphere_integral_matrix(projector, lambda m: np.full(len(m), 0.25 / np.pi))
        assert max_abs(out - np.eye(3) / 3) < 1e-8

    def test_cap_weighted_projector_is_diagonal_alphas(self):
        eps = 0.6
        model = mis.UniformCap(eps)
        out = mis.sphere_integral_matrix(projector, lambda m: model.density(m[:, 2]), u_range=model.support_u())
        a = alphas_uniform_cap(eps)
        assert max_abs(out - np.diag([a.a1, a.a2, a.a3])) < 1e-8

    def test_convergence_under_doubling(self):
        eps = 0.7
        model = mis.UniformCap(eps)

        def run(nodes):
            return mis.sphere_integral_matrix(
                lambda m: projector(m, 1), lambda m: model.density(m[:, 2]), nodes, u_range=model.support_u()
            )

        coarse = run(32)
        fine = run(64)
        assert max_abs(coarse - fine) < 1e-8

    def test_rejects_negative_weight(self):
        def negative_at_one_node(points):
            w = np.ones(len(points))
            w[17] = -1e-300
            return w

        for weight in (lambda m: -np.ones(len(m)), negative_at_one_node):
            with pytest.raises(ValueError, match="negative"):
                mis.sphere_integral_matrix(identity, weight, 8)

    def test_deterministic(self):
        f, w = lambda m: m[:, :, None] * m[:, None, :], lambda m: np.ones(len(m))
        a = mis.sphere_integral_matrix(f, w, 16)
        b = mis.sphere_integral_matrix(f, w, 16)
        assert np.array_equal(a, b)


class TestSphereGrid:
    # the product quadrature has one setting: its node count in theta and in phi
    def test_defaults(self):
        points, weights = mis.sphere_grid()
        assert points.shape == (64 * 64, 3) and weights.shape == (64 * 64,)
        assert abs(weights.sum() - 4.0 * np.pi) < 1e-12

    def test_rejects_nonpositive(self):
        for nodes in (0, -8):
            with pytest.raises(ValueError, match=r"^nodes must be >= 1"):
                mis.sphere_grid(nodes)


def covariance_witness(model, samples, seed):
    # the largest |w_n(R m) - w_{R^-1 n}(m)| over random rotations and
    # direction pairs, the quantity verify's density-covariance bounds
    rng = np.random.default_rng(seed)
    r = sc.random_rotation(rng, samples)
    n, m = sc.random_unit_vector(rng, samples), sc.random_unit_vector(rng, samples)
    lhs = model.density(np.einsum("ki,kij,kj->k", n, r, m))
    rhs = model.density(np.einsum("kji,kj,ki->k", r, n, m))
    return float(np.max(np.abs(lhs - rhs)))


class TestCovarianceWitness:
    def test_uniform_cap(self):
        assert covariance_witness(mis.UniformCap(0.3), 1000, seed=3) <= 1e-12

    def test_isotropic_cap_exact_zero(self):
        assert covariance_witness(mis.UniformCap(np.pi), 200, seed=4) == 0.0

    def test_axial_profile(self):
        model = mis.AxialDensity(0.9, cos2_profile)
        assert covariance_witness(model, 500, seed=5) <= 1e-12
