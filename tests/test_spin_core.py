import numpy as np
import pytest

from conftest import max_abs
from unsharp_spin import spin_core as sc


def unitary(r):
    # the spin-1 representation U(R), the conjugate transpose of D(R)
    return sc.wigner_d1(r).conj().T


class TestSpinMatrices:
    def test_sz_is_diagonal_1_0_minus1(self):
        _, _, sz = sc.spin_matrices()
        assert max_abs(sz - np.diag([1.0, 0.0, -1.0])) == 0.0

    def test_commutation_relations(self):
        sx, sy, sz = sc.spin_matrices()
        assert max_abs(sx @ sy - sy @ sx - 1j * sz) < 1e-12
        assert max_abs(sy @ sz - sz @ sy - 1j * sx) < 1e-12
        assert max_abs(sz @ sx - sx @ sz - 1j * sy) < 1e-12

    def test_each_component_has_eigenvalues_1_0_minus1(self):
        for s in sc.spin_matrices():
            np.testing.assert_allclose(np.linalg.eigvalsh(s), [-1, 0, 1], atol=1e-12)

    def test_hermitian(self):
        for s in sc.spin_matrices():
            assert max_abs(s - s.conj().T) < 1e-15


class TestSpinAlong:
    def test_z_gives_sz(self):
        _, _, sz = sc.spin_matrices()
        assert max_abs(sc.spin_along([0, 0, 1]) - sz) == 0.0

    def test_x_gives_sx(self):
        sx, _, _ = sc.spin_matrices()
        assert max_abs(sc.spin_along([1, 0, 0]) - sx) == 0.0

    def test_tilted_direction_eigenvalues(self):
        n = np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0)
        w = np.linalg.eigvalsh(sc.spin_along(n))
        np.testing.assert_allclose(w, [-1, 0, 1], atol=1e-10)

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError, match="unit"):
            sc.spin_along([1.0, 1.0, 0.0])


class TestSharpProjectors:
    def test_z_plus_projector(self):
        triple = sc.sharp_projectors([0, 0, 1])
        assert max_abs(triple.f_plus - np.diag([1.0, 0.0, 0.0])) < 1e-15

    def test_explicit_matrix_for_tilted_direction(self):
        # rank-1 form in polar angles; the (0,0) entry is cos^4(theta/2)
        theta, phi = 0.7, 1.3
        m = sc.unit_from_polar(theta, phi)
        p1 = sc.sharp_projectors(m).f_plus
        c2, s2, st, ct = (
            np.cos(theta / 2),
            np.sin(theta / 2),
            np.sin(theta),
            np.cos(theta),
        )
        expected = np.array(
            [
                [
                    c2**4,
                    np.exp(-1j * phi) * (1 + ct) * st / (2 * np.sqrt(2)),
                    np.exp(-2j * phi) * st**2 / 4,
                ],
                [
                    np.exp(1j * phi) * (1 + ct) * st / (2 * np.sqrt(2)),
                    st**2 / 2,
                    np.sqrt(2) * np.exp(-1j * phi) * c2 * s2**3,
                ],
                [
                    np.exp(2j * phi) * st**2 / 4,
                    np.sqrt(2) * np.exp(1j * phi) * c2 * s2**3,
                    s2**4,
                ],
            ]
        )
        assert max_abs(p1 - expected) < 1e-12

    def test_first_entry_is_cos4_half_theta(self):
        for theta in (0.2, 1.1, 2.9):
            m = sc.unit_from_polar(theta, 0.8)
            p1 = sc.sharp_projectors(m).f_plus
            assert abs(p1[0, 0].real - np.cos(theta / 2) ** 4) < 1e-13

    def test_x_direction_eigenrays(self):
        vp, v0, vm = sc.sharp_eigenvectors([1, 0, 0])
        expect_plus = np.array([1, np.sqrt(2), 1]) / 2
        expect_zero = np.array([-1, 0, 1]) / np.sqrt(2)
        expect_minus = np.array([1, -np.sqrt(2), 1]) / 2
        assert abs(abs(np.vdot(vp, expect_plus)) - 1) < 1e-12
        assert abs(abs(np.vdot(v0, expect_zero)) - 1) < 1e-12
        assert abs(abs(np.vdot(vm, expect_minus)) - 1) < 1e-12

    def test_matches_numerical_eigendecomposition(self, rng):
        # oracle: eigh of the spin observable, projector onto each eigenspace;
        # the poles and a direction with x^2 + y^2 ~ 1e-31 take the phi = 0
        # branch of the closed form
        near_pole = [2e-16, 2.3e-16, 1.0]
        fixed = [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], near_pole]
        for n in fixed + [sc.random_unit_vector(rng) for _ in range(25)]:
            s = sc.spin_along(n)
            w, v = np.linalg.eigh(s)
            triple = sc.sharp_projectors(n)
            for eigval, proj in ((1, triple.f_plus), (0, triple.f_zero), (-1, triple.f_minus)):
                k = int(np.argmin(np.abs(w - eigval)))
                oracle = np.outer(v[:, k], v[:, k].conj())
                assert max_abs(proj - oracle) < 1e-10

    def test_triple_invariants(self, rng):
        for _ in range(50):
            triple = sc.sharp_projectors(sc.random_unit_vector(rng))
            ps = triple.as_tuple()
            for i in range(3):
                assert max_abs(ps[i] @ ps[i] - ps[i]) < 1e-12
                for j in range(i + 1, 3):
                    assert max_abs(ps[i] @ ps[j]) < 1e-12

    def test_near_unit_direction_gives_orthonormal_triple(self, rng):
        # |n|^2 - 1 = 0.99e-12 passes as_unit_vector; each row is normalized
        # before the closed form, so the triple is orthonormal to rounding
        for _ in range(20):
            n = sc.random_unit_vector(rng) * np.sqrt(1.0 + 0.99e-12)
            v = np.column_stack(sc.sharp_eigenvectors(n))
            assert max_abs(v.conj().T @ v - np.eye(3)) < 1e-15

    def test_projectors_are_quadratic_in_spin_along(self, rng):
        # eigenvalues {1, 0, -1} make each projector a polynomial in n.S:
        # the outer products of the closed-form eigenvectors equal it
        for _ in range(50):
            n = sc.random_unit_vector(rng)
            s_n = sc.spin_along(n)
            square = s_n @ s_n
            plus, zero, minus = (np.outer(v, v.conj()) for v in sc.sharp_eigenvectors(n))
            assert max_abs(plus - (square + s_n) / 2) < 1e-12
            assert max_abs(zero - (np.eye(3) - square)) < 1e-12
            assert max_abs(minus - (square - s_n) / 2) < 1e-12


class TestRotations:
    def test_identity(self):
        assert max_abs(sc.rotation_from_euler(0, 0, 0) - np.eye(3)) == 0.0

    def test_pi_about_y_flips_z(self):
        r = sc.rotation_from_euler(0.0, np.pi, 0.0)
        np.testing.assert_allclose(r @ [0, 0, 1], [0, 0, -1], atol=1e-15)

    def test_orthogonality(self):
        r = sc.rotation_from_euler(0.3, 0.7, 1.1)
        assert max_abs(r.T @ r - np.eye(3)) < 1e-12
        assert abs(np.linalg.det(r) - 1.0) < 1e-12

    def test_angle_arrays_give_the_stack_of_rotations(self, rng):
        # one builder: each matrix of the stack is bit for bit the rotation
        # of its angles alone
        angles = 2.0 * np.pi * rng.random((3, 20))
        stack = sc.rotation_from_euler(*angles)
        assert stack.shape == (20, 3, 3)
        assert all(np.array_equal(stack[k], sc.rotation_from_euler(*angles[:, k])) for k in range(20))

    def test_random_draws_in_blocks(self, rng):
        r, n = sc.random_rotation(rng, 50), sc.random_unit_vector(rng, 50)
        assert r.shape == (50, 3, 3) and n.shape == (50, 3)
        assert max_abs(r.swapaxes(1, 2) @ r - np.eye(3)) < 1e-12
        assert max_abs(np.linalg.det(r) - 1.0) < 1e-12
        assert max_abs(np.linalg.norm(n, axis=1) - 1.0) < 1e-15

    def test_block_redraws_short_rows(self):
        class Rng:
            draws = iter([np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 4.0]]), np.array([[0.0, 2.0, 0.0]])])

            def standard_normal(self, shape):
                return next(self.draws)

        assert np.array_equal(sc.random_unit_vector(Rng(), 2), [[0.0, 1.0, 0.0], [0.6, 0.0, 0.8]])

    def test_rejects_non_rotation(self):
        with pytest.raises(ValueError, match="orthogonal"):
            sc.wigner_d1(np.diag([1.0, 2.0, 1.0]))
        with pytest.raises(ValueError, match="determinant"):
            sc.wigner_d1(np.diag([1.0, 1.0, -1.0]))


class TestWignerD1:
    def test_identity_rotation(self):
        assert max_abs(sc.wigner_d1(np.eye(3)) - np.eye(3)) < 1e-15

    def test_unitary(self, rng):
        for _ in range(50):
            d = sc.wigner_d1(sc.random_rotation(rng))
            assert max_abs(d.conj().T @ d - np.eye(3)) < 1e-12

    def test_pi_about_y_maps_plus_to_minus(self):
        d = sc.wigner_d1(sc.rotation_y(np.pi))
        out = d @ np.diag([1.0, 0, 0]).astype(complex) @ d.conj().T
        assert max_abs(out - np.diag([0.0, 0, 1.0])) < 1e-12

    def test_composition_is_reversed(self, rng):
        # conjugating by D(R) pulls directions back along R, so D composes
        # contravariantly: D(R1 R2) = D(R2) D(R1)
        for _ in range(100):
            r1, r2 = sc.random_rotation(rng), sc.random_rotation(rng)
            lhs = sc.wigner_d1(r1 @ r2)
            rhs = sc.wigner_d1(r2) @ sc.wigner_d1(r1)
            assert float(np.linalg.norm(lhs - rhs)) < 1e-10

    def test_representation_homomorphism(self, rng):
        # U(R) = D(R)^dag is the representation: U(R1 R2) = U(R1) U(R2)
        for _ in range(100):
            r1, r2 = sc.random_rotation(rng), sc.random_rotation(rng)
            lhs = unitary(r1 @ r2)
            rhs = unitary(r1) @ unitary(r2)
            assert float(np.linalg.norm(lhs - rhs)) < 1e-10

    def test_against_expm_oracle(self, rng):
        # oracle: exponentiate the generators by eigendecomposition
        def expm_herm(h, t):
            w, v = np.linalg.eigh(h)
            return v @ np.diag(np.exp(-1j * t * w)) @ v.conj().T

        sx, sy, sz = sc.spin_matrices()
        angles = [tuple(2.0 * np.pi * rng.random(3)) for _ in range(25)]
        angles += [(0.4, 0.0, 1.3), (2.0, np.pi, 0.5)]  # gimbal: beta = 0 and beta = pi
        for a, b, g in angles:
            r = sc.rotation_from_euler(a, b, g)
            oracle = expm_herm(sz, a) @ expm_herm(sy, b) @ expm_herm(sz, g)
            assert max_abs(unitary(r) - oracle) < 1e-12


class TestUnitRows:
    @pytest.mark.filterwarnings("error")
    def test_overflowing_rows_normalize(self):
        # squared norms past the float range, the last norm itself past it
        rows = np.array([[1e200, 0, 0], [3e200, -4e200, 0], [0, 1.5e308, 1.5e308]])
        want = [[1, 0, 0], [0.6, -0.8, 0], [0, np.sqrt(0.5), np.sqrt(0.5)]]
        np.testing.assert_allclose(sc.unit_rows(rows), want, rtol=0, atol=2e-16)
        np.testing.assert_array_equal(sc.unit_rows(rows[:1]), [[1, 0, 0]])
        np.testing.assert_array_equal(sc.unit_rows(1j * rows[:1]), [[1j, 0, 0]])

    def test_zero_row_error_names_its_label(self):
        with pytest.raises(ValueError, match=r"^d\[7\] is a zero vector$"):
            sc.unit_rows(np.array([[1.0, 0, 0], [1e-13, 0, 0]]), "d", [3, 7])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "bad", [[np.inf, 0, 0], [1e300, -np.inf, 0], [np.nan, 1, 0], [1, 1j * np.inf, 0]],
        ids=["inf", "inf-overflow", "nan", "complex-inf"],
    )
    def test_non_finite_row_error_names_its_label(self, bad):
        with pytest.raises(ValueError, match=r"^d\[7\] has non-finite components$"):
            sc.unit_rows(np.array([[1.0, 0, 0], bad]), "d", [3, 7])


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestStacks:
    # each stacked call gives every row bit for bit what the one-row call does

    def test_random_draws_match_single_draws(self):
        block = sc.random_unit_vector(np.random.default_rng(5), 20_000)
        rng = np.random.default_rng(5)
        singles = [sc.random_unit_vector(rng) for _ in range(20_000)]
        np.testing.assert_array_equal(_bits(block), _bits(singles))

    def test_spin_along_matches_row_by_row(self, rng):
        dirs = np.concatenate([np.eye(3), -np.eye(3), sc.random_unit_vector(rng, 500)])
        stacked = sc.spin_along(dirs)
        assert stacked.shape == (len(dirs), 3, 3)
        np.testing.assert_array_equal(_bits(stacked), _bits([sc.spin_along(n) for n in dirs]))

    def test_polar_angles_match_row_by_row(self, rng):
        dirs = np.concatenate([np.eye(3), -np.eye(3), sc.random_unit_vector(rng, 500)])
        theta, phi = sc.polar_from_unit(dirs)
        np.testing.assert_array_equal(_bits(np.stack([theta, phi], axis=1)), _bits([sc.polar_from_unit(n) for n in dirs]))

    def test_eigenvectors_and_projectors_match_row_by_row(self, rng):
        near_pole = [2e-16, 2.3e-16, 1.0]
        dirs = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], near_pole, [1.0, 0.0, 0.0]]
                        + list(sc.random_unit_vector(rng, 60)))
        stacked = sc.sharp_eigenvectors(dirs)
        rows = [sc.sharp_eigenvectors(n) for n in dirs]
        for i in range(3):
            assert stacked[i].shape == (len(dirs), 3)
            np.testing.assert_array_equal(_bits(stacked[i]), _bits([row[i] for row in rows]))
        triple = sc.sharp_projectors(dirs)
        singles = [sc.sharp_projectors(n) for n in dirs]
        np.testing.assert_array_equal(_bits(triple.direction), _bits([t.direction for t in singles]))
        for outcome in (1, 0, -1):
            assert triple.effect(outcome).shape == (len(dirs), 3, 3)
            np.testing.assert_array_equal(
                _bits(triple.effect(outcome)), _bits([t.effect(outcome) for t in singles])
            )

    def test_projectors_leave_the_callers_stack_writable(self, rng):
        dirs = sc.random_unit_vector(rng, 4)
        sc.sharp_projectors(dirs)
        dirs[0] = dirs[1]

    def test_unitaries_match_row_by_row(self, rng):
        rotations = np.concatenate([np.eye(3)[None], sc.rotation_y(np.pi)[None], sc.random_rotation(rng, 40)])
        stacked = sc.wigner_d1(rotations)
        assert stacked.shape == (len(rotations), 3, 3)
        np.testing.assert_array_equal(_bits(stacked), _bits([sc.wigner_d1(r) for r in rotations]))

    def test_eigenvector_stack_names_a_non_unit_row(self):
        with pytest.raises(ValueError, match=r"^directions\[1\] must be a unit vector"):
            sc.sharp_eigenvectors([[0.0, 0.0, 1.0], [0.0, 0.0, 2.0]])

    def test_rotation_stack_names_the_failing_row(self, rng):
        good = sc.random_rotation(rng, 3)
        skew, reflection = np.diag([1.0, 2.0, 1.0]), np.diag([1.0, 1.0, -1.0])
        # orthogonality is checked over the whole stack first, then the determinant
        with pytest.raises(ValueError, match=r"^rotation\[2\] is not orthogonal within tolerance$"):
            sc.wigner_d1(np.stack([good[0], reflection, skew, good[1]]))
        with pytest.raises(ValueError, match=r"^rotation\[3\] must have determinant \+1$"):
            sc.wigner_d1(np.stack([*good, reflection]))
        with pytest.raises(ValueError, match="3x3 matrix"):
            sc.as_rotation(np.zeros((2, 2, 3, 3)))

    def test_rotation_with_a_nan_entry_is_rejected(self):
        m = np.eye(3)
        m[0, 0] = np.nan
        with pytest.raises(ValueError, match="orthogonal"):
            sc.as_rotation(m)
