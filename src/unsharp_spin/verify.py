"""Self-verification suite.

Runs every library invariant as a named pass/fail check: projector and
rotation algebra, quadrature normalization and stability, effect-triple
properties (resolution of identity, positivity, covariance, shared
eigenbasis, spectra), eigenvalue closed forms, simulator consistency, and
solver/oracle agreement.  Used by the command-line ``verify`` subcommand;
any failure makes the process exit nonzero.

All checks draw from fixed seeds, so two runs produce identical output.
"""

from __future__ import annotations

import numpy as np

from . import crosscheck, formats, ks_solver
from .misalignment import AxialDensity, QuadratureSpec, UniformCap, sphere_integral_matrix
from .spin_core import (
    random_rotation,
    random_unit_vector,
    sharp_eigenvectors,
    sharp_projectors,
    spin1_representation,
    spin_along,
    wigner_d1,
)
from .unsharp_povm import (
    alphas_axial,
    alphas_uniform_cap,
    effects,
    outcome_probabilities,
    simulate_outcomes,
)

SEED = 20210314

EPS_GRID = (0.1, 0.459, 1.0, np.pi)

# smallest cap half-angle the random effect checks draw
EPS_MIN = 0.02


def _cap_profile(theta):
    return np.cos(theta / 2.0) ** 2


def check_projector_triples():
    """Idempotence, mutual orthogonality, completeness, spectral sum, and
    P_+ + P_- = (n.S)^2, the identity ``effects`` integrates by."""
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(100):
        n = random_unit_vector(rng)
        triple = sharp_projectors(n)
        ps = triple.as_tuple()
        s_n = spin_along(n)
        total = sum(ps)
        worst = max(worst, float(np.max(np.abs(total - np.eye(3)))))
        spectral = ps[0] - ps[2]
        worst = max(worst, float(np.max(np.abs(spectral - s_n))))
        worst = max(worst, float(np.max(np.abs(ps[0] + ps[2] - s_n @ s_n))))
        for i in range(3):
            worst = max(worst, float(np.max(np.abs(ps[i] @ ps[i] - ps[i]))))
            for j in range(i + 1, 3):
                worst = max(worst, float(np.max(np.abs(ps[i] @ ps[j]))))
    return worst <= 1e-12, f"max residual {worst:.3e} (tol 1e-12)"


def check_rotation_composition():
    """The spin-1 unitaries compose: forward for the representation, in
    reversed order for the inverse-action convention."""
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    for _ in range(100):
        r1, r2 = random_rotation(rng), random_rotation(rng)
        forward = spin1_representation(r1 @ r2) - spin1_representation(r1) @ spin1_representation(r2)
        reversed_ = wigner_d1(r1 @ r2) - wigner_d1(r2) @ wigner_d1(r1)
        worst = max(worst, float(np.linalg.norm(forward)), float(np.linalg.norm(reversed_)))
    return worst <= 1e-10, f"max residual {worst:.3e} (tol 1e-10)"


def check_projector_covariance():
    """D(R) P_m D(R)^-1 = P_{R^-1 m} over random rotations/directions."""
    rng = np.random.default_rng(SEED + 2)
    worst = 0.0
    for _ in range(100):
        r = random_rotation(rng)
        m = random_unit_vector(rng)
        d = wigner_d1(r)
        rotated = sharp_projectors(r.T @ m)
        original = sharp_projectors(m)
        for i in (1, 0, -1):
            delta = d @ original.projector(i) @ d.conj().T - rotated.projector(i)
            worst = max(worst, float(np.linalg.norm(delta)))
    return worst <= 1e-10, f"max residual {worst:.3e} (tol 1e-10)"


def check_density_normalization():
    """Model densities integrate to 1 over the sphere."""
    worst = 0.0
    spec = QuadratureSpec()
    for eps in EPS_GRID:
        for model in (UniformCap(eps), AxialDensity(eps, _cap_profile)):
            mass = sphere_integral_matrix(
                lambda m: np.broadcast_to(np.eye(3), (len(m), 3, 3)),
                lambda m, model=model: model.density_polar(
                    np.arccos(np.clip(m[:, 2], -1.0, 1.0))
                ),
                spec,
                u_range=model.support_u(),
            )
            worst = max(worst, float(np.max(np.abs(mass - np.eye(3)))))
    return worst <= 1e-8, f"max residual {worst:.3e} (tol 1e-8)"


def check_quadrature_stability():
    """Doubling node counts does not move the effect integrals."""
    worst = 0.0
    for eps in (0.1, 0.459, 1.0):
        model = UniformCap(eps)
        coarse = effects(np.array([0.0, 0.0, 1.0]), model, QuadratureSpec(64, 64))
        fine = effects(np.array([0.0, 0.0, 1.0]), model, QuadratureSpec(128, 128))
        for i in (1, 0, -1):
            worst = max(worst, float(np.max(np.abs(coarse.effect(i) - fine.effect(i)))))
    return worst <= 1e-8, f"max change {worst:.3e} (tol 1e-8)"


def check_measure_rotation_invariance():
    """Integrating f(R m) with constant weight equals integrating f(m)."""
    rng = np.random.default_rng(SEED + 3)
    r = random_rotation(rng)

    def f(m):
        return m[:, :, None] * m[:, None, :] * (1.0 + m[:, 0, None, None] ** 2)

    spec = QuadratureSpec()
    lhs = sphere_integral_matrix(lambda m: f(m @ r.T), lambda m: np.ones(len(m)), spec)
    rhs = sphere_integral_matrix(f, lambda m: np.ones(len(m)), spec)
    worst = float(np.max(np.abs(lhs - rhs)))
    return worst <= 1e-8, f"max residual {worst:.3e} (tol 1e-8)"


def check_density_covariance():
    """w_n(R m) = w_{R^-1 n}(m) for both model families."""
    from .misalignment import density_covariance_witness

    worst = 0.0
    for model in (UniformCap(0.3), UniformCap(np.pi), AxialDensity(0.8, _cap_profile)):
        worst = max(worst, density_covariance_witness(model, 500, seed=SEED + 4))
    return worst <= 1e-12, f"max witness {worst:.3e} (tol 1e-12)"


def _random_pairs(count, seed):
    """Random (direction, cap half-angle) pairs, eps in [EPS_MIN, pi]."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = random_unit_vector(rng)
        eps = EPS_MIN + rng.random() * (np.pi - EPS_MIN)
        yield n, eps


def check_effect_invariants():
    """Resolution of identity, positivity, eigenvalue sums for random
    (direction, cap) pairs."""
    worst_id, worst_pos, worst_sum = 0.0, 0.0, 0.0
    for n, eps in _random_pairs(100, SEED + 5):
        triple = effects(n, UniformCap(eps))
        total = sum(triple.as_tuple())
        worst_id = max(worst_id, float(np.max(np.abs(total - np.eye(3)))))
        for i in (1, 0, -1):
            w = np.linalg.eigvalsh(triple.effect(i))
            worst_pos = max(worst_pos, float(-w[0]), float(w[-1] - 1.0))
            worst_sum = max(worst_sum, abs(float(np.sum(w)) - 1.0))
    ok = worst_id <= 1e-10 and worst_pos <= 1e-10 and worst_sum <= 1e-8
    return ok, (
        f"identity {worst_id:.3e} (tol 1e-10), positivity {worst_pos:.3e} "
        f"(tol 1e-10), eigenvalue sums {worst_sum:.3e} (tol 1e-8)"
    )


def check_effect_covariance():
    """D(R) F_n(i) D(R)^-1 = F_{R^-1 n}(i) for random rotations."""
    rng = np.random.default_rng(SEED + 6)
    worst = 0.0
    for _ in range(100):
        n = random_unit_vector(rng)
        eps = EPS_MIN + rng.random() * (np.pi - EPS_MIN)
        r = random_rotation(rng)
        model = UniformCap(eps)
        d = wigner_d1(r)
        t1 = effects(n, model)
        t2 = effects(r.T @ n, model)
        for i in (1, 0, -1):
            delta = d @ t1.effect(i) @ d.conj().T - t2.effect(i)
            worst = max(worst, float(np.linalg.norm(delta)))
    return worst <= 1e-8, f"max residual {worst:.3e} (tol 1e-8)"


def check_shared_eigenbasis():
    """The sharp eigenbasis diagonalizes every effect; effects commute."""
    worst_off, worst_comm = 0.0, 0.0
    for n, eps in _random_pairs(100, SEED + 7):
        triple = effects(n, UniformCap(eps))
        basis = np.column_stack(sharp_eigenvectors(n))
        for i in (1, 0, -1):
            conj = basis.conj().T @ triple.effect(i) @ basis
            off = conj - np.diag(np.diag(conj))
            worst_off = max(worst_off, float(np.max(np.abs(off))))
        fs = triple.as_tuple()
        for a in range(3):
            for b in range(a + 1, 3):
                comm = fs[a] @ fs[b] - fs[b] @ fs[a]
                worst_comm = max(worst_comm, float(np.linalg.norm(comm)))
    ok = worst_off <= 1e-10 and worst_comm <= 1e-10
    return ok, f"off-diagonal {worst_off:.3e}, commutator {worst_comm:.3e} (tol 1e-10)"


def check_effect_spectra():
    """Effect eigenvalues are permutations of the four model eigenvalues,
    and each sits on the sharp eigenray the outcome assigns it to."""
    worst = 0.0
    for n, eps in _random_pairs(100, SEED + 8):
        triple = effects(n, UniformCap(eps))
        a = alphas_uniform_cap(eps)
        basis = np.column_stack(sharp_eigenvectors(n))
        for i in (1, 0, -1):
            got = np.sort(np.linalg.eigvalsh(triple.effect(i)))
            want = np.sort(a.spectrum(i))
            worst = max(worst, float(np.max(np.abs(got - want))))
            on_rays = np.diag(basis.conj().T @ triple.effect(i) @ basis)
            worst = max(worst, float(np.max(np.abs(on_rays - a.spectrum(i)))))
    return worst <= 1e-8, f"max residual {worst:.3e} (tol 1e-8)"


def check_alpha_closed_forms():
    """1-D quadrature eigenvalues agree with the uniform-cap closed forms."""
    worst = 0.0
    for eps in (0.1, 0.459, 1.0, 2.0, np.pi):
        got = np.array(alphas_axial(UniformCap(eps)).as_tuple())
        want = np.array(alphas_uniform_cap(eps).as_tuple())
        worst = max(worst, float(np.max(np.abs(got - want))))
    return worst <= 1e-10, f"max difference {worst:.3e} (tol 1e-10)"


def check_alpha_orderings():
    """a1 >= a4 and a2 >= a3 everywhere; a4 strictly decreasing on the
    threshold search domain."""
    eps = np.linspace(1e-3, np.pi, 400)
    a = [alphas_uniform_cap(e) for e in eps]
    ordering = all(x.a1 >= x.a4 - 1e-12 and x.a2 >= x.a3 - 1e-12 for x in a)
    inside = [x.a4 for x, e in zip(a, eps) if e <= 2.0 * np.pi / 3.0]
    monotone = all(x > y for x, y in zip(inside, inside[1:]))
    return ordering and monotone, f"ordering={ordering}, a4 monotone={monotone}"


def check_simulator_consistency():
    """Simulated frequencies match analytic probabilities within 4 sigma."""
    n = np.array([0.0, 0.0, 1.0])
    model = UniformCap(0.4)
    psi = np.array([0, 1, 0], dtype=complex)
    trials = 200_000
    counts = simulate_outcomes(psi, n, model, trials, seed=SEED + 9)
    probs = outcome_probabilities(psi, effects(n, model))
    worst = 0.0
    for c, p in zip(counts, probs):
        sigma = max(np.sqrt(p * (1.0 - p) / trials), 1e-12)
        worst = max(worst, abs(c / trials - p) / sigma)
    return worst <= 4.0, f"max deviation {worst:.2f} sigma (tol 4)"


def check_real_embedding():
    """Outcome-0 eigenrays overlap like the real directions themselves."""
    rng = np.random.default_rng(SEED + 10)
    worst = 0.0
    for _ in range(100):
        n = random_unit_vector(rng)
        m = random_unit_vector(rng)
        psi_n = sharp_eigenvectors(n)[1]
        psi_m = sharp_eigenvectors(m)[1]
        worst = max(worst, abs(abs(np.vdot(psi_n, psi_m)) - abs(float(n @ m))))
        # orthogonal pair: project m off n
        perp = m - (m @ n) * n
        if np.linalg.norm(perp) > 1e-6:
            perp /= np.linalg.norm(perp)
            psi_p = sharp_eigenvectors(perp)[1]
            worst = max(worst, abs(np.vdot(psi_n, psi_p)))
    return worst <= 1e-10, f"max residual {worst:.3e} (tol 1e-10)"


def check_solver_against_brute_force():
    """Verdicts and counts match exhaustive enumeration on small
    sub-instances of the bundled ray set, and brute force's example
    coloring passes the constraint checker."""
    _, rays = formats.load_ray_file(formats.fixture_path("peres33_rays.json"))
    rng = np.random.default_rng(SEED + 11)
    mismatches = 0
    for _ in range(60):
        k = int(rng.integers(3, 16))
        idx = rng.choice(len(rays), size=k, replace=False)
        sub = [rays[i] for i in sorted(idx)]
        instance = ks_solver.build_graph(sub)
        result = ks_solver.solve_coloring(instance, mode="count_all")
        count, example = crosscheck.brute_force_colorings(instance)
        solver_count = result.count if result.is_sat else 0
        example_ok = count == 0 or crosscheck.check_coloring(instance, example)[0]
        if result.is_sat != (count > 0) or solver_count != count or not example_ok:
            mismatches += 1
    return mismatches == 0, f"{mismatches} mismatches in 60 sampled sub-instances"


def check_sat_recheck_independence():
    """SAT answers pass the independent constraint checker."""
    rng = np.random.default_rng(SEED + 12)
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


def check_fixture_noncolorability():
    """Both bundled ray sets are non-colorable; the DPLL agrees."""
    details = []
    for fixture in ("peres33_rays.json", "integer49_rays.json"):
        name, rays = formats.load_ray_file(formats.fixture_path(fixture))
        instance = ks_solver.build_graph(rays, name=name)
        result = ks_solver.solve_coloring(instance)
        sat, _ = crosscheck.dpll_solve(instance)
        if result.is_sat or result.nodes_explored == 0 or sat:
            return False, f"{name}: solver {result.verdict} in {result.nodes_explored} nodes, DPLL sat={sat}"
        details.append(f"{name}: UNSAT in {result.nodes_explored} nodes, DPLL agrees")
    return True, "; ".join(details)


def check_unsat_monotonicity():
    """Once a sub-instance is non-colorable, every superset stays so."""
    _, rays = formats.load_ray_file(formats.fixture_path("peres33_rays.json"))
    rng = np.random.default_rng(SEED + 13)
    order = list(rng.permutation(len(rays)))
    sizes = (20, 25, 29, 33)
    last_unsat = False
    for size in sizes:
        sub = [rays[i] for i in sorted(order[:size])]
        result = ks_solver.solve_coloring(ks_solver.build_graph(sub))
        if last_unsat and result.is_sat:
            return False, f"UNSAT subset became SAT at size {size}"
        last_unsat = last_unsat or not result.is_sat
    return last_unsat, "chain ends UNSAT; no UNSAT->SAT transition"


def check_report_determinism():
    """Identical pipeline runs serialize byte-for-byte identically."""
    _, dirs = formats.load_direction_file(formats.fixture_path("peres33_directions.json"))
    first = formats.dumps_report(
        ks_solver.ks_pipeline(dirs, UniformCap(0.4), 0.1, name="det").to_dict()
    )
    second = formats.dumps_report(
        ks_solver.ks_pipeline(dirs, UniformCap(0.4), 0.1, name="det").to_dict()
    )
    return first == second, f"{len(first)} bytes, identical={first == second}"


ALL_CHECKS = [
    ("projector-triples", check_projector_triples),
    ("rotation-composition", check_rotation_composition),
    ("projector-covariance", check_projector_covariance),
    ("density-normalization", check_density_normalization),
    ("quadrature-stability", check_quadrature_stability),
    ("measure-rotation-invariance", check_measure_rotation_invariance),
    ("density-covariance", check_density_covariance),
    ("effect-invariants", check_effect_invariants),
    ("effect-covariance", check_effect_covariance),
    ("shared-eigenbasis", check_shared_eigenbasis),
    ("effect-spectra", check_effect_spectra),
    ("alpha-closed-forms", check_alpha_closed_forms),
    ("alpha-orderings", check_alpha_orderings),
    ("simulator-consistency", check_simulator_consistency),
    ("real-embedding", check_real_embedding),
    ("solver-vs-brute-force", check_solver_against_brute_force),
    ("sat-recheck-independence", check_sat_recheck_independence),
    ("fixture-noncolorability", check_fixture_noncolorability),
    ("unsat-monotonicity", check_unsat_monotonicity),
    ("report-determinism", check_report_determinism),
]


def run_verification(stream=None) -> tuple[bool, list[dict]]:
    """Run every check, printing one PASS/FAIL line per property.

    A check that raises fails, with detail ``raised <Type>: <message>``.
    Returns ``(all_ok, results)`` where results is a list of dicts with
    keys name, ok, detail, in execution order.
    """
    results = []
    all_ok = True
    for name, func in ALL_CHECKS:
        try:
            ok, detail = func()
        except Exception as exc:
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        all_ok = all_ok and ok
        results.append({"name": name, "ok": bool(ok), "detail": detail})
        if stream is not None:
            stream.write(f"{'PASS' if ok else 'FAIL'} {name}: {detail}\n")
    return all_ok, results
