"""Self-verification suite.

Runs every library invariant as a named pass/fail check: projector and
rotation algebra, quadrature normalization and stability, the effect
triple (one sweep checks resolution of identity, positivity, the shared
eigenbasis, spectra and rotation covariance), eigenvalue closed forms,
simulator consistency, the eigenray overlap laws (and the direction-graph
pipeline against the eigenray instance), and solver/oracle agreement.
The effect checks run on ``sphere_effects``, the spherical average of the
sharp projectors integrated on a product grid; it is the oracle that
establishes ``unsharp_povm.effects``, which builds the same triple from
a2 and a3, and nothing outside this module and the tests calls it.  The
simulator is checked against <psi|F(i)|psi> of those effect matrices.
The KS checks read the bundled direction sets (``peres33_directions.json``
and ``integer49_directions.json``) and search their orthogonality graphs.
Used by ``unsharp-spin verify``; any failure makes it exit nonzero.

All checks draw from fixed seeds, so two runs produce identical output.
"""

from __future__ import annotations

import numpy as np

from . import crosscheck, formats, ks_solver
from .misalignment import AxialDensity, UniformCap, _product_factors, _repole, sphere_integral_matrix
from .spin_core import (
    EffectTriple,
    random_rotation,
    random_unit_vector,
    sharp_eigenvectors,
    sharp_projectors,
    spin_matrices,
    unit_from_polar,
    unit_rows,
    wigner_d1,
)
from .unsharp_povm import (
    alphas_axial,
    alphas_uniform_cap,
    effects,
    simulate_outcomes,
)

SEED = 20210314

EPS_GRID = (0.1, 0.459, 1.0, np.pi)

# smallest cap half-angle the random effect checks draw
EPS_MIN = 0.02

_S = np.stack(spin_matrices())  # (3, 3, 3): component a, row, column


def _cap_profile(theta):
    return np.cos(theta / 2.0) ** 2


def check_projector_triples():
    """The projectors, polynomials in n.S, are |psi_i><psi_i| for the
    closed-form eigenvectors of outcomes +1, 0, -1 (which ties those to
    n.S, and establishes the identities ``sphere_effects`` integrates
    by), and are idempotent, mutually orthogonal and complete."""
    n = random_unit_vector(np.random.default_rng(SEED), 100)
    ps = np.stack(sharp_projectors(n).as_tuple(), axis=1)  # (draw, outcome, 3, 3)
    psis = np.stack(sharp_eigenvectors(n), axis=1)  # (draw, outcome, 3)
    residuals = (
        ps - psis[..., :, None] * psis[..., None, :].conj(),
        ps.sum(axis=1) - np.eye(3),
        ps @ ps - ps,
        *(ps[:, i] @ ps[:, j] for i, j in ((0, 1), (0, 2), (1, 2))),
    )
    worst = max(float(np.max(np.abs(x))) for x in residuals)
    return worst <= 1e-12, f"max residual {worst:.3e} (tol 1e-12)"


def check_rotation_composition():
    """The spin-1 unitaries compose: forward for the representation, in
    reversed order for the inverse-action convention."""
    rng = np.random.default_rng(SEED + 1)
    pairs = np.array([(random_rotation(rng), random_rotation(rng)) for _ in range(100)])  # (draw, 2, 3, 3)
    r1, r2 = pairs[:, 0], pairs[:, 1]
    d12, d1, d2 = wigner_d1(np.concatenate([r1 @ r2, r1, r2])).reshape(3, -1, 3, 3)
    u12, u1, u2 = (d.conj().swapaxes(-1, -2) for d in (d12, d1, d2))  # U(R) = D(R)^dag
    forward = u12 - u1 @ u2
    reversed_ = d12 - d2 @ d1
    worst = float(np.max(np.linalg.norm(np.stack([forward, reversed_]), axis=(-2, -1))))
    return worst <= 1e-10, f"max residual {worst:.3e} (tol 1e-10)"


def check_projector_covariance():
    """D(R) P_m D(R)^-1 = P_{R^-1 m} over random rotations/directions."""
    rng = np.random.default_rng(SEED + 2)
    r, m, pulled = [], [], []  # pulled: R^-1 m
    for _ in range(100):
        r.append(random_rotation(rng))
        m.append(random_unit_vector(rng))
        pulled.append(r[-1].T @ m[-1])
    # one call on [m..., R^-1 m...]: (draw, outcome, 3, 3) per half
    ps = np.stack(sharp_projectors(np.array(m + pulled)).as_tuple(), axis=1)
    worst = _conjugation_residual(wigner_d1(np.array(r)), ps[:100], ps[100:])
    return worst <= 1e-10, f"max residual {worst:.3e} (tol 1e-10)"


def check_density_normalization():
    """Model densities integrate to 1 over the sphere."""
    worst = 0.0
    for eps in EPS_GRID:
        for model in (UniformCap(eps), AxialDensity(eps, _cap_profile)):
            mass = sphere_integral_matrix(
                lambda m: np.broadcast_to(np.eye(3), (len(m), 3, 3)),
                lambda m, model=model: model.density(m[:, 2]),
                u_range=model.support_u(),
            )
            worst = max(worst, float(np.max(np.abs(mass - np.eye(3)))))
    return worst <= 1e-8, f"max residual {worst:.3e} (tol 1e-8)"


def _pole_moments(models, nodes: int) -> np.ndarray:
    # int w m (row 0) and int w m m^T (rows 1-3) of each model's density on
    # sphere_grid(nodes, model.support_u()) about the pole, (K, 4, 3), in
    # one pass: node (theta_i, phi_j) weighs w_i, its theta weight times the
    # density, and m = (st_i cos phi_j, st_i sin phi_j, u_i), so each entry
    # is a theta sum of w times st, st^2, st u, u or u^2 times a phi sum of
    # 1, cos, sin, cos^2, cos sin or sin^2
    bands = np.array([model.support_u() for model in models])[:, :, None]  # (K, 2, 1)
    u, st, w, cos_phi, sin_phi = _product_factors(nodes, (bands[:, 0], bands[:, 1]))
    density = np.stack([model.density(row) for model, row in zip(models, u)])
    if np.any(density < 0.0):
        raise ValueError("density returned a negative value")
    w = w * density
    st1, st2, stu, u1, u2 = np.sum(w[:, None] * np.stack([st, st * st, st * u, u, u * u], axis=1), axis=-1).T
    c, s, cc, cs, ss = (np.sum(f) for f in (cos_phi, sin_phi, cos_phi**2, cos_phi * sin_phi, sin_phi**2))
    moment = [
        [st1 * c, st1 * s, u1 * nodes],
        [st2 * cc, st2 * cs, stu * c],
        [st2 * cs, st2 * ss, stu * s],
        [stu * c, stu * s, u2 * nodes],
    ]
    return np.moveaxis(np.array(moment), -1, 0)


def sphere_effects(n, model, nodes: int = 64) -> EffectTriple:
    """The effect triple for direction ``n`` by spherical quadrature: the
    oracle for ``unsharp_povm.effects``.

    Each effect is the average of the sharp projector P_{m,i} against the
    misalignment density w_n(m).  Since m.S has eigenvalues {1, 0, -1},
    P_{m,+1} = ((m.S)^2 + m.S)/2, P_{m,0} = I - (m.S)^2 and
    P_{m,-1} = ((m.S)^2 - m.S)/2, so only the first and second moments
    mu = int w m and M = int w m m^T are integrated, on the ``nodes``
    theta by ``nodes`` phi product grid of ``sphere_grid``, and the
    effects follow exactly from int w m.S = sum_a mu_a S_a,
    int w (m.S)^2 = sum_ab M_ab S_a S_b and the mass tr M.  The moments
    are integrated about the pole on the density's support, where they are
    low-degree trigonometric polynomials (the default 64 nodes are
    therefore exact to rounding for the uniform cap), for every model in
    one pass: the grid is a theta x phi product and the density depends on
    theta alone, so each moment is a sum over the theta nodes of every
    model's rule, stacked, times one of five phi sums taken once.  That is
    the product rule of ``sphere_integral_matrix``, factored.  The moments
    are carried to n by the rotation R that ``_repole`` applies (z to n):
    mu_n = R mu_z and M_n = R M_z R^T, the sum taken before the rotation.

    ``n`` is one direction or a stack of them; the triple's fields are then
    stacks, row k bit for bit the call on ``n[k]``.  ``model`` is one model
    for every direction, or a list or tuple of K models for a (K, ..., 3) stack,
    model k applying to ``n[k]``.  A density negative at a node is a
    ValueError.  Nothing here assumes the triple is diagonal in the sharp
    eigenbasis, so the checks that find it so establish the closed form.
    """
    v = np.array(n, dtype=float)
    if isinstance(model, (list, tuple)):  # (K, 1, ..., 4, 3): model k for every direction of n[k]
        moment = _pole_moments(model, nodes)
        moment = moment.reshape(moment.shape[:1] + (1,) * (v.ndim - 2) + (4, 3))
    else:
        moment = _pole_moments([model], nodes)[0]
    axes = v if v.ndim < 3 else v.reshape(-1, 3)  # _repole takes one axis or an (N, 3) stack
    rot = _repole(np.eye(3), axes).swapaxes(-1, -2).reshape(v.shape[:-1] + (3, 3))  # R, z to n
    mu = (moment[..., :1, :] @ rot.swapaxes(-1, -2))[..., 0, :]  # (R mu_z)^T
    big_m = rot @ moment[..., 1:, :] @ rot.swapaxes(-1, -2)
    linear = np.tensordot(mu, _S, axes=1)  # int w m.S
    square = np.sum(_S @ np.tensordot(big_m, _S, axes=1), axis=-3)  # int w (m.S)^2
    mass = np.trace(big_m, axis1=-2, axis2=-1)[..., None, None] * np.eye(3)
    fs = np.stack([(square + linear) / 2.0, mass - square, (square - linear) / 2.0], axis=-3)
    fs = 0.5 * (fs + fs.conj().swapaxes(-1, -2))  # (..., outcome, 3, 3)
    return EffectTriple(v, *np.moveaxis(fs, -3, 0))


def check_quadrature_stability():
    """Doubling node counts does not move the effect integrals."""
    worst = 0.0
    for eps in (0.1, 0.459, 1.0):
        model = UniformCap(eps)
        coarse = sphere_effects(np.array([0.0, 0.0, 1.0]), model, 64)
        fine = sphere_effects(np.array([0.0, 0.0, 1.0]), model, 128)
        for i in (1, 0, -1):
            worst = max(worst, float(np.max(np.abs(coarse.effect(i) - fine.effect(i)))))
    return worst <= 1e-8, f"max change {worst:.3e} (tol 1e-8)"


def check_measure_rotation_invariance():
    """Integrating f(R m) with constant weight equals integrating f(m)."""
    rng = np.random.default_rng(SEED + 3)
    r = random_rotation(rng)

    def f(m):
        return m[:, :, None] * m[:, None, :] * (1.0 + m[:, 0, None, None] ** 2)

    lhs = sphere_integral_matrix(lambda m: f(m @ r.T), lambda m: np.ones(len(m)))
    rhs = sphere_integral_matrix(f, lambda m: np.ones(len(m)))
    worst = float(np.max(np.abs(lhs - rhs)))
    return worst <= 1e-8, f"max residual {worst:.3e} (tol 1e-8)"


def check_density_covariance():
    """w_n(R m) = w_{R^-1 n}(m) for both model families: the largest
    violation over 500 random rotations and direction pairs per model."""
    worst = 0.0
    for model in (UniformCap(0.3), UniformCap(np.pi), AxialDensity(0.8, _cap_profile)):
        rng = np.random.default_rng(SEED + 4)
        r, n, m = random_rotation(rng, 500), random_unit_vector(rng, 500), random_unit_vector(rng, 500)
        # each side rotates its own argument first, as w_n(R m) and w_{R^-1 n}(m) read
        lhs_cos = np.einsum("ki,ki->k", n, np.einsum("kij,kj->ki", r, m))
        rhs_cos = np.einsum("ki,ki->k", np.einsum("kji,kj->ki", r, n), m)
        worst = max(worst, float(np.max(np.abs(model.density(lhs_cos) - model.density(rhs_cos)))))
    return worst <= 1e-12, f"max witness {worst:.3e} (tol 1e-12)"


def _conjugation_residual(d, fs, want) -> float:
    """Largest Frobenius norm of D F D^dag - F' over a stack: ``d`` is
    (draw, 3, 3) and ``fs`` and ``want`` are (draw, outcome, 3, 3)."""
    d = d[:, None]
    return float(np.max(np.linalg.norm(d @ fs @ d.conj().swapaxes(-1, -2) - want, axis=(-2, -1))))


def _triple_residuals(fs, bases, want):
    """Worst identity, positivity, eigenvalue-sum, off-diagonal, commutator
    and spectrum residuals over a stack of effect triples: ``fs`` is
    (triple, outcome, 3, 3), ``bases`` (triple, 3, 3) the sharp
    eigenvectors of each triple's direction as columns and ``want``
    (triple, outcome, 3) the model's a1..a4 on each outcome's eigenrays."""
    w = np.linalg.eigvalsh(fs)  # (triple, outcome, ascending eigenvalue)
    bases = bases[:, None]
    conj = bases.conj().swapaxes(-1, -2) @ fs @ bases
    on_rays = np.diagonal(conj, axis1=-2, axis2=-1)
    comm = max(
        float(np.max(np.linalg.norm(fs[:, a] @ fs[:, b] - fs[:, b] @ fs[:, a], axis=(-2, -1))))
        for a, b in ((0, 1), (0, 2), (1, 2))
    )
    return (
        float(np.max(np.abs(fs.sum(axis=1) - np.eye(3)))),
        max(0.0, float(-w.min()), float(w.max() - 1.0)),
        float(np.max(np.abs(w.sum(axis=-1) - 1.0))),
        float(np.max(np.abs(conj - on_rays[..., None] * np.eye(3)))),
        comm,
        max(float(np.max(np.abs(w - np.sort(want, axis=-1)))), float(np.max(np.abs(on_rays - want)))),
    )


# tolerance of each effect-triple property, in _triple_residuals order,
# then covariance
EFFECT_TOLERANCES = {
    "identity": 1e-10,
    "positivity": 1e-10,
    "eigenvalue sums": 1e-8,
    "off-diagonal": 1e-10,
    "commutator": 1e-10,
    "spectra": 1e-8,
    "covariance": 1e-8,
}


def effect_triple_residuals() -> dict[str, float]:
    """Worst residual of each effect-triple property (keyed as
    ``EFFECT_TOLERANCES``) over 100 random (direction, cap, rotation)
    draws.  Covariance compares F_n and F_{R^-1 n}; every other property
    is measured on both triples of each pair."""
    rng = np.random.default_rng(SEED + 6)
    r, pairs, caps, want = [], [], [], []
    for _ in range(100):
        n = random_unit_vector(rng)
        eps = EPS_MIN + rng.random() * (np.pi - EPS_MIN)
        r.append(random_rotation(rng))
        pairs.append([n, r[-1].T @ n])  # F_n and F_{R^-1 n} share the draw's cap
        caps.append(UniformCap(eps))
        alphas = alphas_uniform_cap(eps)
        want += 2 * [[alphas.spectrum(i) for i in (1, 0, -1)]]
    triples = sphere_effects(np.array(pairs), caps)  # fields (draw, 2, ...)
    fs = np.stack(triples.as_tuple(), axis=2).reshape(-1, 3, 3, 3)  # (triple, outcome, 3, 3): F_n, then F_{R^-1 n}
    bases = np.stack(sharp_eigenvectors(triples.direction.reshape(-1, 3)), axis=-1)  # eigenvectors as columns
    cov = _conjugation_residual(wigner_d1(np.array(r)), fs[0::2], fs[1::2])
    return dict(zip(EFFECT_TOLERANCES, (*_triple_residuals(fs, bases, np.array(want)), cov)))


def check_effect_triples():
    """Each effect triple is a POVM (resolution of identity, positivity,
    eigenvalue sums), is diagonal in the sharp eigenbasis with commuting
    effects, carries the model's a1..a4 on the eigenray each outcome
    assigns, and is rotation covariant: D(R) F_n(i) D(R)^-1 = F_{R^-1 n}(i)."""
    w = effect_triple_residuals()
    ok = all(w[key] <= tol for key, tol in EFFECT_TOLERANCES.items())
    return ok, (
        f"identity {w['identity']:.3e}, positivity {w['positivity']:.3e}, off-diagonal {w['off-diagonal']:.3e}, "
        f"commutator {w['commutator']:.3e} (tol 1e-10); eigenvalue sums {w['eigenvalue sums']:.3e}, "
        f"covariance {w['covariance']:.3e}, spectra {w['spectra']:.3e} (tol 1e-8)"
    )


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
    """Simulated frequencies match <psi|F(i)|psi> of the effect matrices
    within 4 sigma, for a complex state off the z-axis with p_+ != p_-,
    so the sign of the m.s term, the local frame and the outcome labels
    all show.  The reference is not ``outcome_probabilities``, which
    shares the simulator's spin moments (``_spin_moments``)."""
    n = unit_from_polar(0.7, 1.3)
    model = UniformCap(0.4)
    psi = np.array([0.6, 0.8j, 0.0])
    trials = 200_000
    counts = simulate_outcomes(psi, n, model, trials, seed=SEED + 9)
    probs = [float(np.real(psi.conj() @ f @ psi)) for f in effects(n, model).as_tuple()]
    worst = 0.0
    for c, p in zip(counts, probs):
        sigma = max(np.sqrt(p * (1.0 - p) / trials), 1e-12)
        worst = max(worst, abs(c / trials - p) / sigma)
    return worst <= 4.0, f"max deviation {worst:.2f} sigma (tol 4)"


def _overlap_law(c):
    """|<n,i|n',j>|^2 for i, j in (+1, 0, -1), c = n.n': the squared
    spin-1 rotation matrix elements at the angle between n and n', as a
    (..., 3, 3) array over the array of cosines ``c``."""
    plus, minus, cross = (1.0 + c) ** 2 / 4.0, (1.0 - c) ** 2 / 4.0, (1.0 - c * c) / 2.0
    rows = ((plus, cross, minus), (cross, c * c, cross), (minus, cross, plus))
    return np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)


def check_real_embedding():
    """Eigenrays of two directions overlap by the nine spin-1 laws of
    c = n.n' alone; in particular the outcome-0 rays overlap like the
    real directions themselves, and are orthogonal for orthogonal ones.
    So on four direction sets ``ks_pipeline``'s counts, verdict and
    coloring agree with the complex eigenray instance."""
    rng = np.random.default_rng(SEED + 10)
    ns, ms = random_unit_vector(rng, 200).reshape(100, 2, 3).swapaxes(0, 1)  # draws alternate n, m
    # each n is paired with its m and, where m is not parallel to n, with m projected off n
    perp = ms - (ms[:, None, :] @ ns[:, :, None])[:, 0] * ns
    kept = np.flatnonzero(np.linalg.norm(perp, axis=1) > 1e-6)
    owner = np.concatenate([np.arange(100), kept])
    partners = np.concatenate([ms, unit_rows(perp[kept])])
    cosines = (ns[owner, None, :] @ partners[:, :, None])[:, 0, 0]
    bases = np.stack(sharp_eigenvectors(np.concatenate([ns, partners])), axis=-1)  # eigenvectors as columns
    overlap = np.abs(bases[owner].conj().swapaxes(-1, -2) @ bases[len(ns):]) ** 2
    worst = float(np.max(np.abs(overlap - _overlap_law(cosines))))
    _, peres = formats.load_direction_file(formats.fixture_path("peres33_directions.json"))
    _, integer49 = formats.load_direction_file(formats.fixture_path("integer49_directions.json"))
    subset = [peres[i] for i in sorted(rng.choice(len(peres), size=20, replace=False))]
    direction_sets = {
        "peres-33": peres,
        "integer-49": integer49,
        "xyz": list(np.eye(3)),
        "peres-20": subset + [-subset[0], -subset[7]],  # negated copies are the same directions
    }
    failed = []
    for name, dirs in direction_sets.items():
        report = ks_solver.ks_pipeline(dirs, UniformCap(0.4), 0.1)
        instance = ks_solver.build_graph(ks_solver.eigenray_set(dirs))
        oracle = ks_solver.solve_coloring(instance)
        if (
            (report.ray_count, report.ortho_pair_count, report.tripod_count)
            != (instance.ray_count, len(instance.ortho_pairs), len(instance.tripods))
            or report.solve.verdict != oracle.verdict
            or (oracle.is_sat and not crosscheck.check_coloring(instance, report.solve.coloring)[0])
        ):
            failed.append(name)
    return worst <= 1e-10 and not failed, (
        f"max residual {worst:.3e} (tol 1e-10); ks_pipeline matches the eigenray instance "
        f"on {len(direction_sets) - len(failed)}/{len(direction_sets)} direction sets"
        + "".join(f", not {name}" for name in failed)
    )


def check_solver_against_brute_force():
    """Verdicts and counts match exhaustive enumeration on small
    sub-instances of the Peres direction graph, and the solver's coloring
    and brute force's example both pass the constraint checker."""
    _, dirs = formats.load_direction_file(formats.fixture_path("peres33_directions.json"))
    rng = np.random.default_rng(SEED + 11)
    mismatches = 0
    for _ in range(100):
        k = int(rng.integers(3, 16))
        idx = rng.choice(len(dirs), size=k, replace=False)
        sub = [dirs[i] for i in sorted(idx)]
        instance = ks_solver.build_graph(sub)
        result = ks_solver.solve_coloring(instance, mode="count_all")
        count, example = crosscheck.brute_force_colorings(instance)
        solver_count = result.count if result.is_sat else 0
        colorings_ok = count == 0 or (
            crosscheck.check_coloring(instance, example)[0]
            and crosscheck.check_coloring(instance, result.coloring)[0]
        )
        if result.is_sat != (count > 0) or solver_count != count or not colorings_ok:
            mismatches += 1
    return mismatches == 0, f"{mismatches} mismatches in 100 sampled sub-instances"


def check_fixture_noncolorability():
    """The direction graphs of both bundled direction sets are
    non-colorable; the DPLL agrees."""
    details = []
    for fixture in ("peres33_directions.json", "integer49_directions.json"):
        name, dirs = formats.load_direction_file(formats.fixture_path(fixture))
        instance = ks_solver.build_graph(dirs)
        result = ks_solver.solve_coloring(instance)
        sat, _ = crosscheck.dpll_solve(instance)
        if result.is_sat or result.nodes_explored == 0 or sat:
            return False, f"{name}: solver {result.verdict} in {result.nodes_explored} nodes, DPLL sat={sat}"
        details.append(f"{name}: UNSAT in {result.nodes_explored} nodes, DPLL agrees")
    return True, "; ".join(details)


def check_unsat_monotonicity():
    """Once a sub-instance is non-colorable, every superset stays so."""
    _, dirs = formats.load_direction_file(formats.fixture_path("peres33_directions.json"))
    rng = np.random.default_rng(SEED + 13)
    order = list(rng.permutation(len(dirs)))
    sizes = (20, 25, 29, 33)
    last_unsat = False
    for size in sizes:
        sub = [dirs[i] for i in sorted(order[:size])]
        result = ks_solver.solve_coloring(ks_solver.build_graph(sub))
        if last_unsat and result.is_sat:
            return False, f"UNSAT subset became SAT at size {size}"
        last_unsat = last_unsat or not result.is_sat
    return last_unsat, "chain ends UNSAT; no UNSAT->SAT transition"


def check_report_determinism():
    """Identical pipeline runs serialize byte-for-byte identically."""
    _, dirs = formats.load_direction_file(formats.fixture_path("peres33_directions.json"))
    first, second = (
        formats.dumps_report(ks_solver.ks_pipeline(dirs, UniformCap(0.4), 0.1, name="det").to_dict())
        for _ in range(2)
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
    ("effect-triples", check_effect_triples),
    ("alpha-closed-forms", check_alpha_closed_forms),
    ("alpha-orderings", check_alpha_orderings),
    ("simulator-consistency", check_simulator_consistency),
    ("real-embedding", check_real_embedding),
    ("solver-vs-brute-force", check_solver_against_brute_force),
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
