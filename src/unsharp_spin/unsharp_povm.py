"""Unsharp spin-1 effects from misalignment densities.

An intended measurement direction n together with a misalignment model
defines three effects F(i), i in {1, 0, -1}: each is the average of the
sharp eigenprojectors P_{m,i} over the actually-measured direction m,
weighted by the misalignment density.  For an axially symmetric density
the effects form a commuting POVM that shares the eigenbasis of the sharp
observable along n; its eigenvalues a1..a4 follow from two numbers of the
model, a2 = <sin^2 theta>/2 and a3 = <sin^4(theta/2)>.  This module
evaluates those two (in closed form for the uniform cap, by the model's
1-D axial rule otherwise), builds the effects from a1..a4 and the sharp
eigenprojectors of n, which are polynomials in n.S (no eigenvector and
no phase convention enters), locates the unsharpness threshold, and
implements outcome probabilities (the spectra weighted by the sharp Born
probabilities along n, so no effect matrix is built), outcome
simulation, and the one AT/AF/U threshold color rule of the eigenrays,
which ``ks_pipeline`` lifts direction colors with.  The spherical average itself
is integrated only in ``verify.sphere_effects``, the oracle that
establishes this construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .misalignment import UniformCap, _repole, check_epsilon
from .spin_core import EffectTriple, as_unit_vector, sharp_projectors, spin_matrices

AT = "AT"
AF = "AF"
U = "U"


def check_delta(delta: float) -> float:
    """Validate an unsharpness tolerance, 0 <= delta < 0.5; -0.0 becomes 0.0."""
    if not 0.0 <= delta < 0.5:
        raise ValueError(f"delta must satisfy 0 <= delta < 0.5, got {delta}")
    return float(delta) + 0.0


@dataclass(frozen=True)
class Alphas:
    """The four possible eigenvalues of the unsharp effects, from two.

    For an axially symmetric misalignment density, the outcome +1 and -1
    effects have spectrum {a1, a2, a3} and the outcome 0 effect has
    spectrum {a2, a4, a2}.  ``Alphas(a2, a3)`` takes the two small ones,
    a2 = <sin^2 theta>/2 and a3 = <sin^4(theta/2)>, which carry no
    cancellation; a1 = 1 - a2 - a3 and a4 = 1 - 2 a2 follow, so each
    spectrum sums to 1 by construction.  The fields keep the order
    a1..a4.
    """

    a1: float = field(init=False)
    a2: float
    a3: float
    a4: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "a1", 1.0 - self.a2 - self.a3)
        object.__setattr__(self, "a4", 1.0 - 2.0 * self.a2)
        for name, v in zip(("a1", "a2", "a3", "a4"), self.as_tuple()):
            if not -1e-10 <= v <= 1.0 + 1e-10:
                raise ValueError(f"{name} = {v} is outside [0, 1]")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return self.a1, self.a2, self.a3, self.a4

    def spectrum(self, outcome: int) -> tuple[float, float, float]:
        """Eigenvalues of the outcome's effect on the (+1, 0, -1) eigenrays."""
        return {
            1: (self.a1, self.a2, self.a3),
            0: (self.a2, self.a4, self.a2),
            -1: (self.a3, self.a2, self.a1),
        }[outcome]


def alphas_axial(model) -> Alphas:
    """Effect eigenvalues of an axially symmetric model by 1-D quadrature.

    Integrates the density against the two polar weight functions
    sin^2(theta)/2 and sin^4(theta/2), which give a2 and a3, over the
    support of the density, on the model's ``polar_rule``.
    """
    u, w = model.polar_rule()
    base = 2.0 * np.pi * w * model.density(u)
    return Alphas(float(base @ ((1.0 - u * u) / 2.0)), float(base @ ((1.0 - u) / 2.0) ** 2))


def alphas_uniform_cap(epsilon: float) -> Alphas:
    """Closed-form effect eigenvalues for the uniform cap of half-angle
    ``epsilon``: a2 = (2 + cos e) sin^2(e/2)/3 and a3 = sin^4(e/2)/3.
    """
    epsilon = check_epsilon(epsilon)
    s_half = np.sin(epsilon / 2.0)
    return Alphas(float((2.0 + np.cos(epsilon)) * s_half**2 / 3.0), float(s_half**4 / 3.0))


def alphas_for_model(model) -> Alphas:
    """Effect eigenvalues; closed form for the uniform cap, quadrature
    otherwise."""
    if isinstance(model, UniformCap):
        return alphas_uniform_cap(model.epsilon)
    return alphas_axial(model)


def effects(n, model) -> EffectTriple:
    """The unsharp effect triple for direction ``n`` under ``model``.

    Averaging the sharp projectors P_{m,i} against an axially symmetric
    density about ``n`` gives effects diagonal in the sharp eigenbasis of
    ``n``, with eigenvalues ``alphas_for_model(model)``; see
    ``effects_from_alphas``.
    """
    return effects_from_alphas(n, alphas_for_model(model))


def effects_from_alphas(n, alphas: Alphas) -> EffectTriple:
    """Build the effect triple directly from its eigenvalues.

    F(i) = a P_+ + b P_0 + c P_- for (a, b, c) = ``alphas.spectrum(i)``,
    over the sharp projectors of the direction, which ``sharp_projectors``
    builds as polynomials in S_n = n.S, so no eigenvector is built.  The
    effects are diagonal in the sharp eigenbasis and carry the spectrum
    on the (+1, 0, -1) eigenrays.  They sum to the identity and lie
    between 0 and 1 by construction: the sharp projectors sum to I, each
    spectrum of ``Alphas`` sums to 1, and ``Alphas`` checks that it lies
    in [0, 1].
    """
    n = as_unit_vector(n, "n")
    p_plus, p_zero, p_minus = sharp_projectors(n).as_tuple()
    fs = (a * p_plus + b * p_zero + c * p_minus for a, b, c in map(alphas.spectrum, (1, 0, -1)))
    return EffectTriple(n, *fs)


def condition2_check(alphas: Alphas, delta: float) -> tuple[bool, dict[str, float]]:
    """Eigenvalue-separation check for an unsharpness tolerance.

    Passes when a1 and a4 are at least 1 - delta while a2 and a3 are at
    most delta, i.e. when every eigenray of every effect is cleanly
    "almost one" or "almost zero".  The margins report the signed slack
    of each of the four constraints (nonnegative means satisfied).
    """
    delta = check_delta(delta)
    margins = {
        "a1": alphas.a1 - (1.0 - delta),
        "a2": delta - alphas.a2,
        "a3": delta - alphas.a3,
        "a4": alphas.a4 - (1.0 - delta),
    }
    ok = all(m >= 0.0 for m in margins.values())
    return ok, margins


def threshold_epsilon(delta: float) -> float:
    """Largest uniform-cap half-angle passing the separation condition.

    For the uniform cap all four eigenvalue constraints degrade
    monotonically on (0, 2*pi/3], and a4 >= 1 - delta is the binding one.
    Since 1 - a4 = 2*a2 = 2 s (3 - 2 s)/3 with s = sin^2(eps/2), its root
    is eps* = 2 arcsin(sqrt(3 delta / (3 + sqrt(9 - 12 delta)))).  Where
    rounding makes the condition fail at that value, the search steps
    down from it, one ulp first and then doubling the step, so the
    returned value itself satisfies all four constraints.
    """
    delta = check_delta(delta)
    if delta == 0.0:
        raise ValueError("delta must be positive: only the sharp limit satisfies delta = 0")
    # two square roots, not one of the quotient, which underflows to 0
    # for subnormal delta
    eps = 2.0 * float(np.arcsin(np.sqrt(3.0 * delta) / np.sqrt(3.0 + np.sqrt(9.0 - 12.0 * delta))))
    step = float(np.spacing(eps))
    while not condition2_check(alphas_uniform_cap(eps), delta)[0]:
        eps -= step
        step *= 2.0
    return eps


def _pure_state(psi) -> np.ndarray:
    """Validate a normalized state 3-vector: its moduli pass ``as_unit_vector``."""
    v = np.asarray(psi, dtype=complex)
    as_unit_vector(np.abs(v), "state")
    return v


def outcome_probabilities(psi, n, model) -> tuple[float, float, float]:
    """Outcome probabilities (p_plus, p_zero, p_minus) of a pure state
    measured along ``n`` under ``model``.

    p_i = <psi| F(i) |psi> = a <P_+> + b <P_0> + c <P_-> for (a, b, c) =
    ``alphas.spectrum(i)``, where the sharp Born probabilities along n come
    from the state's spin moments in the lab frame (``_spin_moments``), so
    neither an effect matrix nor a local frame is built.  The three sum to
    1 by the resolution of the identity.
    """
    s, q = _spin_moments(_pure_state(psi))
    n = as_unit_vector(n, "n")
    nqn = float(n @ q @ n)
    p1, p0 = (nqn + float(n @ s)) / 2.0, 1.0 - nqn
    alphas = alphas_for_model(model)
    probs = [sum(a * p for a, p in zip(alphas.spectrum(i), (p1, p0, 1.0 - p1 - p0))) for i in (1, 0, -1)]
    return tuple(min(max(p, 0.0), 1.0) for p in probs)


def _spin_moments(v) -> tuple[np.ndarray, np.ndarray]:
    """Spin moments s_a = <v|S_a|v> and Q_ab = Re <v|S_a S_b|v> of state
    ``v``.  The spin-1 projectors P_{m,+1} = ((m.S)^2 + m.S)/2 and P_{m,0} =
    I - (m.S)^2 give P_+1 = (m^T Q m + m.s)/2 and P_0 = 1 - m^T Q m."""
    sv = np.stack(spin_matrices()) @ v  # row a: S_a v
    return (sv @ v.conj()).real, (sv.conj() @ sv.T).real


def _sharp_born(v, n, u, phi) -> tuple[np.ndarray, np.ndarray]:
    """Sharp Born probabilities (P_+1, P_0) of state ``v`` along each
    direction at local polar coordinates (u = cos theta, phi) about ``n``,
    from the spin moments (``_spin_moments``) rotated into the local frame
    once.  m^T Q m and m.s are summed term by term over the components
    m = (sin theta cos phi, sin theta sin phi, u), so no (N, 3) stack of
    directions is built.
    """
    s, q = _spin_moments(v)
    frame = _repole(np.eye(3), n)  # rows: the local x, y and z = n axes
    s, q = frame @ s, frame @ q @ frame.T
    st = np.sqrt(np.clip(1.0 - u * u, 0.0, None))
    m = (st * np.cos(phi), st * np.sin(phi), u)
    mqm = sum(m[a] * sum(q[a, b] * m[b] for b in range(3)) for a in range(3))
    return (mqm + sum(s[a] * m[a] for a in range(3))) / 2.0, 1.0 - mqm


# trials per block in which simulate_outcomes evaluates the Born rule, so
# its temporaries do not grow with the trial count
_SIMULATION_BLOCK = 1 << 16


def simulate_outcomes(psi, n, model, trials: int, seed: int) -> tuple[int, int, int]:
    """Stochastic realization of an unsharp measurement.

    Per trial, an actual direction m is drawn from the misalignment
    density about ``n`` and an outcome from the sharp Born probabilities
    |<psi_{m,i}|psi>|^2, which are evaluated from the state's spin
    moments (``_sharp_born``), not from eigenvectors of each m.  Returns
    counts for outcomes (+1, 0, -1); the counts sum to ``trials`` and are
    reproducible for a fixed seed (draw order: cos-theta block, phi
    block, outcome block, each of all ``trials``).  The probabilities and
    counts are then taken over blocks of ``_SIMULATION_BLOCK`` trials.
    """
    v = _pure_state(psi)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    n = as_unit_vector(n, "n")

    rng = np.random.default_rng(seed)
    u, phi = model.sample_polar(rng, trials)
    r = rng.random(trials)
    n_plus = n_zero = 0
    for block in range(0, trials, _SIMULATION_BLOCK):
        part = slice(block, block + _SIMULATION_BLOCK)
        p1, p0 = _sharp_born(v, n, u[part], phi[part])
        n_plus += int(np.count_nonzero(r[part] < p1))
        n_zero += int(np.count_nonzero((r[part] >= p1) & (r[part] < p1 + p0)))
    return n_plus, n_zero, trials - n_plus - n_zero


def color_assignment(alphas: Alphas, delta: float, outcome: int) -> tuple[str, str, str]:
    """Threshold colors of the (+1, 0, -1) eigenrays after an outcome.

    This is the one color rule.  The rays are the sharp eigenrays of the
    direction, in the (+1, 0, -1) order of ``sharp_eigenvectors``: the
    unsharp effects share them, and since the outcome-0 effect is
    degenerate, the sharp triple is the deterministic choice of
    eigenbasis.  Only each ray's eigenvalue enters, so no eigenvector is
    built.  A ray whose eigenvalue under the outcome's effect is at least
    1 - delta is colored AT, at most delta AF, and anything between gets
    the noncommittal U.
    """
    delta = check_delta(delta)
    if outcome not in (1, 0, -1):
        raise ValueError(f"outcome must be one of 1, 0, -1, got {outcome}")
    return tuple(AT if v >= 1.0 - delta else AF if v <= delta else U for v in alphas.spectrum(outcome))
