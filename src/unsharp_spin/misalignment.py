"""Misalignment densities on the unit sphere and spherical quadrature.

A misalignment model describes where the actually-measured direction m
lands when the intended direction is n.  Both models here are axially
symmetric about n: the density is ``density(u)``, a function of u = n.m
alone.  That makes it rotation covariant by construction,
w_n(R m) = w_{R^-1 n}(m), which the downstream effect algebra relies on;
densities without that symmetry are deliberately not representable.

Axial integrals (normalization and the effect eigenvalues a1..a4) use one
1-D rule per model, ``_AxialModel.polar_rule``: Gauss-Legendre in theta
over the support, split into panels at the model's breakpoints (a
tabulated profile's thetas, where its interpolant has kinks).  The nodes
are taken in theta, not cos(theta): a profile with a term linear in theta
has a square-root kink in cos(theta) at the axis, where Gauss-Legendre in
cos(theta) converges only algebraically.

``sphere_integral_matrix`` is a product rule on the sphere with one
setting, ``nodes``: the same theta rule restricted to a band times a
uniform periodic trapezoid in phi, ``nodes`` of each, about the z-axis.
The library's effects do not use it; ``verify`` integrates the effects'
moments on it once about the pole, as the oracle for their closed form,
and carries them to each direction n by the rotation ``_repole`` applies
(z to n), which the covariance above makes exact.  ``verify`` checks that
covariance on sampled rotations (``density-covariance``).
"""

from __future__ import annotations

import functools

import numpy as np

from .spin_core import polar_from_unit, rotation_from_euler

# Node count per panel of the 1-D axial rule (normalization constants and
# eigenvalue integrals; sampling uses its own table).  Shared so that
# normalization and integration use the same rule and their ratio is exact.
AXIAL_NODES = 256


def check_epsilon(epsilon: float) -> float:
    """Validate a misalignment half-angle, 0 < epsilon <= pi."""
    if not 0.0 < epsilon <= np.pi:
        raise ValueError(f"epsilon must be in (0, pi], got {epsilon}")
    return float(epsilon)


def cap_area(epsilon: float) -> float:
    """Area in steradians of the spherical cap of half-angle ``epsilon``.

    ``epsilon`` must lie in (0, pi]; the full sphere is the epsilon = pi
    case.
    """
    return 2.0 * np.pi * (1.0 - float(np.cos(check_epsilon(epsilon))))


@functools.lru_cache(maxsize=8)
def _legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    # the n-node rule on [-1, 1]; read-only, since every caller shares it
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def gauss_legendre_nodes(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights mapped to the interval [a, b].

    The rule on [-1, 1] is built once per node count; the returned arrays
    are fresh.
    """
    x, w = _legendre_rule(n)
    half = 0.5 * (b - a)
    return half * x + 0.5 * (a + b), half * w


def _polar_rule(u_lo: float, u_hi: float, n: int, breakpoints=()) -> tuple[np.ndarray, np.ndarray]:
    # Gauss-Legendre in theta over the band u_lo <= cos(theta) <= u_hi, n
    # nodes on each panel between the breakpoints (increasing angles
    # strictly inside the band), returned as nodes u = cos(theta) with the
    # Jacobian in the weights, so that sum(w f(u)) approximates the
    # integral of f over u
    edges = [np.arccos(u_hi), *breakpoints, np.arccos(u_lo)]
    theta, w = map(np.concatenate, zip(*(gauss_legendre_nodes(a, b, n) for a, b in zip(edges, edges[1:]))))
    return np.cos(theta), w * np.sin(theta)


class _AxialModel:
    """Density supported on the cap of half-angle ``epsilon`` about the
    axis and depending only on the angle from it.

    ``density(u)`` takes u = cos(angle from the axis); it is 0 off the
    support and, on it, the subclass's ``_support_density(u)``, the
    density per steradian.  ``breakpoints`` are angles where that function
    may have a kink; ``polar_rule`` splits at those inside (0, epsilon).
    """

    def __init__(self, epsilon: float, breakpoints=()):
        self.epsilon = check_epsilon(epsilon)
        self._cos_eps = float(np.cos(self.epsilon))
        top = np.arccos(self._cos_eps)  # the support's end as the rule computes it
        self._breakpoints = tuple(b for b in sorted(map(float, breakpoints)) if 0.0 < b < top)

    def support_u(self) -> tuple[float, float]:
        """Support of the density in u = cos(angle from axis)."""
        return self._cos_eps, 1.0

    def polar_rule(self) -> tuple[np.ndarray, np.ndarray]:
        """The one rule for axial integrals over the support: nodes u =
        cos(theta) and weights, Gauss-Legendre in theta with
        ``AXIAL_NODES`` nodes on each panel between breakpoints, so that
        sum(w f(u)) approximates the integral of f over u."""
        return _polar_rule(self._cos_eps, 1.0, AXIAL_NODES, self._breakpoints)

    def density(self, u) -> np.ndarray:
        """Density per steradian at u = cos(angle from the axis)."""
        u = np.asarray(u, dtype=float)
        return np.where(u >= self._cos_eps - 1e-15, self._support_density(u), 0.0)


class UniformCap(_AxialModel):
    """Uniform density on the cap of half-angle ``epsilon`` about the axis.

    The density is 1/A inside the cap (A the cap area) and 0 outside.
    """

    def __init__(self, epsilon: float):
        super().__init__(epsilon)
        self.area = cap_area(epsilon)

    def _support_density(self, u) -> float:
        return 1.0 / self.area

    def sample_polar(self, rng: np.random.Generator, size: int) -> tuple[np.ndarray, np.ndarray]:
        """Draw (cos_theta, phi) pairs about the axis; uniform on the cap."""
        u = self._cos_eps + (1.0 - self._cos_eps) * rng.random(size)
        phi = 2.0 * np.pi * rng.random(size)
        return u, phi

    def describe(self) -> str:
        return f"uniform-cap(epsilon={self.epsilon!r})"


class AxialDensity(_AxialModel):
    """Axially symmetric density with a user-supplied radial profile.

    ``profile`` maps the angle theta in [0, epsilon] to a nonnegative
    weight; it is normalized internally by 1-D quadrature so the density
    integrates to 1 over the sphere.  The profile must be nonnegative on
    its support and have positive total mass.  ``breakpoints`` are the
    angles where the profile may have a kink (a tabulated profile's
    thetas); the 1-D rule is split there.
    """

    def __init__(self, epsilon: float, profile, breakpoints=()):
        super().__init__(epsilon, breakpoints)
        self.profile = profile
        u, w = self.polar_rule()
        values = self._profile_at(u)
        if values.shape != u.shape:
            raise ValueError("profile must map angle arrays to same-shape arrays")
        if np.any(values < 0.0) or not np.all(np.isfinite(values)):
            raise ValueError("profile must be nonnegative and finite on [0, epsilon]")
        mass = 2.0 * np.pi * float(w @ values)
        if mass <= 0.0:
            raise ValueError("profile has zero total mass on [0, epsilon]")
        self._norm = 1.0 / mass

    def _profile_at(self, u) -> np.ndarray:
        # the profile is given in theta: the one conversion from u
        return np.asarray(self.profile(np.arccos(np.clip(u, -1.0, 1.0))), dtype=float)

    def _support_density(self, u) -> np.ndarray:
        return self._norm * self._profile_at(u)

    def sample_polar(self, rng: np.random.Generator, size: int) -> tuple[np.ndarray, np.ndarray]:
        """Inverse-CDF sampling of theta off a dense theta table of the profile, uniform phi."""
        grid = np.linspace(0.0, self.epsilon, 4097)
        pdf = self._norm * np.asarray(self.profile(grid), dtype=float) * np.sin(grid)
        steps = 0.5 * (pdf[1:] + pdf[:-1]) * np.diff(grid)
        cdf = np.concatenate([[0.0], np.cumsum(steps)])
        cdf /= cdf[-1]
        theta = np.interp(rng.random(size), cdf, grid)
        phi = 2.0 * np.pi * rng.random(size)
        return np.cos(theta), phi

    def describe(self) -> str:
        name = getattr(self.profile, "__name__", "profile")
        return f"axial(epsilon={self.epsilon!r}, profile={name})"


def _repole(local: np.ndarray, axis) -> np.ndarray:
    # (N, 3) local vectors carried to the frame whose z-axis is ``axis``; on
    # an (A, 3) stack of axes, an (A, N, 3) stack, one frame per axis
    theta_a, phi_a = polar_from_unit(axis)
    return local @ rotation_from_euler(phi_a, theta_a, 0.0).swapaxes(-1, -2)  # the rotation maps z to axis


def sphere_grid(nodes: int = 64, u_range: tuple[float, float] = (-1.0, 1.0)) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes on (part of) the sphere: Gauss-Legendre in theta
    and a periodic trapezoid in phi, ``nodes`` of each.

    Returns (N, 3) unit vectors and (N,) weights summing to the area of
    the u-band, u = cos(theta) the z-component.  Nodes run phi-fastest:
    node k has the (k // nodes)-th theta node and the (k % nodes)-th phi
    node.  The grid is the theta x phi product, so the transcendentals are
    taken on the 2 * nodes factors alone.  ``_repole`` carries it to
    another pole.
    """
    if nodes < 1:
        raise ValueError(f"nodes must be >= 1, got {nodes}")
    u, wu = _polar_rule(u_range[0], u_range[1], nodes)
    phi = 2.0 * np.pi * np.arange(nodes) / nodes
    st = np.sqrt(np.clip(1.0 - u * u, 0.0, None))
    local = np.empty((nodes, nodes, 3))
    local[:, :, 0] = st[:, None] * np.cos(phi)
    local[:, :, 1] = st[:, None] * np.sin(phi)
    local[:, :, 2] = u[:, None]
    weights = np.repeat(wu * (2.0 * np.pi / nodes), nodes)
    return local.reshape(-1, 3), weights


def sphere_integral_matrix(
    f,
    weight,
    nodes: int = 64,
    u_range: tuple[float, float] = (-1.0, 1.0),
) -> np.ndarray:
    """Quadrature approximation of the integral of weight(m) f(m) over m.

    Batched: ``f`` maps the (N, 3) array of unit nodes to an (N, ...)
    array of values and ``weight`` maps it to (N,) weights, any negative
    one a ValueError; the result has shape (...).  The nodes are those of
    ``sphere_grid(nodes, u_range)`` and the sum is one tensor contraction,
    so results are bit-stable.  ``u_range`` restricts integration to a
    band around the z-axis (e.g. the support of a cap density about it).
    """
    points, weights = sphere_grid(nodes, u_range)
    wv = np.asarray(weight(points), dtype=float)
    if np.any(wv < 0.0):
        raise ValueError("weight function returned a negative value")
    return np.tensordot(weights * wv, np.asarray(f(points)), axes=1)
