"""Spin-1 operator algebra.

Spin component matrices, directional spin observables and their rank-1
eigenprojectors, rotations built from z-y-z Euler angles, and the spin-1
unitary action of spatial rotations.  Spin 1 is the vector
representation, so that unitary is U(R) = C R C^dag for one fixed basis
change C.  Everything operates on plain numpy arrays; all returned arrays
are fresh copies owned by the caller.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SQRT2 = float(np.sqrt(2.0))

UNIT_TOL = 1e-12          # |n.n - 1| tolerance for unit vectors
ROTATION_TOL = 1e-9       # orthogonality and determinant tolerance for rotations
PHASE_TOL = 1e-9          # "first nonzero component" threshold for phase fixing

_SX = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / SQRT2
_SY = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex) / SQRT2
_SZ = np.array([[1, 0, 0], [0, 0, 0], [0, 0, -1]], dtype=complex)

# Cartesian components -> (+1, 0, -1) basis.  C L_a C^dag = S_a for the
# Cartesian generators (L_a)_bc = -i eps_abc, and column a is the outcome-0
# eigenvector of axis a, as eigenvector_rows(np.eye(3))[1] gives it.
_C = np.array([[-1, 1j, 0], [0, 0, SQRT2], [1, 1j, 0]]) / SQRT2


def spin_matrices() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return the spin-1 component matrices (S_x, S_y, S_z).

    The basis is ordered by magnetic quantum number (+1, 0, -1), so
    S_z = diag(1, 0, -1).  The three matrices obey the angular momentum
    algebra [S_x, S_y] = i S_z and cyclic permutations, and each has
    eigenvalues {1, 0, -1}.
    """
    return _SX.copy(), _SY.copy(), _SZ.copy()


def _squared_norms(w: np.ndarray) -> np.ndarray:
    # per row, the dot product np.linalg.norm takes of one vector: real part, then imaginary
    parts = (w.real, w.imag) if np.iscomplexobj(w) else (w,)
    return sum(p[:, None, :] @ p[:, :, None] for p in parts)[:, 0, 0]


def _check_unit(v: np.ndarray, name: str) -> np.ndarray:
    """The float array ``v``, one vector or a stack, if each row has finite
    components and |n.n - 1| <= ``UNIT_TOL``; a stack's error names row k."""
    if not np.isfinite(v).all():
        raise ValueError(f"{name} {'has' if v.ndim == 1 else 'have'} non-finite components")
    excess = _squared_norms(v.reshape(-1, 3)) - 1.0
    if (abs(excess) > UNIT_TOL).any():
        k = int(np.argmax(abs(excess) > UNIT_TOL))
        where = name if v.ndim == 1 else f"{name}[{k}]"
        raise ValueError(f"{where} must be a unit vector (|n|^2 - 1 = {excess[k]:.3e})")
    return v


def as_unit_vector(n, name: str = "direction") -> np.ndarray:
    """Validate and return ``n`` as a float unit 3-vector."""
    v = np.asarray(n, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {v.shape}")
    return _check_unit(v, name).copy()


def as_unit_directions(directions) -> np.ndarray:
    """``directions`` as a non-empty (N, 3) float array of unit vectors."""
    units = np.asarray(directions, dtype=float)
    if units.ndim != 2 or units.shape[1] != 3 or len(units) == 0:
        raise ValueError(f"directions must be a non-empty list of 3-vectors, got shape {units.shape}")
    return _check_unit(units, "directions")


def unit_from_polar(theta: float, phi: float) -> np.ndarray:
    """Unit vector with polar angle ``theta`` and azimuth ``phi`` (radians)."""
    st = np.sin(theta)
    return np.array([st * np.cos(phi), st * np.sin(phi), np.cos(theta)])


def polar_from_unit(n) -> tuple[float, float]:
    """Polar coordinates (theta, phi) of a unit vector; phi = 0 at the poles.
    On an (N, 3) stack, two (N,) arrays, row k bit for bit the call on ``n[k]``."""
    v = np.asarray(n, dtype=float)
    x, y, z = (as_unit_vector(v) if v.ndim == 1 else as_unit_directions(v)).T
    theta, phi = np.arccos(np.clip(z, -1.0, 1.0)), np.arctan2(y, x)
    return (float(theta), float(phi)) if v.ndim == 1 else (theta, phi)


def spin_along(n) -> np.ndarray:
    """Spin observable n . S for a unit direction ``n``, with eigenvalues
    {1, 0, -1}; on an (N, 3) stack, row k bit for bit ``spin_along(n[k])``.
    Non-unit input is rejected."""
    v = np.asarray(n, dtype=float)
    x, y, z = (as_unit_vector(v) if v.ndim == 1 else as_unit_directions(v)).T[..., None, None]
    return x * _SX + y * _SY + z * _SZ


def unit_rows(v, name: str = "rays", labels=None) -> np.ndarray:
    """Each row of the (N, d) real or complex array ``v`` over its norm,
    bit for bit as ``v[k] / np.linalg.norm(v[k])``, except that a row whose
    squared norm overflows is first divided by its largest modulus.  A row
    of norm below 1e-12, or with a non-finite component, is an error naming
    it ``name[k]`` (or ``name[labels[k]]``)."""
    w = np.asarray(v)
    with np.errstate(over="ignore"):
        norm = np.sqrt(_squared_norms(w))
    if (big := norm == np.inf).any():
        # an infinite component makes its row NaN, which the recursive call names
        with np.errstate(invalid="ignore"):
            return unit_rows(w / np.where(big, np.abs(w).max(axis=1), 1.0)[:, None], name, labels)
    if len(bad := np.flatnonzero(~(norm >= 1e-12))):  # a NaN norm fails too
        k = bad[0]
        what = "is a zero vector" if norm[k] < 1e-12 else "has non-finite components"
        raise ValueError(f"{name}[{k if labels is None else labels[k]}] {what}")
    return w / norm[:, None]


def canonical_phase(v) -> np.ndarray:
    """Normalize each row of ``v`` (one vector or an (N, d) stack) by
    ``unit_rows``, which names a zero row ``rays[k]``, and fix its global
    phase: the first component with magnitude above ``PHASE_TOL`` becomes
    real and positive, which makes rays comparable across runs.  Each row
    comes out bit for bit as it would alone: magnitudes are ``np.hypot``,
    as scalar ``abs`` (``np.abs`` is not)."""
    v = np.asarray(v, dtype=complex)
    w = unit_rows(v.reshape(-1, v.shape[-1]))
    mag = np.hypot(w.real, w.imag)
    # lead: the first component above PHASE_TOL, which every unit row has
    rows, lead = np.arange(len(w)), (mag > PHASE_TOL).argmax(axis=1)
    w = w * (w[rows, lead].conj() / mag[rows, lead])[:, None]
    w[rows, lead] = w[rows, lead].real  # discard residual imaginary dust
    return w.reshape(v.shape)


def eigenvector_rows(points) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form eigenvectors of the spin observable along each row of
    ``points``.

    Returns three (N, 3) complex arrays: the +1, 0 and -1 eigenvectors for
    each direction, in unit norm but with no phase fixed.  Each row is
    normalized first, so a direction that is unit only within
    ``UNIT_TOL`` still yields a triple orthonormal to rounding.  Written
    in the Cartesian components (w = x + iy carries the azimuthal phase),
    which avoids transcendentals on large batches.
    """
    p = np.asarray(points, dtype=float)
    x, y, z = (p / np.linalg.norm(p, axis=1, keepdims=True)).T
    xy = x + 1j * y
    w = xy / SQRT2
    s2 = x * x + y * y
    # e^{2i phi}: take phi = 0 on the polar axis where it is undefined
    e2 = np.divide(xy * xy, s2, out=np.ones_like(w), where=s2 > 1e-30)
    up_half = (1.0 + z) / 2.0
    dn_half = (1.0 - z) / 2.0
    plus = np.stack([up_half + 0j, w, e2 * dn_half], axis=1)
    zero = np.stack([-w.conj(), z + 0j, w], axis=1)
    minus = np.stack([e2.conj() * dn_half, -w.conj(), up_half + 0j], axis=1)
    return plus, zero, minus


def sharp_eigenvectors(n) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orthonormal eigenvectors of spin_along(n) for eigenvalues (+1, 0, -1).

    ``n`` is one direction or an (N, 3) stack of them; on a stack each of
    the three is (N, 3).  It is ``canonical_phase`` over the stacked
    ``eigenvector_rows``: closed forms rather than a numerical eigensolve,
    so the vectors are deterministic, orthonormal up to rounding, and each
    row comes out bit for bit as it would alone.
    """
    v = np.asarray(n, dtype=float)
    units = as_unit_vector(v)[None, :] if v.ndim == 1 else as_unit_directions(v)
    rows = canonical_phase(np.concatenate(eigenvector_rows(units))).reshape(3, *units.shape)
    return tuple(rows[:, 0] if v.ndim == 1 else rows)


@dataclass(frozen=True)
class EffectTriple:
    """The three effects F(+1), F(0), F(-1) of one measurement direction.

    Each satisfies 0 <= F <= 1, the three sum to the identity and commute
    (they share the sharp eigenbasis of the direction).  The sharp
    observable's effects are its eigenprojectors (``sharp_projectors``).
    """

    direction: np.ndarray
    f_plus: np.ndarray
    f_zero: np.ndarray
    f_minus: np.ndarray

    def __post_init__(self):
        # share-safely: instances are immutable after construction
        for arr in (self.direction, self.f_plus, self.f_zero, self.f_minus):
            arr.setflags(write=False)

    def effect(self, outcome: int) -> np.ndarray:
        return {1: self.f_plus, 0: self.f_zero, -1: self.f_minus}[outcome]

    def as_tuple(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.f_plus, self.f_zero, self.f_minus

    def residuals(self) -> tuple[float, float, float]:
        """Sum-to-identity residual and lowest and highest eigenvalue of the
        three effects."""
        fs = self.as_tuple()
        eigs = np.linalg.eigvalsh(np.stack(fs))
        return float(np.max(np.abs(sum(fs) - np.eye(3)))), float(eigs.min()), float(eigs.max())


def sharp_projectors(n) -> EffectTriple:
    """Eigenprojectors |psi_i><psi_i| of spin_along(n) for i = +1, 0, -1:
    idempotent, mutually orthogonal, and summing to the identity.

    On an (N, 3) stack of directions the fields are stacks too: the
    triple's direction is (N, 3) and each projector (N, 3, 3), row k as
    ``sharp_projectors(n[k])`` gives it.
    """
    direction = np.array(n, dtype=float)
    psis = sharp_eigenvectors(direction)
    return EffectTriple(direction, *(psi[..., :, None] * psi[..., None, :].conj() for psi in psis))


def rotation_z(angle) -> np.ndarray:
    """Rotation by ``angle`` about z; a (..., 3, 3) stack over an array of angles."""
    c, s = np.cos(angle), np.sin(angle)
    r = np.zeros(np.shape(c) + (3, 3))
    r[..., 0, 0], r[..., 0, 1], r[..., 1, 0], r[..., 1, 1], r[..., 2, 2] = c, -s, s, c, 1.0
    return r


def rotation_y(angle) -> np.ndarray:
    """Rotation by ``angle`` about y; a (..., 3, 3) stack over an array of angles."""
    c, s = np.cos(angle), np.sin(angle)
    r = np.zeros(np.shape(c) + (3, 3))
    r[..., 0, 0], r[..., 0, 2], r[..., 2, 0], r[..., 2, 2], r[..., 1, 1] = c, s, -s, c, 1.0
    return r


def rotation_from_euler(alpha, beta, gamma) -> np.ndarray:
    """Active rotation R = Rz(alpha) Ry(beta) Rz(gamma) on column vectors;
    a (..., 3, 3) stack over arrays of angles."""
    return rotation_z(alpha) @ rotation_y(beta) @ rotation_z(gamma)


def as_rotation(r, name: str = "rotation") -> np.ndarray:
    """Validate a proper rotation matrix (orthogonal, det +1), or each of
    an (N, 3, 3) stack at once; a stack's error names matrix k as
    ``rotation[k]``."""
    m = np.asarray(r, dtype=float)
    if m.shape[-2:] != (3, 3) or m.ndim not in (2, 3):
        raise ValueError(f"{name} must be a 3x3 matrix or an (N, 3, 3) stack, got shape {m.shape}")
    # "not within" rather than "beyond", so a NaN entry fails too
    bad = ~(np.max(np.abs(m.swapaxes(-1, -2) @ m - np.eye(3)), axis=(-2, -1)) <= ROTATION_TOL)
    what = "is not orthogonal within tolerance"
    if not bad.any():
        bad, what = abs(np.linalg.det(m) - 1.0) > ROTATION_TOL, "must have determinant +1"
    if bad.any():
        raise ValueError(f"{name if m.ndim == 2 else f'{name}[{np.argmax(bad)}]'} {what}")
    return m


def wigner_d1(r) -> np.ndarray:
    """Spin-1 rotation unitary in the inverse-action convention; on an
    (N, 3, 3) stack of rotations, the stack of them.

    Returns D(R) = U(R)^dag, where U(R) = C R C^dag is the spin-1
    representation: the rotation matrix itself carried into the
    (+1, 0, -1) basis by the fixed unitary C, so U(R1 R2) = U(R1) U(R2)
    and, since C L_a C^dag = S_a, U(R) S_n U(R)^dag = S_{R n}.
    Conjugation by D(R) therefore pulls a directional observable back
    along the rotation: D(R) S_m D(R)^{-1} = S_{R^{-1} m}, and likewise
    for the eigenprojectors and the unsharp effects built from them.  Note
    the composition order is reversed under this convention:
    D(R1 R2) = D(R2) D(R1).
    """
    return (_C @ as_rotation(r) @ _C.conj().T).conj().swapaxes(-1, -2)


def random_unit_vector(rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Uniformly distributed point on the unit sphere; with ``size``, that
    many as a (size, 3) array, drawn as one block (a row too short to
    normalize is redrawn).  One draw is row 0 of a 1-row block, so row k
    of a block is bit for bit the k-th of ``size`` single draws."""
    v = rng.standard_normal((1 if size is None else size, 3))
    while (short := np.sqrt(_squared_norms(v)) <= 1e-6).any():
        v[short] = rng.standard_normal((short.sum(), 3))
    v = unit_rows(v)
    return v[0] if size is None else v


def random_rotation(rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Haar-distributed rotation via z-y-z angles with uniform cos(beta);
    with ``size``, a (size, 3, 3) stack, each angle drawn as one block."""
    alpha = 2.0 * np.pi * rng.random(size)
    gamma = 2.0 * np.pi * rng.random(size)
    beta = np.arccos(1.0 - 2.0 * rng.random(size))
    return rotation_from_euler(alpha, beta, gamma)
