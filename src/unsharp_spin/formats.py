"""File formats: ray sets, direction sets, tabulated profiles, reports.

Ray-set files::

    { "name": str, "field": "real" | "complex", "rays": [[c1, c2, c3], ...] }

where each component is a decimal number ("real") or an [re, im] pair
("complex").  Unnormalized input is allowed; rays are normalized,
phase-canonicalized and deduplicated on load.

Direction-set files::

    { "name": str, "directions": [[x, y, z] | {"theta": t, "phi": p}, ...] }

Cartesian entries are normalized on load; polar entries are in radians.

Profile files (tabulated axial density)::

    { "name": str, "epsilon": e, "profile": [[theta, weight], ...] }

evaluated by linear interpolation on [0, epsilon], which the thetas must span.

Reports are JSON with keys in a fixed order, so identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import json
from importlib import resources

import numpy as np

from .ks_solver import canonicalize_and_dedupe
from .misalignment import AxialDensity
from .spin_core import unit_from_polar


def fixture_path(name: str):
    """Path to a bundled data file (e.g. ``peres33_rays.json``)."""
    path = resources.files("unsharp_spin").joinpath("data", name)
    if not path.is_file():
        raise FileNotFoundError(f"no bundled fixture named {name!r}")
    return path


def _component_to_complex(value, where: str, field: str) -> complex:
    if isinstance(value, (int, float)):
        return complex(float(value), 0.0)
    if (
        field == "complex"
        and isinstance(value, (list, tuple))
        and len(value) == 2
        and all(isinstance(x, (int, float)) for x in value)
    ):
        return complex(float(value[0]), float(value[1]))
    raise ValueError(f"{where}: bad component {value!r} for field {field!r}")


def _load_object(path, kind: str) -> dict:
    """Read a JSON file whose top level must be an object."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{kind} file: top level must be an object")
    return doc


def load_ray_file(path) -> tuple[str, list[np.ndarray]]:
    """Load, normalize and deduplicate a ray-set file.

    Returns ``(name, rays)``.  Errors name the offending field.
    """
    doc = _load_object(path, "ray")
    name = doc.get("name")
    if not isinstance(name, str):
        raise ValueError("ray file: 'name' must be a string")
    fieldtag = doc.get("field")
    if fieldtag not in ("real", "complex"):
        raise ValueError("ray file: 'field' must be 'real' or 'complex'")
    raw = doc.get("rays")
    if not isinstance(raw, list) or not raw:
        raise ValueError("ray file: 'rays' must be a non-empty list")
    vectors = []
    for k, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != 3:
            raise ValueError(f"ray file: rays[{k}] must have 3 components")
        vectors.append(
            np.array(
                [_component_to_complex(c, f"rays[{k}]", fieldtag) for c in row]
            )
        )
    return name, canonicalize_and_dedupe(vectors)


def save_ray_file(path, name: str, rays, field: str = "complex") -> None:
    """Write a ray-set file; components carry full double precision."""
    rows = []
    for ray in rays:
        arr = np.asarray(ray, dtype=complex)
        if field == "real":
            if np.max(np.abs(arr.imag)) > 1e-12:
                raise ValueError("field 'real' requested but rays have imaginary parts")
            rows.append([float(c.real) for c in arr])
        else:
            rows.append([[float(c.real), float(c.imag)] for c in arr])
    doc = {"name": name, "field": field, "rays": rows}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_direction_file(path) -> tuple[str, list[np.ndarray]]:
    """Load a direction-set file; Cartesian rows are normalized on load."""
    doc = _load_object(path, "direction")
    name = doc.get("name")
    if not isinstance(name, str):
        raise ValueError("direction file: 'name' must be a string")
    raw = doc.get("directions")
    if not isinstance(raw, list) or not raw:
        raise ValueError("direction file: 'directions' must be a non-empty list")
    directions, cartesian = np.empty((len(raw), 3)), []
    for k, entry in enumerate(raw):
        if isinstance(entry, dict):
            try:
                theta, phi = float(entry["theta"]), float(entry["phi"])
            except (KeyError, TypeError, ValueError):
                raise ValueError(
                    f"direction file: directions[{k}] needs numeric 'theta' and 'phi'"
                ) from None
            directions[k] = unit_from_polar(theta, phi)
        elif isinstance(entry, list) and len(entry) == 3:
            cartesian.append(k)
        else:
            raise ValueError(
                f"direction file: directions[{k}] must be [x, y, z] or "
                "{'theta': t, 'phi': p}"
            )
    rows = np.array([raw[k] for k in cartesian], dtype=float).reshape(-1, 3)
    norms = np.sqrt(rows[:, None, :] @ rows[:, :, None])[:, 0]  # as np.linalg.norm of one row
    if len(zero := np.flatnonzero(norms < 1e-12)):
        raise ValueError(f"direction file: directions[{cartesian[zero[0]]}] is a zero vector")
    directions[cartesian] = rows / norms
    return name, list(directions)


def save_direction_file(path, name: str, directions) -> None:
    rows = [[float(x) for x in np.asarray(d, dtype=float)] for d in directions]
    doc = {"name": name, "directions": rows}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_profile_file(path) -> AxialDensity:
    """Build an axial misalignment model from a tabulated (theta, weight)
    file, linearly interpolated."""
    doc = _load_object(path, "profile")
    try:
        epsilon = float(doc["epsilon"])
    except (KeyError, TypeError, ValueError):
        raise ValueError("profile file: 'epsilon' must be a number") from None
    table = doc.get("profile")
    if not isinstance(table, list) or len(table) < 2:
        raise ValueError("profile file: 'profile' must list at least 2 [theta, weight] rows")
    thetas, weights = [], []
    for k, row in enumerate(table):
        if not (isinstance(row, list) and len(row) == 2):
            raise ValueError(f"profile file: profile[{k}] must be [theta, weight]")
        thetas.append(float(row[0]))
        weights.append(float(row[1]))
    thetas = np.asarray(thetas)
    weights = np.asarray(weights)
    if np.any(np.diff(thetas) <= 0):
        raise ValueError("profile file: 'profile' thetas must be strictly increasing")
    if np.any(weights < 0):
        raise ValueError("profile file: 'profile' weights must be nonnegative")
    if thetas[0] > 0.0 or thetas[-1] < epsilon:
        raise ValueError(f"profile file: 'profile' thetas must span [0, epsilon] = [0, {epsilon!r}]")

    def profile(theta):
        return np.interp(theta, thetas, weights)

    profile.__name__ = str(doc.get("name", "tabulated"))
    return AxialDensity(epsilon, profile)


def dumps_report(report: dict) -> str:
    """Serialize a report dict preserving key order; ends with a newline."""
    return json.dumps(report, indent=2) + "\n"


def write_report(path, report: dict) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_report(report))
