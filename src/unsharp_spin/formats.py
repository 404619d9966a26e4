"""File formats: direction sets, tabulated profiles, reports.

Direction-set files are the only input the KS check reads::

    { "name": str, "directions": [[x, y, z] | {"theta": t, "phi": p}, ...] }

Cartesian entries are normalized on load by ``spin_core.unit_rows``, so a
finite row of any magnitude loads and a row of norm below 1e-12 is a zero
vector; polar entries are in radians.

Profile files (tabulated axial density)::

    { "name": str, "epsilon": e, "profile": [[theta, weight], ...] }

evaluated by linear interpolation on [0, epsilon], which the thetas must span.

Every number, ``epsilon`` included, is read by one parser, ``_number_rows``:
a row must be a list of finite numbers (a boolean is not a number), and an
error names the row as ``key[k]`` (``epsilon`` as ``profile file['epsilon']``).

Ray-set files, ``{ "name": str, "field": "real", "rays": [[x, y, z], ...] }``,
are read only by the benchmark: the two bundled ones hold the rows of the
Peres-33 and integer-49 direction files, as its frozen copies.

Reports are JSON with keys in a fixed order, so identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import json
import math
from importlib import resources

import numpy as np

from .ks_solver import canonicalize_and_dedupe
from .misalignment import AxialDensity
from .spin_core import unit_from_polar, unit_rows


def fixture_path(name: str):
    """Path to a bundled data file (e.g. ``peres33_directions.json``)."""
    path = resources.files("unsharp_spin").joinpath("data", name)
    if not path.is_file():
        raise FileNotFoundError(f"no bundled fixture named {name!r}")
    return path


def _load_object(path, kind: str) -> dict:
    """Read a JSON file whose top level must be an object.

    Integers are read as floats, so one too large for a float reads as
    inf, which ``_number_rows`` rejects like any non-finite number.
    """
    with open(path) as fh:
        doc = json.load(fh, parse_int=float)
    if not isinstance(doc, dict):
        raise ValueError(f"{kind} file: top level must be an object")
    return doc


def _number_rows(rows: list, fields: tuple, where: str, labels=None) -> np.ndarray:
    """``rows`` as a float array of shape (len(rows), len(fields)).

    Each row must be a list of ``len(fields)`` finite numbers; a boolean
    is not a number.  The error for row k names ``where[labels[k]]``
    (labels default to the row positions).
    """
    for k, row in enumerate(rows):
        if not (
            isinstance(row, list)
            and len(row) == len(fields)
            and all(type(x) is float and math.isfinite(x) for x in row)
        ):
            label = k if labels is None else labels[k]
            raise ValueError(
                f"{where}[{label}] must be [{', '.join(fields)}] with finite numeric components, got {row!r}"
            )
    return np.array(rows, dtype=float).reshape(-1, len(fields))


def load_ray_file(path) -> tuple[str, list[np.ndarray]]:
    """Load a real ray-set file: its rows, normalized, phase-fixed and
    deduplicated by ``canonicalize_and_dedupe``.

    Only the benchmark reads ray files; the package reads direction sets.
    """
    doc = _load_object(path, "ray")
    name = doc.get("name")
    if not isinstance(name, str):
        raise ValueError("ray file: 'name' must be a string")
    if doc.get("field") != "real":
        raise ValueError("ray file: 'field' must be 'real'")
    raw = doc.get("rays")
    if not isinstance(raw, list) or not raw:
        raise ValueError("ray file: 'rays' must be a non-empty list")
    return name, canonicalize_and_dedupe(_number_rows(raw, ("x", "y", "z"), "ray file: rays"))


def load_direction_file(path) -> tuple[str, list[np.ndarray]]:
    """Load a direction-set file; Cartesian rows are normalized by ``unit_rows``."""
    doc = _load_object(path, "direction")
    name = doc.get("name")
    if not isinstance(name, str):
        raise ValueError("direction file: 'name' must be a string")
    raw = doc.get("directions")
    if not isinstance(raw, list) or not raw:
        raise ValueError("direction file: 'directions' must be a non-empty list")
    where = "direction file: directions"
    directions, cartesian = np.empty((len(raw), 3)), []
    for k, entry in enumerate(raw):
        if isinstance(entry, dict):
            row = [entry.get("theta"), entry.get("phi")]
            ((theta, phi),) = _number_rows([row], ("theta", "phi"), where, [k])
            directions[k] = unit_from_polar(theta, phi)
        elif isinstance(entry, list):
            cartesian.append(k)
        else:
            raise ValueError(f"{where}[{k}] must be [x, y, z] or {{'theta': t, 'phi': p}}")
    rows = _number_rows([raw[k] for k in cartesian], ("x", "y", "z"), where, cartesian)
    directions[cartesian] = unit_rows(rows, where, cartesian)
    return name, list(directions)


def save_direction_file(path, name: str, directions) -> None:
    rows = [[float(x) for x in np.asarray(d, dtype=float)] for d in directions]
    doc = {"name": name, "directions": rows}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_profile_file(path) -> AxialDensity:
    """Build an axial misalignment model from a tabulated (theta, weight)
    file, linearly interpolated; the table's thetas, where the
    interpolant has kinks, are the model's breakpoints."""
    doc = _load_object(path, "profile")
    ((epsilon,),) = _number_rows([[doc.get("epsilon")]], ("epsilon",), "profile file", ["'epsilon'"])
    table = doc.get("profile")
    if not isinstance(table, list) or len(table) < 2:
        raise ValueError("profile file: 'profile' must list at least 2 [theta, weight] rows")
    thetas, weights = _number_rows(table, ("theta", "weight"), "profile file: profile").T
    if np.any(np.diff(thetas) <= 0):
        raise ValueError("profile file: 'profile' thetas must be strictly increasing")
    if np.any(weights < 0):
        raise ValueError("profile file: 'profile' weights must be nonnegative")
    if thetas[0] > 0.0 or thetas[-1] < epsilon:
        raise ValueError(f"profile file: 'profile' thetas must span [0, epsilon] = [0, {epsilon!r}]")

    def profile(theta):
        return np.interp(theta, thetas, weights)

    profile.__name__ = str(doc.get("name", "tabulated"))
    return AxialDensity(epsilon, profile, breakpoints=thetas)


def dumps_report(report: dict) -> str:
    """Serialize a report dict preserving key order; ends with a newline."""
    return json.dumps(report, indent=2) + "\n"


def write_report(path, report: dict) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_report(report))
