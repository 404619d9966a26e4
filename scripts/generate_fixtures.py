"""Regenerate the bundled direction-set fixtures (and the benchmark's ray-set copies).

The 33-ray set is Peres's: all rays obtained from (0,0,1), (0,1,1),
(0,1,sqrt2) and (1,1,sqrt2) by permutations and sign flips, one
representative per ray.  The 49-ray set collects every ray whose
components (up to scale and overall sign) come from {0, +-1, +-2}; it is
the integer family from which Conway and Kochen drew their 31-ray set.
Components are stored as full-precision decimals so loading reproduces
the exact doubles.  Each ``*_rays.json`` file holds the same rows as its
``*_directions.json`` file; only the benchmark reads it.

Run from the repository root:  python scripts/generate_fixtures.py
"""

from __future__ import annotations

import itertools
import json
import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from unsharp_spin.formats import save_direction_file  # noqa: E402

DATA = pathlib.Path(__file__).resolve().parents[1] / "src" / "unsharp_spin" / "data"


def save_benchmark_ray_file(path: pathlib.Path, name: str, rays) -> None:
    """Benchmark only: the frozen real ray-set copy of a direction set."""
    doc = {"name": name, "field": "real", "rays": [[float(x) for x in ray] for ray in rays]}
    path.write_text(json.dumps(doc, indent=1) + "\n")


def ray_key(v: np.ndarray) -> tuple:
    v = v / np.linalg.norm(v)
    for c in v:
        if abs(c) > 1e-9:
            v = v * np.sign(c)
            break
    return tuple(np.round(v, 9))


def unique_rays(vectors) -> list[np.ndarray]:
    """One unit representative per ray among the nonzero ``vectors`` (the
    first one met), sorted by ``ray_key``."""
    seen = {}
    for v in map(np.array, vectors):
        if np.linalg.norm(v) >= 1e-12:
            seen.setdefault(ray_key(v), v / np.linalg.norm(v))
    return [seen[k] for k in sorted(seen)]


def all_rays_with_components(values: list[float]) -> list[np.ndarray]:
    """Every ray with all three components in ``values`` (plus-minus),
    excluding the zero vector, one representative each, in a stable order."""
    signed = sorted({s * v for v in values for s in (1.0, -1.0)})
    return unique_rays(itertools.product(signed, repeat=3))


def peres_rays() -> list[np.ndarray]:
    """The 33 rays generated from (0,0,1), (0,1,1), (0,1,s2), (1,1,s2)."""
    s2 = np.sqrt(2.0)
    seeds = [(0, 0, 1), (0, 1, 1), (0, 1, s2), (1, 1, s2)]
    return unique_rays(
        [s * c for s, c in zip(signs, perm)]
        for seed in seeds
        for perm in itertools.permutations(seed)
        for signs in itertools.product((1.0, -1.0), repeat=3)
    )


def main() -> None:
    DATA.mkdir(parents=True, exist_ok=True)
    peres = peres_rays()
    assert len(peres) == 33, len(peres)
    save_direction_file(DATA / "peres33_directions.json", "peres-33", peres)
    save_benchmark_ray_file(DATA / "peres33_rays.json", "peres-33", peres)

    integer = all_rays_with_components([0.0, 1.0, 2.0])
    assert len(integer) == 49, len(integer)
    save_direction_file(DATA / "integer49_directions.json", "integer-49", integer)
    save_benchmark_ray_file(DATA / "integer49_rays.json", "integer-49", integer)

    print(f"wrote {len(peres)} Peres rays and {len(integer)} integer rays to {DATA}")


if __name__ == "__main__":
    main()
