"""The blocked overlap-matrix geometry against a plain pairwise reference.

``reference_dedupe`` and ``reference_graph`` are the direct O(n^2) loops
over ``np.vdot`` that define the geometry: greedy first-occurrence
dedupe against the rays kept so far, then pairs in row-major order and
tripods per pair with k > j.  The library must reproduce them exactly.
"""

import numpy as np
import pytest

from unsharp_spin import formats
from unsharp_spin import ks_solver as ks
from unsharp_spin import spin_core as sc

X, Y, Z = np.eye(3)


def reference_dedupe(vectors):
    rays = []
    for v in vectors:
        ray = np.asarray(v) / np.linalg.norm(v)
        if not any(abs(np.vdot(known, ray)) >= ks.DEDUPE_OVERLAP for known in rays):
            rays.append(ray)
    return rays


def reference_graph(rays, tol=ks.ORTHO_TOL):
    n = len(rays)
    for i in range(n):
        for j in range(i + 1, n):
            if abs(np.vdot(rays[i], rays[j])) >= ks.DEDUPE_OVERLAP:
                raise ValueError(f"rays {i} and {j} are the same ray; deduplicate first")
    pairs = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if abs(np.vdot(rays[i], rays[j])) <= tol
    ]
    adjacency = [set() for _ in range(n)]
    for i, j in pairs:
        adjacency[i].add(j)
        adjacency[j].add(i)
    tripods = [
        (i, j, k) for i, j in pairs for k in sorted(adjacency[i] & adjacency[j]) if k > j
    ]
    return pairs, tripods


def assert_matches_reference(vectors):
    rays = ks.canonicalize_and_dedupe(vectors)
    want = reference_dedupe(vectors)
    assert len(rays) == len(want)
    for got, expected in zip(rays, want):
        np.testing.assert_array_equal(got, expected)
    inst = ks.build_graph(rays)
    pairs, tripods = reference_graph(want)
    assert list(inst.ortho_pairs) == pairs
    assert list(inst.tripods) == tripods
    return inst


def tilted(angle):
    """Z rotated by ``angle`` about y: overlap with Z is cos(angle)."""
    return np.array([np.sin(angle), 0.0, np.cos(angle)], dtype=complex)


# 1 - cos(angle) = gap  <=>  angle = 2 asin(sqrt(gap / 2))
def angle_for_gap(gap):
    return 2 * np.arcsin(np.sqrt(gap / 2))


SAME = angle_for_gap(0.6e-9)  # overlap 1 - 0.6e-9; twice the angle is 1 - 2.4e-9


@pytest.fixture(params=[ks.OVERLAP_BLOCK_ROWS, 1, 5])
def block_rows(request, monkeypatch):
    """Run at the module's block size and at sizes that put block
    boundaries between almost every pair."""
    monkeypatch.setattr(ks, "OVERLAP_BLOCK_ROWS", request.param)


@pytest.mark.usefixtures("block_rows")
class TestDedupe:
    def test_chain_follows_greedy_first_occurrence(self):
        a, b, c = tilted(0.0), tilted(SAME), tilted(2 * SAME)
        assert abs(np.vdot(a, c)) < ks.DEDUPE_OVERLAP
        # b merges into a; c is only a duplicate of the dropped b, so it stays
        rays = ks.canonicalize_and_dedupe([a, b, c])
        assert len(rays) == 2
        # led by b, the chain collapses to b
        assert len(ks.canonicalize_and_dedupe([b, a, c])) == 1
        # with c kept before b, b merges into a
        assert len(ks.canonicalize_and_dedupe([a, c, b])) == 2
        for order in ([a, b, c], [b, a, c], [a, c, b], [c, b, a], [b, c, a]):
            assert_matches_reference(order)

    def test_long_chain_alternates(self):
        chain = [tilted(k * SAME) for k in range(12)]
        rays = ks.canonicalize_and_dedupe(chain)
        assert len(rays) == 6
        assert_matches_reference(chain)

    def test_phase_and_scale_copies(self):
        v = np.array([0.3, -0.5j, 0.8])
        copies = [v, 2.5 * v, np.exp(1j * 1.1) * v, -3j * v, X, -X, 1e-6j * v]
        rays = ks.canonicalize_and_dedupe(copies)
        assert len(rays) == 2
        assert_matches_reference(copies)

    def test_dedupe_band_edges(self):
        inside = angle_for_gap(0.99e-9)
        outside = angle_for_gap(1.01e-9)
        assert abs(np.vdot(tilted(0.0), tilted(inside))) >= ks.DEDUPE_OVERLAP
        assert abs(np.vdot(tilted(0.0), tilted(outside))) < ks.DEDUPE_OVERLAP
        assert len(ks.canonicalize_and_dedupe([Z, tilted(inside)])) == 1
        assert len(ks.canonicalize_and_dedupe([Z, tilted(outside)])) == 2
        assert_matches_reference([Z, tilted(inside), X, tilted(outside), Y])


@pytest.mark.usefixtures("block_rows")
class TestGraph:
    def test_ortho_band_edges(self):
        def off_x(axis, s):
            v = np.zeros(3)
            v[0], v[axis] = s, np.sqrt(1 - s * s)
            return v

        # |<X, off_x(axis, s)>| is exactly s
        for s in (0.99e-9, ks.ORTHO_TOL):
            inst = assert_matches_reference([X, off_x(1, s), off_x(2, s)])
            assert inst.tripods == ((0, 1, 2),)
        inst = assert_matches_reference([X, off_x(1, 0.99e-9), off_x(2, 1.01e-9)])
        assert inst.ortho_pairs == ((0, 1), (1, 2))
        assert inst.tripods == ()

    def test_longer_than_one_block(self):
        _, peres = formats.load_direction_file(formats.fixture_path("peres33_directions.json"))
        rng = np.random.default_rng(40)
        extra = [sc.random_unit_vector(rng) for _ in range(4)]
        # 40 directions, three of them repeats, 111 distinct eigenrays
        directions = list(peres) + extra + [peres[5], extra[1], peres[32]]
        vectors = [v for n in directions for v in sc.sharp_eigenvectors(n)]
        assert len(vectors) == 120
        inst = assert_matches_reference(vectors)
        assert inst.ray_count == 111
        assert len(inst.ortho_pairs) == 171 + 12
        assert len(inst.tripods) == 49 + 4

    def test_duplicate_rejection_message(self):
        rng = np.random.default_rng(70)
        rays = ks.eigenray_set([sc.random_unit_vector(rng) for _ in range(24)])[:70]
        rays[40] = rays[5] * np.exp(0.4j)
        rays[69] = -rays[2]
        # row-major order reports (2, 69) before (5, 40)
        with pytest.raises(ValueError) as want:
            reference_graph(rays)
        with pytest.raises(ValueError) as got:
            ks.build_graph(rays)
        assert str(got.value) == str(want.value)
        assert str(got.value) == "rays 2 and 69 are the same ray; deduplicate first"

    def test_empty_and_single(self):
        assert ks.canonicalize_and_dedupe([]) == []
        inst = ks.build_graph([])
        assert inst.ortho_pairs == () and inst.tripods == ()
        inst = ks.build_graph([Z])
        assert inst.ray_count == 1 and inst.ortho_pairs == ()


@pytest.mark.parametrize("name", ["peres33", "integer49", "random"])
def test_real_rays_stay_float64_and_match_their_complex_cast(name):
    if name == "random":
        # generic rows of any length, rows b and c that complete the first
        # 20 to orthogonal triads, and negated or rescaled copies of 30 rows
        v = np.random.default_rng(44).normal(size=(150, 3))
        b = np.cross(v[:20], v[20:40])
        real = np.concatenate([v, b, np.cross(v[:20], b), -2.5 * v[:20], 1e-3 * v[100:110]])
    else:
        real = np.array(formats.load_direction_file(formats.fixture_path(f"{name}_directions.json"))[1])
    rays, cast = ks.canonicalize_and_dedupe(real), ks.canonicalize_and_dedupe(real.astype(complex))
    assert {r.dtype for r in rays} == {np.dtype(float)} and {r.dtype for r in cast} == {np.dtype(complex)}
    # complex division by the norm multiplies by its reciprocal: the last bit may differ
    np.testing.assert_allclose(np.array(rays), np.array(cast), rtol=0, atol=2e-16)
    graph, cast_graph = ks.build_graph(rays), ks.build_graph(cast)
    assert graph.ortho_pairs == cast_graph.ortho_pairs and graph.tripods == cast_graph.tripods
    assert graph.ray_count == len(real) - 30 * (name == "random") and graph.tripods
