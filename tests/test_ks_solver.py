import itertools
import time

import numpy as np
import pytest

from unsharp_spin import crosscheck as cc
from unsharp_spin import formats
from unsharp_spin import ks_solver as ks
from unsharp_spin import misalignment as mis
from unsharp_spin import spin_core as sc

X, Y, Z = np.eye(3)
BASIS = [np.eye(3, dtype=complex)[i] for i in range(3)]


def two_shared_tripods():
    """Five rays: the standard basis plus the basis rotated 45 degrees
    about z, sharing the z ray.  Tripods (0,1,2) and (2,3,4)."""
    c = np.cos(np.pi / 4)
    rays = BASIS + [
        np.array([c, c, 0], dtype=complex),
        np.array([-c, c, 0], dtype=complex),
    ]
    return ks.build_graph(rays)


def fuzz_instances():
    """200 random graphs on 3-12 vertices with tripods = all triangles,
    the same shape build_graph produces; they exercise propagation undo
    paths that ray geometries rarely hit."""
    rng = np.random.default_rng(4242)
    for _ in range(200):
        n = int(rng.integers(3, 13))
        p = rng.random() * 0.8
        pairs, adj = [], [set() for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < p:
                    pairs.append((i, j))
                    adj[i].add(j)
                    adj[j].add(i)
        tripods = [(i, j, k) for i, j in pairs for k in sorted(adj[i] & adj[j]) if k > j]
        yield ks.KsInstance(n, tuple(pairs), tuple(tripods))


def free_instance(n: int, pairs, tripods=()) -> ks.KsInstance:
    return ks.KsInstance(n, tuple(pairs), tuple(tripods))


def fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def relabelled(n: int, pairs, seed: int) -> ks.KsInstance:
    """A tripod-free instance with its vertices renamed by a seeded
    permutation, pairs in build_graph's row-major order."""
    label = np.random.default_rng(seed).permutation(n).tolist()
    return free_instance(n, sorted(tuple(sorted((label[i], label[j]))) for i, j in pairs))


def fixture_directions(name: str) -> list[np.ndarray]:
    return formats.load_direction_file(formats.fixture_path(f"{name}_directions.json"))[1]


def integer49_subset(seed: int) -> ks.KsInstance:
    """Graph of a seeded subset of 20-28 integer-49 directions."""
    rng = np.random.default_rng(seed)
    size = int(rng.integers(20, 29))
    dirs = fixture_directions("integer49")
    return ks.build_graph([dirs[i] for i in sorted(rng.choice(len(dirs), size=size, replace=False))])


def direction_graph(name: str) -> ks.KsInstance:
    """The graph ``ks_pipeline`` searches for a bundled direction set."""
    return ks.build_graph(ks.canonicalize_and_dedupe(np.asarray(fixture_directions(name))))


# (verdict, count, nodes_explored, max_depth, coloring as T/F per ray) in
# first_solution and count_all mode: any rewrite of the search must
# reproduce its branching order, not only its verdicts and counts
SEARCH_TRACES = {
    "peres-direction-graph": (
        lambda: direction_graph("peres33"),
        ("UNSAT", None, 16, 3, None),
        ("UNSAT", None, 16, 3, None),
    ),
    "integer49-direction-graph": (
        lambda: direction_graph("integer49"),
        ("UNSAT", None, 22, 4, None),
        ("UNSAT", None, 22, 4, None),
    ),
    "integer49-subset-2": (
        lambda: integer49_subset(2),
        ("SAT", None, 6, 6, "FFTTTTTTFFFFFFFFFFFFFFFFFFF"),
        ("SAT", 8474, 346, 9, "FFTTTTTTFFFFFFFFFFFFFFFFFFF"),
    ),
    "integer49-subset-4": (
        lambda: integer49_subset(4),
        ("SAT", None, 1, 1, "FFFFFTFFFFFFFFFFFFFFFFFFFF"),
        ("SAT", 127472, 4, 2, "FFFFFTFFFFFFFFFFFFFFFFFFFF"),
    ),
    "integer49-subset-7": (
        lambda: integer49_subset(7),
        ("SAT", None, 3, 3, "TFFFFFTFTFFFFFFFFFFFFFFFFFFF"),
        ("SAT", 125464, 40, 5, "TFFFFFTFTFFFFFFFFFFFFFFFFFFF"),
    ),
    "integer49-subset-13": (
        lambda: integer49_subset(13),
        ("SAT", None, 5, 5, "TFFTFFFFTFFFTFTFFFFFFFFFFFFF"),
        ("SAT", 10297, 102, 8, "TFFTFFFFTFFFTFTFFFFFFFFFFFFF"),
    ),
    "integer49-subset-17": (
        lambda: integer49_subset(17),
        ("SAT", None, 5, 5, "TTFTFFFFFTFFFFFFFTFFFFFFFF"),
        ("SAT", 1444, 94, 7, "TTFTFFFFFTFFFFFFFTFFFFFFFF"),
    ),
    "integer49-subset-23": (
        lambda: integer49_subset(23),
        ("SAT", None, 2, 2, "TTFFFFFFFFFFFFFFFFFF"),
        ("SAT", 10816, 16, 4, "TTFFFFFFFFFFFFFFFFFF"),
    ),
}


class TestCanonicalize:
    # test_geometry.py's TestDedupe checks the rays kept against a pairwise
    # reference; these check the errors
    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError, match="zero"):
            ks.canonicalize_and_dedupe([np.zeros(3)])

    @pytest.mark.filterwarnings("error")
    def test_overflowing_row_gives_the_unit_ray(self):
        rays = ks.canonicalize_and_dedupe([[1e200, 0, 0], [0, 1, 0]])
        np.testing.assert_array_equal(np.array(rays), [[1, 0, 0], [0, 1, 0]])

    @pytest.mark.filterwarnings("error")
    def test_non_finite_row_error_names_its_index(self):
        # an infinite component is an error, not a NaN ray or a RuntimeWarning
        with pytest.raises(ValueError, match=r"^rays\[0\] has non-finite components$"):
            ks.canonicalize_and_dedupe([[np.inf, 0, 0], [0, 1, 0]])

    def test_zero_row_error_names_its_index(self):
        with pytest.raises(ValueError, match=r"^rays\[2\] is a zero vector$"):
            ks.canonicalize_and_dedupe([X, Y, np.zeros(3), Z, np.zeros(3)])

    def test_rejects_rows_that_are_not_3_vectors(self):
        with pytest.raises(ValueError, match="3-vectors"):
            ks.canonicalize_and_dedupe(np.ones((4, 2)))


class TestBuildGraph:
    def test_standard_basis(self):
        inst = ks.build_graph(BASIS)
        assert inst.ray_count == 3
        assert inst.ortho_pairs == ((0, 1), (0, 2), (1, 2))
        assert inst.tripods == ((0, 1, 2),)
        assert ks.build_graph([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == inst  # integer rows

    def test_xyz_eigenrays(self):
        rays = ks.eigenray_set([X, Y, Z])
        inst = ks.build_graph(rays)
        # three per-direction triads plus the cross tripod of the three
        # middle (outcome-0) eigenrays
        assert inst.ray_count == 9
        assert len(inst.ortho_pairs) == 12
        assert len(inst.tripods) == 4

    def test_tripod_edges_are_pairs(self):
        inst = two_shared_tripods()
        pairs = set(inst.ortho_pairs)
        for a, b, c in inst.tripods:
            assert {(a, b), (a, c), (b, c)} <= pairs


class TestEigenraySet:
    def test_z_direction(self):
        rays = ks.eigenray_set([Z])
        assert len(rays) == 3
        got = {tuple(np.round(r.real, 9)) for r in rays}
        assert got == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}

    def test_x_direction_excludes_x_itself(self):
        rays = ks.eigenray_set([X])
        expected = [
            np.array([1, np.sqrt(2), 1]) / 2,
            np.array([1, 0, -1]) / np.sqrt(2),
            np.array([1, -np.sqrt(2), 1]) / 2,
        ]
        for want in expected:
            assert any(abs(abs(np.vdot(r, want)) - 1) < 1e-10 for r in rays)
        assert not any(abs(abs(np.vdot(r, X)) - 1) < 1e-10 for r in rays)

    def test_duplicate_directions_dedupe(self):
        assert len(ks.eigenray_set([Z, Z])) == 3

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            ks.eigenray_set([])


class TestSolver:
    def test_single_tripod_count(self):
        result = ks.solve_coloring(ks.build_graph(BASIS), mode="count_all")
        assert result.is_sat and result.count == 3

    def test_two_shared_tripods_count(self):
        inst = two_shared_tripods()
        result = ks.solve_coloring(inst, mode="count_all")
        assert result.is_sat and result.count == 5
        brute_count, _ = cc.brute_force_colorings(inst)
        assert brute_count == 5

    def test_sat_coloring_passes_checker(self):
        inst = two_shared_tripods()
        result = ks.solve_coloring(inst)
        ok, violations = cc.check_coloring(inst, result.coloring)
        assert ok, violations

    def test_checker_rejects_corrupted_coloring(self):
        inst = ks.build_graph(BASIS)
        bad = {0: "AT", 1: "AT", 2: "AF"}
        ok, violations = cc.check_coloring(inst, bad)
        assert not ok and violations

    def test_modes_agree(self):
        inst = two_shared_tripods()
        first = ks.solve_coloring(inst, mode="first_solution")
        counted = ks.solve_coloring(inst, mode="count_all")
        assert first.verdict == counted.verdict == "SAT"
        assert first.coloring == counted.coloring
        dirs = fixture_directions("peres33")
        rng = np.random.default_rng(33)
        subsets = [
            ks.build_graph([dirs[i] for i in sorted(rng.choice(len(dirs), size=k, replace=False))])
            for k in rng.integers(3, len(dirs) + 1, size=60)
        ]
        for inst in [*fuzz_instances(), *subsets]:
            first = ks.solve_coloring(inst, mode="first_solution")
            counted = ks.solve_coloring(inst, mode="count_all")
            assert first.verdict == counted.verdict
            assert first.coloring == counted.coloring

    def test_rejects_unknown_mode(self):
        for mode in ("fast", "prove"):
            with pytest.raises(ValueError, match="mode"):
                ks.solve_coloring(ks.build_graph(BASIS), mode=mode)

    def test_fuzz_synthetic_instances_against_oracles(self):
        for inst in fuzz_instances():
            counted = ks.solve_coloring(inst, mode="count_all")
            brute_count, _ = cc.brute_force_colorings(inst)
            assert (counted.count if counted.is_sat else 0) == brute_count
            assert ks.solve_coloring(inst).is_sat == (brute_count > 0)
            dp_sat, dp_model = cc.dpll_solve(inst)
            assert dp_sat == (brute_count > 0)
            if dp_sat:
                ok, violations = cc.check_coloring(inst, dp_model)
                assert ok, violations

    # Instances without tripods leave every ray free at the root leaf, so
    # count_all counts independent sets: Fibonacci numbers on a path,
    # Lucas numbers on a cycle, far beyond what enumerating colorings one
    # by one can reach.  Labels in a seeded order: the independent-set
    # count relabels each component breadth-first, without which its memo
    # grows exponentially on these (tens of seconds for one 60-cycle).
    @pytest.mark.parametrize("relabel", [False, True], ids=["plain", "relabelled"])
    @pytest.mark.parametrize("cycle", [False, True], ids=["path-fibonacci", "cycle-lucas"])
    def test_free_counts(self, cycle, relabel):
        start = time.perf_counter()
        for n in range(4 if cycle else 1, 61):
            pairs = [(i, i + 1) for i in range(n - 1)] + ([(0, n - 1)] if cycle else [])
            inst = relabelled(n, pairs, seed=n) if relabel else free_instance(n, pairs)
            want = fibonacci(n - 1) + fibonacci(n + 1) if cycle else fibonacci(n + 2)
            assert ks.solve_coloring(inst, mode="count_all").count == want, n
        if relabel:
            assert time.perf_counter() - start < 2.0

    @pytest.mark.parametrize("mode", ["first_solution", "count_all"])
    @pytest.mark.parametrize("case", list(SEARCH_TRACES))
    def test_search_trace_is_pinned(self, case, mode):
        build, *expected = SEARCH_TRACES[case]
        result = ks.solve_coloring(build(), mode=mode)
        coloring = None
        if result.coloring is not None:
            coloring = "".join("T" if result.coloring[i] == "AT" else "F" for i in sorted(result.coloring))
        got = (result.verdict, result.count, result.nodes_explored, result.max_depth, coloring)
        assert got == expected[mode == "count_all"]

    def test_free_rays_count_powers_of_two(self):
        result = ks.solve_coloring(free_instance(1200, ()), mode="count_all")
        assert result.count == 2**1200
        assert result.coloring == {i: "AF" for i in range(1200)}
        assert result.nodes_explored == 0 and result.max_depth == 0

    def test_tripod_with_pendant_path(self):
        # Tripod (0, 1, 2); ray 0 starts a path 0-3-4-...-(2+m).  Exactly
        # one tripod ray is AT.  If it is 0, ray 3 is AF and the path
        # 4..(2+m) of m-1 free rays has F(m+1) independent sets.  If it is
        # 1 or 2, ray 0 is AF and the path 3..(2+m) of m free rays has
        # F(m+2).  Total F(m+1) + 2 F(m+2).
        for m in (1, 5, 40):
            pairs = [(0, 1), (0, 2), (1, 2), (0, 3)] + [(i, i + 1) for i in range(3, 2 + m)]
            inst = free_instance(3 + m, pairs, [(0, 1, 2)])
            result = ks.solve_coloring(inst, mode="count_all")
            assert result.count == fibonacci(m + 1) + 2 * fibonacci(m + 2)
            if 3 + m <= cc.BRUTE_FORCE_LIMIT:
                assert cc.brute_force_colorings(inst)[0] == result.count

    def test_brute_force_at_its_limit(self):
        # 22 rays with constraints on ray 21, the top bit of the masks.  The
        # reference enumerates the rays the constraints touch with
        # itertools.product; each free ray doubles the count and is AF in
        # the smallest valid mask
        tripods = [(0, 10, 21), (19, 20, 21)]
        pairs = sorted([(i, j) for t in tripods for i, j in itertools.combinations(t, 2)] + [(1, 20), (1, 21)])
        touched = sorted({r for pair in pairs for r in pair})
        valid = []
        for colors in itertools.product((False, True), repeat=len(touched)):
            at = dict(zip(touched, colors))
            if not any(at[i] and at[j] for i, j in pairs) and all(sum(at[r] for r in t) == 1 for t in tripods):
                valid.append(sum(1 << r for r in touched if at[r]))
        count, example = cc.brute_force_colorings(free_instance(22, pairs, tripods))
        assert count == len(valid) << (22 - len(touched))
        assert example == {i: "AT" if (min(valid) >> i) & 1 else "AF" for i in range(22)}
        with pytest.raises(ValueError, match="limited to 22 rays, got 23"):
            cc.brute_force_colorings(free_instance(23, pairs, tripods))

    def test_dpll_deeper_than_recursion_limit(self):
        # one decision per unconstrained ray, 1200 levels deep
        inst = ks.KsInstance(1200, (), ())
        sat, model = cc.dpll_solve(inst)
        assert sat and ks.solve_coloring(inst).is_sat
        assert model == {v: "AT" for v in range(1200)}


class TestFixtures:
    def test_peres33_unsat(self):
        result = ks.solve_coloring(direction_graph("peres33"), mode="first_solution")
        assert result.verdict == "UNSAT"
        assert result.nodes_explored > 0

    def test_peres33_dpll_agrees(self):
        # on the direction graph and on the 99-ray eigenray instance, where
        # the headline verdict would otherwise rest on one solver
        for inst in (direction_graph("peres33"), ks.build_graph(ks.eigenray_set(fixture_directions("peres33")))):
            assert cc.dpll_solve(inst) == (False, None)

    def test_integer49_unsat_both_ways(self):
        inst = direction_graph("integer49")
        assert inst.ray_count == 49
        assert ks.solve_coloring(inst).verdict == "UNSAT"
        sat, _ = cc.dpll_solve(inst)
        assert not sat


class TestPipeline:
    def test_peres_contradiction(self):
        _, dirs = formats.load_direction_file(formats.fixture_path("peres33_directions.json"))
        report = ks.ks_pipeline(dirs, mis.UniformCap(0.4), 0.1)
        assert report.conclusion == ks.KS_CONTRADICTION
        assert report.condition2_ok
        assert (report.ray_count, report.ortho_pair_count, report.tripod_count) == (99, 171, 49)
        assert report.solve.verdict == "UNSAT"

    def test_peres_condition_failure(self):
        _, dirs = formats.load_direction_file(formats.fixture_path("peres33_directions.json"))
        report = ks.ks_pipeline(dirs, mis.UniformCap(0.6), 0.1)
        assert report.conclusion == ks.CONDITION2_FAILED
        assert report.solve is None
        assert report.condition2_margins["a4"] < 0

    def test_xyz_colorable(self):
        report = ks.ks_pipeline([X, Y, Z], mis.UniformCap(0.4), 0.1)
        assert report.conclusion == ks.COLORABLE
        assert report.solve.is_sat
        # x is AT and lifts to the outcome-0 colors, y and z to the outcome +1 ones
        coloring = report.solve.coloring
        assert " ".join(coloring[i] for i in sorted(coloring)) == "AF AT AF AT AF AF AT AF AF"

    def test_rejects_empty_directions(self):
        with pytest.raises(ValueError, match="non-empty"):
            ks.ks_pipeline([], mis.UniformCap(0.4), 0.1)

    @pytest.mark.parametrize(
        "directions, bad_row", [([[1, 1, 1], [0, 0, 0]], 0), ([X, [0, 0, 0]], 1)], ids=["non-unit", "zero"]
    )
    def test_rejects_bad_directions_when_condition2_fails(self, directions, bad_row):
        assert ks.ks_pipeline([X, Y], mis.UniformCap(0.6), 0.1).conclusion == ks.CONDITION2_FAILED
        with pytest.raises(ValueError, match=rf"directions\[{bad_row}\] must be a unit vector"):
            ks.ks_pipeline(directions, mis.UniformCap(0.6), 0.1)

    def test_rejects_non_finite_and_misshapen_directions(self):
        with pytest.raises(ValueError, match="non-finite"):
            ks.ks_pipeline([X, [np.nan, 0, 0]], mis.UniformCap(0.4), 0.1)
        with pytest.raises(ValueError, match="3-vectors"):
            ks.ks_pipeline(np.eye(4), mis.UniformCap(0.4), 0.1)

    def test_array_and_list_give_identical_reports(self):
        rng = np.random.default_rng(77)
        units = rng.normal(size=(60, 3))
        units /= np.linalg.norm(units, axis=1, keepdims=True)
        _, peres = formats.load_direction_file(formats.fixture_path("peres33_directions.json"))
        for directions in (units, np.array(peres)):
            reports = [
                formats.dumps_report(ks.ks_pipeline(d, mis.UniformCap(0.4), 0.1).to_dict())
                for d in (directions, list(directions))
            ]
            assert reports[0] == reports[1]

    def test_report_dict_key_order(self):
        report = ks.ks_pipeline([X, Y, Z], mis.UniformCap(0.4), 0.1)
        keys = list(report.to_dict().keys())
        assert keys == [
            "name",
            "delta",
            "model",
            "alphas",
            "condition2",
            "ray_count",
            "ortho_pair_count",
            "tripod_count",
            "solve",
            "conclusion",
        ]

    def test_thousand_random_directions(self):
        rng = np.random.default_rng(1000)
        dirs = [sc.random_unit_vector(rng) for _ in range(1000)]
        report = ks.ks_pipeline(dirs, mis.UniformCap(0.4), 0.1)
        assert report.conclusion == ks.COLORABLE
        assert report.ray_count == 3000
        inst = ks.build_graph(ks.eigenray_set(dirs))
        ok, violations = cc.check_coloring(inst, report.solve.coloring)
        assert ok, violations
        # the eigenray instance is deeper than the default recursion
        # limit: one decision per private tripod
        assert ks.solve_coloring(inst).max_depth == 1000

    @pytest.mark.parametrize(
        "dirs, shape",
        [
            ([Z, sc.rotation_y(3e-5) @ Z], (3, 3, 1)),
            ([Z, sc.rotation_y(5.5e-5) @ Z], (6, 6, 2)),
            ([Z, sc.rotation_y(8e-5) @ Z], (6, 6, 2)),
            ([Z, -Z, X], (6, 7, 2)),
        ],
        ids=["tilt-3e-5", "tilt-5.5e-5", "tilt-8e-5", "antipodal"],
    )
    def test_direction_dedupe(self, dirs, shape):
        # directions are deduplicated up to sign with one threshold on
        # |n.n'|, so a direction is dropped or kept with its whole
        # eigenbasis, never with part of it
        report = ks.ks_pipeline(dirs, mis.UniformCap(0.4), 0.1)
        assert (report.ray_count, report.ortho_pair_count, report.tripod_count) == shape
        assert report.conclusion == ks.COLORABLE
