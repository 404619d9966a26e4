"""The four benchmark workloads: seeded inputs, one operation each, and the
correctness gate for what the operations returned.

The worker process imports this module to run operations in a closed
loop; the parent process (run.py) imports it to regenerate the same
inputs from the seed and check the outputs the worker sent back.  The
gate runs in the parent so that its memory and time stay out of the
worker's measurements.

Operations call the library through module attributes (``us.ks_pipeline``,
``verify.run_verification``) at call time, so the tracer's wrappers are
seen when a traced run installs them.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from types import SimpleNamespace

import numpy as np

import unsharp_spin as us
from unsharp_spin import crosscheck, ks_solver, verify

# ks-peres: the headline `ks-check` invocation on the bundled 33 directions.
PERES_EPSILON = 0.4
PERES_DELTA = 0.1
PERES_SHAPE = (99, 171, 49)  # rays, orthogonal pairs, tripods

# ks-random: N stays at 300 because the coloring search recurses once per
# direction on generic input and raises RecursionError near N = 1000.
RANDOM_N = 300

# ks-count: each sub-instance of integer-49 is drawn uniformly among the
# subsets with its profile's exact numbers of rays, tripods and orthogonal
# pairs.  Plain random subsets of 20-28 rays span 2k-430k search nodes, so a
# run's median would depend on which few instances the seed happened to
# draw; within one profile the node count stays within about 2x, while the
# seed still chooses the rays.  The pool is cycled so that each distinct
# instance is checked once by the oracles.  Instances of at most 22 rays are
# checked by brute force (about 1 s each at 22), so those profiles hold
# fewer instances than the larger ones.
COUNT_PROFILES = (  # (rays, tripods, pairs, instances in the pool)
    (20, 2, 23, 3),
    (21, 2, 26, 3),
    (22, 3, 29, 3),
    (23, 3, 31, 15),
    (24, 3, 33, 15),
    (25, 4, 36, 15),
    (26, 4, 39, 15),
    (27, 5, 42, 15),
    (28, 5, 45, 15),
)
COUNT_MAX_DRAWS = 100_000

WORKLOADS = ("ks-peres", "ks-random", "ks-count", "verify")


def setup() -> dict:
    """Load the bundled fixtures every workload starts from.

    This is the work ``setup_s`` times (after the interpreter has imported
    the package): after it returns, the first operation can start.
    """
    peres_path = us.fixture_path("peres33_directions.json")
    us.load_direction_file(peres_path)
    _, integer49 = us.load_ray_file(us.fixture_path("integer49_rays.json"))
    us.load_ray_file(us.fixture_path("peres33_rays.json"))
    return {"peres_path": peres_path, "integer49": integer49}


# -- seeded inputs ------------------------------------------------------------


def random_directions(seed: int, index: int) -> list[np.ndarray]:
    """The ``index``-th set of RANDOM_N uniform unit directions for ``seed``."""
    rng = np.random.default_rng([seed, index])
    v = rng.normal(size=(RANDOM_N, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return list(v)


def integer49_structure() -> tuple[np.ndarray, np.ndarray]:
    """Exact orthogonality of the integer-49 fixture, independent of the
    library: each stored unit ray is rescaled to its integer coordinates
    and orthogonality is a zero integer dot product.

    Returns the boolean adjacency matrix and the (k, 3) array of tripods.
    """
    doc = json.loads(us.fixture_path("integer49_rays.json").read_text())
    unit = np.array(doc["rays"], dtype=float)
    scale = np.array([np.min(np.abs(r[np.abs(r) > 1e-9])) for r in unit])
    scaled = unit / scale[:, None]
    ints = np.rint(scaled).astype(np.int64)
    if np.max(np.abs(scaled - ints)) > 1e-9:
        raise ValueError("integer-49 fixture rays are not integer up to scale")
    adjacency = ints @ ints.T == 0
    np.fill_diagonal(adjacency, False)
    tripods = np.array(
        [
            t
            for t in itertools.combinations(range(len(ints)), 3)
            if adjacency[t[0], t[1]] and adjacency[t[0], t[2]] and adjacency[t[1], t[2]]
        ]
    )
    return adjacency, tripods


def count_pool(seed: int) -> list[tuple[int, ...]]:
    """Seeded ks-count pool: sub-instances of every profile, as sorted index
    tuples into the integer-49 fixture, in seeded order."""
    rng = np.random.default_rng(seed)
    adjacency, tripods = integer49_structure()
    total = len(adjacency)
    pool = []
    for size, tripod_count, pair_count, instances in COUNT_PROFILES:
        for _ in range(instances):
            for _ in range(COUNT_MAX_DRAWS):
                idx = np.sort(rng.choice(total, size=size, replace=False))
                mask = np.zeros(total, dtype=bool)
                mask[idx] = True
                if (
                    int(adjacency[np.ix_(idx, idx)].sum()) // 2 == pair_count
                    and int(mask[tripods].all(axis=1).sum()) == tripod_count
                ):
                    break
            else:
                raise RuntimeError(f"no sub-instance with profile {size, tripod_count, pair_count}")
            pool.append(tuple(int(i) for i in idx))
    return [pool[k] for k in rng.permutation(len(pool))]


class Inputs:
    """Inputs of one run, made from its seed; ``get(k)`` is the k-th."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.pool = count_pool(seed) if workload == "ks-count" else None

    def get(self, k: int):
        if self.workload == "ks-random":
            return random_directions(self.seed, k)
        if self.workload == "ks-count":
            return self.pool[k % len(self.pool)]
        return None  # ks-peres and verify have fixed inputs


# -- operations ---------------------------------------------------------------


def operate(workload: str, ctx: dict, item):
    """Run one operation; returns its raw output."""
    if workload == "ks-peres":
        name, directions = us.load_direction_file(ctx["peres_path"])
        report = us.ks_pipeline(directions, us.UniformCap(PERES_EPSILON), delta=PERES_DELTA, name=name)
        return us.dumps_report(report.to_dict())
    if workload == "ks-random":
        report = us.ks_pipeline(item, us.UniformCap(PERES_EPSILON), delta=PERES_DELTA, name="random")
        return us.dumps_report(report.to_dict())
    if workload == "ks-count":
        rays = ctx["integer49"]
        instance = us.build_graph([rays[i] for i in item])
        return us.solve_coloring(instance, mode="count_all")
    if workload == "verify":
        return verify.run_verification()
    raise ValueError(f"unknown workload {workload!r}")


def summarize(workload: str, k: int, output) -> dict:
    """Compact, JSON-able record of one output for the gate (untimed)."""
    if workload == "ks-peres":
        return {"sha256": hashlib.sha256(output.encode()).hexdigest()}
    if workload == "ks-random":
        doc = json.loads(output)
        solve = doc["solve"] or {}
        coloring = solve.get("coloring") or []
        return {
            "input": k,
            "conclusion": doc["conclusion"],
            "shape": [doc["ray_count"], doc["ortho_pair_count"], doc["tripod_count"]],
            "coloring": "".join("T" if c == "AT" else "F" for c in coloring),
        }
    if workload == "ks-count":
        return {"input": k, "verdict": output.verdict, "count": output.count, "nodes": output.nodes_explored}
    if workload == "verify":
        ok, results = output
        lines = [f"{'PASS' if r['ok'] else 'FAIL'} {r['name']}: {r['detail']}" for r in results]
        return {"ok": bool(ok), "lines": lines}
    raise ValueError(f"unknown workload {workload!r}")


# -- correctness gate ---------------------------------------------------------


def _spin_matrices() -> np.ndarray:
    s = np.sqrt(0.5)
    sx = np.array([[0, s, 0], [s, 0, s], [0, s, 0]], dtype=complex)
    sy = np.array([[0, -1j * s, 0], [1j * s, 0, -1j * s], [0, 1j * s, 0]])
    sz = np.diag([1.0, 0.0, -1.0]).astype(complex)
    return np.stack([sx, sy, sz])


def eigenray_instance(directions) -> SimpleNamespace:
    """Eigenray instance of a generic direction set, built without the
    library's geometry: rays from numpy's Hermitian eigensolver on n.S, in
    the library's order (direction by direction, outcomes +1, 0, -1), and
    orthogonality at the library's tolerance."""
    dirs = np.asarray(directions, dtype=float)
    _, vecs = np.linalg.eigh(np.einsum("ka,aij->kij", dirs, _spin_matrices()))
    rays = vecs[:, :, ::-1].transpose(0, 2, 1).reshape(-1, 3)
    ortho = np.abs(rays.conj() @ rays.T) <= ks_solver.ORTHO_TOL
    np.fill_diagonal(ortho, False)
    pairs = [(int(i), int(j)) for i, j in zip(*np.nonzero(np.triu(ortho)))]
    tripods = [
        (i, j, int(k)) for i, j in pairs for k in np.nonzero(ortho[i] & ortho[j])[0] if k > j
    ]
    return SimpleNamespace(ray_count=len(rays), ortho_pairs=pairs, tripods=tripods)


def gate(workload: str, seed: int, records: list[dict], first_text: str | None) -> tuple[list[bool], list[str]]:
    """Check every operation's record.  Returns per-operation pass flags
    (a record carrying ``error`` already failed) and notes on failures."""
    notes: list[str] = []
    ok = [("error" not in r) for r in records]
    if workload == "ks-peres":
        if first_text is None:
            notes.append("ks-peres: no operation returned a report")
            return [False] * len(records), notes
        doc = json.loads(first_text)
        shape = (doc["ray_count"], doc["ortho_pair_count"], doc["tripod_count"])
        want = hashlib.sha256(first_text.encode()).hexdigest()
        if doc["conclusion"] != ks_solver.KS_CONTRADICTION or shape != PERES_SHAPE:
            notes.append(f"ks-peres: conclusion {doc['conclusion']} shape {shape}")
            ok = [False] * len(records)
        for k, r in enumerate(records):
            if ok[k] and r["sha256"] != want:
                ok[k] = False
                notes.append(f"op {k}: report bytes differ from the first operation's")
    elif workload == "ks-random":
        for k, r in enumerate(records):
            if not ok[k]:
                continue
            indep = eigenray_instance(random_directions(seed, r["input"]))
            shape = [indep.ray_count, len(indep.ortho_pairs), len(indep.tripods)]
            coloring = {i: ("AT" if c == "T" else "AF") for i, c in enumerate(r["coloring"])}
            good, violations = crosscheck.check_coloring(indep, coloring)
            if (
                r["conclusion"] != ks_solver.COLORABLE
                or r["shape"] != shape
                or shape[0] != 3 * RANDOM_N
                or not good
            ):
                ok[k] = False
                notes.append(f"op {k}: {r['conclusion']} shape {r['shape']} vs {shape}; {violations[:2]}")
    elif workload == "ks-count":
        pool = count_pool(seed)
        _, rays = us.load_ray_file(us.fixture_path("integer49_rays.json"))
        expected = {}
        for k, r in enumerate(records):
            if not ok[k]:
                continue
            slot = r["input"] % len(pool)
            if slot not in expected:
                idx = pool[slot]
                instance = ks_solver.build_graph([rays[i] for i in idx])
                sat, _ = crosscheck.dpll_solve(instance)
                count = None
                if len(idx) <= crosscheck.BRUTE_FORCE_LIMIT:
                    count, _ = crosscheck.brute_force_colorings(instance)
                shape_ok = (len(instance.tripods), len(instance.ortho_pairs)) in {
                    (t, p) for n, t, p, _ in COUNT_PROFILES if n == len(idx)
                }
                expected[slot] = (sat, count, shape_ok, r["count"])
            sat, count, shape_ok, first_count = expected[slot]
            got = r["count"] if r["verdict"] == "SAT" else 0
            if (
                not shape_ok
                or (r["verdict"] == "SAT") != sat
                or (count is not None and got != count)
                or r["count"] != first_count
            ):
                ok[k] = False
                notes.append(f"op {k}: instance {slot} gave {r['verdict']} {r['count']}; dpll sat={sat}, brute force {count}")
    elif workload == "verify":
        names = [name for name, _ in verify.ALL_CHECKS]
        reference = next((r["lines"] for r in records if "lines" in r), None)
        for k, r in enumerate(records):
            if not ok[k]:
                continue
            got_names = [line.split(":", 1)[0].split(" ", 1)[1] for line in r["lines"]]
            if not r["ok"] or r["lines"] != reference or got_names != names:
                ok[k] = False
                notes.append(f"op {k}: all_ok={r['ok']}, lines identical={r['lines'] == reference}")
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for k, r in enumerate(records):
        if "error" in r:
            notes.append(f"op {k} raised {r['error']}")
    return ok, notes
