"""Ray sets, orthogonality graphs, and exhaustive AT/AF colorability.

A measurement direction contributes an orthogonal triple of eigenrays; a
set of directions yields a finite family of rays (unit rows, real or
complex, equal up to a phase) with an orthogonality graph.  A noncontextual assignment of approximate truth
values must color every ray AT or AF so that every complete orthogonal
tripod contains exactly one AT and no orthogonal pair contains two ATs.
For spin 1 this instance is the orthogonality graph of the directions
plus one private tripod per direction, so ``ks_pipeline`` solves the
direction graph; ``eigenray_set`` builds the eigenrays as its oracle.
The solver here decides colorability by backtracking with unit
propagation on ray bitsets and can exhaustively count colorings; verdicts
are deterministic (fixed branching order) and every SAT answer is
re-validated by an independent checker.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from .crosscheck import check_coloring
from .spin_core import as_unit_directions, sharp_eigenvectors, unit_rows
from .unsharp_povm import AF, AT, Alphas, alphas_for_model, check_delta, color_assignment, condition2_check

DEDUPE_OVERLAP = 1.0 - 1e-9   # |<u,v>| at or above this means "same ray"
ORTHO_TOL = 1e-9              # |<u,v>| at or below this means "orthogonal"
OVERLAP_BLOCK_ROWS = 64       # rows of |R Rᴴ| held at a time

KS_CONTRADICTION = "KS_CONTRADICTION"
CONDITION2_FAILED = "CONDITION2_FAILED"
COLORABLE = "COLORABLE"


def _overlap_blocks(matrix: np.ndarray):
    """Yield ``(start, block)`` row blocks of the strict upper triangle
    of |R Rᴴ| for the rays in the rows of ``matrix``.

    ``block[r, c]`` is ``|<matrix[start + r], matrix[start + c]>|`` for
    ``OVERLAP_BLOCK_ROWS`` rows against every ray from ``start`` on, so
    at most ``OVERLAP_BLOCK_ROWS * n`` overlaps are held at a time.
    Entries with ``c <= r`` (not above the diagonal) are NaN, so no
    comparison selects them.
    """
    n = len(matrix)
    for start in range(0, n, OVERLAP_BLOCK_ROWS):
        rows = matrix[start:start + OVERLAP_BLOCK_ROWS]
        block = np.abs(rows.conj() @ matrix[start:].T)
        block[np.arange(len(rows))[:, None] >= np.arange(n - start)] = np.nan
        yield start, block


def canonicalize_and_dedupe(vectors) -> list[np.ndarray]:
    """Normalize and deduplicate a stack of real or complex 3-vectors.

    Each row is divided by its norm (``unit_rows``, which rejects a zero
    or non-finite row and names it) and keeps its dtype and its phase:
    real rows come out float64, complex rows complex, and a ray is a row
    up to a sign or a phase.  Rays are kept in order of first occurrence;
    two vectors are the same ray when their overlap magnitude is at
    least 1 - 1e-9, and a vector is dropped only when it is the same ray
    as an earlier *kept* one (so in a chain a≈b, b≈c with a≉c, b is
    dropped and c kept).

    Overlaps come from |R Rᴴ| in blocks of ``OVERLAP_BLOCK_ROWS`` rows, so
    at most ``OVERLAP_BLOCK_ROWS * n`` overlaps are held at a time for n
    vectors; only vectors with an earlier near-duplicate get a
    sequential pass.
    """
    if len(vectors) == 0:
        return []
    stack = np.asarray(vectors)
    if stack.ndim != 2 or stack.shape[1] != 3:
        raise ValueError(f"rays must be 3-vectors, got an array of shape {stack.shape}")
    units = unit_rows(stack)
    near_duplicates_of: dict[int, list[int]] = {}
    for start, block in _overlap_blocks(units):
        for i, j in (np.argwhere(block >= DEDUPE_OVERLAP) + start).tolist():
            near_duplicates_of.setdefault(j, []).append(i)
    kept = [True] * len(units)
    for j in sorted(near_duplicates_of):
        kept[j] = not any(kept[i] for i in near_duplicates_of[j])
    return list(units[kept])


@dataclass(frozen=True)
class KsInstance:
    """The orthogonality structure of a deduplicated set of ``ray_count`` rays.

    ``ortho_pairs`` lists index pairs (i < j) of orthogonal rays and
    ``tripods`` lists index triples (i < j < k) of mutually orthogonal
    rays; three mutually orthogonal rays always span the space.  Every
    tripod's three edges appear in ``ortho_pairs``.
    """

    ray_count: int
    ortho_pairs: tuple
    tripods: tuple


def build_graph(rays) -> KsInstance:
    """Orthogonality graph and tripod list of a deduplicated ray list.

    Pairs (i < j) with overlap magnitude at most ``ORTHO_TOL`` come in
    row-major order from |R Rᴴ|, computed in blocks of
    ``OVERLAP_BLOCK_ROWS`` rows, so at most ``OVERLAP_BLOCK_ROWS * n``
    overlaps are held at a time for n rays.  Tripods (i, j, k) extend
    each pair by every common later neighbor k > j.  Raises on the first
    pair, in row-major order, that is the same ray.
    """
    rays = np.asarray(rays) * 1.0  # integer rows as float64; float and complex rows keep their dtype
    pairs = []
    for start, block in _overlap_blocks(rays):
        same = np.argwhere(block >= DEDUPE_OVERLAP) + start
        if len(same):
            i, j = same[0].tolist()
            raise ValueError(f"rays {i} and {j} are the same ray; deduplicate first")
        pairs.extend(map(tuple, (np.argwhere(block <= ORTHO_TOL) + start).tolist()))
    later_neighbors = [set() for _ in range(len(rays))]
    for i, j in pairs:
        later_neighbors[i].add(j)
    tripods = [
        (i, j, k) for i, j in pairs for k in sorted(later_neighbors[i] & later_neighbors[j])
    ]
    return KsInstance(len(rays), tuple(pairs), tuple(tripods))


def eigenray_set(directions) -> list[np.ndarray]:
    """Shared eigenrays of the (sharp and unsharp) observables of a
    direction set, deduplicated: ``ks_pipeline``'s oracle.

    Per direction these are the three complex eigenrays of the
    directional spin observable, ``sharp_eigenvectors`` in the order
    (+1, 0, -1), with no phase fixed; the unsharp effects have the same
    eigenrays, and taking them from the sharp triple keeps the choice
    deterministic even though the outcome-0 effect is spectrally
    degenerate.  Note the directions themselves are generally not among
    the rays.  Near-parallel or near-antipodal directions with
    1e-9 < 1 - |n.n'| <= 2e-9 have their +-1 rays merged but their
    0-rays kept apart, which splits the second eigenbasis; there
    ``ks_pipeline``, which keeps both, is the reference.
    """
    # rows (+1, 0, -1) per direction, in direction order
    vectors = np.stack(sharp_eigenvectors(as_unit_directions(directions)), axis=1).reshape(-1, 3)
    return canonicalize_and_dedupe(vectors)


@dataclass(frozen=True)
class SolveResult:
    """Outcome of a colorability search.

    ``verdict`` is "SAT" or "UNSAT".  SAT results carry a verified
    coloring (ray index -> AT/AF) and, in count_all mode, the exact number
    of valid colorings, summed over the search's leaves, each counted
    from the components of the tripod-free rays (see ``_Search``).  Both
    modes return the same coloring.  ``nodes_explored`` (branch nodes
    tried) and ``max_depth`` (deepest decision path) count tripod
    decisions only, never one node per counted coloring.
    """

    verdict: str
    coloring: dict | None = None
    count: int | None = None
    nodes_explored: int = 0
    max_depth: int = 0

    @property
    def is_sat(self) -> bool:
        return self.verdict == "SAT"


class _Search:
    """Backtracking search with unit propagation on ray bitsets.

    Ray r is bit ``1 << r``.  ``neighbors[r]`` is the mask of r's
    orthogonality neighbors, ``tripods_of[r]`` lists the member masks of
    r's tripods, and the whole search state is the two masks ``at`` and
    ``af``.  A decision frame saves the pair, so undoing a decision is one
    assignment.

    Propagation is unit propagation on the coloring clauses: an AT ray
    makes its neighbors AF (two orthogonal ATs are a contradiction), and
    a tripod whose AF members leave one ray forces that ray AT (three AF
    members are a contradiction).  A tripod's two ATs are also two
    orthogonal ATs, since every tripod edge is an orthogonal pair.  These
    rules only add colors, so the closure they reach, and whether it
    holds a contradiction, does not depend on the order they fire in.

    Branching picks the first unsatisfied tripod with the fewest uncolored
    members and tries AT before AF on its lowest uncolored ray.  After
    propagation an unsatisfied tripod has at most one AF member, so the
    first tripod with one is taken at once, and otherwise the first
    unsatisfied tripod.

    A node where every tripod holds its AT is a leaf.  Only tripod rays
    are branched on or forced AT, and each tripod's AT has forced its two
    partners AF, so every tripod ray is colored.  A tripod-free ray is
    never AT, and it is AF exactly when it is orthogonal to an AT.  So the
    leaf's uncolored rays are the tripod-free rays minus the neighbors of
    the ATs; the only constraint left is "no two orthogonal ATs" among
    them, and the leaf's colorings are the independent sets of the graph
    they induce.  A leaf removes from a component of the tripod-free rays
    only boundary rays, those orthogonal to a tripod ray, so count_all
    splits the tripod-free rays into components once and counts each leaf
    from them (``_leaf_count``, one memo per component for all leaves)
    instead of branching further: ``nodes`` and ``max_depth`` count tripod
    decisions only.  The first leaf's coloring colors the uncolored rays
    AF in both modes.
    """

    def __init__(self, instance: KsInstance, count_all: bool):
        self.ray_count = n = instance.ray_count
        self.count_all = count_all
        self.neighbors = neighbors = [0] * n
        for i, j in instance.ortho_pairs:
            neighbors[i] |= 1 << j
            neighbors[j] |= 1 << i
        self.tripods = [(1 << i) | (1 << j) | (1 << k) for i, j, k in instance.tripods]
        self.tripods_of = [[] for _ in range(n)]
        for mask, tripod in zip(self.tripods, instance.tripods):
            for i in tripod:
                self.tripods_of[i].append(mask)
        self.at = self.af = 0
        self.nodes = 0
        self.max_depth = 0
        self.count = 0
        self.first_solution: dict | None = None
        if not count_all:
            return
        # Components of the tripod-free rays, flooded breadth-first from
        # each lowest ray: (position mask, closed neighborhoods, boundary
        # (ray, position) bits, memo of counts by position mask), in
        # breadth-first positions, which keep the memo's masks few.
        tripod_rays = 0
        for mask in self.tripods:
            tripod_rays |= mask
        rest = ((1 << n) - 1) & ~tripod_rays
        self.lone = 0  # tripod-free rays orthogonal to no other
        self.components = []
        while rest:
            root = rest & -rest
            order, component = [root.bit_length() - 1], root
            for ray in order:
                new = neighbors[ray] & rest & ~component
                component |= new
                while new:
                    low = new & -new
                    new ^= low
                    order.append(low.bit_length() - 1)
            rest ^= component
            if component == root:
                self.lone |= root
                continue
            position = {1 << ray: 1 << k for k, ray in enumerate(order)}
            closed = []
            for k, ray in enumerate(order):
                bits, around = 1 << k, neighbors[ray] & component
                while around:
                    low = around & -around
                    around ^= low
                    bits |= position[low]
                closed.append(bits)
            boundary = [(1 << ray, 1 << k) for k, ray in enumerate(order) if neighbors[ray] & tripod_rays]
            self.components.append(((1 << len(order)) - 1, closed, boundary, {0: 1}))

    def _propagate(self, ray: int, color: str) -> bool:
        """Color ``ray`` and propagate to closure; the state changes only
        if no contradiction arises, and then True is returned."""
        at, af = self.at, self.af
        new_at, new_af = (1 << ray, 0) if color == AT else (0, 1 << ray)
        while True:
            af |= new_af
            while new_af:
                low = new_af & -new_af
                new_af ^= low
                for mask in self.tripods_of[low.bit_length() - 1]:
                    rest = mask & ~af
                    if not rest:
                        return False
                    if not rest & (rest - 1):
                        new_at |= rest
            new_at &= ~at
            if not new_at:
                break
            at |= new_at
            while new_at:
                low = new_at & -new_at
                new_at ^= low
                around = self.neighbors[low.bit_length() - 1]
                if around & at:
                    return False
                new_af |= around
            new_af &= ~af
        self.at, self.af = at, af
        return True

    def _pick_branch_ray(self) -> int | None:
        at, af = self.at, self.af
        pick = 0
        for mask in self.tripods:
            if not mask & at:
                if mask & af:
                    pick = mask & ~af
                    break
                pick = pick or mask
        return (pick & -pick).bit_length() - 1 if pick else None

    def _leaf_count(self) -> int:
        """Colorings that complete a leaf: 2 per uncolored lone ray times,
        per component, the independent sets of its uncolored rays.

        A component's uncolored rays are its rays minus its colored
        boundary rays, at position mask S.  Its memo is looked up by S; on
        a miss, S is counted by I(S) = I(S - v) + I(S - N[v]), v the first
        breadth-first position in S, on an explicit stack.
        """
        free = ~(self.at | self.af)
        total = 1 << (free & self.lone).bit_count()
        for full, closed, boundary, memo in self.components:
            start = full
            for ray, bit in boundary:
                if not free & ray:
                    start ^= bit
            count = memo.get(start)
            if count is None:
                stack = [start]
                while stack:
                    s = stack[-1]
                    low = s & -s
                    without, away = s ^ low, s & ~closed[low.bit_length() - 1]
                    if without not in memo:
                        stack.append(without)
                    elif away not in memo:
                        stack.append(away)
                    else:
                        memo[s] = memo[without] + memo[away]
                        stack.pop()
                count = memo[start]
            total *= count
        return total

    def run(self) -> bool:
        """Depth-first search on an explicit stack, so the depth is not
        bounded by the interpreter's recursion limit; returns True to stop
        early (SAT found and not counting)."""
        frames: list[tuple] = []  # (ray, color, at, af before it) per decision on the path
        while True:
            ray = self._pick_branch_ray()
            if ray is None:
                # Every tripod has its AT: a leaf (see the class docstring).
                if self.first_solution is None:
                    self.first_solution = dict.fromkeys(range(self.ray_count), AF)
                    at = self.at
                    while at:
                        low = at & -at
                        at ^= low
                        self.first_solution[low.bit_length() - 1] = AT
                if not self.count_all:
                    return True
                self.count += self._leaf_count()
                color = None
            else:
                color = AT
            # Descend on the first color that propagates; with none left
            # here, undo the deepest decision and try its next color.
            while True:
                if color is None:
                    if not frames:
                        return False
                    ray, color, self.at, self.af = frames.pop()
                else:
                    self.nodes += 1
                    saved = (self.at, self.af)
                    if self._propagate(ray, color):
                        frames.append((ray, color, *saved))
                        self.max_depth = max(self.max_depth, len(frames))
                        break
                color = AF if color == AT else None


def solve_coloring(instance: KsInstance, mode: str = "first_solution") -> SolveResult:
    """Decide AT/AF colorability of a ray instance.

    Constraints: exactly one AT in every tripod, at most one AT in every
    orthogonal pair.  Modes: ``first_solution`` stops at the first valid
    coloring, ``count_all`` exhausts the space and reports the exact
    number of valid colorings (an exhausted search is the UNSAT
    certificate in either mode).  Both branch on tripods only; at a leaf,
    where every tripod holds its AT, count_all adds the number of
    independent sets of the graph on the uncolored, tripod-free rays, so
    ``nodes_explored`` and ``max_depth`` count tripod decisions only.
    Both modes return the same coloring, with leftover rays AF.

    SAT results are re-validated with the independent constraint checker
    before being returned; UNSAT is only reported after the search space
    is exhausted.
    """
    if mode not in ("first_solution", "count_all"):
        raise ValueError(f"unknown mode {mode!r}")
    search = _Search(instance, count_all=(mode == "count_all"))
    search.run()
    if search.first_solution is None:
        return SolveResult(
            "UNSAT", nodes_explored=search.nodes, max_depth=search.max_depth
        )
    ok, violations = check_coloring(instance, search.first_solution)
    if not ok:
        raise RuntimeError(
            f"solver returned a coloring that fails the independent check: {violations}"
        )
    return SolveResult(
        "SAT",
        coloring=search.first_solution,
        count=search.count if mode == "count_all" else None,
        nodes_explored=search.nodes,
        max_depth=search.max_depth,
    )


@dataclass(frozen=True)
class KsReport:
    """Full verdict for a direction set, misalignment model and tolerance.

    ``conclusion`` is KS_CONTRADICTION when the separation condition holds
    and the eigenray instance is non-colorable, CONDITION2_FAILED when the
    model is too unsharp for the tolerance (no colorability claim is made),
    and COLORABLE when a valid coloring exists.  Counts and coloring are
    the eigenray instance's (of ``eigenray_set``, except in the band its
    docstring names); ``solve`` counts direction-graph decisions.
    """

    name: str
    delta: float
    model_description: str
    alphas: Alphas
    condition2_ok: bool
    condition2_margins: dict
    ray_count: int
    ortho_pair_count: int
    tripod_count: int
    solve: SolveResult | None
    conclusion: str

    def to_dict(self) -> dict:
        """Plain-dict form with stable key order, for report files."""
        solve = None
        if self.solve is not None:
            coloring = None
            if self.solve.coloring is not None:
                coloring = [self.solve.coloring[i] for i in sorted(self.solve.coloring)]
            solve = {
                "verdict": self.solve.verdict,
                "nodes_explored": self.solve.nodes_explored,
                "max_depth": self.solve.max_depth,
                "count": self.solve.count,
                "coloring": coloring,
            }
        return {
            "name": self.name,
            "delta": self.delta,
            "model": self.model_description,
            "alphas": asdict(self.alphas),
            "condition2": {"ok": self.condition2_ok, "margins": self.condition2_margins},
            "ray_count": self.ray_count,
            "ortho_pair_count": self.ortho_pair_count,
            "tripod_count": self.tripod_count,
            "solve": solve,
            "conclusion": self.conclusion,
        }


def ks_pipeline(directions, model, delta: float, name: str = "ks-check") -> KsReport:
    """End-to-end check that a direction set admits no noncontextual
    assignment of approximate truth values.

    Computes the effect eigenvalues of the model and checks the
    separation condition for ``delta`` (if it fails, no claim about
    colorability can be made and the report says so).  Then it searches
    the orthogonality graph of the directions, deduplicated up to sign
    (a unit vector is a ray): with one private tripod per direction this
    is the eigenray instance, of 3N' rays, 3N' + E pairs and N' + T
    tripods for N' directions, E orthogonal pairs and T orthogonal triads.
    A coloring of the directions is lifted onto their eigenrays by the one
    color rule, ``color_assignment``: a direction's 0-ray takes its color,
    so an AT direction's rays get the colors after outcome 0 and an AF
    direction's those after outcome +1; under a passing condition these
    are (AF, AT, AF) and (AT, AF, AF) on the (+1, 0, -1) rays.
    """
    units = as_unit_directions(directions)
    alphas = alphas_for_model(model)
    delta = check_delta(delta)
    ok, margins = condition2_check(alphas, delta)
    counts, result, conclusion = (0, 0, 0), None, CONDITION2_FAILED
    if ok:
        graph = build_graph(canonicalize_and_dedupe(units))
        kept = graph.ray_count
        counts = (3 * kept, 3 * kept + len(graph.ortho_pairs), kept + len(graph.tripods))
        result = solve_coloring(graph, mode="first_solution")
        if result.is_sat:  # rays 3d, 3d+1, 3d+2: the +1, 0, -1 rays of direction d
            lift = {AT: color_assignment(alphas, delta, 0), AF: color_assignment(alphas, delta, 1)}
            coloring = {
                3 * d + k: ray_color
                for d, color in result.coloring.items()
                for k, ray_color in enumerate(lift[color])
            }
            result = replace(result, coloring=coloring)
        conclusion = COLORABLE if result.is_sat else KS_CONTRADICTION
    return KsReport(
        name=name,
        delta=delta,
        model_description=model.describe(),
        alphas=alphas,
        condition2_ok=ok,
        condition2_margins=margins,
        ray_count=counts[0],
        ortho_pair_count=counts[1],
        tripod_count=counts[2],
        solve=result,
        conclusion=conclusion,
    )
